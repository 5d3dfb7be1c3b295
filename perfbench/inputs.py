"""Benchmark inputs and oracles: a GOP bank per workload, clips per seed.

Encoding is far too slow to run per iteration (a 1080p IBBP picture
costs several seconds), so each workload owns a small *bank* of closed
GOPs, encoded once per checkout from fixed content seeds.  A run's clip
is a seed-chosen sequence of bank GOPs spliced into one elementary
stream.  Closed GOPs carry no reference across their boundary, so the
sequential decode of a clip is the concatenation of the per-GOP decodes;
the bank therefore stores each GOP's oracle output once and composes the
oracle of any clip from it.  The composition is proven once per bank
against the repository's own oracles (``decode_stream``,
``clean_decode_digest`` and ``tile_decode_digest``) on a spliced clip.

Generation time is recorded in the bank's ``build.json`` and reported on
its own line; it never enters a metric.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

BANK_VERSION = "bank-v1"
SEQ_END = b"\x00\x00\x01\xb7"
GOP_START = b"\x00\x00\x01\xb8"

#: Bank recipes.  ``frames`` pictures are encoded as one closed GOP per
#: variant; variants differ in content seed (and motion) but not in cost
#: class, so a clip's cost barely depends on which variants it draws.
BANKS: Dict[str, Dict] = {
    "cluster": {
        "width": 1920, "height": 1088, "generator": "pattern", "frames": 12,
        "encoder": {"gop_size": 12, "b_frames": 2},
        "variants": [{"seed": 1, "speed": 3}, {"seed": 2, "speed": 4}],
        "fps": 30.0,
    },
    "service": {
        "width": 640, "height": 352, "generator": "pattern", "frames": 12,
        "encoder": {"gop_size": 12, "b_frames": 2},
        "variants": [
            {"seed": 11, "speed": 2}, {"seed": 12, "speed": 3},
            {"seed": 13, "speed": 4}, {"seed": 14, "speed": 5},
        ],
        "fps": 4.0,
    },
    "wall": {
        "width": 1920, "height": 1088, "generator": "detail", "frames": 6,
        "encoder": {
            "gop_size": 6, "b_frames": 0,
            "qscale_code_intra": 4, "qscale_code_inter": 5,
        },
        "variants": [
            {"seed": 21, "center": [0.45, 0.5]}, {"seed": 22, "center": [0.55, 0.5]},
        ],
        "fps": 30.0,
    },
}

#: The wall workload's projector grid (cols x rows).
WALL_GRID = (2, 1)


def _frames_for(bank: Dict, variant: Dict):
    from repro.workloads.synthetic import localized_detail_frames, moving_pattern_frames

    w, h, n = bank["width"], bank["height"], bank["frames"]
    if bank["generator"] == "pattern":
        return moving_pattern_frames(w, h, n, speed=variant["speed"], seed=variant["seed"])
    return localized_detail_frames(
        w, h, n, center=tuple(variant["center"]), radius_frac=0.35, seed=variant["seed"]
    )


def encode_variant(name: str, index: int) -> bytes:
    """Encode one bank GOP."""
    from repro.mpeg2.encoder import Encoder, EncoderConfig

    bank = BANKS[name]
    frames = _frames_for(bank, bank["variants"][index])
    cfg = EncoderConfig(fps=bank["fps"], **bank["encoder"])
    return Encoder(cfg).encode(frames)


def encode_all(jobs: Sequence[Tuple[str, int]], out: Path, workers: int = 2):
    """Encode ``jobs`` in at most ``workers`` child processes at a time.

    Each job is one ``python3 -m perfbench.inputs NAME INDEX OUT`` child,
    waited for before this returns (killed and waited for on any error),
    so the build leaves no process behind.  Returns ``{(name, i): bytes}``.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out.mkdir(parents=True, exist_ok=True)
    pending = list(jobs)
    running: List[Tuple[subprocess.Popen, Tuple[str, int]]] = []
    try:
        while pending or running:
            while pending and len(running) < workers:
                name, i = job = pending.pop(0)
                cmd = [sys.executable, "-m", "perfbench.inputs", name, str(i),
                       str(out / f"{name}{i}.m2v")]
                running.append((subprocess.Popen(cmd, cwd=str(root), env=env), job))
            time.sleep(0.2)
            for proc, job in list(running):
                rc = proc.poll()
                if rc is None:
                    continue
                running.remove((proc, job))
                if rc != 0:
                    raise RuntimeError(f"encoding {job} failed with exit code {rc}")
    finally:
        for proc, _job in running:
            proc.kill()
            proc.wait()
    return {(n, i): (out / f"{n}{i}.m2v").read_bytes() for n, i in jobs}


def splice(gops: Sequence[bytes]) -> bytes:
    """Join standalone closed-GOP streams into one elementary stream.

    The first stream keeps its sequence header; every later one
    contributes its bytes from the GOP header up to its sequence end.
    """
    out = bytearray()
    head = None
    for g in gops:
        if not g.endswith(SEQ_END):
            raise ValueError("bank GOP lacks a sequence end code")
        cut = g.find(GOP_START)
        if cut < 0:
            raise ValueError("bank GOP lacks a GOP header")
        if head is None:
            head = g[:cut]
            out += g[:-4]
        else:
            if g[:cut] != head:
                raise ValueError("bank GOPs disagree on the sequence header")
            out += g[cut:-4]
    out += SEQ_END
    return bytes(out)


def frame_digest(frame) -> str:
    """SHA-256 of one frame's planes (the per-picture equality oracle)."""
    from repro.service.session import _digest_frame

    h = hashlib.sha256()
    _digest_frame(h, frame)
    return h.hexdigest()


def mismatches(frames, oracle: Sequence[str]) -> int:
    """Pictures missing from ``frames`` or not bit-identical to ``oracle``."""
    got = [frame_digest(f) for f in frames]
    return sum(g != o for g, o in zip(got, oracle)) + abs(len(oracle) - len(got))


class Bank:
    """One workload's encoded GOPs and their sequential-decode oracles."""

    def __init__(self, root: Path, name: str):
        self.name = name
        self.dir = root / name
        self.manifest = json.loads((self.dir / "manifest.json").read_text())
        self.gops: List[bytes] = [
            (self.dir / f"gop{i}.m2v").read_bytes()
            for i in range(len(BANKS[name]["variants"]))
        ]
        self._frames: Dict[int, Dict[str, np.ndarray]] = {}

    @property
    def digests(self) -> List[List[str]]:
        return self.manifest["frame_digests"]

    @property
    def gop_len(self) -> int:
        return len(self.digests[0])

    def frames(self, index: int) -> Dict[str, np.ndarray]:
        """Decoded display-order planes of GOP ``index`` (stacked arrays)."""
        if index not in self._frames:
            with np.load(self.dir / f"frames{index}.npz") as z:
                self._frames[index] = {k: z[k] for k in ("y", "cb", "cr")}
        return self._frames[index]

    def order(self, seed: int, n_gops: int, salt: int = 0) -> List[int]:
        """Seed-chosen GOP order: every variant as evenly as possible."""
        k = len(self.gops)
        seq = [i % k for i in range(n_gops)]
        random.Random(f"{self.name}:{seed}:{salt}").shuffle(seq)
        return seq

    def clip(self, order: Sequence[int]) -> bytes:
        return splice([self.gops[i] for i in order])

    def clip_digests(self, order: Sequence[int]) -> List[str]:
        """Per-picture oracle digests of ``clip(order)``, display order."""
        return [d for i in order for d in self.digests[i]]

    def clip_frames(self, order: Sequence[int]):
        """The sequential decode of ``clip(order)``, display order."""
        from repro.mpeg2.frames import Frame

        for i in order:
            f = self.frames(i)
            for t in range(len(f["y"])):
                yield Frame(f["y"][t], f["cb"][t], f["cr"][t])

    def whole_digest(self, order: Sequence[int]) -> str:
        """``clean_decode_digest`` of ``clip(order)``, composed."""
        from repro.service.session import _digest_frame

        h = hashlib.sha256()
        for frame in self.clip_frames(order):
            _digest_frame(h, frame)
        return h.hexdigest()

    def tile_digest(self, order: Sequence[int], part) -> str:
        """``tile_decode_digest`` of ``clip(order)`` for one partition."""
        from repro.wall.receiver import _digest_crop

        h = hashlib.sha256()
        for frame in self.clip_frames(order):
            _digest_crop(h, frame, part)
        return h.hexdigest()


def wall_layout(width: int, height: int):
    from repro.wall.config import WallSpec

    return WallSpec(cols=WALL_GRID[0], rows=WALL_GRID[1], name="bench").to_layout(
        width, height
    )


def _build(root: Path, log) -> None:
    """Encode every bank, decode the oracles, prove the composition."""
    from repro.mpeg2 import decode_stream
    from repro.service.session import clean_decode_digest
    from repro.wall.receiver import tile_decode_digest

    t0 = time.perf_counter()
    tmp = root.with_name(root.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    jobs = [(n, i) for n in BANKS for i in range(len(BANKS[n]["variants"]))]
    # Longest jobs first so the two workers finish together.
    jobs.sort(key=lambda j: -BANKS[j[0]]["width"] * BANKS[j[0]]["frames"])
    log(f"generating input bank: {len(jobs)} GOPs on 2 processes")
    streams = encode_all(jobs, tmp / "encoded")
    shutil.rmtree(tmp / "encoded")
    encode_s = time.perf_counter() - t0
    for name, bank in BANKS.items():
        d = tmp / name
        d.mkdir(parents=True)
        digests = []
        for i in range(len(bank["variants"])):
            data = streams[(name, i)]
            (d / f"gop{i}.m2v").write_bytes(data)
            frames = decode_stream(data)
            if len(frames) != bank["frames"]:
                raise RuntimeError(f"{name} GOP {i}: {len(frames)} frames decoded")
            digests.append([frame_digest(f) for f in frames])
            np.savez(
                d / f"frames{i}.npz",
                y=np.stack([f.y for f in frames]),
                cb=np.stack([f.cb for f in frames]),
                cr=np.stack([f.cr for f in frames]),
            )
        (d / "manifest.json").write_text(json.dumps({"frame_digests": digests}))
        # Prove clip oracle == composition of GOP oracles, on a clip that
        # crosses a GOP boundary both ways.
        b = Bank(tmp, name)
        order = [0, 1, 0] if len(b.gops) > 1 else [0, 0]
        clip = b.clip(order)
        got = [frame_digest(f) for f in decode_stream(clip)]
        if got != b.clip_digests(order):
            raise RuntimeError(f"{name}: spliced clip does not decode as its GOPs")
        if name == "service" and clean_decode_digest(clip) != b.whole_digest(order):
            raise RuntimeError("service: composed digest != clean_decode_digest")
        if name == "wall":
            layout = wall_layout(bank["width"], bank["height"])
            for tile in layout:
                if tile_decode_digest(clip, layout, tile.tid) != b.tile_digest(
                    order, tile.partition
                ):
                    raise RuntimeError("wall: composed digest != tile_decode_digest")
    build_s = time.perf_counter() - t0
    (tmp / "build.json").write_text(
        json.dumps({"encode_s": round(encode_s, 3), "build_s": round(build_s, 3)})
    )
    shutil.rmtree(root, ignore_errors=True)
    tmp.rename(root)
    log(f"input bank ready in {build_s:.1f} s (encode {encode_s:.1f} s)")


def bank_root(cache: Path) -> Path:
    return cache / BANK_VERSION


def ensure_banks(cache: Path, log) -> Dict[str, float]:
    """Build every bank once per checkout; returns the recorded build times."""
    root = bank_root(cache)
    if not (root / "build.json").exists():
        root.parent.mkdir(parents=True, exist_ok=True)
        _build(root, log)
    return json.loads((root / "build.json").read_text())


def load(cache: Path, name: str) -> Bank:
    return Bank(bank_root(cache), name)


if __name__ == "__main__":
    # One encode job of ``encode_all``: NAME INDEX OUT.
    _name, _index, _out = sys.argv[1:4]
    Path(_out).write_bytes(encode_variant(_name, int(_index)))
