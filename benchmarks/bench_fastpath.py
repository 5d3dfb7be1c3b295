"""Fast path — table-driven VLC + two-phase batched reconstruction.

Decodes the same 1080p-class synthetic stream through both reconstruction
engines of the sequential decoder and records the stage split (parse vs.
plan vs. execute), throughput in macroblocks/s and frames/s, and two
speedups to ``BENCH_fastpath.json`` at the repo root:

- ``reconstruct_speedup`` — per-macroblock reference vs. batched engine;
- ``parse_speedup`` — the object parser on the bit-at-a-time reference
  VLC vs. the fused columnar parse (both decoding the batched path).

Both fast paths must be *bit-identical* to their reference — this bench
asserts it on every run, so the committed baseline numbers always
correspond to an output-equivalent configuration.

Run either under pytest-benchmark with the other tables/figures or
directly: ``PYTHONPATH=src python benchmarks/bench_fastpath.py``.
CI runs the smoke variant ``--frames 3 --small`` (I, P and B pictures)
under a time budget.
"""

import argparse
import json
import time
from pathlib import Path

from repro.mpeg2 import fast_vlc
from repro.mpeg2.decoder import Decoder
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.workloads.synthetic import GENERATORS

WIDTH, HEIGHT, N_FRAMES = 1920, 1088, 4
SMALL_WIDTH, SMALL_HEIGHT = 640, 384
GOP_SIZE, B_FRAMES = 4, 1
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"


def run_fastpath(width: int = WIDTH, height: int = HEIGHT, n_frames: int = N_FRAMES) -> dict:
    frames = GENERATORS["pattern"](width, height, n_frames, seed=0)
    stream = Encoder(
        EncoderConfig(gop_size=GOP_SIZE, b_frames=B_FRAMES, search_range=3)
    ).encode(frames)
    n_mb = (width // 16) * (height // 16) * n_frames

    report = {
        "stream": {
            "width": width,
            "height": height,
            "frames": n_frames,
            "gop_size": GOP_SIZE,
            "b_frames": B_FRAMES,
            "bytes": len(stream),
            "macroblocks": n_mb,
        },
        "modes": {},
    }
    outputs = {}

    def measure(name, batch, reference_vlc=False):
        dec = Decoder(batch_reconstruct=batch)
        t0 = time.perf_counter()
        if reference_vlc:
            with fast_vlc.use_reference():
                outputs[name] = dec.decode(stream)
        else:
            outputs[name] = dec.decode(stream)
        wall = time.perf_counter() - t0
        st = dec.stage_times
        report["modes"][name] = {
            "parse_s": round(st.parse, 4),
            "plan_s": round(st.plan, 4),
            "execute_s": round(st.execute, 4),
            "reconstruct_s": round(st.reconstruct, 4),
            "wall_s": round(wall, 4),
            "reconstruct_mb_per_s": round(n_mb / st.reconstruct, 1),
            "frames_per_s": round(n_frames / wall, 2),
        }

    measure("per_macroblock", batch=False)
    measure("batched", batch=True)
    measure("batched_reference_vlc", batch=True, reference_vlc=True)

    ref, bat = outputs["per_macroblock"], outputs["batched"]
    refvlc = outputs["batched_reference_vlc"]
    report["bit_identical"] = (
        len(ref) == len(bat) == len(refvlc)
        and all(a == b for a, b in zip(ref, bat))
        and all(a == b for a, b in zip(bat, refvlc))
    )
    report["reconstruct_speedup"] = round(
        report["modes"]["per_macroblock"]["reconstruct_s"]
        / report["modes"]["batched"]["reconstruct_s"],
        2,
    )
    report["parse_speedup"] = round(
        report["modes"]["batched_reference_vlc"]["parse_s"]
        / report["modes"]["batched"]["parse_s"],
        2,
    )
    return report


def _check(report: dict) -> None:
    assert report["bit_identical"], "fast path output diverged from reference"
    # Regression guards only — the committed baseline documents the real
    # margins (>= 3x reconstruct, >= 2x parse on the full-size stream); a
    # loaded CI box still must beat 1x.
    assert report["reconstruct_speedup"] > 1.0
    assert report["parse_speedup"] > 1.0


def test_fastpath(benchmark):
    from conftest import print_table, run_once

    report = run_once(benchmark, run_fastpath)
    _check(report)
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print_table(
        f"Fast path ({WIDTH}x{HEIGHT}, {N_FRAMES} frames)",
        ["mode", "parse", "plan", "execute", "reconstruct", "MB/s", "fps"],
        [
            (
                name,
                f"{m['parse_s']:.2f} s",
                f"{m['plan_s']:.2f} s",
                f"{m['execute_s']:.2f} s",
                f"{m['reconstruct_s']:.2f} s",
                f"{m['reconstruct_mb_per_s']:.0f}",
                f"{m['frames_per_s']:.2f}",
            )
            for name, m in report["modes"].items()
        ],
    )
    print(f"reconstruct speedup: {report['reconstruct_speedup']}x")
    print(f"parse speedup: {report['parse_speedup']}x")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=N_FRAMES, help="frames to encode/decode")
    ap.add_argument(
        "--small",
        action="store_true",
        help=f"use a {SMALL_WIDTH}x{SMALL_HEIGHT} raster (CI smoke) instead of {WIDTH}x{HEIGHT}",
    )
    ap.add_argument("--out", type=Path, default=OUT_PATH, help="output JSON path")
    args = ap.parse_args()

    w, h = (SMALL_WIDTH, SMALL_HEIGHT) if args.small else (WIDTH, HEIGHT)
    result = run_fastpath(w, h, args.frames)
    _check(result)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
