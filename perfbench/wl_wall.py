"""Workload ``wall_1080p_intra``: one broadcast, two projector processes.

Closed loop: an in-process ``WallBroadcaster`` free-runs a 1920x1088 clip
of high-bit-rate ``detail`` content with I/P-only closed GOPs to two
receiver processes of a 2x1 ``WallSpec`` (the stream fan-out blocks on a
full subscriber socket, so the slowest receiver paces the sender).  Each
receiver VLC-parses the whole picture but reconstructs only its tile, so
the entropy layer dominates, and MC, plan shipping and MEI do almost
nothing — the opposite balance to the cluster workload.

End-to-end (tracing off):

- ``setup_s`` — median receiver launch until ``wait_subscribers`` returns;
- ``decode_s`` — first ``publish_picture`` until the last tile shows its
  last frame;
- ``fps`` — the slowest tile's displayed pictures/s: one over the median
  interval between its displayed frames, so a passing stall of the
  host does not move it;
- ``first_frame_s`` — first ``publish_picture`` until every tile has shown
  a frame;
- ``latency_*`` — per tile and picture, publish to display.
"""

from __future__ import annotations

import hashlib
import json
import queue
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List
from unittest import mock

from perfbench import inputs
from perfbench.common import Report, Tracer, latency_metrics, short_dir

HERE = Path(__file__).resolve().parent
SETUP_TRIALS = 3
EXPECTED_FPS = 2.4  # sizes the clip so a run lasts about --seconds


def _spec():
    from repro.wall.config import WallSpec

    return WallSpec(cols=inputs.WALL_GRID[0], rows=inputs.WALL_GRID[1], name="bench")


def _launch(control: Path, tid: int, out: Path, log: Path) -> subprocess.Popen:
    with open(log, "wb") as fh:
        return subprocess.Popen(
            [sys.executable, str(HERE / "wall_rx.py"), "--control", str(control),
             "--tid", str(tid), "--out", str(out)],
            stdout=fh, stderr=subprocess.STDOUT,
        )


def _reap(procs: List[subprocess.Popen], timeout: float) -> None:
    deadline = time.monotonic() + timeout
    for p in procs:
        try:
            p.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def _n_tiles() -> int:
    return inputs.WALL_GRID[0] * inputs.WALL_GRID[1]


def run(ctx, rep: Report) -> None:
    from repro.wall.broadcast import WallBroadcaster

    bank = inputs.load(ctx.cache, "wall")
    n_gops = max(2, round(ctx.seconds * EXPECTED_FPS / bank.gop_len))
    order = bank.order(ctx.seed, n_gops)
    clip = bank.clip(order)
    n = n_gops * bank.gop_len
    tiles = range(_n_tiles())
    rep.info(f"clip: {n} pictures 1920x1088 I/P, GOP order {order}")

    # Every trial launches both receivers; the last one also plays the clip.
    setups = []
    for trial in range(SETUP_TRIALS):
        final = trial == SETUP_TRIALS - 1
        rundir = short_dir(ctx.work, "w")
        bc = WallBroadcaster(clip, _spec(), ("unix", str(rundir / "b.sock")))
        procs: List[subprocess.Popen] = []
        try:
            t0 = time.perf_counter()
            for t in tiles:
                procs.append(_launch(
                    rundir / "b.sock", t, rundir / f"rx{t}.json", rundir / f"rx{t}.log"
                ))
            bc.sender.wait_subscribers(len(procs), timeout=60.0)
            setups.append(time.perf_counter() - t0)
            if final:
                bc.publish_sequence()
                t_pub = []
                for i in range(n):
                    t_pub.append(time.monotonic())
                    bc.publish_picture(i)
                bc.publish_end()
                _reap(procs, timeout=60.0 + 4 * ctx.seconds)
        finally:
            bc.close()
            _reap(procs, timeout=15.0)
        if not final:
            shutil.rmtree(rundir, ignore_errors=True)
    results = {}
    for t in tiles:
        f = rundir / f"rx{t}.json"
        results[t] = json.loads(f.read_text()) if f.exists() else None

    layout = inputs.wall_layout(inputs.BANKS["wall"]["width"], inputs.BANKS["wall"]["height"])
    firsts, lasts, fps, lat = [], [], [], []
    displayed = 0
    for t in tiles:
        rep.attempted += n
        res = results[t]
        if res is None:
            rep.failed += n
            continue
        summ, shown = res["summary"], res["shown"]
        want = bank.tile_digest(order, layout.tile(t).partition)
        if summ["state"] != "done" or summ["digest"] != want:
            rep.failed += n
            continue
        rep.failed += n - len(shown)
        displayed += len(shown)
        firsts.append(shown[0][1] - t_pub[0])
        lasts.append(shown[-1][1] - t_pub[0])
        fps.append(1.0 / median(b[1] - a[1] for a, b in zip(shown, shown[1:])))
        lat += [ts - t_pub[idx] for idx, ts in shown]
    shutil.rmtree(rundir, ignore_errors=True)

    offered = n * _n_tiles()
    if setups and lasts:
        rep.metric("setup_s", median(setups), "s",
                   f"median of {len(setups)} receiver launches")
        rep.metric("decode_s", max(lasts), "s", f"{n} pictures to {len(firsts)} tiles")
        rep.metric("fps", min(fps), "1/s", "slowest tile, 1 / median display interval")
        rep.metric("first_frame_s", max(firsts), "s", "every tile has shown a frame")
        latency_metrics(rep, lat)
    rep.info(f"drop_ratio {(offered - displayed) / offered:.4f} ({offered - displayed}/{offered} not displayed)")
    rep.info("late_ratio n/a (free-running, no presentation clock)")


# --------------------------------------------------------------------- #
# traced replay
# --------------------------------------------------------------------- #


def replay(stream: bytes, work: Path, tr: Tracer) -> Dict:
    """``_replay`` with ``BroadcastSender.publish`` and the record encoder
    counted from here, so a fan-out that encodes once per subscriber
    shows in ``encodes_per_record``."""
    from repro.net import bcast

    publish = mock.patch.object(
        bcast.BroadcastSender, "publish", autospec=True, side_effect=bcast.BroadcastSender.publish
    )
    encode = mock.patch.object(bcast, "encode_record", wraps=bcast.encode_record)
    with publish as published, encode as encoded:
        out = _replay(stream, work, tr)
    out["encodes_per_record"] = encoded.call_count / published.call_count
    return out


def _replay(stream: bytes, work: Path, tr: Tracer) -> Dict:
    """Publish to in-process subscribers and do each tile's receive work.

    Per picture: one ``publish_picture`` fanned out to both subscribers,
    then for every tile the VLC parse of the whole picture and the
    reconstruction of its margin-expanded coverage rectangle.
    """
    from repro.mpeg2.constants import MB_SIZE, PictureType
    from repro.mpeg2.parser import MacroblockParser
    from repro.mpeg2.reconstruct import QuantMatrices
    from repro.net.bcast import BroadcastReceiver
    from repro.wall.broadcast import W_END, W_PIC, W_SEQ, WallBroadcaster, decode_seq_payload, wall_record_picture
    from repro.wall.receiver import _digest_crop, expand_rect, reconstruct_rect

    rundir = short_dir(work, "r")
    n_tiles = _n_tiles()
    queues = [queue.Queue() for _ in range(n_tiles)]

    def drain(rx, q):
        while True:
            rec = rx.recv(timeout=30.0)
            if rec is None:
                q.put(None)
                return
            q.put(rec)
            if rec.kind == W_END:
                return

    t0 = time.perf_counter()
    with tr.span("wall.broadcast.setup"):
        bc = WallBroadcaster(stream, _spec(), ("unix", str(rundir / "b.sock")))
    rxs, threads = [], []
    try:
        for t in range(n_tiles):
            rxs.append(BroadcastReceiver(bc.control_address, tiles=[t], name=f"r{t}"))
        bc.sender.wait_subscribers(n_tiles, timeout=30.0)
        for rx, q in zip(rxs, queues):
            th = threading.Thread(target=drain, args=(rx, q), daemon=True)
            th.start()
            threads.append(th)
        bc.publish_sequence()
        seq = None
        for q in queues:
            rec = q.get(timeout=30.0)
            if rec is None or rec.kind != W_SEQ:
                raise RuntimeError("wall replay: no sequence record")
            _meta, seq = decode_seq_payload(rec.payload)
        layout = inputs.wall_layout(seq.width, seq.height)
        parsers = [MacroblockParser(seq) for _ in range(n_tiles)]
        matrices = QuantMatrices.from_sequence(seq)
        held: List = [None] * n_tiles
        prev: List = [None] * n_tiles
        digests = [hashlib.sha256() for _ in range(n_tiles)]
        shown = [0] * n_tiles
        useful = parsed_mbs = 0
        n = len(bc.pictures)
        for i in range(n):
            with tr.span("net.bcast.publish"):
                bc.publish_picture(i)
            for t in range(n_tiles):
                rec = queues[t].get(timeout=30.0)
                if rec is None or rec.kind != W_PIC:
                    raise RuntimeError("wall replay: picture record missing")
                pic = wall_record_picture(rec)
                with tr.span("wall.receiver.parse"):
                    parsed = parsers[t].parse_picture(pic.data)
                tile = layout.tile(t)
                rect = expand_rect(tile.coverage, pic.margin_px, seq.width, seq.height)
                if pic.ptype == PictureType.B:
                    fwd, bwd = prev[t], held[t]
                else:
                    fwd, bwd = (held[t] if pic.ptype == PictureType.P else None), None
                with tr.span("wall.receiver.reconstruct"):
                    frame = reconstruct_rect(parsed, seq, fwd, bwd, rect, matrices)
                p = tile.partition
                for item in parsed.items:
                    x, y = item.mb.mb_xy(parsed.mb_width)
                    useful += p.x0 <= x * MB_SIZE < p.x1 and p.y0 <= y * MB_SIZE < p.y1
                parsed_mbs += len(parsed.items)
                if pic.ptype == PictureType.B:
                    out = frame
                else:
                    out, prev[t], held[t] = held[t], held[t], frame
                if out is not None:
                    _digest_crop(digests[t], out, p)
                    shown[t] += 1
        bc.publish_end()
        for t in range(n_tiles):
            if held[t] is not None:
                _digest_crop(digests[t], held[t], layout.tile(t).partition)
                shown[t] += 1
        wall_s = time.perf_counter() - t0
        stats = bc.stats()
    finally:
        bc.close()
        for rx in rxs:
            rx.close()
        for th in threads:
            th.join(timeout=10.0)
        shutil.rmtree(rundir, ignore_errors=True)
    return {
        "n_pics": n,
        "wall_s": wall_s,
        "digests": [d.hexdigest() for d in digests],
        "shown": shown,
        "useful_mb_ratio": useful / parsed_mbs,
        "fanout_bytes_per_pic": stats["fanout_bytes"] / n,
        "layout": layout,
    }


def run_traced(ctx, rep: Report, replay_report) -> None:
    from repro.mpeg2.parser import PictureScanner

    bank = inputs.load(ctx.cache, "wall")
    n_gops = max(2, round(ctx.seconds / 10))
    order = bank.order(ctx.seed, n_gops)
    stream = bank.clip(order)
    plain = replay(stream, ctx.work, Tracer(enabled=False))
    tr = Tracer()
    traced = replay(stream, ctx.work, tr)
    for r in (plain, traced):
        for t, dig in enumerate(r["digests"]):
            rep.attempted += r["n_pics"]
            want = bank.tile_digest(order, r["layout"].tile(t).partition)
            if dig != want:
                rep.failed += r["n_pics"]
            else:
                rep.failed += r["n_pics"] - r["shown"][t]
    t0 = time.perf_counter()
    PictureScanner(stream).scan()
    rep.metric("mpeg2.parser.scan_s", time.perf_counter() - t0, "s", "outside the replay")
    n = traced["n_pics"]
    self_t = tr.self_times()
    rep.metric("wall.receiver.parse_s_per_pic", self_t.get("wall.receiver.parse", 0.0) / n, "s/pic",
               "both tiles")
    rep.metric("wall.receiver.reconstruct_s_per_pic",
               self_t.get("wall.receiver.reconstruct", 0.0) / n, "s/pic", "both tiles")
    rep.metric("wall.receiver.useful_mb_ratio", traced["useful_mb_ratio"], "ratio",
               "MBs inside the tile / MBs parsed")
    rep.metric("net.bcast.publish_s_per_pic", self_t.get("net.bcast.publish", 0.0) / n, "s/pic")
    rep.metric("net.bcast.fanout_bytes_per_pic", traced["fanout_bytes_per_pic"], "B/pic")
    epr = traced["encodes_per_record"]
    rep.metric("net.bcast.encodes_per_record", epr, "ratio", "record encodes / publish calls")
    if epr != 1.0:
        rep.failed += n
        rep.info(f"error: the broadcast sender encoded {epr:g} times per record, not once")
    rep.metric("mpeg2.parser.parse_s_per_pic", self_t.get("wall.receiver.parse", 0.0) / n / _n_tiles(),
               "s/pic", "one full-picture parse")
    replay_report(rep, tr, plain["wall_s"], traced["wall_s"], n)
