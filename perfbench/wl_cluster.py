"""Workload ``cluster_1080p_ibbp``: the 1-k-(m,n) runtime on real processes.

Closed loop: one caller runs ``ClusterSupervisor(WallConfig(m=2, n=2,
k=1)).decode()`` on a 1920x1088 IBBP clip of panning content, so every
call pays worker start-up, the k=1 splitter (parse + plan) is the serial
stage, and motion vectors cross tile edges (MEI exchange).

End-to-end (tracing off):

- ``setup_s`` — median cold ``decode()`` of the clip's first picture alone;
- ``decode_s`` — median full-clip ``decode()`` wall time, start-up included;
- ``fps`` — steady state, ``(N - 1)`` over the span from the first to the
  last assembled frame of a full decode (the runtime's own
  ``frame_assembled`` stamps);
- ``latency_*`` — per-picture ingress-to-paste latency from the runtime's
  own end-to-end stamps (``e2e`` trace events).

The traced run replays the same per-picture work in this process, layer
call by layer call: scan, parse, plan, plan encode, channel transfer,
plan decode, MEI exchange, execute, paste.
"""

from __future__ import annotations

import queue
import shutil
import socket
import threading
import time
from statistics import median
from typing import Dict, List, Optional

from perfbench import inputs
from perfbench.common import Report, Tracer, latency_metrics, short_dir

M, N, K = 2, 2, 1
N_GOPS = 4  # 48 pictures per clip, two GOPs of each variant
SETUP_TRIALS = 3
PIC_START = b"\x00\x00\x01\x00"


def first_picture_stream(clip: bytes) -> bytes:
    """The clip cut after its first coded picture (an I-picture)."""
    first = clip.find(PIC_START)
    second = clip.find(PIC_START, first + 4)
    if first < 0 or second < 0:
        raise ValueError("clip has fewer than two pictures")
    return clip[:second] + inputs.SEQ_END


def decode_once(work, stream: bytes, **overrides):
    """One cold ``decode()``; returns (frames, seconds, t_call, events)."""
    from repro.cluster.runtime import ClusterSupervisor, WallConfig
    from repro.perf.trace import read_trace_file

    rundir = short_dir(work, "c")
    try:
        sup = ClusterSupervisor(WallConfig(m=M, n=N, k=K, **overrides), trace_dir=str(rundir))
        t_call = time.time()
        t0 = time.perf_counter()
        frames = sup.decode(stream)
        dt = time.perf_counter() - t0
        events = read_trace_file(sup.merged_trace_path, strict=False)
        return frames, dt, t_call, events
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def checked_decode(ctx, rep: Report, stream: bytes, oracle: List[str]):
    """``decode_once`` with every picture counted; None on any error."""
    from repro.cluster.runtime import ClusterError

    rep.attempted += len(oracle)
    try:
        frames, dt, t_call, events = decode_once(ctx.work, stream)
    except ClusterError as exc:
        rep.failed += len(oracle)
        rep.info(f"decode raised: {str(exc).splitlines()[0]}")
        return None
    bad = inputs.mismatches(frames, oracle)
    rep.failed += bad
    return None if bad else (dt, t_call, events)


def run(ctx, rep: Report) -> None:
    bank = inputs.load(ctx.cache, "cluster")
    order = bank.order(ctx.seed, N_GOPS)
    clip = bank.clip(order)
    oracle = bank.clip_digests(order)
    one = first_picture_stream(clip)
    n_pics = len(oracle)
    rep.info(f"clip: {n_pics} pictures 1920x1088 IBBP, GOP order {order}")

    setups = []
    for _ in range(SETUP_TRIALS):
        got = checked_decode(ctx, rep, one, oracle[:1])
        if got is not None:
            setups.append(got[0])

    decodes, firsts, steady, lat = [], [], [], []
    for _ in range(max(1, round(ctx.seconds / 10))):
        got = checked_decode(ctx, rep, clip, oracle)
        if got is None:
            continue
        dt, t_call, events = got
        decodes.append(dt)
        done = sorted(e.ts for e in events if e.event == "frame_assembled")
        firsts.append(done[0] - t_call)
        steady.append((len(done) - 1) / (done[-1] - done[0]))
        lat += [e.data["e2e_s"] for e in events if e.event == "e2e"]

    if setups and decodes:
        setup_s, decode_s = median(setups), median(decodes)
        rep.metric("setup_s", setup_s, "s", f"median of {len(setups)} cold 1-picture decodes")
        rep.metric("decode_s", decode_s, "s", f"median of {len(decodes)} x {n_pics}-picture decodes")
        rep.metric("fps", median(steady), "1/s", "first to last assembled frame")
        rep.metric("first_frame_s", median(firsts), "s",
                   "decode() call to first assembled frame")
        rep.info(f"(N-1)/(decode_s-setup_s) = {(n_pics - 1) / (decode_s - setup_s):.4f} 1/s")
        latency_metrics(rep, lat)
    rep.info("drop_ratio 0 (closed loop, nothing is shed); late_ratio n/a")


# --------------------------------------------------------------------- #
# traced replay
# --------------------------------------------------------------------- #


class _Link:
    """A unix socket pair with a sender thread: the plan transport."""

    MTYPE = 1

    def __init__(self):
        from repro.net.channel import Channel

        a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        self.tx, self.rx = Channel(a, name="bench-tx"), Channel(b, name="bench-rx")
        self._q: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(target=self._send_loop, daemon=True)
        self._thread.start()

    def _send_loop(self) -> None:
        while True:
            bufs = self._q.get()
            if bufs is None:
                return
            self.tx.send(self.MTYPE, bufs)

    def transfer(self, bufs) -> bytes:
        self._q.put(bufs)
        return self.rx.recv(timeout=60.0).payload

    @property
    def sent_bytes(self) -> int:
        return self.tx.stats.bandwidth.sent

    def close(self) -> None:
        self._q.put(None)
        self._thread.join(timeout=10.0)
        self.tx.close()
        self.rx.close()


def replay(stream: bytes, tr: Tracer) -> Dict:
    """Run the cluster's per-picture work in one process, layer by layer."""
    from repro.mpeg2 import plan_codec
    from repro.mpeg2.parser import PictureScanner
    from repro.mpeg2.reconstruct import QuantMatrices
    from repro.parallel.mb_splitter import MacroblockSplitter
    from repro.parallel.pdecoder import TileDecoder
    from repro.wall.display import assemble_wall
    from repro.wall.layout import TileLayout

    link = _Link()
    try:
        t0 = time.perf_counter()
        with tr.span("mpeg2.parser.scan"):
            seq, pics = PictureScanner(stream).scan()
        layout = TileLayout(seq.width, seq.height, M, N)
        splitter = MacroblockSplitter(seq, layout)
        matrices = QuantMatrices.from_sequence(seq)
        decs = [TileDecoder(t, layout, seq) for t in layout]
        n_tiles = len(decs)
        frames, imbalance = [], []
        plan_bytes = mei_blocks = 0
        for i, unit in enumerate(pics):
            with tr.span("mpeg2.parser.parse"):
                parsed = splitter.parser.parse_picture(unit.data, lean=True)
            with tr.span("parallel.mb_splitter.plan"):
                res = splitter.compile_plans(parsed, i)
            plans = {}
            for t in range(n_tiles):
                with tr.span("mpeg2.plan_codec.encode"):
                    bufs = plan_codec.encode_plan(res.plans[t])
                plan_bytes += plan_codec.buffers_nbytes(bufs)
                with tr.span("net.channel.transfer"):
                    payload = link.transfer(bufs)
                with tr.span("mpeg2.plan_codec.decode"):
                    plans[t], _end = plan_codec.decode_plan(payload, matrices)
            ptype = res.picture_type
            with tr.span("parallel.pdecoder.mei"):
                blocks = [
                    b for t in range(n_tiles)
                    for b in decs[t].execute_sends(res.mei.program(t), ptype)
                ]
                for b in blocks:
                    decs[b.dest].apply_recv(b, ptype)
            mei_blocks += len(blocks)
            ready, times = {}, []
            for t in range(n_tiles):
                s = time.perf_counter()
                with tr.span("parallel.pdecoder.execute"):
                    ready[t] = decs[t].decode_plan(plans[t])
                times.append(time.perf_counter() - s)
            imbalance.append(max(times) / (sum(times) / n_tiles))
            if ready[0] is not None:
                with tr.span("wall.layout.paste"):
                    frames.append(assemble_wall(layout, ready))
        tails = {t: decs[t].flush() for t in range(n_tiles)}
        if tails[0] is not None:
            with tr.span("wall.layout.paste"):
                frames.append(assemble_wall(layout, tails))
        wall_s = time.perf_counter() - t0
        n = len(pics)
        return {
            "frames": frames,
            "n_pics": n,
            "wall_s": wall_s,
            "plan_bytes_per_pic": plan_bytes / n,
            "channel_bytes_per_pic": link.sent_bytes / n,
            "mei_blocks_per_pic": mei_blocks / n,
            "tile_imbalance": sum(imbalance) / len(imbalance),
        }
    finally:
        link.close()


#: per_layer metric -> (span name, per picture?)
SPAN_METRICS = {
    "mpeg2.parser.scan_s": ("mpeg2.parser.scan", False),
    "mpeg2.parser.parse_s_per_pic": ("mpeg2.parser.parse", True),
    "parallel.mb_splitter.plan_s_per_pic": ("parallel.mb_splitter.plan", True),
    "mpeg2.plan_codec.encode_s_per_pic": ("mpeg2.plan_codec.encode", True),
    "mpeg2.plan_codec.decode_s_per_pic": ("mpeg2.plan_codec.decode", True),
    "net.channel.transfer_s_per_pic": ("net.channel.transfer", True),
    "parallel.pdecoder.mei_s_per_pic": ("parallel.pdecoder.mei", True),
    "parallel.pdecoder.execute_s_per_pic": ("parallel.pdecoder.execute", True),
    "wall.layout.paste_s_per_pic": ("wall.layout.paste", True),
}


def layer_times(tr: Tracer, n_pics: int) -> Dict[str, float]:
    """Self time per layer metric (per picture where the name says so)."""
    self_t = tr.self_times()
    return {
        m: self_t.get(span, 0.0) / (n_pics if per_pic else 1)
        for m, (span, per_pic) in SPAN_METRICS.items()
    }


def run_traced(ctx, rep: Report, replay_report) -> None:
    bank = inputs.load(ctx.cache, "cluster")
    order = bank.order(ctx.seed, N_GOPS)
    one = first_picture_stream(bank.clip(order))
    n_replay = max(1, round(ctx.seconds / 20))
    stream = bank.clip(order[:n_replay])
    oracle = bank.clip_digests(order[:n_replay])

    # Start-up share of time to first frame: cold decode minus the same
    # 1-picture work done in-process.
    cold, warm = [], []
    for _ in range(SETUP_TRIALS):
        got = checked_decode(ctx, rep, one, oracle[:1])
        if got is not None:
            cold.append(got[0])
        rep.attempted += 1
        r = replay(one, Tracer(enabled=False))
        rep.failed += inputs.mismatches(r["frames"], oracle[:1])
        warm.append(r["wall_s"])

    plain = replay(stream, Tracer(enabled=False))
    tr = Tracer()
    traced = replay(stream, tr)
    for r in (plain, traced):
        rep.attempted += r["n_pics"]
        rep.failed += inputs.mismatches(r["frames"], oracle)
    n = traced["n_pics"]
    for name, value in layer_times(tr, n).items():
        rep.metric(name, value, "s" if name.endswith("_s") else "s/pic")
    rep.metric("mpeg2.plan_codec.bytes_per_pic", traced["plan_bytes_per_pic"], "B/pic")
    rep.metric("net.channel.bytes_per_pic", traced["channel_bytes_per_pic"], "B/pic")
    rep.metric("parallel.pdecoder.mei_blocks_per_pic", traced["mei_blocks_per_pic"], "count")
    rep.metric("parallel.pdecoder.tile_imbalance", traced["tile_imbalance"], "ratio",
               "max/mean tile execute time, mean over pictures")
    if cold:
        rep.metric("cluster.runtime.spawn_s", median(cold) - median(warm), "s",
                   f"cold {median(cold):.3f} s - in-process {median(warm):.3f} s")
    replay_report(rep, tr, plain["wall_s"], traced["wall_s"], n)


def f_rule(ctx) -> Dict[str, float]:
    """The paper's F = min(k/t_s, 1/t_d) from a traced replay of one GOP."""
    bank = inputs.load(ctx.cache, "cluster")
    order = bank.order(ctx.seed, N_GOPS)
    tr = Tracer()
    r = replay(bank.clip(order[:1]), tr)
    lt = layer_times(tr, r["n_pics"])
    t_s = lt["mpeg2.parser.parse_s_per_pic"] + lt["parallel.mb_splitter.plan_s_per_pic"]
    per_tile = (lt["parallel.pdecoder.execute_s_per_pic"] + lt["parallel.pdecoder.mei_s_per_pic"]) / (M * N)
    t_d = per_tile * r["tile_imbalance"]
    return {"t_s": t_s, "t_d": t_d, "F": min(K / t_s, 1.0 / t_d)}


def decode_seconds(ctx, stream: bytes, oracle: List[str], **overrides) -> Optional[float]:
    """One full decode for the A/B study; None when the output is wrong."""
    frames, dt, _t, _ev = decode_once(ctx.work, stream, **overrides)
    return None if inputs.mismatches(frames, oracle) else dt

