"""Workload ``service_4x_paced``: the wall service under an open loop.

One ``repro serve --workers 2`` daemon receives a stream of sessions
from one client connection on a fixed open-loop schedule that keeps two
in flight.  Each session is a different seed-chosen 640x352 IBBP clip of
24 pictures presented at 4 fps, so the run exercises admission, the
lease scheduler, the pacer and ``PacedStreamDecoder`` — and no process
start-up.  Two in flight rather than four: at four, queueing made the
run-to-run spread of the latency figures on a shared two-core host
19-36 %, wider than the benchmark's bounds allow.

End-to-end (tracing off):

- ``setup_s`` — median ``repro serve`` process start until the first
  ``ping`` answers;
- ``decode_s`` — seconds during which the worker pool was decoding the
  run's pictures: the union of the daemon's ``decode`` spans, so two
  workers contending for the interpreter count once.  The open loop
  fixes the run's length, so its wall time would only echo the
  schedule; busy time moves with the decoder's speed;
- ``fps`` — pictures decoded per busy second: what the pool sustains;
- ``first_frame_s`` — median over sessions of scheduled arrival to the
  first decoded picture;
- ``latency_*`` — per picture, decode done minus the instant it was due:
  the pacer gate of a clock started at the session's *scheduled* arrival,
  pooled over all sessions.  Measured from the schedule rather than from
  the daemon's own ``session_start``, it counts submit, admission and
  backlog waits as well as the decode.  Done instants come from the
  daemon's trace (decode spans end at done).

The driver's own lateness against the arrival schedule is reported, so a
stalled generator shows instead of hiding inside the latencies.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from perfbench import inputs
from perfbench.common import Report, Tracer, busy_seconds, latency_metrics, short_dir

FPS = 4.0
SESSION_GOPS = 2  # 24 pictures: 6 s of playout per session
CLIP_S = 6.0
IN_FLIGHT = 2  # sessions playing at once in steady state
WORKERS = 2
POLL_S = 1.0
SETUP_TRIALS = 3
TERMINAL = ("completed", "cancelled", "failed")


def _spec(j: int, n_frames: int):
    from repro.workloads.streams import StreamSpec

    return StreamSpec(
        sid=j + 1, name=f"s{j}", width=640, height=352, fps=FPS, bpp=0.25,
        motion_pixels=3.0, n_frames=n_frames, gop_size=12, b_frames=2,
    )


class Daemon:
    """A ``repro serve`` process; ``start_s`` is its start until the first
    ``ping`` answers, seen from a client connected to it."""

    def __init__(self, rundir: Path):
        from repro.net.channel import ConnectPolicy
        from repro.service import ServiceClient

        self.rundir = rundir
        env = dict(os.environ, PYTHONPATH=str(Path(inputs.__file__).resolve().parents[1] / "src"))
        with open(rundir.with_suffix(".log"), "wb") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(rundir), "--workers", str(WORKERS)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        try:
            # A fixed 5 ms dial retry: the default exponential backoff would
            # quantize the measured start-up to its retry instants.
            policy = ConnectPolicy(retry_interval=0.005, backoff=1.0, max_interval=0.005)
            self.client = ServiceClient(rundir, connect_timeout=60.0, policy=policy)
            self.client.ping()
            self.start_s = time.perf_counter() - t0
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def stop(self) -> None:
        try:
            self.client.shutdown("benchmark done")
            self.client.close()
            self.proc.wait(timeout=30.0)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def arrivals(seconds: int) -> List[float]:
    """Open-loop arrival offsets (s): a new session every ``CLIP_S /
    IN_FLIGHT`` seconds for about ``seconds`` of playout, each shifted by
    a further quarter frame period so the sessions in flight interleave
    their pacer gates evenly instead of colliding."""
    gap = CLIP_S / IN_FLIGHT
    n = max(IN_FLIGHT, int((seconds - CLIP_S) / gap) + 1)
    return [k * gap + (k % IN_FLIGHT) / (IN_FLIGHT * FPS) for k in range(n)]


def run_service(ctx, rep: Report) -> Dict:
    """The open-loop run; returns the raw figures both modes report from."""
    from repro.perf.trace import read_trace_file
    from repro.service import LadderConfig, ServiceConfig, SessionPacer
    from repro.service.daemon import TRACE_FILE

    bank = inputs.load(ctx.cache, "service")
    offsets = arrivals(ctx.seconds)
    orders = [bank.order(ctx.seed, SESSION_GOPS, salt=k) for k in range(len(offsets))]
    clips = [bank.clip(o) for o in orders]
    n_frames = SESSION_GOPS * bank.gop_len

    # Every trial starts a daemon; the last one also serves the sessions.
    setups = []
    for trial in range(SETUP_TRIALS):
        daemon = Daemon(short_dir(ctx.work, "s"))
        setups.append(daemon.start_s)
        if trial < SETUP_TRIALS - 1:
            daemon.stop()
    client = daemon.client
    try:
        submit_ms, lags = [], []
        sids: Dict[int, int] = {}  # arrival index -> session id
        finals: Dict[int, Dict] = {}
        t_base, t_base_wall = time.perf_counter(), time.time()
        next_poll = t_base + offsets[-1] + CLIP_S
        deadline = time.monotonic() + 60.0 + 3 * ctx.seconds
        k = 0
        while k < len(offsets) or len(finals) < len(sids):
            if time.monotonic() > deadline:
                break
            now = time.perf_counter()
            if k < len(offsets) and now >= t_base + offsets[k]:
                lags.append(now - (t_base + offsets[k]))
                reply = client.submit(_spec(k, n_frames), stream=clips[k], name=f"s{k}")
                submit_ms.append(1e3 * (time.perf_counter() - now))
                if "sid" in reply:
                    sids[k] = reply["sid"]
                k += 1
                continue
            if k >= len(offsets) and now >= next_poll:
                for sid in sids.values():
                    if sid not in finals:
                        st = client.status(sid)
                        if st["state"] in TERMINAL:
                            finals[sid] = st
                next_poll = time.perf_counter() + POLL_S
            wake = next_poll if k >= len(offsets) else min(next_poll, t_base + offsets[k])
            time.sleep(max(0.0, wake - time.perf_counter()))
    finally:
        daemon.stop()
    events = read_trace_file(daemon.rundir / TRACE_FILE, strict=False)

    # Latency per picture is done minus the instant it was due: the gate
    # of a pacer clock started at the session's scheduled arrival.  Done
    # instants come from the daemon's trace (decode spans end at "done").
    lookahead = ServiceConfig().lookahead
    due_start = {sid: t_base_wall + offsets[k] for k, sid in sids.items()}
    pacers: Dict[int, object] = {}
    for sid, t0 in due_start.items():
        pacers[sid] = SessionPacer(FPS, LadderConfig(lookahead=lookahead))
        pacers[sid].start(t0)
    first_done: Dict[int, float] = {}
    steps: List[tuple] = []
    latencies: List[float] = []
    open_sid: Dict[str, int] = {}
    for e in events:
        if e.event != "decode":
            continue
        thread = e.data.get("tid")
        if e.data.get("ph") == "B":
            open_sid[thread] = e.data.get("sid")
        elif e.data.get("ph") == "E" and open_sid.get(thread) in pacers:
            sid = open_sid.pop(thread)
            first_done.setdefault(sid, e.ts)
            steps.append((e.ts - e.data["dur_s"], e.ts))
            latencies.append(e.ts - pacers[sid].gate_time(e.picture))

    offered = n_frames * len(offsets)
    decoded = dropped = late = 0
    p50s = []
    for k in range(len(offsets)):
        sid = sids.get(k)
        st = finals.get(sid) if sid is not None else None
        rep.attempted += n_frames
        if st is None or st["state"] != "completed":
            rep.failed += n_frames
            continue
        n_drop = st["dropped_b"] + st["dropped_p"]
        decoded += sum(st["decoded"].values())
        dropped += n_drop
        late += st["late_frames"]
        p50s.append(st["latency_p50_ms"])
        if n_drop == 0 and st["output_digest"] != bank.whole_digest(orders[k]):
            rep.failed += n_frames
    return {
        "setups": setups,
        "status_p50_ms": p50s,
        "latencies": latencies,
        "sessions": len(offsets),
        "busy_s": busy_seconds(steps),
        "decoded": decoded,
        "offered": offered,
        "dropped": dropped,
        "late": late,
        "first_frame": [first_done[s] - due_start[s] for s in first_done],
        "submit_ms": submit_ms,
        "lags": lags,
        "wait_ms": 1e3 * (sum(latencies) - sum(e - s for s, e in steps)) / max(1, len(latencies)),
    }


def run(ctx, rep: Report) -> None:
    r = run_service(ctx, rep)
    lat = r["latencies"]
    if lat and r["status_p50_ms"]:
        rep.metric("setup_s", median(r["setups"]), "s",
                   f"median of {len(r['setups'])} `repro serve` starts to first ping")
        rep.metric("decode_s", r["busy_s"], "s",
                   f"pool busy decoding, {len(lat)} pictures over {r['sessions']} sessions")
        rep.metric("fps", len(lat) / r["busy_s"], "1/s", "pictures per busy second")
        rep.metric("first_frame_s", median(r["first_frame"]), "s",
                   "median over sessions, from scheduled arrival")
        latency_metrics(rep, lat)
        rep.info(
            f"status verb: median of the sessions' p50 {median(r['status_p50_ms']):.1f} ms "
            f"over {len(r['status_p50_ms'])} sessions (measured from admission)"
        )
    rep.info(f"drop_ratio {r['dropped'] / r['offered']:.4f} ({r['dropped']}/{r['offered']} shed)")
    rep.info(f"late_ratio {r['late'] / max(1, r['decoded']):.4f} ({r['late']}/{r['decoded']} past deadline)")
    rep.info(
        "driver lateness vs arrival schedule: max "
        f"{1e3 * max(r['lags']):.2f} ms, mean {1e3 * sum(r['lags']) / len(r['lags']):.2f} ms"
    )


# --------------------------------------------------------------------- #
# traced replay
# --------------------------------------------------------------------- #


def replay(streams: List[bytes], tr: Tracer) -> Dict:
    """Each session's per-picture work in one process, layer by layer:
    the steps ``PacedStreamDecoder`` takes with drops off."""
    from repro.mpeg2.batch_reconstruct import PlanBuilder, execute_plan
    from repro.mpeg2.constants import PictureType
    from repro.mpeg2.frames import Frame
    from repro.mpeg2.parser import MacroblockParser, PictureScanner
    from repro.mpeg2.reconstruct import QuantMatrices
    from repro.service.session import peek_picture_type

    t0 = time.perf_counter()
    outputs: List[List] = []
    types: Dict[str, int] = {"I": 0, "P": 0, "B": 0}
    for stream in streams:
        with tr.span("mpeg2.parser.scan"):
            seq, pics = PictureScanner(stream).scan()
        parser = MacroblockParser(seq)
        matrices = QuantMatrices.from_sequence(seq)
        held = prev = None
        frames = []
        for unit in pics:
            ptype = peek_picture_type(unit.data)
            types[ptype.name] += 1
            with tr.span(f"service.session.step.{ptype.name}"):
                with tr.span("mpeg2.parser.parse"):
                    parsed = parser.parse_picture(unit.data)
                if ptype == PictureType.B:
                    fwd, bwd = prev, held
                else:
                    fwd, bwd = (held if ptype == PictureType.P else None), None
                with tr.span("mpeg2.batch_reconstruct.plan"):
                    builder = PlanBuilder(
                        ptype, parsed.mb_width, seq.width, seq.height,
                        matrices, parsed.header.dc_scaler,
                    )
                    for item in parsed.items:
                        builder.add(item.mb)
                    plan = builder.build()
                with tr.span("mpeg2.batch_reconstruct.execute"):
                    out = Frame.blank(seq.width, seq.height)
                    execute_plan(plan, out, fwd, bwd)
                if ptype == PictureType.B:
                    frames.append(out)
                else:
                    if held is not None:
                        frames.append(held)
                    prev, held = held, out
        if held is not None:
            frames.append(held)
        outputs.append(frames)
    return {
        "outputs": outputs,
        "types": types,
        "n_pics": sum(types.values()),
        "wall_s": time.perf_counter() - t0,
    }


def run_traced(ctx, rep: Report, replay_report) -> None:
    r = run_service(ctx, rep)
    rep.metric("service.pool.wait_ms", r["wait_ms"], "ms", "mean latency - mean step time")
    rep.metric("service.client.submit_ms", median(r["submit_ms"]), "ms", "median submit round trip")

    bank = inputs.load(ctx.cache, "service")
    orders = [[i] for i in range(len(bank.gops))]  # one GOP of every variant
    streams = [bank.clip(o) for o in orders]
    plain = replay(streams, Tracer(enabled=False))
    tr = Tracer()
    traced = replay(streams, tr)
    for res in (plain, traced):
        for o, frames in zip(orders, res["outputs"]):
            rep.attempted += len(frames)
            rep.failed += inputs.mismatches(frames, bank.clip_digests(o))
    totals = tr.totals()
    self_t = tr.self_times()
    n = traced["n_pics"]
    for t in ("I", "P", "B"):
        k = traced["types"][t]
        rep.metric(f"service.session.step_s_per_pic.{t}",
                   totals.get(f"service.session.step.{t}", 0.0) / k if k else 0.0,
                   "s/pic", f"inclusive, n={k}")
    rep.metric("mpeg2.batch_reconstruct.execute_s_per_pic",
               self_t.get("mpeg2.batch_reconstruct.execute", 0.0) / n, "s/pic")
    rep.metric("mpeg2.parser.parse_s_per_pic", self_t.get("mpeg2.parser.parse", 0.0) / n, "s/pic")
    rep.metric("mpeg2.parser.scan_s", self_t.get("mpeg2.parser.scan", 0.0) / len(streams), "s",
               f"per {bank.gop_len}-picture clip")
    replay_report(rep, tr, plain["wall_s"], traced["wall_s"], n)
