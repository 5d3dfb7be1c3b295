"""The multi-process cluster runtime, end to end.

These tests spawn real worker processes (``1 + k + m*n`` interpreters)
talking over the socket transport, so they are marked ``integration``
and run in a dedicated CI job rather than the default matrix.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.cluster.runtime import ClusterError, ClusterSupervisor, WallConfig
from repro.mpeg2.decoder import decode_stream
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.perf.trace import read_trace_file
from repro.workloads.synthetic import moving_pattern_frames

pytestmark = pytest.mark.integration


def _alive(pid: int) -> bool:
    """Whether ``pid`` still exists in any state.  A zombie (``Z``) counts
    as alive: it is a worker nobody has reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "X"


def _decode_in_thread(sup, stream):
    """Run ``sup.decode`` on a thread; the outcome dict gets ``frames`` or
    ``error``."""
    outcome = {}

    def run():
        try:
            outcome["frames"] = sup.decode(stream, timeout=120.0)
        except ClusterError as exc:
            outcome["error"] = exc

    t = threading.Thread(target=run)
    t.start()
    return t, outcome


def _wait_for_workers(sup, count, within=60.0):
    deadline = time.monotonic() + within
    while len(sup.processes) < count and time.monotonic() < deadline:
        time.sleep(0.005)  # the launcher reports one pid line per fork
    assert len(sup.processes) == count


@pytest.fixture(scope="module")
def clip_stream():
    """A multi-GOP stream exercising I, P and B pictures."""
    clip = moving_pattern_frames(96, 64, 8, seed=21)
    stream = Encoder(EncoderConfig(gop_size=5, b_frames=2)).encode(clip)
    return clip, stream


@pytest.fixture(scope="module")
def wall_run(clip_stream, tmp_path_factory):
    """One full 2x2, k=2 decode over unix sockets, traced; shared by the
    assertions below so the expensive spawn happens once."""
    _, stream = clip_stream
    rundir = tmp_path_factory.mktemp("cluster-2x2")
    sup = ClusterSupervisor(
        WallConfig(m=2, n=2, k=2, transport="unix"), trace_dir=str(rundir)
    )
    frames = sup.decode(stream, timeout=120.0)
    return sup, frames, rundir


class TestBitIdentical:
    def test_2x2_two_splitters_matches_sequential(self, clip_stream, wall_run):
        _, stream = clip_stream
        ref = decode_stream(stream)
        _, frames, _ = wall_run
        assert len(frames) == len(ref)
        for i, (a, b) in enumerate(zip(ref, frames)):
            assert a.max_abs_diff(b) == 0, f"picture {i} diverged"

    def test_all_workers_exited_cleanly(self, wall_run):
        sup, _, _ = wall_run
        assert len(sup.processes) == 1 + 2 + 4
        for name, proc in sup.processes.items():
            assert proc.poll() == 0, f"{name} still running or failed"

    def test_stage_times_harvested_across_processes(self, wall_run):
        sup, frames, _ = wall_run
        # four decoders, eight pictures each
        assert sup.stage_times.pictures == 4 * len(frames)
        assert sup.stage_times.total > 0

    def test_tcp_transport(self, clip_stream):
        _, stream = clip_stream
        ref = decode_stream(stream)
        sup = ClusterSupervisor(WallConfig(m=2, n=1, k=1, transport="tcp"))
        frames = sup.decode(stream, timeout=120.0)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, frames))

    def test_bitstream_fallback_matches_sequential(self, clip_stream):
        """ship_plans=False: decoders re-parse sub-picture bitstreams."""
        _, stream = clip_stream
        ref = decode_stream(stream)
        sup = ClusterSupervisor(
            WallConfig(m=2, n=1, k=1, transport="unix", ship_plans=False)
        )
        frames = sup.decode(stream, timeout=120.0)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, frames))

    def test_plan_shipping_decoders_do_no_vlc(self, wall_run):
        """With plan shipping on (the default), every tile decoder's parse
        stage must be exactly zero — the splitters run VLC once."""
        sup, _, _ = wall_run
        decs = {p: st for p, st in sup.stage_times_by_proc.items() if p.startswith("dec")}
        assert len(decs) == 4
        for proc, st in decs.items():
            assert st.parse == 0.0, f"{proc} spent {st.parse}s in VLC"
            assert st.execute > 0.0


class TestTraceTimeline:
    def test_merged_trace_is_one_wall_clock_timeline(self, wall_run):
        sup, _, rundir = wall_run
        assert sup.merged_trace_path is not None and sup.merged_trace_path.exists()
        events = read_trace_file(sup.merged_trace_path)
        assert events, "merged trace is empty"
        stamps = [ev.ts for ev in events]
        assert stamps == sorted(stamps), "events not in wall-clock order"
        # every process contributed to the single timeline
        procs = {ev.proc for ev in events}
        assert procs >= {
            "supervisor", "root", "split0", "split1", "dec0", "dec1", "dec2", "dec3",
        }

    def test_timeline_covers_the_protocol(self, wall_run):
        sup, frames, _ = wall_run
        events = read_trace_file(sup.merged_trace_path)
        by_event = {}
        for ev in events:
            if "ph" in ev.data:
                continue  # span begin/end pairs are counted separately
            by_event.setdefault(ev.event, []).append(ev)
        assert len(by_event["picture_sent"]) == len(frames)  # root
        assert len(by_event["split"]) == len(frames)  # across k splitters
        assert len(by_event["decode"]) == 4 * len(frames)  # per tile
        assert len(by_event["frame_sent"]) == 4 * len(frames)

    def test_timeline_carries_spans(self, wall_run):
        """Every instrumented region appears as balanced B/E span pairs."""
        sup, frames, _ = wall_run
        events = read_trace_file(sup.merged_trace_path)
        begins, ends = {}, {}
        for ev in events:
            ph = ev.data.get("ph")
            if ph == "B":
                begins[ev.event] = begins.get(ev.event, 0) + 1
            elif ph == "E":
                ends[ev.event] = ends.get(ev.event, 0) + 1
        assert begins == ends, "unbalanced span begin/end pairs"
        # one decode span per tile-picture; exchange/credit waits visible
        assert begins["decode"] == 4 * len(frames)
        assert begins["credit_wait"] == len(frames)
        assert begins["exchange_wait"] == 4 * len(frames)
        assert begins["split"] == len(frames)
        for stage in ("plan", "execute", "wire"):
            assert begins.get(stage, 0) > 0, f"no {stage} spans"

    def test_trace_lines_are_valid_jsonl(self, wall_run):
        sup, _, _ = wall_run
        for line in sup.merged_trace_path.read_text().splitlines():
            rec = json.loads(line)
            assert {"ts", "proc", "event"} <= set(rec)


class TestFailureHandling:
    def test_killed_decoder_is_detected_and_torn_down(self, clip_stream, tmp_path):
        """SIGKILL a tile decoder mid-stream: the supervisor must surface a
        ClusterError promptly and leave no orphan process behind."""
        _, stream = clip_stream
        sup = ClusterSupervisor(
            WallConfig(m=2, n=2, k=1, transport="unix", fail_at="dec1@2"),
            trace_dir=str(tmp_path),
        )
        t0 = time.monotonic()
        with pytest.raises(ClusterError, match="dec1"):
            sup.decode(stream, timeout=120.0)
        assert time.monotonic() - t0 < 60, "failure detection took too long"
        for name, proc in sup.processes.items():
            assert proc.poll() is not None, f"{name} orphaned after teardown"
        assert sup.processes["dec1"].returncode == -9

    def test_sigkill_mid_lease_leaks_no_shm_segments(self, clip_stream, tmp_path):
        """Kill a decoder while frame leases are in flight: workers never
        unlink their own segments, so the supervisor's purge must reap the
        whole ``repro-pool-<token>-*`` namespace on the failure path too."""
        _, stream = clip_stream
        sup = ClusterSupervisor(
            WallConfig(
                m=2, n=2, k=1, transport="unix", fail_at="dec1@2",
                shm_dir=str(tmp_path),
            ),
            trace_dir=str(tmp_path),
        )
        with pytest.raises(ClusterError, match="dec1"):
            sup.decode(stream, timeout=120.0)
        assert sup.processes["dec1"].returncode == -9
        # the purge actually had segments to reap (the SIGKILL left the
        # dead decoder's pool behind), and none survive it
        purges = [
            ev.data["removed"]
            for ev in read_trace_file(sup.merged_trace_path)
            if ev.event == "pool_purge"
        ]
        assert purges and len(purges[0]) > 0
        assert [p for p in os.listdir(tmp_path) if p.startswith("repro-pool-")] == []

    def test_failure_report_carries_diagnostics(self, clip_stream, tmp_path):
        _, stream = clip_stream
        sup = ClusterSupervisor(
            WallConfig(m=2, n=1, k=1, transport="unix", fail_at="split0@1"),
            trace_dir=str(tmp_path),
        )
        with pytest.raises(ClusterError) as excinfo:
            sup.decode(stream, timeout=120.0)
        # the report names every process and its exit state
        for name in sup.config.process_names:
            assert name in str(excinfo.value)

    def test_no_stale_sockets_after_success(self, wall_run):
        _, _, rundir = wall_run
        leftovers = [p for p in os.listdir(rundir) if p.endswith(".sock")]
        assert leftovers == []


class TestShutdownAPI:
    def test_shutdown_interrupts_a_run_and_is_idempotent(self, tmp_path):
        """shutdown(reason=...) mid-decode: the decode thread surfaces a
        ClusterError, no child survives, the reason lands in the trace,
        and calling it again is a no-op."""
        import threading

        clip = moving_pattern_frames(96, 64, 40, seed=7)
        stream = Encoder(EncoderConfig(gop_size=5, b_frames=2)).encode(clip)
        sup = ClusterSupervisor(
            WallConfig(m=2, n=1, k=1, transport="unix"), trace_dir=str(tmp_path)
        )
        outcome = {}

        def run():
            try:
                outcome["frames"] = sup.decode(stream, timeout=120.0)
            except ClusterError as exc:
                outcome["error"] = exc

        t = threading.Thread(target=run)
        t.start()
        deadline = time.monotonic() + 60.0
        while len(sup.processes) < 4 and time.monotonic() < deadline:
            time.sleep(0.02)  # wait for the tree to spawn
        assert len(sup.processes) == 4
        sup.shutdown(reason="session cancelled")
        sup.shutdown(reason="second call must be a no-op")
        t.join(timeout=60.0)
        assert not t.is_alive()
        assert "error" in outcome, "shutdown did not interrupt the decode"
        for name, proc in sup.processes.items():
            assert proc.poll() is not None, f"{name} survived shutdown"
        events = read_trace_file(tmp_path / "supervisor.trace.jsonl")
        requested = [e for e in events if e.event == "shutdown_requested"]
        assert [e.data["reason"] for e in requested] == ["session cancelled"]


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestProcessLifetime:
    """The launcher forks every worker and reaps it; nothing may outlive
    a decode, whether it succeeds or the launcher itself is killed."""

    def test_nothing_alive_after_a_successful_decode(self, clip_stream, tmp_path):
        _, stream = clip_stream
        sup = ClusterSupervisor(
            WallConfig(m=2, n=1, k=1, transport="unix"), trace_dir=str(tmp_path)
        )
        frames = sup.decode(stream, timeout=120.0)
        assert len(frames) == len(decode_stream(stream))
        pids = [sup.launcher.pid] + [p.pid for p in sup.processes.values()]
        assert len(pids) == 1 + 4
        assert [pid for pid in pids if _alive(pid)] == []
        assert sup.launcher.returncode == 0
        assert {p.returncode for p in sup.processes.values()} == {0}

    def test_killed_launcher_is_named_and_leaves_no_worker(self, tmp_path):
        clip = moving_pattern_frames(96, 64, 40, seed=7)
        stream = Encoder(EncoderConfig(gop_size=5, b_frames=2)).encode(clip)
        sup = ClusterSupervisor(
            WallConfig(m=2, n=1, k=1, transport="unix"), trace_dir=str(tmp_path)
        )
        t, outcome = _decode_in_thread(sup, stream)
        _wait_for_workers(sup, 4)
        # Freeze the root so no picture can flow: the decode is certainly
        # still running when the launcher dies.
        os.kill(sup.processes["root"].pid, signal.SIGSTOP)
        os.kill(sup.launcher.pid, signal.SIGKILL)
        t.join(timeout=60.0)
        assert not t.is_alive()
        assert "error" in outcome, "a killed launcher went unnoticed"
        headline = str(outcome["error"]).splitlines()[0]
        assert "launcher" in headline and "status -9" in headline
        pids = [sup.launcher.pid] + [p.pid for p in sup.processes.values()]
        assert [pid for pid in pids if _alive(pid)] == []
        for name, proc in sup.processes.items():
            assert proc.returncode == -9, f"{name} exited {proc.returncode}"
