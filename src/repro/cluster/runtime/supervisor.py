"""Cluster supervisor: spawn the process tree, collect frames, tear down.

:class:`ClusterSupervisor` is the driver-side half of the runtime.  For
one decode it:

1. materializes a *run directory* (the rendezvous root): the encoded
   stream, ``cluster.json``, per-process trace/log files, and — for the
   Unix transport — the socket files themselves;
2. binds the collector listener, then starts one *launcher*
   (``python -m repro.cluster.runtime.worker``) that imports the role
   code once and forks the ``1 + k + m*n`` workers from it; one reader
   thread turns the launcher's ``pid``/``exit`` report lines into a
   :class:`WorkerHandle` per worker;
3. accepts one channel per tile decoder and collects displayed tile
   crops until every picture is assembled, polling child liveness the
   whole time — a crashed worker becomes a :class:`ClusterError` with a
   per-process diagnostic report, never a hang;
4. drains EOS, waits for children to exit (escalating terminate → kill
   past the deadline), waits for the launcher, and merges every
   per-process trace into one wall-clock timeline (``merged.trace.jsonl``).

The output is bit-identical to the sequential decoder — the same golden
assertion the threaded runner carries, now across process boundaries.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.runtime.config import WallConfig
from repro.cluster.runtime.messages import (
    MSG_EOS,
    MSG_ERROR,
    MSG_FRAME,
    MSG_FRAME_H,
    decode_error,
    decode_tile_frame,
    decode_tile_frame_hmsg,
)
from repro.mem import PoolRegistry, purge_pools
from repro.cluster.runtime.worker import PR_SET_CHILD_SUBREAPER, prctl_setter
from repro.cluster.runtime.roles import (
    CONFIG_FILE,
    STREAM_FILE,
    ProtocolError,
    Rendezvous,
    accept_labeled,
    _pump,
)
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import PictureScanner
from repro.net.channel import Channel, ChannelError, Listener
from repro.perf.export import span_tail, write_chrome_trace
from repro.perf.metrics import StageTimes
from repro.perf.telemetry import emit_stats, registry
from repro.perf.trace import (
    TRACE_SUFFIX,
    TraceWriter,
    load_stage_times,
    merge_traces,
    read_trace_file,
)
from repro.wall.layout import TileLayout

MERGED_TRACE = "merged.trace.jsonl"
PERFETTO_TRACE = "trace.perfetto.json"
#: The launcher's own stderr (import failures, launcher crashes).
LAUNCHER_LOG = "launcher.log"


#: How many trailing trace events the crash post-mortem shows per process.
POSTMORTEM_EVENTS = 8
#: After a decoder channel fails, how long to wait for the process death
#: behind it to show, so the error names the cause rather than the symptom.
DEATH_SETTLE_S = 1.0


class ClusterError(RuntimeError):
    """A worker failed (or timed out); carries the diagnostic report."""

    def __init__(self, message: str, report: str = ""):
        super().__init__(message + (f"\n{report}" if report else ""))
        self.report = report


def _repro_pythonpath() -> str:
    """PYTHONPATH that lets a bare interpreter import this package."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    return src_root + (os.pathsep + existing if existing else "")


class WorkerHandle:
    """One forked worker as the supervisor sees it.

    The launcher, not the supervisor, is the worker's parent: the pid
    arrives on a ``pid`` report line and the exit status on an ``exit``
    line.  This mirrors the slice of :class:`subprocess.Popen` the
    supervisor uses — ``pid``, ``returncode``, ``poll``, ``wait``,
    ``terminate`` and ``kill``.
    """

    def __init__(self, name: str, pid: int):
        self.name = name
        self.pid = pid
        self.returncode: Optional[int] = None
        self._exited = threading.Event()

    def _set_exit(self, returncode: int) -> None:
        self.returncode = returncode
        self._exited.set()

    def poll(self) -> Optional[int]:
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        if not self._exited.wait(timeout):
            raise subprocess.TimeoutExpired(self.name, timeout)
        return self.returncode

    def _signal(self, sig: int) -> None:
        if self.returncode is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                pass  # exited; the launcher's exit line is on its way

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def _reap_orphan(self) -> None:
        """The launcher died without reporting this worker's exit: the
        worker is now this process's child (the supervisor is a child
        subreaper) and dying of the launcher's death signal; make sure,
        then reap."""
        self.kill()
        try:
            _pid, status = os.waitpid(self.pid, 0)
            rc = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            rc = -signal.SIGKILL  # not re-parented here: nothing to reap
        self._set_exit(rc)


class ClusterSupervisor:
    """Run the 1-k-(m,n) pipeline as real OS processes and supervise it."""

    def __init__(self, config: WallConfig, trace_dir: Optional[str] = None):
        self.config = config
        self.trace_dir = trace_dir
        self.rundir: Optional[Path] = None
        self.processes: Dict[str, WorkerHandle] = {}
        self.launcher: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self.stage_times = StageTimes()  # aggregated from decoder traces
        self.stage_times_by_proc: Dict[str, StageTimes] = {}
        self.merged_trace_path: Optional[Path] = None
        self.perfetto_path: Optional[Path] = None
        self._tracer: Optional[TraceWriter] = None
        self._stopped = False
        self._death_hooks: List = []
        self._deaths_notified: set = set()

    def add_death_hook(self, hook) -> None:
        """Register ``hook(proc_name, returncode)``, fired (once per child)
        when liveness polling first sees that child dead with a nonzero
        status.  This is the fleet gateway's failover trigger: a session
        daemon learns of a worker death the moment the supervisor does,
        not when the decode eventually errors out.  Hooks run on the
        polling thread and must not block."""
        self._death_hooks.append(hook)

    # ------------------------------------------------------------------ #

    def decode(self, stream: bytes, timeout: float = 120.0) -> List[Frame]:
        cfg = self.config
        sequence, pictures = PictureScanner(stream).scan()
        layout = TileLayout(sequence.width, sequence.height, cfg.m, cfg.n, cfg.overlap)
        n_pics, n_tiles = len(pictures), layout.n_tiles

        if self.trace_dir is not None:
            # Absolute: workers run with cwd *inside* the run directory and
            # receive this path on their command line.
            rundir = Path(self.trace_dir).resolve()
            rundir.mkdir(parents=True, exist_ok=True)
        else:
            rundir = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
        self.rundir = rundir
        # Mint the run's pool token: workers name their shm segments
        # ``repro-pool-<token>-<proc>`` and the purge below reaps exactly
        # that namespace — even after a SIGKILL mid-lease.
        if cfg.pool_enabled and not cfg.pool_token:
            cfg.pool_token = uuid.uuid4().hex[:8]
        (rundir / STREAM_FILE).write_bytes(stream)
        (rundir / CONFIG_FILE).write_text(json.dumps({"config": cfg.to_dict()}))
        tracer = TraceWriter(rundir / f"supervisor{TRACE_SUFFIX}", "supervisor")
        self._tracer = tracer

        rv = Rendezvous(rundir, cfg.transport, cfg.connect_timeout)
        collector = rv.listen("collector")
        channels: Dict[int, Channel] = {}
        shm_dir = Path(cfg.shm_dir) if cfg.shm_dir else None
        pools = PoolRegistry(shm_dir) if cfg.pool_enabled else None
        try:
            self._launch(rundir, tracer)
            frames = self._collect(
                collector, channels, layout, n_pics, n_tiles, timeout, tracer,
                pools,
            )
            self._shutdown(timeout, tracer)
            return frames
        except Exception:
            self._teardown(tracer)
            raise
        finally:
            self._close_launcher()
            for ch in channels.values():
                ch.close()
            collector.close()
            if pools is not None:
                pools.close()
            if cfg.pool_token:
                # Crash-safe leak check: every segment of this run must be
                # gone once the tree is down.  Workers deliberately never
                # unlink, so a *normal* run purges its segments here; an
                # empty /dev/shm afterwards is the leak-free invariant the
                # CI step asserts.
                removed = purge_pools(cfg.pool_token, shm_dir)
                tracer.emit("pool_purge", removed=removed)
            # Final counter snapshot: the supervisor releases every frame
            # handle it assembles, and the trace report balances leases
            # against releases across the whole process tree.
            emit_stats(tracer)
            tracer.close()
            # Lenient merge: a crashed worker may leave a torn final line;
            # the post-mortem must still see everything that did flush.
            self.merged_trace_path = rundir / MERGED_TRACE
            events = merge_traces(rundir, self.merged_trace_path, strict=False)
            self.perfetto_path = rundir / PERFETTO_TRACE
            write_chrome_trace(events, self.perfetto_path)

    # ------------------------------------------------------------------ #

    def _launch(self, rundir: Path, tracer: TraceWriter) -> None:
        """Start the launcher; its reader thread fills ``self.processes``."""
        env = os.environ.copy()
        env["PYTHONPATH"] = _repro_pythonpath()
        # Should the launcher die, its workers are re-parented here rather
        # than to init (which, in a container, may never reap them), so
        # the reader thread can reap them.  Process-wide and idempotent.
        prctl_setter(PR_SET_CHILD_SUBREAPER, 1)()
        with open(rundir / LAUNCHER_LOG, "wb") as log:
            launcher = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cluster.runtime.worker",
                    "--dir",
                    str(rundir),
                    *self.config.process_names,
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                cwd=str(rundir),
            )
        self.launcher = launcher
        tracer.emit("launch", pid=launcher.pid)
        self._reader = threading.Thread(
            target=self._read_launcher,
            args=(launcher, tracer),
            name="launcher-reader",
            daemon=True,
        )
        self._reader.start()

    def _read_launcher(self, launcher: subprocess.Popen, tracer: TraceWriter) -> None:
        """Turn the launcher's report lines into worker handles and exits.

        EOF means the launcher is gone.  Its normal exit follows its last
        child; any worker still without an exit line was orphaned by a
        launcher death and is reaped here.
        """
        for line in launcher.stdout:
            parts = line.decode(errors="replace").split()
            if len(parts) != 3:
                continue  # not a report line
            kind, name, value = parts
            if kind == "pid":
                self.processes[name] = WorkerHandle(name, int(value))
                tracer.emit("spawn", proc_name=name, pid=int(value))
            elif kind == "exit":
                self.processes[name]._set_exit(int(value))
        launcher.wait()
        for proc in list(self.processes.values()):
            if proc.returncode is None:
                proc._reap_orphan()

    def _close_launcher(self) -> None:
        """Wait for the launcher.  EOF on its stdin makes it SIGKILL any
        worker still running; one that ignores that too is killed."""
        launcher = self.launcher
        if launcher is None:
            return
        try:
            launcher.stdin.close()
        except OSError:
            pass
        self._reader.join(timeout=self.config.teardown_kill_s)
        if self._reader.is_alive():
            launcher.kill()
            self._reader.join()
        launcher.stdout.close()

    def _poll_children(self) -> Optional[str]:
        """Name of the first child that exited with a nonzero status."""
        dead: Optional[str] = None
        for name, proc in list(self.processes.items()):
            rc = proc.poll()
            if rc is not None and rc != 0:
                if name not in self._deaths_notified:
                    self._deaths_notified.add(name)
                    for hook in self._death_hooks:
                        try:
                            hook(name, rc)
                        except Exception:  # noqa: BLE001 - hooks can't kill polling
                            pass
                if dead is None:
                    dead = name
        return dead

    def _collect(
        self,
        collector: Listener,
        channels: Dict[int, Channel],
        layout: TileLayout,
        n_pics: int,
        n_tiles: int,
        timeout: float,
        tracer: TraceWriter,
        pools: Optional[PoolRegistry] = None,
    ) -> List[Frame]:
        cfg = self.config
        deadline = time.monotonic() + timeout

        def check(what: str) -> None:
            dead = self._poll_children()
            # Read after the poll: the reader thread records the
            # launcher's status before it reaps any orphaned worker, so
            # a launcher death is named as such, not as its victims'.
            launcher_rc = self.launcher.returncode if self.launcher else None
            if launcher_rc not in (None, 0):
                raise ClusterError(
                    f"worker launcher (pid {self.launcher.pid}) exited with "
                    f"status {launcher_rc} while {what}",
                    self._diagnostics(),
                )
            if dead is not None:
                raise ClusterError(
                    f"worker {dead!r} exited with status "
                    f"{self.processes[dead].returncode} while {what}",
                    self._diagnostics(),
                )
            if self._stopped:
                raise ClusterError(
                    f"shutdown requested while {what}", self._diagnostics()
                )
            if time.monotonic() >= deadline:
                raise ClusterError(
                    f"cluster timed out after {timeout:.0f}s while {what}",
                    self._diagnostics(),
                )

        # Accept one channel per tile decoder, polling liveness throughout.
        while len(channels) < n_tiles:
            check("waiting for decoders to connect")
            try:
                peer, ch = accept_labeled(collector, "supervisor", cfg, 0.25)
            except (ChannelError, ProtocolError):
                # Nobody dialed, or a decoder died between connect and
                # HELLO: the next check() names the dead worker.
                continue
            if not peer.startswith("dec"):
                raise ClusterError(f"unexpected connection from {peer!r}")
            channels[int(peer[3:])] = ch
            tracer.emit("accept", peer=peer)

        frame_q: "queue.Queue" = queue.Queue()
        for tid, ch in channels.items():
            _pump(ch, frame_q, f"dec{tid}")

        buckets: Dict[int, Dict[int, tuple]] = {}
        frames: Dict[int, Frame] = {}
        collected = 0
        eos_from: set = set()
        while collected < n_pics * n_tiles:
            check("collecting frames")
            try:
                kind, label, msg = frame_q.get(timeout=0.25)
            except queue.Empty:
                continue
            if kind == "closed" and label in eos_from:
                continue
            if kind in ("closed", "error"):
                settle_deadline = time.monotonic() + DEATH_SETTLE_S
                while time.monotonic() < settle_deadline:
                    check("collecting frames")
                    time.sleep(0.02)
                what = " disconnected mid-stream" if kind == "closed" else f": {msg}"
                raise ClusterError(f"{label}{what}", self._diagnostics())
            if msg.type == MSG_ERROR:
                proc_name, err = decode_error(msg.payload)
                raise ClusterError(
                    f"worker {proc_name!r} reported: {err}", self._diagnostics()
                )
            if msg.type == MSG_EOS:
                eos_from.add(label)
                continue
            if msg.type == MSG_FRAME_H:
                if pools is None:
                    raise ClusterError(
                        f"{label} sent a frame handle but the pool is off"
                    )
                tid, rect, y, cb, cr, handle, stamps = decode_tile_frame_hmsg(
                    msg.payload, pools.view
                )
            elif msg.type == MSG_FRAME:
                tid, rect, y, cb, cr, stamps = decode_tile_frame(msg.payload)
                handle = None
            else:
                raise ClusterError(f"unexpected message {msg.type} from {label}")
            buckets.setdefault(msg.picture, {})[tid] = (
                rect, y, cb, cr, handle, stamps,
            )
            collected += 1
            if len(buckets[msg.picture]) == n_tiles:
                crops = buckets.pop(msg.picture)
                frames[msg.picture] = self._assemble(layout, crops)
                # The paste copied every slab view out; give the slabs back.
                for _rect, _y, _cb, _cr, h, _st in crops.values():
                    if h is not None:
                        pools.release(h)
                tracer.emit("frame_assembled", picture=msg.picture)
                if cfg.telemetry:
                    self._emit_e2e(tracer, msg.picture, crops)
        return [frames[i] for i in sorted(frames)]

    @staticmethod
    def _emit_e2e(tracer: TraceWriter, picture: int, crops: Dict[int, tuple]) -> None:
        """End-to-end picture latency with per-hop attribution.

        The stamps (wall clock, one shared base per host) travel with the
        picture: ``t_root`` at pipeline ingress, ``t_split`` when the
        splitter ships the plans, ``t_dec`` when each decoder ships its
        tile.  The paste completes the path here.  The three hops are
        telescoping by construction — split + decode + collect is exactly
        the end-to-end figure — so the trace-report attribution and the
        e2e histogram cannot drift apart."""
        t_paste = time.time()
        stamps = [st for *_rest, st in crops.values() if st[0] > 0.0]
        if not stamps:
            return  # legacy peer or flushed tail without an ingress stamp
        t_root = stamps[0][0]
        t_split = max(st[1] for st in stamps)
        t_dec = max(st[2] for st in stamps)
        e2e = t_paste - t_root
        hops = {
            "split": t_split - t_root,
            "decode": t_dec - t_split,
            "collect": t_paste - t_dec,
        }
        critical = max(hops, key=hops.get)
        tracer.emit(
            "e2e",
            picture=picture,
            e2e_s=round(e2e, 6),
            critical=critical,
            **{f"{k}_s": round(v, 6) for k, v in hops.items()},
        )
        reg = registry()
        reg.histogram("e2e.latency").observe(max(0.0, e2e))
        reg.counter(f"e2e.critical.{critical}").inc()

    @staticmethod
    def _assemble(layout: TileLayout, crops: Dict[int, tuple]) -> Frame:
        """Paste each tile's partition crop — the multi-process equivalent
        of :func:`repro.wall.display.assemble_wall`."""
        out = Frame.blank(layout.width, layout.height)
        for _tid, (p, y, cb, cr, _h, _st) in crops.items():
            out.y[p.y0 : p.y1, p.x0 : p.x1] = y
            out.cb[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2] = cb
            out.cr[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2] = cr
        return out

    # ------------------------------------------------------------------ #

    def _shutdown(self, timeout: float, tracer: TraceWriter) -> None:
        """Graceful drain: all frames are in, so children exit on their own
        EOS cascade; escalate only past the deadline."""
        cfg = self.config
        deadline = time.monotonic() + min(timeout, cfg.shutdown_drain_s)
        for name, proc in list(self.processes.items()):
            remaining = max(0.1, deadline - time.monotonic())
            try:
                rc = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    rc = proc.wait(timeout=cfg.terminate_grace_s)
                except subprocess.TimeoutExpired:
                    rc = self._kill(proc)
            tracer.emit("child_exit", proc_name=name, returncode=rc)
        self._harvest_stage_times()
        tracer.emit("shutdown")

    def _teardown(self, tracer: TraceWriter) -> None:
        """Failure path: kill every child so nothing outlives the error."""
        self._stop_children(tracer, "child_killed")
        tracer.emit("teardown")

    def shutdown(self, reason: str = "requested") -> None:
        """Stop *this* run's process tree cleanly, recording why.

        The per-session stop the wall service needs: a service running one
        supervisor per session can end a single session without touching
        the rest of the pool — only this supervisor's children are
        signalled (terminate, escalating to kill past
        ``config.teardown_kill_s``).  Idempotent and safe to call from
        another thread; a concurrent :meth:`decode` surfaces the stop as a
        :class:`ClusterError` on its own thread.  ``reason`` lands in the
        supervisor trace so the post-mortem distinguishes a requested stop
        from a crash teardown.
        """
        if self._stopped:
            return
        self._stopped = True
        tracer = self._tracer
        if tracer is not None:
            tracer.emit("shutdown_requested", reason=reason)
        self._stop_children(tracer, "child_stopped")
        if tracer is not None:
            tracer.emit("shutdown_complete", reason=reason)

    def _stop_children(self, tracer: Optional[TraceWriter], event: str) -> None:
        """Terminate every running worker, kill the ones still running
        after ``config.teardown_kill_s``, and wait for all of them."""
        procs = list(self.processes.items())
        for _name, proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + self.config.teardown_kill_s
        for name, proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                self._kill(proc)
            if tracer is not None:
                tracer.emit(event, proc_name=name, returncode=proc.returncode)

    def _kill(self, proc: WorkerHandle) -> int:
        """SIGKILL one worker and wait for its exit line; a launcher too
        wedged to report it is killed, which reaps the worker here."""
        proc.kill()
        try:
            return proc.wait(timeout=self.config.teardown_kill_s)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            return proc.wait()

    def _harvest_stage_times(self) -> None:
        """Collect per-process stage timers out of the trace streams.

        ``stage_times_by_proc`` keeps every emitting process (splitters and
        decoders); ``stage_times`` stays the decoder-only aggregate for
        backward compatibility.
        """
        assert self.rundir is not None
        self.stage_times_by_proc = load_stage_times(self.rundir)
        for proc, st in self.stage_times_by_proc.items():
            if proc.startswith("dec"):
                self.stage_times.merge(st)

    def _diagnostics(self) -> str:
        """Per-process post-mortem: exit codes, log tails, and the last few
        trace events — a SIGKILLed worker's open span begins say *where*
        in the pipeline it died."""
        lines = []
        procs = list(self.processes.items())
        if self.launcher is not None:
            procs.insert(0, ("launcher", self.launcher))
        for name, proc in procs:
            rc = proc.returncode
            state = "running" if rc is None else f"exit {rc}"
            lines.append(f"--- {name} ({state}) ---")
            log = (self.rundir / f"{name}.log") if self.rundir else None
            if log and log.exists():
                tail = log.read_text(errors="replace").splitlines()[-12:]
                lines.extend(f"    {ln}" for ln in tail)
            trace = (self.rundir / f"{name}{TRACE_SUFFIX}") if self.rundir else None
            if trace and trace.exists():
                try:
                    events = read_trace_file(trace, strict=False)
                except OSError:
                    events = []
                if events:
                    lines.append(f"    last {POSTMORTEM_EVENTS} trace events:")
                    lines.extend(
                        f"      {ln}" for ln in span_tail(events, POSTMORTEM_EVENTS)
                    )
        return "\n".join(lines)
