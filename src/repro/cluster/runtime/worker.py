"""Worker launcher: ``python -m repro.cluster.runtime.worker --dir D NAME...``.

The supervisor starts one launcher per decode.  The launcher imports the
role code once, then ``os.fork()``\\ s one child per worker name, so the
``1 + k + m*n`` workers share one interpreter start-up instead of paying
it each.  The forks happen before the launcher starts any thread.

Each child points fds 1 and 2 at ``{name}.log`` and stdin at
``/dev/null``, opens its own JSONL trace stream and runs its role with
the configuration the launcher read from ``cluster.json``; any uncaught
exception is traced, printed to the log, and converted to a nonzero exit
status.

The launcher reports to the supervisor on stdout, one line per event:
``pid NAME PID`` after each fork and ``exit NAME RC`` as it reaps each
child (``RC`` is negative for a signal, like ``Popen.returncode``).  When
its stdin reaches EOF — the supervisor is gone — it SIGKILLs the
children still running.  It exits after its last child.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import signal
import sys
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.cluster.runtime.config import WallConfig
from repro.cluster.runtime.roles import (
    CONFIG_FILE,
    run_decoder,
    run_root,
    run_splitter,
)
from repro.perf.trace import TRACE_SUFFIX, TraceWriter

#: Linux ``prctl`` options: signal this process when its parent dies;
#: re-parent this process's orphaned descendants to it.
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36
#: How often the launcher looks for exited children between stdin checks.
REAP_POLL_S = 0.01


def _pin(cfg: WallConfig, name: str) -> None:
    """Pin this worker to one core, round-robin over the affinity mask.

    Decoders are the hot processes, so they claim cores first (one each,
    wrapping); root and the splitters share the remaining slots.  On a
    box with fewer cores than workers this degrades to plain sharing —
    pinning never *removes* parallelism, it only stops the scheduler from
    stacking two decoders on one core while another sits idle.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return
    order = [f"dec{t}" for t in range(cfg.n_tiles)] + [
        "root"
    ] + [f"split{s}" for s in range(cfg.k)]
    try:
        idx = order.index(name)
    except ValueError:
        return
    os.sched_setaffinity(0, {cores[idx % len(cores)]})


def run_worker(cfg: WallConfig, rundir: Path, name: str) -> int:
    """Run one role to completion; the process exit status."""
    if cfg.pin_cores and hasattr(os, "sched_setaffinity"):
        _pin(cfg, name)
    # Context manager: even if the role body raises (or the emit of the
    # error event itself fails), the file handle is closed and the last
    # buffered line flushed — a crashing worker cannot leak the handle.
    with TraceWriter(
        rundir / f"{name}{TRACE_SUFFIX}", name, spans=cfg.telemetry
    ) as tracer:
        tracer.emit("start", pid=os.getpid(), role=name.rstrip("0123456789"))
        try:
            if name == "root":
                run_root(cfg, rundir, tracer)
            elif name.startswith("split"):
                run_splitter(cfg, rundir, int(name[5:]), tracer)
            elif name.startswith("dec"):
                run_decoder(cfg, rundir, int(name[3:]), tracer)
            else:
                raise ValueError(f"unknown worker name {name!r}")
            tracer.emit("exit")
        except Exception as exc:
            tracer.emit("error", error=repr(exc))
            traceback.print_exc(file=sys.stderr)
            return 1
    return 0


def prctl_setter(option: int, value: int) -> Callable[[], None]:
    """A callable applying Linux ``prctl(option, value)`` to the calling
    process; a no-op where there is no ``prctl``.  Resolve it before a
    fork so the child does no ``ctypes`` lookup."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return lambda: None
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return lambda: prctl(option, value, 0, 0, 0)


def _child(
    cfg: WallConfig,
    rundir: Path,
    name: str,
    launcher_pid: int,
    arm_pdeathsig: Callable[[], None],
) -> None:
    """Body of one forked worker; never returns."""
    rc = 1
    try:
        # A killed launcher takes its workers with it.
        arm_pdeathsig()
        if os.getppid() != launcher_pid:
            # The launcher died before the signal was armed: die of it
            # anyway, so every orphan reports the same status.
            os.kill(os.getpid(), signal.SIGKILL)
        log = os.open(rundir / f"{name}.log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.close(null)
        rc = run_worker(cfg, rundir, name)
    except Exception:  # the exit status is the report; the log says why
        traceback.print_exc(file=sys.stderr)
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(rc)


def _say(line: str) -> None:
    """One report line to the supervisor; a vanished reader is ignored
    (stdin EOF is how the launcher learns the supervisor is gone)."""
    try:
        os.write(1, (line + "\n").encode())
    except OSError:
        pass


def launch(cfg: WallConfig, rundir: Path, names: List[str]) -> int:
    """Fork one child per worker name, then reap them all."""
    # Every object the role code imported is shared copy-on-write with
    # the children; freezing keeps the children's collector from
    # touching (and so copying) those pages.
    gc.freeze()
    me = os.getpid()
    arm_pdeathsig = prctl_setter(PR_SET_PDEATHSIG, signal.SIGKILL)
    children: Dict[int, str] = {}
    for name in names:
        pid = os.fork()
        if pid == 0:
            _child(cfg, rundir, name, me, arm_pdeathsig)
        children[pid] = name
        _say(f"pid {name} {pid}")
    _reap(children)
    return 0


def _reap(children: Dict[int, str]) -> None:
    """Report each child's exit as it happens; on stdin EOF kill the rest."""
    watch_stdin = True
    while children:
        ready, _, _ = select.select([0] if watch_stdin else [], [], [], REAP_POLL_S)
        if ready and not os.read(0, 4096):
            watch_stdin = False
            for pid in children:
                os.kill(pid, signal.SIGKILL)
        for pid in list(children):
            wpid, status = os.waitpid(pid, os.WNOHANG)
            if wpid:
                rc = os.waitstatus_to_exitcode(status)
                _say(f"exit {children.pop(pid)} {rc}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="repro-cluster-worker")
    ap.add_argument("--dir", required=True, help="run directory (rendezvous root)")
    ap.add_argument("names", nargs="+", help="worker names, e.g. root split0 dec0")
    args = ap.parse_args(argv)

    rundir = Path(args.dir)
    cfg = WallConfig.from_dict(
        json.loads((rundir / CONFIG_FILE).read_text())["config"]
    )
    return launch(cfg, rundir, args.names)


if __name__ == "__main__":
    sys.exit(main())
