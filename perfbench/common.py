"""Shared benchmark plumbing: statistics, in-memory spans, fingerprint.

Spans are the benchmark's own: they wrap calls into the program's layers
from the benchmark files (no span lives inside ``src/``).  Each span has
a name, a start, an end and a parent; a layer's self time is its span's
duration minus the part of that interval its children cover.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy

#: Percentile ladder for the tail figure: the highest one with at least
#: ten samples beyond it is reported next to the median.
_TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with >= 10 of ``n`` samples beyond it."""
    for p in _TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def latency_metrics(rep: "Report", lat: Sequence[float]) -> None:
    """Mean, median and tail of per-picture latencies (seconds in)."""
    p = tail_percentile(len(lat))
    rep.metric("latency_mean_ms", 1e3 * sum(lat) / len(lat), "ms", f"n={len(lat)}")
    rep.metric("latency_p50_ms", 1e3 * statistics.median(lat), "ms", f"n={len(lat)}")
    rep.metric("latency_tail_ms", 1e3 * float(numpy.percentile(lat, p)), "ms",
               f"p{p:g}, n={len(lat)}")


def busy_seconds(intervals: Iterable[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e is not None else 0.0)


# ----------------------------------------------------------------------- #
# spans
# ----------------------------------------------------------------------- #


class Tracer:
    """Nested spans kept in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []  # [name, start, end, parent]
        self._stack: List[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        children: Dict[int, List[tuple]] = {}
        for name, s, e, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((s, e))
        out: Dict[str, float] = {}
        for idx, (name, s, e, _parent) in enumerate(self.spans):
            covered = busy_seconds(
                (max(cs, s), min(ce, e)) for cs, ce in children.get(idx, ()) if min(ce, e) > max(cs, s)
            )
            out[name] = out.get(name, 0.0) + (e - s) - covered
        return out

    def totals(self) -> Dict[str, float]:
        """Total inclusive duration per span name, in seconds."""
        out: Dict[str, float] = {}
        for name, s, e, _parent in self.spans:
            out[name] = out.get(name, 0.0) + (e - s)
        return out

    def write(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


# ----------------------------------------------------------------------- #
# machine fingerprint
# ----------------------------------------------------------------------- #


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> Dict[str, object]:
    import scipy

    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = -1.0
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": round(load1, 2),
    }


# ----------------------------------------------------------------------- #
# result reporting
# ----------------------------------------------------------------------- #


class Report:
    """Collects metrics and human-readable lines for one run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        line = f"  {name:<42} {value:>14.6g} {unit}"
        if note:
            line += f"   ({note})"
        self.notes.append(line)

    def info(self, line: str) -> None:
        self.notes.append(f"  {line}")

    def emit(self, names: Sequence[str]) -> None:
        """Print the human report, then the one-line JSON result.

        A run with failures may lack metrics (nothing succeeded to time);
        it still reports its counts so ``correct`` reads false.
        """
        print(f"# {self.workload}")
        for line in self.notes:
            print(line)
        missing = [n for n in names if n not in self.metrics]
        if missing and not self.failed:
            raise RuntimeError(f"metrics not measured: {missing}")
        doc = {
            "correct": self.failed == 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {n: self.metrics[n] for n in names if n in self.metrics},
        }
        print(json.dumps(doc), flush=True)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def short_dir(base: Path, tag: str) -> Path:
    """A fresh run directory under ``base``.

    Unix socket paths are limited to ~107 bytes; the per-run directories
    hold sockets, so keep them short.
    """
    base.mkdir(parents=True, exist_ok=True)
    for i in range(10000):
        d = base / f"{tag}{i}"
        try:
            d.mkdir()
            return d
        except FileExistsError:
            continue
    raise RuntimeError(f"no free run directory under {base}")
