"""The repository benchmark: cluster runtime, wall service and wall plane.

Run from the repository root::

    python3 perfbench/run.py --workload cluster_1080p_ibbp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the traced replay and reports the per-layer metrics instead.
Either way every output is checked against the sequential decoder, and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--ab`` runs the on-demand A/B study of the cluster runtime's toggles
(``use_shm_pool``, ``ship_plans``, ``telemetry``) and the paper's
``F = min(k/t_s, 1/t_d)`` rule; it is not one of the checked workloads.

Inputs come from a GOP bank encoded on first use and cached under
``.bench_cache/``; per-run scratch lives under ``.bench_work/`` and span
dumps under ``.bench_out/``, all inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cluster_1080p_ibbp", "service_4x_paced", "wall_1080p_intra")


class Ctx:
    """Per-run settings handed to the workload modules."""

    def __init__(self, args, work: Path):
        self.seed = args.seed
        self.seconds = args.seconds
        self.cache = ROOT / ".bench_cache"
        self.out = ROOT / ".bench_out"
        self.work = work


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def replay_report(rep, tr, plain_s: float, traced_s: float, n_pics: int) -> None:
    """The replay's own accounting: layer self-times against wall time."""
    self_t = tr.self_times()
    total = sum(self_t.values())
    rep.metric("replay.wall_s", traced_s, "s", f"traced replay of {n_pics} pictures")
    rep.metric("replay.layer_self_sum_s", total, "s", f"{100 * total / traced_s:.1f}% of replay.wall_s")
    rep.metric("replay.trace_overhead_s", traced_s - plain_s, "s", f"untraced replay {plain_s:.4f} s")
    rep.info("layer self-times (s):")
    for name, v in sorted(self_t.items(), key=lambda kv: -kv[1]):
        rep.info(f"    {name:<40} {v:10.4f}  {100 * v / traced_s:5.1f}%")


def _run(args, ctx) -> int:
    from perfbench import common, inputs, wl_cluster, wl_service, wl_wall

    fp = common.fingerprint()  # load average before any work of this run
    gen0 = time.perf_counter()
    built = inputs.ensure_banks(ctx.cache, common.log)
    gen_s = time.perf_counter() - gen0
    bench = _benchmark_json()
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[kind]]
    module = {
        "cluster_1080p_ibbp": wl_cluster,
        "service_4x_paced": wl_service,
        "wall_1080p_intra": wl_wall,
    }[args.workload]

    rep = common.Report(args.workload)
    rep.info("machine: " + json.dumps(fp))
    rep.info(
        f"input generation: {gen_s:.2f} s this run; bank built once in "
        f"{built['build_s']:.1f} s (encode {built['encode_s']:.1f} s); never part of a metric"
    )
    if args.trace:
        tr_path = ctx.out / f"{args.workload}-seed{args.seed}.spans.json"

        def report_and_dump(rep, tr, plain_s, traced_s, n_pics):
            replay_report(rep, tr, plain_s, traced_s, n_pics)
            tr.write(tr_path)

        module.run_traced(ctx, rep, report_and_dump)
        # Layers this workload does not exercise read 0 (no work done); a
        # failed run reports only what it measured.
        idle = [m for m in bench["per_layer"] if m["name"] not in rep.metrics]
        if not rep.failed:
            for m in idle:
                rep.metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            rep.info(f"not on this workload's path (reported as 0): {len(idle)} layer metrics")
        rep.info(f"spans written to {tr_path.relative_to(ROOT)}")
    else:
        module.run(ctx, rep)
    rep.info(
        f"error_ratio {rep.failed / max(1, rep.attempted):.4f} "
        f"({rep.failed}/{rep.attempted} pictures missing or not bit-identical)"
    )
    rep.emit(names)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="repository benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ab", action="store_true", help="A/B study of the cluster toggles")
    ap.add_argument("--repeats", type=int, default=5, help="pairs per toggle for --ab")
    args = ap.parse_args(argv)
    if not args.ab and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no repro sources to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import short_dir

    work = short_dir(ROOT / ".bench_work", "r")
    # Everything the program creates with tempfile stays in the scratch dir.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    ctx = Ctx(args, work)
    try:
        if args.ab:
            from perfbench import ab

            return ab.main(ctx, args.repeats)
        return _run(args, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
