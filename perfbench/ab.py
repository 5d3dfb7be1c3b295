"""On-demand A/B study of the cluster runtime's toggles.

For each of ``use_shm_pool``, ``ship_plans`` and ``telemetry`` the same
clip is decoded with the toggle on and off in ``repeats`` pairs, the
side that runs first alternating between pairs.  A delta is reported as
a number only when the two sides' interquartile ranges do not overlap;
otherwise it is "no measurable effect".  Next to the measured fps the
study prints the paper's rule ``F = min(k/t_s, 1/t_d)`` with ``t_s``
(splitter parse + plan) and ``t_d`` (slowest tile's MEI + execute)
taken from a traced replay.

    python3 perfbench/run.py --ab --seed 1 --repeats 5
"""

from __future__ import annotations

import os
import statistics
from statistics import median

from perfbench import inputs, wl_cluster

TOGGLES = ("use_shm_pool", "ship_plans", "telemetry")
AB_GOPS = 2


def _quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]


def main(ctx, repeats: int) -> int:
    inputs.ensure_banks(ctx.cache, print)
    bank = inputs.load(ctx.cache, "cluster")
    order = bank.order(ctx.seed, AB_GOPS)
    clip, oracle = bank.clip(order), bank.clip_digests(order)
    n = len(oracle)
    one = wl_cluster.first_picture_stream(clip)
    setups = [wl_cluster.decode_seconds(ctx, one, oracle[:1]) for _ in range(3)]
    setup_s = median([s for s in setups if s is not None])
    print(f"clip: {n} pictures, GOP order {order}; setup_s {setup_s:.3f} s")
    wrong = 0
    base_times = []
    for toggle in TOGGLES:
        sides = {True: [], False: []}
        for r in range(repeats):
            for value in ((True, False) if r % 2 == 0 else (False, True)):
                dt = wl_cluster.decode_seconds(ctx, clip, oracle, **{toggle: value})
                if dt is None:
                    wrong += 1
                else:
                    sides[value].append(dt)
        on, off = sides[True], sides[False]
        base_times += on
        lo_on, hi_on = _quartiles(on)
        lo_off, hi_off = _quartiles(off)
        delta = 100.0 * (median(off) - median(on)) / median(on)
        overlap = not (hi_off < lo_on or hi_on < lo_off)
        verdict = "no measurable effect" if overlap else f"{delta:+.1f}% decode_s when off"
        print(
            f"{toggle:<14} on {median(on):.3f} s [{lo_on:.3f}, {hi_on:.3f}]  "
            f"off {median(off):.3f} s [{lo_off:.3f}, {hi_off:.3f}]  -> {verdict}"
        )
    fps = (n - 1) / (median(base_times) - setup_s)
    f = wl_cluster.f_rule(ctx)
    print(
        f"paper rule: t_s {f['t_s']:.4f} s, t_d {f['t_d']:.4f} s, k={wl_cluster.K} -> "
        f"F = {f['F']:.3f} pictures/s; measured (N-1)/(decode_s-setup_s) = {fps:.3f} "
        f"pictures/s on {len(os.sched_getaffinity(0))} cores"
    )
    if wrong:
        print(f"error: {wrong} decodes were not bit-identical to the sequential decoder")
        return 1
    return 0
