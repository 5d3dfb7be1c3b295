"""Runtime partition policies: equalizer invariants, the versioned
layout-update wire codec, schedule semantics, controller gating, and the
end-to-end bit-identity of adaptive repartitioning in the threaded runner.

The multi-process cluster variants live in ``test_cluster_runtime.py``
territory (integration-marked at the bottom of this file): they spawn
real worker processes.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpeg2.constants import MB_SIZE
from repro.mpeg2.decoder import decode_stream
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.parallel.partition import (
    ContentAwarePolicy,
    FeedbackPolicy,
    LayoutSchedule,
    LayoutUpdate,
    PartitionController,
    build_controller,
    clamp_cell,
    content_profile,
    equalize_cells,
    equalize_pixel_bounds,
    is_repartition_point,
    make_policy,
)
from repro.parallel.threaded import ThreadedParallelDecoder
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import localized_detail_frames

# ---------------------------------------------------------------------- #
# boundary equalization
# ---------------------------------------------------------------------- #

weights_st = st.lists(
    st.one_of(
        st.floats(0, 1e9),
        st.just(float("nan")),
        st.just(float("inf")),
        st.floats(-100, 0),
    ),
    min_size=1,
    max_size=64,
)


@given(weights=weights_st, parts=st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_equalize_cells_invariants(weights, parts):
    """For ANY weight vector (NaN/inf/negative included): parts+1 strictly
    increasing boundaries spanning [0, n] — or ValueError when n < parts."""
    n = len(weights)
    if n < parts:
        with pytest.raises(ValueError):
            equalize_cells(weights, parts)
        return
    cuts = equalize_cells(weights, parts)
    assert len(cuts) == parts + 1
    assert cuts[0] == 0 and cuts[-1] == n
    assert all(b > a for a, b in zip(cuts, cuts[1:]))


@given(weights=weights_st, parts=st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_pixel_bounds_are_macroblock_aligned(weights, parts):
    if len(weights) < parts:
        return
    bounds = equalize_pixel_bounds(weights, parts)
    assert all(b % MB_SIZE == 0 for b in bounds)
    assert bounds[-1] == len(weights) * MB_SIZE


def test_uniform_weights_reproduce_the_static_grid():
    """Adaptive equalization under uniform load == the paper's fixed grid."""
    for mbw, parts in ((6, 2), (6, 3), (12, 4), (8, 2)):
        lay = TileLayout(mbw * MB_SIZE, 64, parts, 1)
        assert equalize_pixel_bounds(np.ones(mbw), parts) == lay.x_bounds


def test_cut_lands_nearest_the_target():
    # target 6.25: cutting before the crossing cell (4.5) is closer than
    # after it (8.5)
    assert equalize_cells([4, 0.5, 4, 4], 2) == [0, 2, 4]
    # a small imbalance either way keeps the static cut
    assert equalize_cells([0.9] * 3 + [1.0] * 3, 2) == [0, 3, 6]
    assert equalize_cells([1.1] * 3 + [1.0] * 3, 2) == [0, 3, 6]
    # ... while a large one moves it toward the heavy side
    assert equalize_cells([3.0] * 3 + [1.0] * 3, 2) == [0, 2, 6]
    assert equalize_cells([1.0] * 3 + [3.0] * 3, 2) == [0, 4, 6]


def test_concentrated_weight_still_yields_valid_bounds():
    """All the load in one cell: every part still gets >= 1 cell."""
    w = np.zeros(8)
    w[3] = 1e9
    cuts = equalize_cells(w, 4)
    assert cuts[0] == 0 and cuts[-1] == 8
    assert all(b > a for a, b in zip(cuts, cuts[1:]))


def test_clamp_cell_window():
    # previous bound at cell 2 (32px), 1 part after this one, 8 cells total
    assert clamp_cell(0, 32, 1, 8) == 3  # below window -> lo
    assert clamp_cell(9, 32, 1, 8) == 7  # above window -> hi
    assert clamp_cell(5, 32, 1, 8) == 5  # inside -> unchanged
    with pytest.raises(ValueError):
        clamp_cell(4, 7 * MB_SIZE, 1, 8)  # no room left


# ---------------------------------------------------------------------- #
# layout-update wire codec + schedule
# ---------------------------------------------------------------------- #


@given(
    version=st.integers(0, 2**32 - 1),
    eff=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    data=st.data(),
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_layout_update_wire_roundtrip(version, eff, m, n, data):
    """version + bounds survive encode/decode exactly."""
    xs = sorted(
        data.draw(
            st.lists(
                st.integers(1, 2**20), min_size=m, max_size=m, unique=True
            )
        )
    )
    ys = sorted(
        data.draw(
            st.lists(
                st.integers(1, 2**20), min_size=n, max_size=n, unique=True
            )
        )
    )
    upd = LayoutUpdate(version, eff, (0, *xs), (0, *ys))
    back = LayoutUpdate.decode(upd.encode())
    assert back == upd


def test_layout_update_truncated_raises():
    payload = LayoutUpdate(1, 5, (0, 32, 96), (0, 64)).encode()
    with pytest.raises(ValueError):
        LayoutUpdate.decode(payload[:-2])


def test_schedule_applies_versions_and_dedupes():
    base = TileLayout(96, 64, 2, 2)
    sched = LayoutSchedule(base)
    upd = LayoutUpdate(1, 5, (0, 48, 96), (0, 32, 64))
    lay = sched.apply(upd)
    assert lay is not None and lay.x_bounds == [0, 48, 96]
    # same version forwarded along a second channel path: ignored
    assert sched.apply(upd) is None
    # pictures before effective_from stay on the base layout
    assert sched.layout_for(4) is base
    assert sched.layout_for(5) is lay
    assert sched.layout_for(99) is lay
    assert sched.version_for(4) == 0
    assert sched.version_for(5) == 1
    # a later version may not rewind behind the staged history
    with pytest.raises(ValueError):
        sched.apply(LayoutUpdate(2, 3, (0, 32, 96), (0, 32, 64)))
    # ... but may replace the entry at the same effective picture
    lay2 = sched.apply(LayoutUpdate(2, 5, (0, 32, 96), (0, 32, 64)))
    assert sched.layout_for(5) is lay2
    assert sched.n_updates == 1


# ---------------------------------------------------------------------- #
# controller gating
# ---------------------------------------------------------------------- #


def _unit(new_gop: bool, closed: bool):
    gop = SimpleNamespace(closed_gop=closed) if new_gop else None
    return SimpleNamespace(new_gop=new_gop, gop=gop)


def test_is_repartition_point():
    assert is_repartition_point(_unit(True, True))
    assert not is_repartition_point(_unit(True, False))  # open GOP
    assert not is_repartition_point(_unit(False, False))  # mid-GOP picture


def test_controller_only_moves_at_closed_gop_boundaries():
    base = TileLayout(96, 64, 2, 1)
    ctrl = build_controller("feedback", base)
    assert isinstance(ctrl, PartitionController)
    # one tile is 9x slower: the policy clearly wants a move
    for pic in range(3):
        ctrl.observe_execute(pic, 0, 0.9)
        ctrl.observe_execute(pic, 1, 0.1)
    assert ctrl.maybe_update(0, _unit(True, True)) is None  # never picture 0
    assert ctrl.maybe_update(3, _unit(False, False)) is None  # mid-GOP
    assert ctrl.maybe_update(3, _unit(True, False)) is None  # open GOP
    upd = ctrl.maybe_update(3, _unit(True, True))
    assert upd is not None and upd.version == 1 and upd.effective_from == 3
    # the slow tile 0 shrank
    assert upd.x_bounds[1] < base.x_bounds[1]
    assert ctrl.schedule.current().x_bounds == list(upd.x_bounds)


def test_controller_suppresses_no_op_updates():
    base = TileLayout(96, 64, 2, 1)
    ctrl = build_controller("feedback", base)
    for pic in range(3):
        ctrl.observe_execute(pic, 0, 0.5)
        ctrl.observe_execute(pic, 1, 0.5)
    # perfectly balanced load proposes the current grid -> no update
    assert ctrl.maybe_update(3, _unit(True, True)) is None
    assert ctrl.schedule.n_updates == 0


def test_feedback_policy_waits_for_all_tiles():
    pol = FeedbackPolicy(6, 4, 2, 2)
    lay = TileLayout(96, 64, 2, 2)
    pol.observe_execute(0, 0, 0.4)
    pol.observe_execute(0, 1, 0.1)
    assert pol.propose(lay) is None  # tiles 2,3 silent so far
    pol.observe_execute(0, 2, 0.1)
    pol.observe_execute(0, 3, 0.1)
    assert pol.propose(lay) is not None


def test_build_controller_static_is_none():
    assert build_controller("static", TileLayout(96, 64, 2, 2)) is None
    with pytest.raises(ValueError):
        make_policy("bogus", 6, 4, 2, 2)


def test_content_policy_shrinks_the_busy_column_span():
    pol = ContentAwarePolicy(8, 4, 2, 1, uniform_floor=0.0)
    cols = np.ones(8)
    cols[:2] = 100.0  # left edge carries nearly all coded bits
    pol.observe_content(0, cols, np.ones(4))
    xb, yb = pol.propose(TileLayout(128, 64, 2, 1))
    assert xb[1] < 64  # boundary moved toward the busy edge
    assert yb == [0, 64]


# ---------------------------------------------------------------------- #
# content profile from a real parsed picture
# ---------------------------------------------------------------------- #


def test_content_profile_totals_match_macroblock_count():
    from repro.mpeg2.parser import PictureScanner
    from repro.parallel.mb_splitter import MacroblockSplitter

    clip = localized_detail_frames(96, 64, 3, seed=1)
    stream = Encoder(EncoderConfig(gop_size=3, b_frames=0)).encode(clip)
    sequence, pictures = PictureScanner(stream).scan()
    msplit = MacroblockSplitter(
        sequence, TileLayout(96, 64, 2, 2), collect_content=True
    )
    msplit.split_plans(pictures[0], 0)
    assert msplit.last_content is not None
    cols, rows = msplit.last_content
    assert cols.shape == (96 // MB_SIZE,)
    assert rows.shape == (64 // MB_SIZE,)
    # every macroblock contributed >= 1 "bit" to its column and row
    assert (cols >= 1).all() and (rows >= 1).all()
    assert cols.sum() == rows.sum()  # same bits, two projections


# ---------------------------------------------------------------------- #
# end-to-end: adaptive == static, bit for bit (threaded runner)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def detail_stream():
    clip = localized_detail_frames(96, 64, 20, seed=3)
    stream = Encoder(EncoderConfig(gop_size=5, b_frames=1)).encode(clip)
    return stream, decode_stream(stream)


@pytest.fixture(scope="module")
def corner_detail_stream():
    """The busy region stays in the top-left tile: a real content skew
    (the centred clip above is balanced to within one macroblock column
    under the coded-bit proxy, so nearest-target cuts keep the grid)."""
    clip = localized_detail_frames(
        96, 64, 20, center=(0.15, 0.2), radius_frac=0.15, seed=3
    )
    stream = Encoder(EncoderConfig(gop_size=5, b_frames=1)).encode(clip)
    return stream, decode_stream(stream)


@pytest.mark.parametrize("policy", ["content", "feedback"])
def test_threaded_adaptive_bit_identical(detail_stream, policy):
    stream, ref = detail_stream
    dec = ThreadedParallelDecoder(
        TileLayout(96, 64, 2, 2), k=2, partition_policy=policy
    )
    frames = dec.decode(stream)
    assert len(frames) == len(ref)
    assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, frames))


def test_threaded_adaptive_actually_repartitions(detail_stream):
    """The localized-detail stream must trigger at least one layout move
    (otherwise the bit-identity test above proves nothing adaptive ran)."""
    stream, ref = detail_stream
    dec = ThreadedParallelDecoder(
        TileLayout(96, 64, 2, 2), k=1, partition_policy="content"
    )
    frames = dec.decode(stream)
    assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, frames))
    assert len(dec.partition_updates) >= 1
    versions = [u.version for u in dec.partition_updates]
    assert versions == sorted(versions) and len(set(versions)) == len(versions)
    # a static run records none
    static = ThreadedParallelDecoder(TileLayout(96, 64, 2, 2))
    static.decode(stream)
    assert static.partition_updates == []


# Loaded into the cluster's worker interpreters (via PYTHONPATH) by the
# feedback variant below: the root's feedback policy sees a fixed busy
# time per tile — tile 0 three times the others — instead of measured
# CPU time, which on a 96x64 clip is ~2 ms/picture of mostly fixed cost
# and whose tile-to-tile order is noise.  The reports still travel the
# real decoder -> splitter -> root relay.
_DETERMINISTIC_BUSY = """
from repro.parallel import partition as _partition

_observe = _partition.FeedbackPolicy.observe_execute


def _fixed_busy(self, picture, tile, busy_s):
    _observe(self, picture, tile, 3.0 if tile == 0 else 1.0)


_partition.FeedbackPolicy.observe_execute = _fixed_busy
"""


@pytest.mark.integration
@pytest.mark.parametrize("policy", ["content", "feedback"])
def test_cluster_adaptive_bit_identical_with_repartition(
    detail_stream, corner_detail_stream, policy, tmp_path, monkeypatch
):
    """Full multi-process cluster: adaptive output equals sequential AND
    at least one versioned layout update was applied by every decoder.

    The content policy reads the splitters' coded-bit profiles of a clip
    whose busy region sits in one tile; the feedback policy reads a
    deterministic per-tile busy time (see ``_DETERMINISTIC_BUSY``)."""
    import os

    from repro.cluster.runtime import ClusterSupervisor, WallConfig
    from repro.perf.trace import read_trace_file

    if policy == "feedback":
        hook = tmp_path / "busy_hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(_DETERMINISTIC_BUSY)
        path = os.environ.get("PYTHONPATH")
        monkeypatch.setenv(
            "PYTHONPATH", str(hook) + (os.pathsep + path if path else "")
        )
    stream, ref = corner_detail_stream if policy == "content" else detail_stream
    sup = ClusterSupervisor(
        WallConfig(m=2, n=2, k=2, transport="unix", partition_policy=policy),
        trace_dir=str(tmp_path),
    )
    frames = sup.decode(stream, timeout=120.0)
    assert len(frames) == len(ref)
    assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, frames))
    updates = repartitions = 0
    for f in tmp_path.glob("*.jsonl"):
        for ev in read_trace_file(f):
            updates += ev.event == "layout_update"
            repartitions += ev.event == "repartition"
    assert updates >= 1, "no layout update issued on this stream"
    # every decoder applied each update exactly once (4 tiles)
    assert repartitions == 4 * updates
