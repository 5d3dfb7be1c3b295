"""Differential tests: the fused columnar parse vs the object parser.

``MacroblockParser.parse_picture`` (fast VLC enabled) runs one fused
per-slice loop straight into :class:`~repro.mpeg2.columns.PictureColumns`;
``parse_picture_objects`` is the macroblock-object parser it replaced.
On encoder streams covering every syntax path the parser has — I/P/B
pictures, several slices per row, skip runs long enough for address
escapes, both intra VLC tables, every DC precision, custom quantiser
matrices, per-macroblock quantiser changes — the columns and the lazily
materialized ``items`` must equal the object parser's, field for field,
whether the object parser runs the fast or the reference VLC decoders.
Corrupted pictures (bit flips, truncation) must parse identically on
both sides or fail with the same exception class.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpeg2 import fast_vlc
from repro.mpeg2.columns import PictureColumns
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.workloads.synthetic import moving_pattern_frames

COLUMN_FIELDS = (
    "address", "mbx", "mby", "quant", "fwd_flag", "bwd_flag", "pattern",
    "intra", "skipped", "qscale_code", "qscale", "has_f", "has_b",
    "mvf_raw", "mvb_raw", "cbp", "nblk", "first_blk", "slots", "scans",
    "bit_start", "body_start", "bit_end", "slice_row", "slice_index",
    "state", "mb_dir", "mb_mv",
)
MB_FIELDS = (
    "address", "quant", "motion_forward", "motion_backward", "pattern",
    "intra", "qscale_code", "mv_fwd", "mv_bwd", "cbp", "skipped",
    "bit_start", "body_start", "bit_end",
)

STEEP = np.clip(np.add.outer(np.arange(8), np.arange(8)) * 16 + 8, 1, 255)


def _square_frames(width, height, n, seed):
    """Flat frames with one small square drifting near the left edge:
    every other macroblock of a row skips, so long rows need address
    escapes (increments > 33)."""
    rng = np.random.default_rng(seed)
    frames = []
    for t in range(n):
        f = Frame.blank(width, height, y=128)
        x, y = 4 + 3 * t, int(rng.integers(0, max(1, height - 12)))
        f.y[y : y + 12, x : x + 12] = 200
        frames.append(f)
    return frames


def _encode(cfg):
    w, h = cfg["mb_w"] * 16, cfg["mb_h"] * 16
    if cfg["content"] == "square":
        frames = _square_frames(w, h, cfg["frames"], cfg["seed"])
    else:
        frames = moving_pattern_frames(w, h, cfg["frames"], seed=cfg["seed"])
    modulator = None
    if cfg["modulate"]:
        def modulator(mx, my, activity):
            return 3 + (mx + 2 * my) % 7
    enc = EncoderConfig(
        gop_size=cfg["frames"],
        b_frames=cfg["b_frames"],
        search_range=3,
        slices_per_row=cfg["slices"],
        intra_vlc_format=cfg["vlc"],
        intra_dc_precision=cfg["dc"],
        intra_matrix=STEEP if cfg["matrices"] else None,
        non_intra_matrix=STEEP.T.copy() if cfg["matrices"] else None,
        quant_modulator=modulator,
    )
    return Encoder(enc).encode(frames)


def _assert_columns_equal(a: PictureColumns, b: PictureColumns) -> None:
    assert a.n == b.n and a.picture_type == b.picture_type
    for name in COLUMN_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
            continue
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape, name
        assert np.array_equal(x, y), name


def _assert_items_equal(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.state_before == w.state_before
        assert (g.slice_row, g.slice_index) == (w.slice_row, w.slice_index)
        for name in MB_FIELDS:
            assert getattr(g.mb, name) == getattr(w.mb, name), name
        for gb, wb in zip(g.mb.blocks, w.mb.blocks):
            assert (gb is None) == (wb is None)
            if gb is not None:
                assert gb.dtype == wb.dtype and np.array_equal(gb, wb)


def _check_picture(parser, data):
    for lean in (False, True):
        fused = parser.parse_picture(data, lean=lean)
        obj = parser.parse_picture_objects(data, lean=lean)
        with fast_vlc.use_reference():
            ref = parser.parse_picture(data, lean=lean)
        assert fused.n_skipped == obj.n_skipped == ref.n_skipped
        assert fused.n_coded == obj.n_coded
        for want in (obj, ref):
            _assert_columns_equal(
                fused.columns,
                PictureColumns.from_items(
                    want.items, want.header.picture_type, want.mb_width
                ),
            )
        _assert_columns_equal(fused.columns, ref.columns)
        _assert_items_equal(fused.items, obj.items)
        _assert_items_equal(fused.items, ref.items)


configs = st.fixed_dictionaries(
    {
        "mb_w": st.sampled_from([3, 5, 40]),
        "mb_h": st.integers(1, 3),
        "frames": st.integers(3, 5),
        "b_frames": st.integers(0, 2),
        "slices": st.integers(1, 3),
        "vlc": st.sampled_from([0, 1]),
        "dc": st.sampled_from([8, 9, 10]),
        "matrices": st.booleans(),
        "modulate": st.booleans(),
        "content": st.sampled_from(["moving", "square"]),
        "seed": st.integers(0, 3),
    }
)


@given(cfg=configs)
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_fused_parse_matches_object_parser(cfg):
    if cfg["slices"] > cfg["mb_w"]:
        cfg["slices"] = cfg["mb_w"]
    stream = _encode(cfg)
    seq, pictures = PictureScanner(stream).scan()
    parser = MacroblockParser(seq)
    for unit in pictures:
        _check_picture(parser, unit.data)


# Fixed streams that together cover every feature (asserted below); the
# corruption tests mutate their pictures.
FIXED = {
    "escapes": dict(mb_w=40, mb_h=2, frames=4, b_frames=1, slices=1, vlc=0,
                    dc=8, matrices=False, modulate=False, content="square",
                    seed=0),
    "multislice": dict(mb_w=5, mb_h=3, frames=5, b_frames=2, slices=3, vlc=1,
                       dc=10, matrices=True, modulate=True, content="moving",
                       seed=1),
    "dc9": dict(mb_w=5, mb_h=2, frames=4, b_frames=1, slices=2, vlc=0, dc=9,
                matrices=False, modulate=True, content="moving", seed=2),
}


@pytest.fixture(scope="module")
def fixed_pictures():
    out = {}
    for name, cfg in FIXED.items():
        seq, pictures = PictureScanner(_encode(cfg)).scan()
        out[name] = (MacroblockParser(seq), [u.data for u in pictures])
    return out


def test_fixed_streams_cover_every_feature(fixed_pictures):
    seen = {"I": 0, "P": 0, "B": 0}
    escapes = quant = slices = 0
    for parser, pictures in fixed_pictures.values():
        for data in pictures:
            _check_picture(parser, data)
            cols = parser.parse_picture(data).columns
            seen[cols.picture_type.name] += 1
            quant += int(cols.quant.sum())
            same_slice = cols.slice_index[1:] == cols.slice_index[:-1]
            coded = np.flatnonzero(~cols.skipped)
            steps = np.diff(cols.address[coded])
            in_slice = cols.slice_index[coded][1:] == cols.slice_index[coded][:-1]
            escapes += int((steps[in_slice] > 33).sum())
            rows = cols.slice_row
            slices += int((~same_slice & (rows[1:] == rows[:-1])).sum())
    assert all(seen.values()), seen
    assert escapes and quant and slices


def _parse_or_error(fn):
    try:
        return fn(), None
    except Exception as exc:  # the exception class is what is compared
        return None, type(exc)


def _check_corrupted(parser, data):
    fused, f_err = _parse_or_error(lambda: parser.parse_picture(data))
    obj, o_err = _parse_or_error(lambda: parser.parse_picture_objects(data))
    assert f_err == o_err
    if f_err is None:
        _assert_columns_equal(
            fused.columns,
            PictureColumns.from_items(obj.items, obj.header.picture_type,
                                      obj.mb_width),
        )
        _assert_items_equal(fused.items, obj.items)
    return f_err


@given(
    name=st.sampled_from(sorted(FIXED)),
    pick=st.integers(0, 10),
    flips=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=4),
)
@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_bit_flipped_pictures_agree(fixed_pictures, name, pick, flips):
    parser, pictures = fixed_pictures[name]
    data = bytearray(pictures[pick % len(pictures)])
    for f in flips:
        bit = f % (8 * len(data))
        data[bit >> 3] ^= 0x80 >> (bit & 7)
    _check_corrupted(parser, bytes(data))


@given(
    name=st.sampled_from(sorted(FIXED)),
    pick=st.integers(0, 10),
    cut=st.floats(0.0, 1.0),
)
@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_truncated_pictures_agree(fixed_pictures, name, pick, cut):
    parser, pictures = fixed_pictures[name]
    data = pictures[pick % len(pictures)]
    _check_corrupted(parser, data[: int(cut * len(data))])


def test_dc_precision_11_rejected_on_both_paths(fixed_pictures):
    """intra_dc_precision 11 (code 3) is outside this decoder's profile:
    the shared picture-header parse rejects it before either slice loop."""
    from repro.bitstream import BitstreamError

    parser, pictures = fixed_pictures["dc9"]
    data = bytearray(pictures[0])
    ext = data.index(b"\x00\x00\x01\xb5")
    # extension id (4 bits) + four f_codes (16) precede the 2-bit field
    data[ext + 6] |= 0x0C
    assert _check_corrupted(parser, bytes(data)) is BitstreamError


def test_staging_errors_match_plan_builder(fixed_pictures):
    """Corrupt vectors raise from the column compilers exactly as
    ``PlanBuilder.add`` would — the same ValueError text — and
    ``reconstruct_rect`` only checks the macroblocks it reconstructs."""
    from repro.mpeg2.batch_reconstruct import PlanBuilder
    from repro.mpeg2.decoder import reconstruct_picture
    from repro.mpeg2.frames import Frame
    from repro.mpeg2.motion import Rect
    from repro.wall.receiver import reconstruct_rect

    parser, pictures = fixed_pictures["dc9"]
    seq = parser.sequence
    ref = Frame.blank(seq.width, seq.height)
    for mutate in ("far_vector", "no_vector"):
        parsed = next(
            p for p in (parser.parse_picture(d) for d in pictures)
            if p.header.picture_type.name == "B"
        )
        victim = next(it.mb for it in parsed.items if not it.mb.intra)
        if mutate == "far_vector":
            victim.motion_forward, victim.mv_fwd = True, (10_000, 0)
        else:
            victim.motion_forward = victim.motion_backward = False
            victim.mv_fwd = victim.mv_bwd = None
        builder = PlanBuilder(
            parsed.header.picture_type, parsed.mb_width, seq.width, seq.height
        )
        with pytest.raises(ValueError) as want:
            for it in parsed.items:
                builder.add(it.mb)
        with pytest.raises(ValueError) as got:
            reconstruct_picture(parsed, seq, ref, ref)
        assert str(got.value) == str(want.value)
        vx, vy = victim.mb_xy(parsed.mb_width)
        inside = Rect(vx * 16, vy * 16, vx * 16 + 16, vy * 16 + 16)
        with pytest.raises(ValueError) as got:
            reconstruct_rect(parsed, seq, ref, ref, inside)
        assert str(got.value) == str(want.value)
        # a rectangle that excludes the victim reconstructs fine
        ox = 1 if vx == 0 else 0
        reconstruct_rect(parsed, seq, ref, ref, Rect(ox * 16, 0, ox * 16 + 16, 16))
