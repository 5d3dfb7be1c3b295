"""Columnar (structure-of-arrays) macroblock data of one coded picture.

:class:`PictureColumns` is what every whole-picture consumer compiles
from: the splitter's per-tile plans, the sequential decoder's batched
reconstruction, the wall receiver's rectangle reconstruction and the
content-aware partition profile.  One row per macroblock in stream
order (skipped ones included), one ``(n_blocks, 64)`` int32 stack for
every coded block's scan-order levels.

:func:`parse_picture_columns` fills the table straight from the
bitstream in one fused per-slice loop: it decodes against a local bit
window with :mod:`repro.mpeg2.fast_vlc`'s lookup tables, appends each
macroblock's fields to flat record buffers and writes every level
straight into one preallocated coefficient stack — no per-macroblock
objects, no per-block arrays.
Its error behaviour (exception classes, and which malformed input
raises at all) mirrors the object parser in :mod:`repro.mpeg2.parser`,
which stays as the reference and as the source of
:meth:`PictureColumns.from_items`.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

import numpy as np

from repro.bitstream import BitReader, BitstreamError
from repro.mpeg2 import fast_vlc
from repro.mpeg2.batch_reconstruct import ReconstructionPlan, validate_mv
from repro.mpeg2.constants import EOS_BITS, PictureType, is_slice_start_code
from repro.mpeg2.fast_vlc import STEP_EOB, STEP_ESCAPE
from repro.mpeg2.macroblock import COMPONENT_OF_BLOCK
from repro.mpeg2.structures import PictureHeader
from repro.mpeg2.tables import QUANTISER_SCALE
from repro.mpeg2.vlc import VLCError

# Per-macroblock record layout of the fused parser's flat buffer.
_ADDR, _FLAGS, _QCODE, _MVFX, _MVFY, _MVBX, _MVBY, _CBP = range(8)
_BIT_START, _BODY_START, _BIT_END = 8, 9, 10
_REC = 11
# Bits of the record's flags field.
F_QUANT, F_FWD, F_BWD, F_PATTERN, F_INTRA, F_SKIPPED = 1, 2, 4, 8, 16, 32

#: Columns of :attr:`PictureColumns.state` (the ``CodingState`` snapshot
#: before each macroblock): qscale code, the three DC predictors, the four
#: motion-vector predictors (fwd x/y, bwd x/y), prev_forward, prev_backward.
STATE_FIELDS = ("qscale_code", "dc0", "dc1", "dc2", "pmv_fx", "pmv_fy",
                "pmv_bx", "pmv_by", "prev_forward", "prev_backward")

_WIN_BYTES = 32
# Zero tail: a window refill near the end of the buffer never runs short.
_PAD = bytes(2 * _WIN_BYTES)


def _flagged_mb_type_lut(lut):
    """fast_vlc's macroblock_type LUT with the record's flags prepended:
    ``(flags, quant, forward, backward, pattern, intra, length)``."""
    out = []
    for hit in lut:
        if hit is None:
            out.append(None)
            continue
        (quant, mf, mbk, pattern, intra), length = hit
        flags = (F_QUANT * quant | F_FWD * mf | F_BWD * mbk
                 | F_PATTERN * pattern | F_INTRA * intra)
        out.append((flags, quant, mf, mbk, pattern, intra, length))
    return out


_MB_TYPE_LUTS = {
    ptype: (_flagged_mb_type_lut(lut), width)
    for ptype, (lut, width) in fast_vlc._MB_TYPE_LUTS.items()
}


def _div2_toward_zero(v: np.ndarray) -> np.ndarray:
    """Chroma MV component: luma MV / 2 rounded toward zero (§7.6.3.7)."""
    return np.where(v >= 0, v // 2, -((-v) // 2))


class PictureColumns:
    """Per-macroblock columns of one parsed picture, in stream order.

    Macroblock columns (length :attr:`n`): ``address``/``mbx``/``mby``;
    the coded type flags ``quant``/``fwd_flag``/``bwd_flag``/``pattern``/
    ``intra`` plus ``skipped``; ``qscale_code`` (and the mapped
    ``qscale``); vector presence ``has_f``/``has_b`` with the absolute
    half-pel vectors ``mvf_raw``/``mvb_raw`` (zero where absent);
    ``cbp``; block bookkeeping ``nblk``/``first_blk`` (rows of
    :attr:`scans`); bit extents ``bit_start``/``body_start``/``bit_end``
    (-1 for skipped macroblocks); ``slice_row``/``slice_index``; and
    ``state``, an ``(n, 10)`` array of the predictor state before each
    macroblock (:data:`STATE_FIELDS`), or ``None`` for a lean parse (and
    for a picture without macroblocks).

    Block columns (length ``n_blocks``): ``scans`` ``(n_blocks, 64)``
    int32 scan-order levels and ``slots`` (0-5, Y0..Y3/Cb/Cr), stacked in
    stream order with slots ascending within a macroblock.
    """

    def __init__(
        self,
        picture_type: PictureType,
        mb_width: int,
        rec: np.ndarray,
        has_f: np.ndarray,
        has_b: np.ndarray,
        block_mask: np.ndarray,
        scans: np.ndarray,
        slice_row: np.ndarray,
        slice_index: np.ndarray,
        state: Optional[np.ndarray],
    ):
        n = self.n = len(rec)
        self.picture_type = picture_type
        self.mb_width = mb_width
        self.address = rec[:, _ADDR]
        self.mbx = self.address % mb_width
        self.mby = self.address // mb_width
        flags = rec[:, _FLAGS]
        self.quant = (flags & F_QUANT) != 0
        self.fwd_flag = (flags & F_FWD) != 0
        self.bwd_flag = (flags & F_BWD) != 0
        self.pattern = (flags & F_PATTERN) != 0
        self.intra = (flags & F_INTRA) != 0
        self.skipped = (flags & F_SKIPPED) != 0
        self.qscale_code = rec[:, _QCODE]
        self.qscale = QUANTISER_SCALE.astype(np.int64)[self.qscale_code]
        self.has_f, self.has_b = has_f, has_b
        self.mvf_raw = rec[:, _MVFX:_MVFY + 1]
        self.mvb_raw = rec[:, _MVBX:_MVBY + 1]
        self.cbp = rec[:, _CBP]
        self.bit_start = rec[:, _BIT_START]
        self.body_start = rec[:, _BODY_START]
        self.bit_end = rec[:, _BIT_END]
        self.slice_row = slice_row
        self.slice_index = slice_index
        self.state = state
        # block_mask: (n, 6) bool, which of each macroblock's slots carry
        # a coded block; row-major nonzero order is the stack order.
        self.nblk = block_mask.sum(axis=1, dtype=np.int64)
        self.first_blk = np.cumsum(self.nblk) - self.nblk
        self.slots = np.nonzero(block_mask)[1].astype(np.int64)
        self.scans = scans
        if len(scans) != len(self.slots):
            raise ValueError("coefficient stack does not match the block mask")

        # Staged (plan) view of the motion data, mirroring
        # PlanBuilder._stage: a P "No MC" macroblock gets a zero forward
        # vector; directions follow vector presence, not the coded flags.
        if picture_type == PictureType.P:
            forced = ~self.fwd_flag
            dir_f = ~self.intra & (has_f | forced)
            eff_f = np.where(forced[:, None], 0, self.mvf_raw)
        else:
            dir_f = ~self.intra & has_f
            eff_f = self.mvf_raw
        dir_b = ~self.intra & has_b
        self.mb_dir = np.stack([dir_f, dir_b], axis=1).reshape(n, 2)
        self.mb_mv = np.stack(
            [
                np.where(dir_f[:, None], eff_f, 0),
                np.where(dir_b[:, None], self.mvb_raw, 0),
            ],
            axis=1,
        ).reshape(n, 2, 2)

    @property
    def n_skipped(self) -> int:
        return int(self.skipped.sum())

    # ------------------------------------------------------------------ #
    # construction from macroblock objects (the reference / oracle path)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_items(
        cls, items: Sequence, picture_type: PictureType, mb_width: int
    ) -> "PictureColumns":
        """Columns of a list of ``ParsedMB`` (the object parser's output).

        The oracle the fused parser is tested against, and the path any
        hand-built or mutated item list takes to the array consumers.
        """
        n = len(items)
        rec = np.zeros((n, _REC), np.int64)
        has_f = np.zeros(n, bool)
        has_b = np.zeros(n, bool)
        mask = np.zeros((n, 6), bool)
        scans = []
        slice_row = np.zeros(n, np.int64)
        slice_index = np.zeros(n, np.int64)
        lean = n == 0 or items[0].state_before is None
        state = None if lean else np.zeros((n, len(STATE_FIELDS)), np.int64)
        for i, it in enumerate(items):
            mb = it.mb
            r = rec[i]
            r[_ADDR], r[_QCODE], r[_CBP] = mb.address, mb.qscale_code, mb.cbp
            r[_FLAGS] = (
                F_QUANT * mb.quant
                | F_FWD * mb.motion_forward
                | F_BWD * mb.motion_backward
                | F_PATTERN * mb.pattern
                | F_INTRA * mb.intra
                | F_SKIPPED * mb.skipped
            )
            if mb.mv_fwd is not None:
                has_f[i] = True
                r[_MVFX], r[_MVFY] = mb.mv_fwd
            if mb.mv_bwd is not None:
                has_b[i] = True
                r[_MVBX], r[_MVBY] = mb.mv_bwd
            r[_BIT_START], r[_BODY_START], r[_BIT_END] = (
                mb.bit_start, mb.body_start, mb.bit_end,
            )
            if mb.intra or mb.pattern:
                for slot, blk in enumerate(mb.blocks):
                    if blk is not None:
                        mask[i, slot] = True
                        scans.append(blk)
            slice_row[i], slice_index[i] = it.slice_row, it.slice_index
            if state is not None:
                s = it.state_before
                state[i] = (
                    s["qscale_code"], *s["dc_pred"], *s["pmv"][0], *s["pmv"][1],
                    s["prev_forward"], s["prev_backward"],
                )
        stack = (
            np.stack(scans).astype(np.int32, copy=False)
            if scans
            else np.zeros((0, 64), np.int32)
        )
        return cls(picture_type, mb_width, rec, has_f, has_b, mask, stack,
                   slice_row, slice_index, state)

    # ------------------------------------------------------------------ #
    # selections
    # ------------------------------------------------------------------ #

    def in_box(self, mbx0: int, mby0: int, mbx1: int, mby1: int) -> np.ndarray:
        """Stream-order indices of macroblocks in ``[mbx0, mbx1) x [mby0, mby1)``."""
        mask = (
            (self.mbx >= mbx0) & (self.mbx < mbx1)
            & (self.mby >= mby0) & (self.mby < mby1)
        )
        return np.nonzero(mask)[0]

    def members(self, tile) -> np.ndarray:
        """Stream-order indices of macroblocks tile ``t`` displays.

        A macroblock intersects ``tile.rect`` iff it lies inside the
        rect's macroblock-aligned expansion — exactly ``tile.coverage``,
        so membership is a box test in macroblock coordinates.
        """
        r = tile.rect
        return self.in_box(r.x0 // 16, r.y0 // 16, (r.x1 - 1) // 16 + 1,
                           (r.y1 - 1) // 16 + 1)

    def mei_candidates(self):
        """Per direction: (active mask, luma rect columns, chroma rect columns).

        Active means the macroblock carries a nonzero coded vector in that
        direction — the only case an MEI exchange can be needed for.
        Rects are computed for every row; garbage where inactive.
        """
        out = []
        for flag, has, mv in (
            (self.fwd_flag, self.has_f, self.mvf_raw),
            (self.bwd_flag, self.has_b, self.mvb_raw),
        ):
            mvx, mvy = mv[:, 0], mv[:, 1]
            act = ~self.intra & flag & has & ((mvx != 0) | (mvy != 0))
            lx0 = self.mbx * 16 + (mvx >> 1)
            ly0 = self.mby * 16 + (mvy >> 1)
            lrect = (lx0, ly0, lx0 + 16 + (mvx & 1), ly0 + 16 + (mvy & 1))
            cx, cy = _div2_toward_zero(mvx), _div2_toward_zero(mvy)
            cx0 = self.mbx * 8 + (cx >> 1)
            cy0 = self.mby * 8 + (cy >> 1)
            crect = (cx0, cy0, cx0 + 8 + (cx & 1), cy0 + 8 + (cy & 1))
            out.append((act, lrect, crect))
        return out

    # ------------------------------------------------------------------ #
    # plan compilation
    # ------------------------------------------------------------------ #

    def check_staging(self, frame_width: int, frame_height: int, idx: np.ndarray) -> None:
        """Raise what ``PlanBuilder.add`` would for the macroblocks ``idx``.

        The vectorized test finds the first offending macroblock (in
        ``idx`` order); the scalar checks then run on that one row only,
        so the exception and its message match the builder's exactly.
        """
        mb_dir, mb_mv = self.mb_dir[idx], self.mb_mv[idx]
        mbx, mby = self.mbx[idx], self.mby[idx]
        bad = ~self.intra[idx] & ~mb_dir[:, 0] & ~mb_dir[:, 1]
        for d in range(2):
            mvx, mvy = mb_mv[:, d, 0], mb_mv[:, d, 1]
            check = mb_dir[:, d] & ((mvx != 0) | (mvy != 0))
            if not check.any():
                continue
            x0 = mbx * 16 + (mvx >> 1)
            y0 = mby * 16 + (mvy >> 1)
            v = (
                (x0 < 0)
                | (y0 < 0)
                | (x0 + 16 + (mvx & 1) > frame_width)
                | (y0 + 16 + (mvy & 1) > frame_height)
            )
            cx, cy = _div2_toward_zero(mvx), _div2_toward_zero(mvy)
            xc = mbx * 8 + (cx >> 1)
            yc = mby * 8 + (cy >> 1)
            v |= (
                (xc < 0)
                | (yc < 0)
                | (xc + 8 + (cx & 1) > frame_width // 2)
                | (yc + 8 + (cy & 1) > frame_height // 2)
            )
            bad |= check & v
        hits = np.flatnonzero(bad)
        if not len(hits):
            return
        j = int(hits[0])
        if not mb_dir[j].any():
            raise ValueError("prediction requested with no motion vectors")
        for d in range(2):
            mv = (int(mb_mv[j, d, 0]), int(mb_mv[j, d, 1]))
            if mb_dir[j, d] and mv != (0, 0):
                validate_mv(int(mbx[j]), int(mby[j]), mv, frame_width, frame_height)
        raise AssertionError("vectorized staging check disagreed with the scalar one")

    def plan(
        self, idx: np.ndarray, matrices, dc_scaler: int
    ) -> ReconstructionPlan:
        """Gather the macroblocks ``idx`` into one :class:`ReconstructionPlan`.

        Reproduces ``PlanBuilder.build`` over the same macroblocks exactly:
        residual rows are assigned in stream order, while the coefficient
        stack is partitioned intra-first (stream order within each class,
        slots ascending within a macroblock).
        """
        t_intra = self.intra[idx]
        hb = self.nblk[idx] > 0
        res_vals = np.where(hb, np.cumsum(hb) - 1, -1)

        def block_meta(mask: np.ndarray):
            sel = idx[mask]
            c = self.nblk[sel]
            tot = int(c.sum())
            if tot == 0:
                z = np.zeros(0, np.int64)
                return z, z, z
            ends = np.cumsum(c)
            offs = np.arange(tot, dtype=np.int64) - np.repeat(ends - c, c)
            rows = np.repeat(self.first_blk[sel], c) + offs
            return rows, np.repeat(self.qscale[sel], c), np.repeat(res_vals[mask], c)

        rows_i, q_i, r_i = block_meta(t_intra & hb)
        rows_n, q_n, r_n = block_meta(~t_intra & hb)
        rows = np.concatenate([rows_i, rows_n])
        if len(rows) == len(self.scans) and (
            not len(rows) or (rows[0] == 0 and (np.diff(rows) == 1).all())
        ):
            scans, slots = self.scans, self.slots  # whole stack, in order
        else:
            scans, slots = self.scans[rows], self.slots[rows]
        return ReconstructionPlan(
            picture_type=self.picture_type,
            mb_width=self.mb_width,
            matrices=matrices,
            dc_scaler=dc_scaler,
            scans=scans,
            block_qscale=np.concatenate([q_i, q_n]),
            block_res=np.concatenate([r_i, r_n]),
            block_slot=slots,
            n_intra_blocks=len(rows_i),
            mb_x=self.mbx[idx],
            mb_y=self.mby[idx],
            mb_intra=t_intra,
            mb_dir=self.mb_dir[idx],
            mb_mv=self.mb_mv[idx],
            mb_res_row=res_vals.astype(np.int64, copy=False),
            n_res=int(hb.sum()),
        )


# ---------------------------------------------------------------------- #
# the fused parser
# ---------------------------------------------------------------------- #


def parse_picture_columns(
    br: BitReader, header: PictureHeader, mb_width: int, mb_height: int,
    lean: bool = False,
) -> PictureColumns:
    """VLC-parse every slice after the picture header into columns.

    ``br`` sits just past the picture header.  Equivalent, field for
    field, to the object parser (``MacroblockParser`` on the reference
    path) followed by :meth:`PictureColumns.from_items`; ``lean`` skips
    the predictor-state columns.

    The loop is one function on purpose: every symbol decode is inline
    (including the five-line window refill before each peek), because a
    Python call per VLC costs more than the decode itself.  Each peek
    needs at most 24 bits, and ``wlim`` keeps at least that many in the
    window.  Error checks sit exactly where the object parser's
    ``BitReader.skip_bits``/``read`` and ``fast_vlc`` decoders raise, so
    malformed input fails with the same exception class on both paths.
    """
    data = br.data
    nbits = br.nbits
    pdata = data + _PAD
    from_bytes = int.from_bytes
    ptype = int(header.picture_type)
    is_p = ptype == PictureType.P
    mbt_lut, mbt_w = _MB_TYPE_LUTS[ptype]
    mbt_mask = (1 << mbt_w) - 1
    addr_lut, addr_w = fast_vlc._ADDR_LUT, fast_vlc._ADDR_BITS
    addr_mask = (1 << addr_w) - 1
    mot_lut, mot_sh = fast_vlc._MOTION_LUT, 24 - fast_vlc._MOTION_BITS
    dcl_lut, dcl_sh = fast_vlc._DC_LUMA_LUT, 24 - fast_vlc._DC_LUMA_BITS
    dcc_lut, dcc_sh = fast_vlc._DC_CHROMA_LUT, 24 - fast_vlc._DC_CHROMA_BITS
    cbp_lut, cbp_w = fast_vlc._CBP_LUT, fast_vlc._CBP_BITS
    cbp_mask = (1 << cbp_w) - 1
    inter_lut = fast_vlc._COEFF_LUT_T0
    intra_lut = fast_vlc._COEFF_LUT_T1 if header.intra_vlc_format == 1 else inter_lut
    f_code = header.f_code
    dc_reset = header.dc_reset

    rec = array("q")
    st = None if lean else array("q")
    # The coefficient stack is written in place: a calloc'd buffer sized
    # for every block the raster can hold (untouched pages stay free).
    cap = 6 * mb_width * mb_height
    stack = np.zeros(cap << 6, np.int32)
    buf = memoryview(stack)
    slice_starts = []  # (first macroblock row of the slice, row, slice id)
    n_blocks = 0
    n_mbs = 0

    slice_index = 0
    while True:
        code = br.peek_start_code()
        if code is None or not is_slice_start_code(code):
            break
        br.next_start_code()
        row = code - 1
        if row >= mb_height:
            raise BitstreamError(f"slice row {row} beyond picture height")
        q = br.read(5)
        if q == 0:
            raise BitstreamError("slice quantiser_scale_code of zero")
        if br.read(1):
            raise BitstreamError("extra_information_slice unsupported")
        slice_starts.append((n_mbs, row, slice_index))
        dc = [dc_reset, dc_reset, dc_reset]
        pmv = [0, 0, 0, 0]
        pf = pb = 0
        prev_addr = row * mb_width - 1
        row_end = (row + 1) * mb_width
        first_in_slice = True
        pos = br.pos
        wend = wlim = -1  # forces the first window refill
        win = 0
        while True:
            # -- end of slice: 23 zero bits or end of buffer ------------- #
            if pos >= nbits:
                break
            if pos > wlim:
                wb = pos >> 3
                win = from_bytes(pdata[wb:wb + _WIN_BYTES], "big")
                wend = (wb + _WIN_BYTES) << 3
                wlim = wend - 24
            if not (win >> (wend - pos - EOS_BITS)) & 0x7FFFFF:
                break
            bit_start = pos
            # -- macroblock_address_increment (escapes add 33) ----------- #
            increment = 0
            while True:
                if pos > wlim:
                    wb = pos >> 3
                    win = from_bytes(pdata[wb:wb + _WIN_BYTES], "big")
                    wend = (wb + _WIN_BYTES) << 3
                    wlim = wend - 24
                hit = addr_lut[(win >> (wend - pos - addr_w)) & addr_mask]
                if hit is None:
                    raise VLCError(f"no address-increment code matches at bit {pos}")
                sym, length = hit
                pos += length
                if pos > nbits:
                    raise BitstreamError("skip past end of bitstream")
                if sym >= 0:
                    increment += sym
                    break
                increment += 33
            address = prev_addr + increment
            if address >= row_end:
                raise BitstreamError("macroblock address beyond slice row")
            # -- skipped macroblocks covered by the increment ------------ #
            # One record per skip, address left 0 (filled in vectorized at
            # the end: a skip always sits one past the row before it).
            # Within a run only the first skip sees the pre-run state.
            nskip = address - prev_addr - 1
            if nskip > 0 and not first_in_slice:
                if st is not None:
                    st.extend((q, dc[0], dc[1], dc[2], pmv[0], pmv[1], pmv[2],
                               pmv[3], pf, pb))
                if is_p:
                    pmv = [0, 0, 0, 0]
                    rec.extend((0, F_SKIPPED | F_FWD, q, 0, 0, 0, 0, 0, -1, -1,
                                -1) * nskip)
                else:
                    rec.extend((
                        0, F_SKIPPED | (F_FWD if pf else 0) | (F_BWD if pb else 0),
                        q, pmv[0] if pf else 0, pmv[1] if pf else 0,
                        pmv[2] if pb else 0, pmv[3] if pb else 0, 0, -1, -1, -1,
                    ) * nskip)
                dc = [dc_reset, dc_reset, dc_reset]
                if st is not None and nskip > 1:
                    st.extend((q, dc_reset, dc_reset, dc_reset, pmv[0], pmv[1],
                               pmv[2], pmv[3], pf, pb) * (nskip - 1))
                n_mbs += nskip
            first_in_slice = False
            if st is not None:
                st.extend((q, dc[0], dc[1], dc[2], pmv[0], pmv[1], pmv[2],
                           pmv[3], pf, pb))
            body_start = pos
            # -- macroblock_type ---------------------------------------- #
            if pos > wlim:
                wb = pos >> 3
                win = from_bytes(pdata[wb:wb + _WIN_BYTES], "big")
                wend = (wb + _WIN_BYTES) << 3
                wlim = wend - 24
            hit = mbt_lut[(win >> (wend - pos - mbt_w)) & mbt_mask]
            if hit is None:
                raise VLCError(f"no macroblock_type code matches at bit {pos}")
            flags, quant, mf, mbk, pattern, intra, length = hit
            pos += length
            if pos > nbits:
                raise BitstreamError("skip past end of bitstream")
            if quant:
                if pos + 5 > nbits + 32:
                    raise BitstreamError("peek far past end of bitstream")
                if pos > wlim:
                    wb = pos >> 3
                    win = from_bytes(pdata[wb:wb + _WIN_BYTES], "big")
                    wend = (wb + _WIN_BYTES) << 3
                    wlim = wend - 24
                qc = (win >> (wend - pos - 5)) & 0x1F
                pos += 5
                if qc == 0:
                    raise BitstreamError("quantiser_scale_code of zero")
                q = qc
            # -- motion vectors (§7.6.3) -------------------------------- #
            mv = [0, 0, 0, 0]
            for d, on in ((0, mf), (1, mbk)) if mf or mbk else ():
                if not on:
                    continue
                for comp in (0, 1):
                    r_size = f_code[d][comp] - 1
                    if pos > wlim:
                        wb = pos >> 3
                        win = from_bytes(pdata[wb:wb + _WIN_BYTES], "big")
                        wend = (wb + _WIN_BYTES) << 3
                        wlim = wend - 24
                    v = (win >> (wend - pos - 24)) & 0xFFFFFF
                    hit = mot_lut[v >> mot_sh]
                    if hit is None:
                        raise VLCError(f"no motion code matches at bit {pos}")
                    mcode, length = hit
                    if mcode == 0:
                        pos += length
                        if pos > nbits:
                            raise BitstreamError("skip past end of bitstream")
                        delta = 0
                    else:
                        if r_size:
                            residual = (v >> (24 - length - r_size)) & ((1 << r_size) - 1)
                            pos += length + r_size
                        else:
                            residual = 0
                            pos += length
                        if pos > nbits:
                            raise BitstreamError("skip past end of bitstream")
                        a = ((abs(mcode) - 1) << r_size) + residual + 1
                        delta = a if mcode > 0 else -a
                    f = 1 << r_size
                    k = 2 * d + comp
                    val = pmv[k] + delta
                    if val < -16 * f:
                        val += 32 * f
                    elif val > 16 * f - 1:
                        val -= 32 * f
                    pmv[k] = mv[k] = val
            # -- blocks --------------------------------------------------- #
            if intra:
                cbp = 0x3F
            elif pattern:
                if pos > wlim:
                    wb = pos >> 3
                    win = from_bytes(pdata[wb:wb + _WIN_BYTES], "big")
                    wend = (wb + _WIN_BYTES) << 3
                    wlim = wend - 24
                hit = cbp_lut[(win >> (wend - pos - cbp_w)) & cbp_mask]
                if hit is None:
                    raise VLCError(f"no coded_block_pattern code matches at bit {pos}")
                cbp, length = hit
                pos += length
                if pos > nbits:
                    raise BitstreamError("skip past end of bitstream")
            else:
                cbp = 0
            if cbp:
                if n_blocks + 6 > cap:
                    # More macroblocks than the raster holds (rows coded
                    # twice): grow the stack.
                    stack = np.concatenate([stack[: n_blocks << 6],
                                            np.zeros(len(stack), np.int32)])
                    cap = len(stack) >> 6
                    buf = memoryview(stack)
                lut = intra_lut if intra else inter_lut
                for b in range(6):
                    if not cbp & (32 >> b):
                        continue
                    # k: flat stack index of the last level written
                    k = n_blocks << 6
                    lim = k + 63
                    n_blocks += 1
                    if pos > wlim:
                        wb = pos >> 3
                        win = from_bytes(pdata[wb:wb + _WIN_BYTES], "big")
                        wend = (wb + _WIN_BYTES) << 3
                        wlim = wend - 24
                    if intra:
                        # dct_dc_differential (§7.2.1)
                        c = COMPONENT_OF_BLOCK[b]
                        v = (win >> (wend - pos - 24)) & 0xFFFFFF
                        hit = dcl_lut[v >> dcl_sh] if c == 0 else dcc_lut[v >> dcc_sh]
                        if hit is None:
                            raise VLCError(f"no dct_dc_size code matches at bit {pos}")
                        size, length = hit
                        if size == 0:
                            pos += length
                            if pos > nbits:
                                raise BitstreamError("skip past end of bitstream")
                        else:
                            pos += length + size
                            if pos > nbits:
                                raise BitstreamError("skip past end of bitstream")
                            dd = (v >> (24 - length - size)) & ((1 << size) - 1)
                            if dd < (1 << (size - 1)):
                                dd -= (1 << size) - 1
                            dc[c] += dd
                        buf[k] = dc[c]
                    elif (win >> (wend - pos - 1)) & 1:
                        # A leading '1' at the first coefficient of a
                        # non-intra block is (0, +/-1), sign next (§7.2.2).
                        buf[k] = -1 if (win >> (wend - pos - 2)) & 1 else 1
                        pos += 2
                    else:
                        k -= 1
                    # run/level symbols up to end-of-block
                    wtop = wend - 16
                    while True:
                        if pos > wlim:
                            wb = pos >> 3
                            win = from_bytes(pdata[wb:wb + _WIN_BYTES], "big")
                            wend = (wb + _WIN_BYTES) << 3
                            wlim = wend - 24
                            wtop = wend - 16
                        step, level, length = lut[(win >> (wtop - pos)) & 0xFFFF]
                        pos += length
                        if step > 0:
                            k += step
                        elif step == STEP_EOB:
                            break
                        elif step == STEP_ESCAPE:
                            # 6-bit run + 12-bit two's-complement level
                            v = (win >> (wend - pos - 18)) & 0x3FFFF
                            level = v & 0xFFF
                            if level >= 2048:
                                level -= 4096
                            if level == 0:
                                raise VLCError("escape-coded level of zero")
                            pos += 18
                            k += (v >> 12) + 1
                        else:
                            raise VLCError(f"no DCT coefficient code matches at bit {pos}")
                        if k > lim:
                            raise BitstreamError(
                                "AC run overruns block" if intra else "run overruns block"
                            )
                        buf[k] = level
            # -- predictor resets (§7.2.1, §7.6.3.4) --------------------- #
            if intra:
                pmv = [0, 0, 0, 0]
            else:
                dc = [dc_reset, dc_reset, dc_reset]
                if is_p and not mf:
                    pmv = [0, 0, 0, 0]
            pf, pb = mf, mbk
            rec.extend((address, flags, q, mv[0], mv[1], mv[2], mv[3], cbp,
                        bit_start, body_start, pos))
            n_mbs += 1
            prev_addr = address
        br.pos = pos
        slice_index += 1

    recs = np.frombuffer(rec, np.int64).reshape(n_mbs, _REC)
    flags = recs[:, _FLAGS]
    skipped = np.flatnonzero(flags & F_SKIPPED)
    if len(skipped):
        rows = np.arange(n_mbs)
        anchor = np.maximum.accumulate(np.where(flags & F_SKIPPED, 0, rows))
        recs[skipped, _ADDR] = (recs[anchor, _ADDR] + rows - anchor)[skipped]
    cbp = np.where((flags & (F_INTRA | F_PATTERN)) != 0, recs[:, _CBP], 0)
    mask = (cbp[:, None] >> np.arange(5, -1, -1)) & 1 != 0
    buf.release()
    scans = stack[: n_blocks << 6].reshape(n_blocks, 64)
    starts = np.array([s[0] for s in slice_starts] + [n_mbs], np.int64)
    counts = np.diff(starts)
    slice_row = np.repeat(np.array([s[1] for s in slice_starts], np.int64), counts)
    slice_idx = np.repeat(np.array([s[2] for s in slice_starts], np.int64), counts)
    state = None if not st else np.frombuffer(st, np.int64).reshape(
        n_mbs, len(STATE_FIELDS))
    return PictureColumns(
        header.picture_type, mb_width, recs,
        (flags & F_FWD) != 0, (flags & F_BWD) != 0, mask, scans,
        slice_row, slice_idx, state,
    )
