"""Macroblock-layer syntax: coding state, encode, and parse (§6.2.5, §7.6).

This module is shared by three consumers with different needs:

- the **encoder** serializes macroblocks (`encode_macroblock`);
- the **reference decoder** parses and then reconstructs pixels;
- the **second-level splitter** parses *without* reconstruction, but needs
  the exact bit extent of every macroblock (``bit_start``/``body_start``/
  ``bit_end``) plus the predictor state at each macroblock boundary so it
  can build State Propagation Headers for sub-pictures.

The running prediction state (DC predictors, motion-vector predictors,
quantiser scale, previous-macroblock mode for B skips) lives in
:class:`CodingState`; its snapshot/restore methods are what the SPH
mechanism serializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.bitstream import BitReader, BitstreamError, BitWriter
from repro.mpeg2 import fast_vlc, vlc
from repro.mpeg2.constants import PictureType
from repro.mpeg2.structures import PictureHeader

# DC predictor reset value for the default intra_dc_precision of 8 (§7.2.1);
# CodingState uses the picture header's precision-dependent value.
DC_RESET = 128


@dataclass
class CodingState:
    """Intra-slice prediction state (§7.2.1 DC, §7.6.3 motion vectors)."""

    picture: PictureHeader
    qscale_code: int = 1
    dc_pred: Optional[List[int]] = None
    # pmv[direction][component]: 0=forward/1=backward, 0=horizontal/1=vertical
    pmv: List[List[int]] = field(default_factory=lambda: [[0, 0], [0, 0]])
    # Previous macroblock's prediction directions (B-picture skip semantics)
    prev_forward: bool = False
    prev_backward: bool = False

    def __post_init__(self) -> None:
        if self.dc_pred is None:
            self.reset_dc()

    def reset_dc(self) -> None:
        self.dc_pred = [self.picture.dc_reset] * 3

    def reset_mv(self) -> None:
        self.pmv = [[0, 0], [0, 0]]

    def snapshot(self) -> dict:
        """Deep copy of every field an SPH must carry."""
        return {
            "qscale_code": self.qscale_code,
            "dc_pred": list(self.dc_pred),
            "pmv": [list(self.pmv[0]), list(self.pmv[1])],
            "prev_forward": self.prev_forward,
            "prev_backward": self.prev_backward,
        }

    def restore(self, snap: dict) -> None:
        self.qscale_code = snap["qscale_code"]
        self.dc_pred = list(snap["dc_pred"])
        self.pmv = [list(snap["pmv"][0]), list(snap["pmv"][1])]
        self.prev_forward = snap["prev_forward"]
        self.prev_backward = snap["prev_backward"]


@dataclass
class Macroblock:
    """One parsed (or to-be-encoded) macroblock.

    ``blocks`` holds six 64-entry scan-order level vectors (Y0..Y3, Cb, Cr);
    uncoded blocks are ``None``.  For intra macroblocks the DC level (QDC,
    absolute, not differential) sits at scan position 0.
    Motion vectors are absolute half-pel values after prediction.
    """

    address: int
    quant: bool = False
    motion_forward: bool = False
    motion_backward: bool = False
    pattern: bool = False
    intra: bool = False
    qscale_code: int = 1
    mv_fwd: Optional[Tuple[int, int]] = None
    mv_bwd: Optional[Tuple[int, int]] = None
    cbp: int = 0
    blocks: List[Optional[np.ndarray]] = field(default_factory=lambda: [None] * 6)
    skipped: bool = False  # True for synthesized skipped macroblocks
    # bit extents in the containing stream (filled by the parser)
    bit_start: int = -1  # first bit of the address-increment VLC
    body_start: int = -1  # first bit after the address-increment VLC(s)
    bit_end: int = -1  # one past the last bit of the macroblock

    @property
    def flags(self) -> vlc.VLCTable:
        raise AttributeError  # guard against accidental use

    def type_flags(self) -> Tuple[bool, bool, bool, bool, bool]:
        return (
            self.quant,
            self.motion_forward,
            self.motion_backward,
            self.pattern,
            self.intra,
        )

    def mb_xy(self, mb_width: int) -> Tuple[int, int]:
        return self.address % mb_width, self.address // mb_width


def make_skipped(address: int, state: CodingState) -> Macroblock:
    """Synthesize the reconstruction-relevant view of a skipped macroblock.

    P-pictures: zero forward vector, predictors reset (§7.6.6.2).
    B-pictures: previous macroblock's directions with the current PMVs
    (§7.6.6.3); predictors unchanged.
    """
    mb = Macroblock(address=address, skipped=True, qscale_code=state.qscale_code)
    if state.picture.picture_type == PictureType.P:
        mb.motion_forward = True
        mb.mv_fwd = (0, 0)
        state.reset_mv()
    else:
        mb.motion_forward = state.prev_forward
        mb.motion_backward = state.prev_backward
        if mb.motion_forward:
            mb.mv_fwd = (state.pmv[0][0], state.pmv[0][1])
        if mb.motion_backward:
            mb.mv_bwd = (state.pmv[1][0], state.pmv[1][1])
    state.reset_dc()
    return mb


# ---------------------------------------------------------------------- #
# DC differential coding (§7.2.1, tables B.12/B.13)
# ---------------------------------------------------------------------- #


def _encode_dc(bw: BitWriter, qdc: int, component: int, state: CodingState) -> None:
    diff = qdc - state.dc_pred[component]
    state.dc_pred[component] = qdc
    size = int(abs(diff)).bit_length()
    table = vlc.DC_SIZE_LUMA if component == 0 else vlc.DC_SIZE_CHROMA
    table.encode(bw, size)
    if size:
        if diff > 0:
            bw.write(diff, size)
        else:
            bw.write(diff + (1 << size) - 1, size)


def _decode_dc(br: BitReader, component: int, state: CodingState) -> int:
    if fast_vlc.ENABLED:
        diff = fast_vlc.decode_dc_delta(br, component)
    else:
        table = vlc.DC_SIZE_LUMA if component == 0 else vlc.DC_SIZE_CHROMA
        size = table.decode(br)
        if size == 0:
            diff = 0
        else:
            v = br.read(size)
            diff = v if v >= (1 << (size - 1)) else v - (1 << size) + 1
    qdc = state.dc_pred[component] + diff
    state.dc_pred[component] = qdc
    return qdc


# ---------------------------------------------------------------------- #
# motion vectors (§7.6.3)
# ---------------------------------------------------------------------- #


def _fold_delta(delta: int, f_code: int) -> int:
    """Fold a prediction residual into the legal wrap range [-16f, 16f-1]."""
    f = 1 << (f_code - 1)
    rng = 32 * f
    low, high = -16 * f, 16 * f - 1
    while delta < low:
        delta += rng
    while delta > high:
        delta -= rng
    return delta


def _encode_mv(
    bw: BitWriter, mv: Tuple[int, int], direction: int, state: CodingState
) -> None:
    for comp in range(2):
        f_code = state.picture.f_code_for(direction, comp)
        delta = _fold_delta(mv[comp] - state.pmv[direction][comp], f_code)
        vlc.encode_motion_delta(bw, delta, f_code - 1)
        state.pmv[direction][comp] = mv[comp]


def _decode_mv(br: BitReader, direction: int, state: CodingState) -> Tuple[int, int]:
    out = [0, 0]
    decode_delta = (
        fast_vlc.decode_motion_delta if fast_vlc.ENABLED else vlc.decode_motion_delta
    )
    for comp in range(2):
        f_code = state.picture.f_code_for(direction, comp)
        delta = decode_delta(br, f_code - 1)
        f = 1 << (f_code - 1)
        low, high, rng = -16 * f, 16 * f - 1, 32 * f
        val = state.pmv[direction][comp] + delta
        if val < low:
            val += rng
        elif val > high:
            val -= rng
        state.pmv[direction][comp] = val
        out[comp] = val
    return out[0], out[1]


# ---------------------------------------------------------------------- #
# blocks
# ---------------------------------------------------------------------- #


def _encode_block(
    bw: BitWriter, scan: np.ndarray, component: int, intra: bool, state: CodingState
) -> None:
    if intra:
        _encode_dc(bw, int(scan[0]), component, state)
        rl = []
        prev = 0
        for pos in range(1, 64):
            lv = int(scan[pos])
            if lv:
                rl.append((pos - prev - 1, lv))
                prev = pos
        vlc.encode_coefficients(
            bw, rl, intra=True, table_one=state.picture.intra_vlc_format == 1
        )
    else:
        rl = []
        prev = -1
        for pos in range(64):
            lv = int(scan[pos])
            if lv:
                rl.append((pos - prev - 1, lv))
                prev = pos
        if not rl:
            raise ValueError("coded non-intra block must have a nonzero level")
        vlc.encode_coefficients(bw, rl, intra=False)


def _decode_block(
    br: BitReader, component: int, intra: bool, state: CodingState
) -> np.ndarray:
    scan = np.zeros(64, dtype=np.int32)
    table_one = False
    if intra:
        if fast_vlc.ENABLED:
            qdc = state.dc_pred[component] + fast_vlc.decode_dc_delta(br, component)
            state.dc_pred[component] = qdc
            scan[0] = qdc
        else:
            scan[0] = _decode_dc(br, component, state)
        table_one = state.picture.intra_vlc_format == 1
    if fast_vlc.ENABLED:
        fast_vlc.decode_ac_into(br, scan, intra, table_one)
    elif intra:
        pos = 0
        for run, level in vlc.decode_coefficients(br, intra=True, table_one=table_one):
            pos += run + 1
            if pos > 63:
                raise BitstreamError("AC run overruns block")
            scan[pos] = level
    else:
        pos = -1
        for run, level in vlc.decode_coefficients(br, intra=False):
            pos += run + 1
            if pos > 63:
                raise BitstreamError("run overruns block")
            scan[pos] = level
    return scan


# ---------------------------------------------------------------------- #
# macroblock encode / parse
# ---------------------------------------------------------------------- #

COMPONENT_OF_BLOCK = (0, 0, 0, 0, 1, 2)  # Y Y Y Y Cb Cr


def encode_macroblock(
    bw: BitWriter, mb: Macroblock, increment: int, state: CodingState
) -> None:
    """Serialize one (non-skipped) macroblock, updating ``state``."""
    if mb.skipped:
        raise ValueError("skipped macroblocks are encoded via address increments")
    vlc.encode_address_increment(bw, increment)
    table = vlc.mb_type_table(state.picture.picture_type)
    table.encode(bw, mb.type_flags())
    if mb.quant:
        bw.write(mb.qscale_code, 5)
        state.qscale_code = mb.qscale_code
    if mb.motion_forward:
        assert mb.mv_fwd is not None
        _encode_mv(bw, mb.mv_fwd, 0, state)
    if mb.motion_backward:
        assert mb.mv_bwd is not None
        _encode_mv(bw, mb.mv_bwd, 1, state)
    if mb.intra:
        for b in range(6):
            assert mb.blocks[b] is not None
            _encode_block(bw, mb.blocks[b], COMPONENT_OF_BLOCK[b], True, state)
    elif mb.pattern:
        vlc.CBP.encode(bw, mb.cbp)
        for b in range(6):
            if mb.cbp & (1 << (5 - b)):
                assert mb.blocks[b] is not None
                _encode_block(bw, mb.blocks[b], COMPONENT_OF_BLOCK[b], False, state)
    # predictor resets (§7.2.1, §7.6.3.4)
    if not mb.intra:
        state.reset_dc()
    if mb.intra:
        state.reset_mv()
    elif state.picture.picture_type == PictureType.P and not mb.motion_forward:
        state.reset_mv()
    state.prev_forward = mb.motion_forward
    state.prev_backward = mb.motion_backward


def parse_macroblock_body(br: BitReader, state: CodingState) -> Macroblock:
    """Parse one macroblock starting at its ``macroblock_type`` VLC.

    The address-increment VLC is handled by the caller so that skipped-
    macroblock predictor resets can be applied to ``state`` *before* this
    body parse (§7.6.3.4) — and so that sub-picture payloads, which begin
    at ``macroblock_type`` after a State Propagation Header, parse through
    the same code path as ordinary slices.

    ``mb.address`` is left at -1; the caller assigns it from the running
    slice (or sub-picture) position.  Bit extents are recorded.
    """
    body_start = br.pos
    mb = Macroblock(address=-1, bit_start=body_start, body_start=body_start)
    if fast_vlc.ENABLED:
        quant, mf, mbk, pattern, intra = fast_vlc.decode_mb_type(
            br, state.picture.picture_type
        )
    else:
        table = vlc.mb_type_table(state.picture.picture_type)
        quant, mf, mbk, pattern, intra = table.decode(br)
    mb.quant, mb.motion_forward, mb.motion_backward = quant, mf, mbk
    mb.pattern, mb.intra = pattern, intra
    if mb.quant:
        code = br.read(5)
        if code == 0:
            raise BitstreamError("quantiser_scale_code of zero")
        mb.qscale_code = code
        state.qscale_code = code
    else:
        mb.qscale_code = state.qscale_code
    if mb.motion_forward:
        mb.mv_fwd = _decode_mv(br, 0, state)
    if mb.motion_backward:
        mb.mv_bwd = _decode_mv(br, 1, state)
    if mb.intra:
        mb.cbp = 0x3F
        for b in range(6):
            mb.blocks[b] = _decode_block(br, COMPONENT_OF_BLOCK[b], True, state)
    elif mb.pattern:
        mb.cbp = fast_vlc.decode_cbp(br) if fast_vlc.ENABLED else vlc.CBP.decode(br)
        for b in range(6):
            if mb.cbp & (1 << (5 - b)):
                mb.blocks[b] = _decode_block(br, COMPONENT_OF_BLOCK[b], False, state)
    if not mb.intra:
        state.reset_dc()
    if mb.intra:
        state.reset_mv()
    elif state.picture.picture_type == PictureType.P and not mb.motion_forward:
        state.reset_mv()
    state.prev_forward = mb.motion_forward
    state.prev_backward = mb.motion_backward
    mb.bit_end = br.pos
    return mb


def parse_macroblock(br: BitReader, state: CodingState) -> Tuple[int, Macroblock]:
    """Parse address increment + body in one call.

    Only valid when the caller knows the increment is 1 (no skipped
    macroblocks), since skipped-macroblock state transitions are the
    caller's responsibility; used by tests and simple tools.
    """
    bit_start = br.pos
    if fast_vlc.ENABLED:
        increment = fast_vlc.decode_address_increment(br)
    else:
        increment = vlc.decode_address_increment(br)
    mb = parse_macroblock_body(br, state)
    mb.bit_start = bit_start
    return increment, mb
