"""Table-driven fast VLC decode (multi-bit lookup, inline escape handling).

The reference codecs in :mod:`repro.mpeg2.vlc` decode one code at a time
through per-table flat LUTs but pay a Python call + ``bytes`` slice per
symbol.  This module precomputes *combined* lookup tables at import time —
sign bit folded into the DCT coefficient entries, end-of-block and escape
codes stored as sentinel entries, the address-increment escape folded into
its table — and decodes against a wide cached bit window so the hot loop
is a shift, a mask, and one list index per symbol.

``repro.mpeg2.vlc`` stays untouched as the bit-exact reference oracle:
every decoder here is differentially fuzzed against it
(``tests/test_fast_vlc.py``), and the syntax layer falls back to the
reference path when ``ENABLED`` is off (``set_enabled`` /
``use_reference``), which is also how the benchmark measures the legacy
parse cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bitstream import BitReader, BitstreamError
from repro.mpeg2 import tables as T
from repro.mpeg2.vlc import VLCError

#: Module-level switch consulted by the macroblock/slice parsers.  Leave it
#: on; flip off (via :func:`set_enabled` or :func:`use_reference`) to force
#: the bit-at-a-time reference decoders for differential testing.
ENABLED = True


def set_enabled(on: bool) -> bool:
    """Toggle the fast decode paths; returns the previous setting."""
    global ENABLED
    prev = ENABLED
    ENABLED = bool(on)
    return prev


@contextmanager
def use_reference():
    """Run the enclosed block on the bit-at-a-time reference decoders."""
    prev = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(prev)


# ---------------------------------------------------------------------- #
# LUT construction
# ---------------------------------------------------------------------- #


def _fill(
    lut: List[Optional[tuple]], bits: int, length: int, width: int, entry: tuple,
    empty: Optional[tuple] = None,
) -> None:
    """Write ``entry`` into every LUT slot whose top ``length`` bits match."""
    shift = width - length
    base = bits << shift
    for i in range(1 << shift):
        if lut[base + i] is not empty:
            raise ValueError(
                f"VLC LUT conflict at {bits:0{length}b} (width {width})"
            )
        lut[base + i] = entry


def _build_sym_lut(
    mapping: Dict, extra: Iterable[Tuple[object, Tuple[int, int]]] = ()
) -> Tuple[List[Optional[tuple]], int]:
    """(symbol, length) LUT over the table's maximum code width."""
    items = list(mapping.items()) + list(extra)
    width = max(length for _, (_, length) in items)
    lut: List[Optional[tuple]] = [None] * (1 << width)
    for sym, (bits, length) in items:
        _fill(lut, bits, length, width, (sym, length))
    return lut, width


# DCT coefficient LUTs: 16 bits cover the longest run/level code (13 bits)
# plus its sign bit.  Every slot holds ``(step, level, length)`` so one
# lookup classifies every symbol: ``step = run + 1`` for a run/level code
# (sign folded into ``level``), ``STEP_EOB`` for end-of-block,
# ``STEP_ESCAPE`` for the escape prefix and ``STEP_NO_CODE`` where no code
# matches.  No Annex B code is all zeros, so the zero-padding past
# end-of-buffer can never decode as a symbol.
COEFF_BITS = 16
STEP_EOB = 0
STEP_ESCAPE = -1
STEP_NO_CODE = -2


def _build_coeff_lut(
    mapping: Dict[Tuple[int, int], Tuple[int, int]], eob_code: Tuple[int, int]
) -> List[tuple]:
    no_code = (STEP_NO_CODE, 0, 0)
    lut = [no_code] * (1 << COEFF_BITS)
    for (run, a), (bits, length) in mapping.items():
        if length + 1 > COEFF_BITS:
            raise ValueError(f"code for (run={run}, level={a}) exceeds {COEFF_BITS} bits")
        for sign, level in ((0, a), (1, -a)):
            _fill(lut, (bits << 1) | sign, length + 1, COEFF_BITS,
                  (run + 1, level, length + 1), no_code)
    eob_bits, eob_len = eob_code
    _fill(lut, eob_bits, eob_len, COEFF_BITS, (STEP_EOB, 0, eob_len), no_code)
    esc_bits, esc_len = T.DCT_ESCAPE_CODE
    _fill(lut, esc_bits, esc_len, COEFF_BITS, (STEP_ESCAPE, 0, esc_len), no_code)
    return lut


_COEFF_LUT_T0 = _build_coeff_lut(T.DCT_COEFF, T.EOB_CODE)
_COEFF_LUT_T1 = _build_coeff_lut(T.DCT_COEFF_T1, T.EOB_CODE_T1)

_ADDR_ESCAPE = -1
_ADDR_LUT, _ADDR_BITS = _build_sym_lut(
    T.MB_ADDRESS_INCREMENT, [(_ADDR_ESCAPE, T.MB_ESCAPE_CODE)]
)
_MOTION_LUT, _MOTION_BITS = _build_sym_lut(T.MOTION_CODE)
_DC_LUMA_LUT, _DC_LUMA_BITS = _build_sym_lut(T.DCT_DC_SIZE_LUMA)
_DC_CHROMA_LUT, _DC_CHROMA_BITS = _build_sym_lut(T.DCT_DC_SIZE_CHROMA)
_CBP_LUT, _CBP_BITS = _build_sym_lut(T.CODED_BLOCK_PATTERN)
_MB_TYPE_LUTS = {
    1: _build_sym_lut(T.MB_TYPE_I),  # PictureType.I
    2: _build_sym_lut(T.MB_TYPE_P),  # PictureType.P
    3: _build_sym_lut(T.MB_TYPE_B),  # PictureType.B
}


# ---------------------------------------------------------------------- #
# decoders
# ---------------------------------------------------------------------- #


def decode_address_increment(br: BitReader) -> int:
    """Table-driven §6.3.16 address increment (escape folded into the LUT)."""
    total = 0
    while True:
        hit = _ADDR_LUT[br.peek_bits(_ADDR_BITS)]
        if hit is None:
            raise VLCError(f"no address-increment code matches at bit {br.pos}")
        sym, length = hit
        br.skip_bits(length)
        if sym != _ADDR_ESCAPE:
            return total + sym
        total += 33


def decode_motion_delta(br: BitReader, r_size: int) -> int:
    """Table-driven §7.6.3.1 motion delta (sign carried by the code).

    One 24-bit peek covers the longest motion code (11 bits) plus the
    largest residual (``r_size`` <= 8), so code and residual are extracted
    from the same window read.
    """
    v = br.peek_bits(24)
    hit = _MOTION_LUT[v >> (24 - _MOTION_BITS)]
    if hit is None:
        raise VLCError(f"no motion code matches at bit {br.pos}")
    code, length = hit
    if code == 0:
        br.skip_bits(length)
        return 0
    if r_size:
        residual = (v >> (24 - length - r_size)) & ((1 << r_size) - 1)
        br.skip_bits(length + r_size)
    else:
        residual = 0
        br.skip_bits(length)
    a = ((abs(code) - 1) << r_size) + residual + 1
    return a if code > 0 else -a


def decode_dc_delta(br: BitReader, component: int) -> int:
    """Table-driven §7.2.1 DC differential (size VLC + size-bit residual).

    A single 24-bit peek covers the longest size code (10 bits) plus the
    largest differential (11 bits).
    """
    v = br.peek_bits(24)
    if component == 0:
        hit = _DC_LUMA_LUT[v >> (24 - _DC_LUMA_BITS)]
    else:
        hit = _DC_CHROMA_LUT[v >> (24 - _DC_CHROMA_BITS)]
    if hit is None:
        raise VLCError(f"no dct_dc_size code matches at bit {br.pos}")
    size, length = hit
    if size == 0:
        br.skip_bits(length)
        return 0
    br.skip_bits(length + size)
    d = (v >> (24 - length - size)) & ((1 << size) - 1)
    return d if d >= (1 << (size - 1)) else d - (1 << size) + 1


def decode_cbp(br: BitReader) -> int:
    """Table-driven coded_block_pattern (table B.9)."""
    hit = _CBP_LUT[br.peek_bits(_CBP_BITS)]
    if hit is None:
        raise VLCError(f"no coded_block_pattern code matches at bit {br.pos}")
    sym, length = hit
    br.skip_bits(length)
    return sym


def decode_mb_type(br: BitReader, picture_type: int):
    """Table-driven macroblock_type (tables B.2-B.4) for the picture type."""
    lut, width = _MB_TYPE_LUTS[int(picture_type)]
    hit = lut[br.peek_bits(width)]
    if hit is None:
        raise VLCError(f"no macroblock_type code matches at bit {br.pos}")
    sym, length = hit
    br.skip_bits(length)
    return sym


def decode_ac_into(br: BitReader, scan, intra: bool, table_one: bool = False) -> None:
    """Decode a block's AC (run, level) symbols plus EOB straight into ``scan``.

    Equivalent to ``vlc.decode_coefficients`` followed by the run/position
    accumulation in ``macroblock._decode_block`` — including the non-intra
    first-coefficient short form, the MPEG-2 escape (24 bits, handled
    inline), and the run-overrun :class:`BitstreamError` messages — but
    decodes against a local 256-bit window refilled once per ~29 bytes, so
    the per-symbol cost is a shift, a mask, and one list index.
    """
    lut = _COEFF_LUT_T1 if table_one else _COEFF_LUT_T0
    data = br.data
    pos = br.pos
    win = 0
    wend = -1  # bit index one past the window; forces the first refill
    p = 0 if intra else -1
    first = not intra
    while True:
        if wend - pos < 24:
            base = pos >> 3
            chunk = data[base : base + 32]
            if len(chunk) < 32:
                chunk = chunk + b"\x00" * (32 - len(chunk))
            win = int.from_bytes(chunk, "big")
            wend = (base << 3) + 256
        v = (win >> (wend - pos - COEFF_BITS)) & 0xFFFF
        if first:
            first = False
            if v & 0x8000:
                # Leading '1' at the first coefficient of a non-intra block
                # is always (0, +/-1) with the next bit as sign (§7.2.2).
                p += 1
                scan[p] = -1 if v & 0x4000 else 1
                pos += 2
                continue
        step, level, length = lut[v]
        if step > 0:
            pos += length
        elif step == STEP_EOB:
            br.pos = pos + length
            return
        elif step == STEP_ESCAPE:
            # Escape: 6-bit prefix + 6-bit run + 12-bit two's-complement level.
            v = (win >> (wend - pos - 24)) & 0xFFFFFF
            step = ((v >> 12) & 0x3F) + 1
            level = v & 0xFFF
            if level >= 2048:
                level -= 4096
            if level == 0:
                br.pos = pos
                raise VLCError("escape-coded level of zero")
            pos += 24
        else:
            br.pos = pos
            raise VLCError(
                f"no DCT coefficient code matches bits {v:016b} at bit {pos}"
            )
        p += step
        if p > 63:
            br.pos = pos
            raise BitstreamError(
                "AC run overruns block" if intra else "run overruns block"
            )
        scan[p] = level
