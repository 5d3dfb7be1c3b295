"""Start codes, picture types, and syntax constants (ISO/IEC 13818-2 §6.2)."""

from __future__ import annotations

from enum import IntEnum

# ---------------------------------------------------------------------- #
# start codes (the byte following the 00 00 01 prefix)
# ---------------------------------------------------------------------- #

PICTURE_START_CODE = 0x00
# Slice start codes run 0x01..0xAF; the value encodes (slice row + 1).
SLICE_START_CODE_MIN = 0x01
SLICE_START_CODE_MAX = 0xAF
USER_DATA_START_CODE = 0xB2
SEQUENCE_HEADER_CODE = 0xB3
SEQUENCE_ERROR_CODE = 0xB4
EXTENSION_START_CODE = 0xB5
SEQUENCE_END_CODE = 0xB7
GROUP_START_CODE = 0xB8


def is_slice_start_code(code: int) -> bool:
    return SLICE_START_CODE_MIN <= code <= SLICE_START_CODE_MAX


# End-of-slice detection: a macroblock never starts with 23 zero bits,
# while the zero padding + start-code prefix that ends a slice always
# provides them.
EOS_BITS = 23


# extension_start_code_identifier values (§6.3.1)
SEQUENCE_EXTENSION_ID = 0x1
PICTURE_CODING_EXTENSION_ID = 0x8


class PictureType(IntEnum):
    """picture_coding_type (§6.3.9, table 6-12)."""

    I = 1
    P = 2
    B = 3


# picture_structure — we code frame pictures only
FRAME_PICTURE = 0b11

# Macroblock geometry: a macroblock covers 16x16 luma pixels; in 4:2:0 it
# carries 4 luma blocks + 1 Cb + 1 Cr block of 8x8 samples each.
MB_SIZE = 16
BLOCK_SIZE = 8
BLOCKS_PER_MB_420 = 6

# profile_and_level_indication for Main Profile @ High Level — the paper's
# ultra-high-resolution streams exceed even this, which is part of its point;
# we emit MP@HL and do not enforce level constraints.
PROFILE_MAIN_LEVEL_HIGH = 0x14

# Frame rate codes (table 6-4): code -> frames per second
FRAME_RATE_CODES = {
    1: 24000 / 1001,
    2: 24.0,
    3: 25.0,
    4: 30000 / 1001,
    5: 30.0,
    6: 50.0,
    7: 60000 / 1001,
    8: 60.0,
}


def frame_rate_code_for(fps: float) -> int:
    """Nearest frame_rate_code for ``fps`` (exact matches preferred)."""
    return min(FRAME_RATE_CODES, key=lambda c: abs(FRAME_RATE_CODES[c] - fps))
