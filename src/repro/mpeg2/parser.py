"""Stream parsing at the two granularities the hierarchical decoder uses.

:class:`PictureScanner` is the root splitter's engine: a linear start-code
scan that carves the stream into self-contained coded pictures (plus the
sequence/GOP headers they travel with).  It does **no** VLC work — that is
exactly why picture-level splitting is cheap (paper Table 1).

:class:`MacroblockParser` is the second-level splitter's engine: a full VLC
parse of one coded picture into macroblocks with their bit extents and the
predictor state at every macroblock boundary — everything the sub-picture
builder needs to emit State Propagation Headers and the MEI builder needs to
pre-calculate remote-block exchanges.  It does no pixel reconstruction
("a splitter does not motion compensate").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.bitstream import BitReader, BitstreamError
from repro.mpeg2.constants import (
    EOS_BITS,
    GROUP_START_CODE,
    PICTURE_START_CODE,
    SEQUENCE_END_CODE,
    SEQUENCE_HEADER_CODE,
    is_slice_start_code,
)
from repro.mpeg2 import fast_vlc, vlc
from repro.mpeg2.macroblock import (
    CodingState,
    Macroblock,
    make_skipped,
    parse_macroblock_body,
)
from repro.mpeg2.structures import GOPHeader, PictureHeader, SequenceHeader

if TYPE_CHECKING:
    from repro.mpeg2.columns import PictureColumns


@dataclass
class PictureUnit:
    """One coded picture as shipped by the root splitter.

    ``data`` spans from the picture start code to the byte before the next
    picture/GOP/sequence start code, so it is self-contained for macroblock
    parsing (given the sequence header, which the root distributes once).
    """

    coded_index: int
    data: bytes
    new_gop: bool = False
    gop: Optional[GOPHeader] = None

    @property
    def size_bytes(self) -> int:
        return len(self.data)


class PictureScanner:
    """Split a stream into its sequence header and coded pictures."""

    def __init__(self, stream: bytes):
        self.stream = bytes(stream)
        self.sequence: Optional[SequenceHeader] = None
        self._pictures: Optional[List[PictureUnit]] = None

    def scan(self) -> Tuple[SequenceHeader, List[PictureUnit]]:
        """Scan the whole stream once; results are cached."""
        if self._pictures is not None:
            assert self.sequence is not None
            return self.sequence, self._pictures

        br = BitReader(self.stream)
        code = br.next_start_code()
        if code != SEQUENCE_HEADER_CODE:
            raise BitstreamError("stream does not begin with a sequence header")
        self.sequence = SequenceHeader.parse(br)

        pictures: List[PictureUnit] = []
        pending_gop: Optional[GOPHeader] = None
        new_gop = False
        pic_start: Optional[int] = None

        def close_picture(end_byte: int) -> None:
            nonlocal pic_start, pending_gop, new_gop
            if pic_start is None:
                return
            pictures.append(
                PictureUnit(
                    coded_index=len(pictures),
                    data=self.stream[pic_start:end_byte],
                    new_gop=new_gop,
                    gop=pending_gop,
                )
            )
            pic_start = None
            pending_gop = None
            new_gop = False

        while True:
            code = br.next_start_code()
            if code is None:
                close_picture(len(self.stream))
                break
            at = br.byte_pos - 4  # position of the 00 00 01 prefix
            if code == GROUP_START_CODE:
                close_picture(at)
                pending_gop = GOPHeader.parse(br)
                new_gop = True
            elif code == PICTURE_START_CODE:
                close_picture(at)
                pic_start = at
            elif code == SEQUENCE_END_CODE:
                close_picture(at)
                break
            elif code == SEQUENCE_HEADER_CODE:
                close_picture(at)
                SequenceHeader.parse(br)  # repeated header; validated and dropped
            elif is_slice_start_code(code):
                continue  # interior of the current picture
            # extension/user-data codes inside pictures are skipped by scan

        self._pictures = pictures
        return self.sequence, pictures


# ---------------------------------------------------------------------- #
# macroblock-level parsing
# ---------------------------------------------------------------------- #


@dataclass
class ParsedMB:
    """A macroblock plus the splitter-relevant context around it."""

    mb: Macroblock
    # CodingState.snapshot() before this macroblock, or None in a lean
    # parse (plan shipping never builds SPHs, so never reads it).
    state_before: Optional[dict]
    slice_row: int
    # Monotone id of the slice this macroblock was coded in.  Runs must
    # never fuse across slice boundaries even within one row (multiple
    # slices per row are legal): the bits between them hold start codes
    # and slice headers, not macroblock data.
    slice_index: int = 0


class ParsedPicture:
    """Full macroblock-level parse of one coded picture.

    Two equivalent representations, either built on demand from the
    other: :attr:`columns` (a :class:`~repro.mpeg2.columns.PictureColumns`,
    what the fused parser produces and every plan compiler reads) and
    :attr:`items` (one :class:`ParsedMB` per macroblock, stream order,
    what the object walkers read).  Materializing ``items`` hands them
    ownership: the columns are dropped and later rebuilt from the items,
    so edits made to the objects reach the array consumers.
    """

    def __init__(
        self,
        header: PictureHeader,
        data: bytes,
        mb_width: int,
        mb_height: int,
        items: Optional[List[ParsedMB]] = None,
        n_skipped: int = 0,
        columns: Optional[PictureColumns] = None,
    ):
        self.header = header
        self.data = data
        self.mb_width = mb_width
        self.mb_height = mb_height
        if columns is None and items is None:
            items = []
        self._items = items
        self._columns = columns
        self.n_skipped = columns.n_skipped if columns is not None else n_skipped

    @property
    def columns(self) -> PictureColumns:
        if self._columns is None:
            from repro.mpeg2.columns import PictureColumns

            self._columns = PictureColumns.from_items(
                self._items, self.header.picture_type, self.mb_width
            )
        return self._columns

    @property
    def items(self) -> List[ParsedMB]:
        if self._items is None:
            self._items = _materialize(self._columns)
            self._columns = None
        return self._items

    @property
    def n_coded(self) -> int:
        n = len(self._items) if self._items is not None else self._columns.n
        return n - self.n_skipped

    def coded_items(self) -> List[ParsedMB]:
        return [it for it in self.items if not it.mb.skipped]


def _materialize(cols: PictureColumns) -> List[ParsedMB]:
    """One :class:`ParsedMB` per column row (blocks are views of the stack)."""
    state = cols.state.tolist() if cols.state is not None else None
    scans = cols.scans
    slots = cols.slots.tolist()
    first = cols.first_blk.tolist()
    nblk = cols.nblk.tolist()
    mvf, mvb = cols.mvf_raw.tolist(), cols.mvb_raw.tolist()
    out: List[ParsedMB] = []
    for i, (addr, quant, fwd, bwd, pat, intra, skipped, qcode, hf, hb, cbp,
            b0, bb, b1, row, sid) in enumerate(zip(
                cols.address.tolist(), cols.quant.tolist(),
                cols.fwd_flag.tolist(), cols.bwd_flag.tolist(),
                cols.pattern.tolist(), cols.intra.tolist(),
                cols.skipped.tolist(), cols.qscale_code.tolist(),
                cols.has_f.tolist(), cols.has_b.tolist(), cols.cbp.tolist(),
                cols.bit_start.tolist(), cols.body_start.tolist(),
                cols.bit_end.tolist(), cols.slice_row.tolist(),
                cols.slice_index.tolist())):
        blocks: List[Optional[np.ndarray]] = [None] * 6
        for k in range(first[i], first[i] + nblk[i]):
            blocks[slots[k]] = scans[k]
        mb = Macroblock(
            address=addr, quant=quant, motion_forward=fwd,
            motion_backward=bwd, pattern=pat, intra=intra, qscale_code=qcode,
            mv_fwd=tuple(mvf[i]) if hf else None,
            mv_bwd=tuple(mvb[i]) if hb else None,
            cbp=cbp, blocks=blocks, skipped=skipped,
            bit_start=b0, body_start=bb, bit_end=b1,
        )
        snap = None
        if state is not None:
            q, d0, d1, d2, fx, fy, bx, by, pf, pb = state[i]
            snap = {
                "qscale_code": q,
                "dc_pred": [d0, d1, d2],
                "pmv": [[fx, fy], [bx, by]],
                "prev_forward": bool(pf),
                "prev_backward": bool(pb),
            }
        out.append(ParsedMB(mb=mb, state_before=snap, slice_row=row, slice_index=sid))
    return out


class MacroblockParser:
    """VLC-parse coded pictures into macroblocks (no reconstruction)."""

    def __init__(self, sequence: SequenceHeader):
        self.sequence = sequence
        self.mb_width = sequence.width // 16
        self.mb_height = sequence.height // 16

    def parse_picture(self, data: bytes, lean: bool = False) -> ParsedPicture:
        """VLC-parse one coded picture.

        With :mod:`~repro.mpeg2.fast_vlc` enabled (the default) this is
        the fused columnar parse (:func:`~repro.mpeg2.columns.parse_picture_columns`);
        under ``fast_vlc.use_reference()`` it is the object parser.  Both
        yield the same picture, field for field.

        With ``lean=True`` the per-macroblock predictor-state snapshots are
        skipped (``state_before`` is ``None``) — they exist only for the
        sub-picture builder's State Propagation Headers, and plan
        compilers and reconstruction never read them.
        """
        if not fast_vlc.ENABLED:
            return self.parse_picture_objects(data, lean)
        # Imported on first parse, not with the module: the service and
        # wall-receiver start paths import this module but parse nothing
        # before they are ready.
        from repro.mpeg2.columns import parse_picture_columns

        br, header = self._header(data)
        cols = parse_picture_columns(br, header, self.mb_width, self.mb_height, lean)
        return ParsedPicture(
            header=header, data=data, mb_width=self.mb_width,
            mb_height=self.mb_height, columns=cols,
        )

    def parse_picture_objects(self, data: bytes, lean: bool = False) -> ParsedPicture:
        """The object parser: one :class:`ParsedMB` per macroblock.

        The reference the fused parse is differentially tested against;
        it decodes with whichever VLC path ``fast_vlc.ENABLED`` selects.
        """
        br, header = self._header(data)
        items: List[ParsedMB] = []
        slice_index = 0
        while True:
            code = br.peek_start_code()
            if code is None or not is_slice_start_code(code):
                break
            br.next_start_code()
            self._parse_slice(br, code - 1, header, items, slice_index, lean)
            slice_index += 1
        return ParsedPicture(
            header=header, data=data, mb_width=self.mb_width,
            mb_height=self.mb_height, items=items,
            n_skipped=sum(1 for it in items if it.mb.skipped),
        )

    @staticmethod
    def _header(data: bytes) -> Tuple[BitReader, PictureHeader]:
        br = BitReader(data)
        code = br.next_start_code()
        if code != PICTURE_START_CODE:
            raise BitstreamError("picture unit does not start with picture code")
        return br, PictureHeader.parse(br)

    def _parse_slice(
        self,
        br: BitReader,
        row: int,
        header: PictureHeader,
        items: List[ParsedMB],
        slice_index: int = 0,
        lean: bool = False,
    ) -> None:
        if row >= self.mb_height:
            raise BitstreamError(f"slice row {row} beyond picture height")
        qcode = br.read(5)
        if qcode == 0:
            raise BitstreamError("slice quantiser_scale_code of zero")
        if br.read(1):
            raise BitstreamError("extra_information_slice unsupported")
        state = CodingState(picture=header, qscale_code=qcode)
        prev_addr = row * self.mb_width - 1
        first_in_slice = True
        decode_increment = (
            fast_vlc.decode_address_increment
            if fast_vlc.ENABLED
            else vlc.decode_address_increment
        )
        while br.bits_left() > 0 and br.peek(EOS_BITS) != 0:
            bit_start = br.pos
            increment = decode_increment(br)
            address = prev_addr + increment
            if address >= (row + 1) * self.mb_width:
                raise BitstreamError("macroblock address beyond slice row")
            # Skipped macroblocks covered by the increment mutate the
            # predictor state *before* the coded macroblock's body parse
            # (§7.6.3.4): P skips reset the motion-vector predictors, and
            # every skip resets the DC predictors.  The FIRST macroblock of
            # a slice is special: its increment only positions the slice in
            # the row (earlier macroblocks belong to the previous slice),
            # so it implies no skips (§6.3.16).
            skip_from = address if first_in_slice else prev_addr + 1
            first_in_slice = False
            for skip_addr in range(skip_from, address):
                skip_snap = None if lean else state.snapshot()
                smb = make_skipped(skip_addr, state)
                items.append(
                    ParsedMB(
                        mb=smb,
                        state_before=skip_snap,
                        slice_row=row,
                        slice_index=slice_index,
                    )
                )
            snap = None if lean else state.snapshot()
            mb = parse_macroblock_body(br, state)
            mb.bit_start = bit_start
            mb.address = address
            items.append(
                ParsedMB(
                    mb=mb,
                    state_before=snap,
                    slice_row=row,
                    slice_index=slice_index,
                )
            )
            prev_addr = address
