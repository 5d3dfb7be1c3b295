"""Wall broadcast: publish one coded stream to N tile receivers.

The wall publisher sits on top of :mod:`repro.net.bcast` and defines the
application records of a wall broadcast:

- ``W_SEQ`` (sticky): the stream preamble — JSON metadata (raster, fps,
  picture count, wall spec, tune-in anchors, presentation epoch) plus the
  coded sequence header (``sequence_header`` + ``sequence_extension``
  exactly as in the elementary stream, custom quantiser matrices
  included).  Nothing on the wire is unpickled: the records may arrive
  over UDP multicast from anyone on the segment.  Sticky, so a late
  joiner receives it during the SUBSCRIBE handshake.
- ``W_PIC``: one coded picture — a fixed header (coded index, picture
  type, GOP flags, decode-closure margin, PTS) followed by the raw coded
  bytes, appended without copying.  The coded bytes are tile-independent,
  which is what makes the single-encode property possible: every receiver
  gets the same record and decodes only its own sub-rectangle.
- ``W_END`` (sticky): end of stream.

**Decode-closure margins.** A receiver wants to reconstruct only its tile
coverage, but motion compensation reads *outside* the target rectangle,
and those reads chain across the GOP (a B-picture predicts from a P that
predicted from an I...).  The publisher — which has the whole stream —
computes, per picture, how far outside any target rectangle a decoder
must reconstruct so that every transitive reference read stays inside
reconstructed pixels: a backward pass over each GOP in coded order where
``req[ref] = max(req[ref], req[pic] + bound(pic))`` and ``bound`` is the
conservative per-picture motion reach from its f_codes.  Receivers expand
their coverage rect by the shipped margin; the displayed partition crop
stays bit-exact while skipping most of the raster's reconstruction work
on large walls.

Tune-in anchors are closed-GOP I-pictures (plus picture 0): the only
points where a joining receiver can start with no prior reference state
and still be bit-identical to a clean decode from that point.
"""

from __future__ import annotations

import json
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bitstream import BitReader, BitstreamError, BitWriter
from repro.mpeg2.constants import (
    MB_SIZE,
    PICTURE_START_CODE,
    SEQUENCE_HEADER_CODE,
    PictureType,
)
from repro.mpeg2.parser import PictureScanner, PictureUnit
from repro.mpeg2.structures import PictureHeader, SequenceHeader
from repro.net.bcast import ALL_TILES, BroadcastRecord, BroadcastSender
from repro.net.channel import Address
from repro.wall.config import WallSpec

# Wall record kinds (the `kind` byte of a broadcast record).
W_SEQ = 1
W_PIC = 2
W_END = 3

# W_PIC flags.
PIC_NEW_GOP = 0x01
PIC_CLOSED_GOP = 0x02
PIC_ANCHOR = 0x04

# W_PIC fixed header: coded_index u32, ptype u8, flags u8, margin u16, pts f64.
PIC_FMT = "<IBBHd"
PIC_HEADER_SIZE = struct.calcsize(PIC_FMT)


@dataclass(frozen=True)
class WallPicture:
    """One decoded W_PIC record."""

    coded_index: int
    ptype: PictureType
    flags: int
    margin_px: int
    pts: float
    data: bytes

    @property
    def anchor(self) -> bool:
        return bool(self.flags & PIC_ANCHOR)


def encode_pic_payload(
    coded_index: int,
    ptype: PictureType,
    flags: int,
    margin_px: int,
    pts: float,
    data: bytes,
) -> bytes:
    head = struct.pack(
        PIC_FMT, coded_index, int(ptype), flags, min(margin_px, 0xFFFF), pts
    )
    return head + data


def decode_pic_payload(payload: bytes) -> WallPicture:
    coded_index, ptype, flags, margin, pts = struct.unpack_from(PIC_FMT, payload)
    return WallPicture(
        coded_index=coded_index,
        ptype=PictureType(ptype),
        flags=flags,
        margin_px=margin,
        pts=pts,
        data=payload[PIC_HEADER_SIZE:],
    )


class WallPayloadError(ValueError):
    """A wall record payload that is truncated or not a wall record."""


def encode_seq_payload(meta: Dict, sequence: SequenceHeader) -> bytes:
    """``<u32 len>`` + JSON metadata + the coded sequence header."""
    blob = json.dumps(meta).encode("utf-8")
    bw = BitWriter()
    sequence.write(bw)
    return struct.pack("<I", len(blob)) + blob + bw.getvalue()


def decode_seq_payload(payload: bytes) -> Tuple[Dict, SequenceHeader]:
    """Inverse of :func:`encode_seq_payload`; :class:`WallPayloadError`
    on anything else (the coded header must fill the tail exactly)."""
    try:
        (n,) = struct.unpack_from("<I", payload)
        if 4 + n > len(payload):
            raise WallPayloadError("W_SEQ metadata truncated")
        meta = json.loads(bytes(payload[4 : 4 + n]).decode("utf-8"))
        if not isinstance(meta, dict):
            raise WallPayloadError("W_SEQ metadata is not an object")
        br = BitReader(bytes(payload[4 + n :]))
        if br.next_start_code() != SEQUENCE_HEADER_CODE or br.pos != 32:
            raise WallPayloadError("W_SEQ carries no sequence header")
        sequence = SequenceHeader.parse(br)
        if br.pos != br.nbits:
            raise WallPayloadError(
                f"W_SEQ sequence header ends at bit {br.pos} of {br.nbits}"
            )
    except (struct.error, ValueError, BitstreamError) as exc:
        if isinstance(exc, WallPayloadError):
            raise
        raise WallPayloadError(f"malformed W_SEQ payload: {exc}") from exc
    return meta, sequence


# --------------------------------------------------------------------- #
# stream analysis: anchors and decode-closure margins
# --------------------------------------------------------------------- #


def _parse_picture_header(data: bytes) -> PictureHeader:
    br = BitReader(data)
    if br.next_start_code() != PICTURE_START_CODE:
        raise ValueError("picture unit does not start with a picture start code")
    return PictureHeader.parse(br)


def tune_anchors(pictures: Sequence[PictureUnit]) -> List[int]:
    """Coded indices a joining receiver may start at with zero prior state.

    Closed-GOP I-pictures only: an open GOP's leading B-pictures predict
    from the previous GOP's last anchor, which a joiner never decoded.
    Picture 0 always qualifies — a decode from the top needs nothing.
    """
    out = []
    for i, unit in enumerate(pictures):
        if _parse_picture_header(unit.data).picture_type != PictureType.I:
            continue
        if i == 0:
            out.append(i)
        elif unit.new_gop and (unit.gop is None or unit.gop.closed_gop):
            out.append(i)
    return out


def _motion_bound_px(header: PictureHeader) -> int:
    """Conservative pixel reach of one picture's motion compensation.

    An f_code of f allows half-pel vector magnitudes up to ``16 << (f-1)``,
    i.e. ``1 << (f + 2)`` full pixels, plus one sample of half-pel
    interpolation support.  One extra macroblock of slack absorbs block
    geometry (the bound is per-vector; predictions start anywhere in the
    macroblock).  f = 15 marks an unused direction.
    """
    ptype = header.picture_type
    if ptype == PictureType.I:
        return 0
    codes = list(header.f_code[0])
    if ptype == PictureType.B:
        codes += list(header.f_code[1])
    used = [f for f in codes if 1 <= f < 15]
    if not used:
        return 0
    return (1 << (max(used) + 2)) + 1 + MB_SIZE


def decode_margins(pictures: Sequence[PictureUnit]) -> List[int]:
    """Per-picture reconstruction margin (pixels beyond the target rect).

    Backward closure over the reference DAG in coded order: references
    always precede their dependents in coded order, so one reversed pass
    propagates ``req[ref] = max(req[ref], req[pic] + bound(pic))``.  A
    picture's own margin is how far outside the display rect *it* must be
    reconstructed so every later picture's reads (transitively) land on
    reconstructed pixels.
    """
    headers = [_parse_picture_header(u.data) for u in pictures]
    refs: List[List[int]] = []
    prev_anchor: Optional[int] = None
    cur_anchor: Optional[int] = None
    for i, h in enumerate(headers):
        if h.picture_type == PictureType.I:
            refs.append([])
            prev_anchor, cur_anchor = cur_anchor, i
        elif h.picture_type == PictureType.P:
            refs.append([cur_anchor] if cur_anchor is not None else [])
            prev_anchor, cur_anchor = cur_anchor, i
        else:  # B: forward ref = previous anchor, backward ref = current
            r = [a for a in (prev_anchor, cur_anchor) if a is not None]
            refs.append(r)
    req = [0] * len(pictures)
    for i in reversed(range(len(pictures))):
        bound = _motion_bound_px(headers[i])
        for r in refs[i]:
            req[r] = max(req[r], req[i] + bound)
    return req


# --------------------------------------------------------------------- #
# publisher
# --------------------------------------------------------------------- #


class WallBroadcaster:
    """Scan a stream once and broadcast it to the wall.

    The broadcaster owns a :class:`BroadcastSender` and drives the wall
    record sequence: sticky ``W_SEQ``, every ``W_PIC`` (paced to the
    stream frame rate when ``rate_fps`` is set, free-running otherwise),
    sticky ``W_END``.  Its ``anchor_fn`` answers SUBSCRIBE handshakes with
    the next tune-in anchor strictly after the publish cursor, so a
    late/restarted receiver knows exactly where its bit-exact output
    resumes.
    """

    def __init__(
        self,
        stream: bytes,
        wall: WallSpec,
        control: Address,
        mode: str = "stream",
        fps: float = 30.0,
        name: str = "wall",
        repair_window: int = 512,
        group: Optional[str] = None,
        port: int = 0,
        loss_fn=None,
    ):
        self.wall = wall
        self.fps = fps
        self.sequence, self.pictures = PictureScanner(stream).scan()
        self.anchors = tune_anchors(self.pictures)
        if not self.anchors:
            raise ValueError("stream has no tune-in anchor (closed-GOP I-picture)")
        self.margins = decode_margins(self.pictures)
        self._cursor = -1  # last published coded index
        self._lock = threading.Lock()
        self.epoch = time.time()
        meta = {
            "name": name,
            "width": self.sequence.width,
            "height": self.sequence.height,
            "fps": fps,
            "n_pictures": len(self.pictures),
            "wall": wall.to_dict(),
            "anchors": self.anchors,
            "epoch": self.epoch,
        }
        sender_kw = {}
        if group is not None:
            sender_kw["group"] = group
        self.sender = BroadcastSender(
            control,
            mode=mode,
            meta=meta,
            anchor_fn=self.next_anchor,
            repair_window=repair_window,
            port=port,
            loss_fn=loss_fn,
            name=name,
        )
        self.control_address = self.sender.control_address
        self._published_seq = False
        self._ended = False

    def next_anchor(self) -> Optional[int]:
        """The tune-in point for a receiver subscribing right now."""
        with self._lock:
            cursor = self._cursor
        for a in self.anchors:
            if a > cursor:
                return a
        return None

    # ------------------------------ publishing ------------------------------ #

    def publish_sequence(self) -> None:
        if self._published_seq:
            return
        self._published_seq = True
        meta = dict(self.sender.meta)
        self.sender.publish(
            W_SEQ, encode_seq_payload(meta, self.sequence), sticky=True
        )

    def publish_picture(self, i: int) -> None:
        """Publish coded picture ``i`` — encoded exactly once, any N."""
        unit = self.pictures[i]
        flags = 0
        if unit.new_gop:
            flags |= PIC_NEW_GOP
        if unit.gop is not None and unit.gop.closed_gop:
            flags |= PIC_CLOSED_GOP
        if i in self.anchors:
            flags |= PIC_ANCHOR
        ptype = _parse_picture_header(unit.data).picture_type
        payload = encode_pic_payload(
            i, ptype, flags, self.margins[i], i / self.fps, unit.data
        )
        self.sender.publish(W_PIC, payload, picture=i, tiles=ALL_TILES)
        with self._lock:
            self._cursor = i

    def publish_end(self) -> None:
        if self._ended:
            return
        self._ended = True
        self.sender.publish(
            W_END,
            json.dumps({"n_pictures": len(self.pictures)}).encode("utf-8"),
            sticky=True,
        )

    def run(
        self,
        rate_fps: Optional[float] = None,
        stop: Optional[threading.Event] = None,
    ) -> Dict:
        """Publish the whole stream; returns the sender's stats dict."""
        self.publish_sequence()
        t0 = time.monotonic()
        for i in range(len(self.pictures)):
            if stop is not None and stop.is_set():
                break
            if rate_fps:
                gate = t0 + i / rate_fps
                delay = gate - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            self.publish_picture(i)
        self.publish_end()
        return self.stats()

    # ------------------------------ inspection ------------------------------ #

    def stats(self) -> Dict:
        s = self.sender.stats.to_dict()
        s["subscribers"] = self.sender.subscriber_count
        s["cursor"] = self._cursor
        s["n_pictures"] = len(self.pictures)
        s["anchors"] = len(self.anchors)
        return s

    def receiver_reports(self) -> List[Dict]:
        return self.sender.receiver_reports()

    def close(self) -> None:
        self.sender.close()


def wall_record_picture(rec: BroadcastRecord) -> WallPicture:
    """Decode a W_PIC broadcast record's payload."""
    if rec.kind != W_PIC:
        raise ValueError(f"record kind {rec.kind} is not W_PIC")
    return decode_pic_payload(rec.payload)
