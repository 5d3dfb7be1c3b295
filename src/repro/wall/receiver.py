"""Wall receiver: subscribe, decode only this tile, present on the clock.

A :class:`WallReceiver` is one projector's process.  It subscribes to a
wall broadcast with its tile id (the bcast layer filters records by tile
bitmap on receive), tunes in at the anchor the SUBSCRIBE handshake names,
and from there decodes every picture — but reconstructs only its tile's
coverage rectangle expanded by the picture's decode-closure margin (see
:mod:`repro.wall.broadcast`).  Decoded frames leave in display order;
each one is digested over the tile's *partition* crop (the bit-exactness
surface) and then offered to the :class:`~repro.wall.clock.PresentationClock`,
which releases it on the shared wall timeline or drops it late.

Tune-in state machine::

    WAIT_SEQ --W_SEQ--> TUNING --anchor W_PIC--> DECODING --W_END--> DONE
                          ^                         |
                          +------- gap notice ------+

A gap (records lost beyond the NACK repair window) poisons the reference
chain exactly like a dropped P-picture, so the receiver discards state
and re-tunes at the next anchor-flagged picture; every picture skipped
while tuning is accounted in the drop ledger.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.mpeg2.batch_reconstruct import execute_plan
from repro.mpeg2.constants import MB_SIZE, PictureType
from repro.mpeg2.frames import Frame
from repro.mpeg2.motion import Rect, mb_rect
from repro.mpeg2.parser import MacroblockParser, ParsedPicture
from repro.mpeg2.reconstruct import QuantMatrices
from repro.mpeg2.structures import SequenceHeader
from repro.net.bcast import BroadcastReceiver, GapNotice
from repro.net.channel import Address, ChannelError
from repro.perf.metrics import families
from repro.service.session import PacedStreamDecoder
from repro.wall.broadcast import (
    PIC_ANCHOR,
    W_END,
    W_PIC,
    W_SEQ,
    decode_pic_payload,
    decode_seq_payload,
)
from repro.wall.clock import PresentationClock
from repro.wall.config import WallSpec
from repro.wall.layout import TileLayout


def expand_rect(rect: Rect, margin_px: int, width: int, height: int) -> Rect:
    """Grow ``rect`` by a margin, align outward to macroblocks, clip."""
    r = Rect(
        max(0, (rect.x0 - margin_px) // MB_SIZE * MB_SIZE),
        max(0, (rect.y0 - margin_px) // MB_SIZE * MB_SIZE),
        min(width, -(-(rect.x1 + margin_px) // MB_SIZE) * MB_SIZE),
        min(height, -(-(rect.y1 + margin_px) // MB_SIZE) * MB_SIZE),
    )
    return r


def reconstruct_rect(
    parsed: ParsedPicture,
    sequence: SequenceHeader,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    rect: Rect,
    matrices: Optional[QuantMatrices] = None,
) -> Frame:
    """Reconstruct only the macroblocks intersecting ``rect``.

    The returned frame is full-raster but valid only inside ``rect``
    (outside stays blank) — exactly the contract of a tile's coverage
    reference frames.  With ``rect`` spanning the raster this is
    bit-identical to :func:`repro.mpeg2.decoder.reconstruct_picture`.
    """
    ptype = parsed.header.picture_type
    if ptype == PictureType.P and fwd is None:
        raise ValueError("P-picture without forward reference")
    if ptype == PictureType.B and (fwd is None or bwd is None):
        raise ValueError("B-picture without two references")
    out = Frame.blank(sequence.width, sequence.height)
    matrices = matrices or QuantMatrices.from_sequence(sequence)
    cols = parsed.columns
    idx = cols.in_box(
        rect.x0 // MB_SIZE, rect.y0 // MB_SIZE,
        -(-rect.x1 // MB_SIZE), -(-rect.y1 // MB_SIZE),
    )
    cols.check_staging(sequence.width, sequence.height, idx)
    plan = cols.plan(idx, matrices, parsed.header.dc_scaler)
    execute_plan(plan, out, fwd, bwd)
    return out


def _digest_crop(h, frame: Frame, part: Rect) -> None:
    """Digest the partition crop of one frame (luma + 4:2:0 chroma)."""
    h.update(np.ascontiguousarray(frame.y[part.y0 : part.y1, part.x0 : part.x1]).tobytes())
    cx0, cy0, cx1, cy1 = part.x0 // 2, part.y0 // 2, part.x1 // 2, part.y1 // 2
    h.update(np.ascontiguousarray(frame.cb[cy0:cy1, cx0:cx1]).tobytes())
    h.update(np.ascontiguousarray(frame.cr[cy0:cy1, cx0:cx1]).tobytes())


def tile_decode_digest(
    stream: bytes, layout: TileLayout, tid: int, start_at: int = 0
) -> str:
    """Oracle: SHA-256 over tile ``tid``'s partition crop of a clean
    full-raster decode, display order, starting at coded ``start_at``.

    A wall receiver tuned in at ``start_at`` must report exactly this
    digest — the margin-restricted reconstruction is bit-identical to the
    full decode on the displayed partition.
    """
    part = layout.tile(tid).partition
    dec = PacedStreamDecoder(stream, start_at=start_at)
    h = hashlib.sha256()
    while not dec.done:
        res = dec.step(drop=False)
        if res.frame is not None:
            _digest_crop(h, res.frame, part)
    tail = dec.flush()
    if tail is not None:
        _digest_crop(h, tail, part)
    return h.hexdigest()


# --------------------------------------------------------------------- #
# receiver
# --------------------------------------------------------------------- #

WAIT_SEQ = "wait_seq"
TUNING = "tuning"
DECODING = "decoding"
DONE = "done"


class WallReceiver:
    """One tile's subscribe → tune-in → decode → present loop."""

    def __init__(
        self,
        control: Address,
        tid: int,
        name: Optional[str] = None,
        clock: Optional[PresentationClock] = None,
        use_clock: bool = False,
        report_every_s: float = 0.5,
        on_frame: Optional[Callable[[int, Frame], None]] = None,
        connect_timeout: float = 10.0,
    ):
        self.tid = tid
        self.name = name or f"tile{tid}"
        self.on_frame = on_frame
        self.report_every_s = report_every_s
        self.rx = BroadcastReceiver(
            control, tiles=[tid], name=self.name, connect_timeout=connect_timeout
        )
        self.start_at = self.rx.start_at
        meta = self.rx.meta
        self.fps = float(meta.get("fps", 30.0))
        self.wall = WallSpec.from_dict(meta["wall"])
        self.layout: Optional[TileLayout] = None
        self.sequence: Optional[SequenceHeader] = None
        self.parser: Optional[MacroblockParser] = None
        self.matrices: Optional[QuantMatrices] = None
        if clock is not None:
            self.clock = clock
        elif use_clock:
            self.clock = PresentationClock(fps=self.fps, epoch=self.rx.epoch)
        else:
            self.clock = PresentationClock(fps=None)
        self.state = WAIT_SEQ
        self.tuned_at: Optional[int] = None
        self.retunes = 0
        self.decoded = 0
        self.displayed = 0
        self.dropped_tuning = 0
        self.dropped_gap = 0
        self._digest = hashlib.sha256()
        self._held: Optional[Frame] = None
        self._prev_anchor: Optional[Frame] = None
        self._display_idx = 0
        self._last_report = 0.0
        self.last_frame: Optional[Frame] = None

    # ------------------------------ the loop -------------------------------- #

    def run(self, max_wall_s: float = 120.0) -> Dict:
        """Consume the broadcast until W_END (or the wall-clock budget).

        A sender that goes away mid-stream ends the run instead of
        raising: the summary's non-``done`` state is the caller's signal.
        """
        deadline = time.monotonic() + max_wall_s
        while self.state != DONE and time.monotonic() < deadline:
            try:
                rec = self.rx.recv(timeout=0.5)
            except ChannelError:
                break
            if rec is None:
                continue
            if isinstance(rec, GapNotice):
                self._on_gap(len(rec.seqs))
                continue
            if rec.kind == W_SEQ:
                self._on_seq(rec.payload)
            elif rec.kind == W_PIC:
                self._on_pic(rec.payload)
            elif rec.kind == W_END:
                self._on_end()
            self._maybe_report()
        summary = self.summary()
        try:
            self.rx.report(summary)
        except ChannelError:
            pass
        return summary

    def _on_seq(self, payload: bytes) -> None:
        meta, sequence = decode_seq_payload(payload)
        self.sequence = sequence
        self.parser = MacroblockParser(sequence)
        self.matrices = QuantMatrices.from_sequence(sequence)
        self.layout = self.wall.to_layout(sequence.width, sequence.height)
        if self.state == WAIT_SEQ:
            self.state = TUNING

    def _on_pic(self, payload: bytes) -> None:
        if self.state not in (TUNING, DECODING) or self.parser is None:
            return
        pic = decode_pic_payload(payload)
        if self.state == TUNING:
            # First tune-in honours the handshake's start_at (records may
            # have been buffered ahead of it); a re-tune after a gap takes
            # the next anchor-flagged picture, whatever its index.
            floor = (self.start_at or 0) if self.tuned_at is None else 0
            if not (pic.flags & PIC_ANCHOR) or pic.coded_index < floor:
                self.dropped_tuning += 1
                self._count_drop("tuning")
                return
            self.state = DECODING
            if self.tuned_at is None:
                self.tuned_at = pic.coded_index
            else:
                self.retunes += 1
        self._decode(pic)

    def _decode(self, pic) -> None:
        assert self.sequence is not None and self.layout is not None
        tile = self.layout.tile(self.tid)
        rect = expand_rect(
            tile.coverage, pic.margin_px, self.sequence.width, self.sequence.height
        )
        parsed = self.parser.parse_picture(pic.data, lean=True)
        if pic.ptype == PictureType.B:
            frame = reconstruct_rect(
                parsed, self.sequence, self._prev_anchor, self._held, rect,
                self.matrices,
            )
            self.decoded += 1
            self._emit(frame)
            return
        fwd = self._held if pic.ptype == PictureType.P else None
        frame = reconstruct_rect(
            parsed, self.sequence, fwd, None, rect, self.matrices
        )
        self.decoded += 1
        out = self._held
        self._prev_anchor = self._held
        self._held = frame
        if out is not None:
            self._emit(out)

    def _emit(self, frame: Frame) -> None:
        """One display-order frame: digest (bit-exactness), then present."""
        assert self.layout is not None
        part = self.layout.tile(self.tid).partition
        _digest_crop(self._digest, frame, part)
        self.last_frame = frame
        idx = self._display_idx
        self._display_idx += 1
        if self.clock.offer(idx):
            self.displayed += 1
            if self.on_frame is not None:
                self.on_frame(idx, frame)
        else:
            self._count_drop("late")
        self._gauge_lag()

    def _on_gap(self, n_lost: int) -> None:
        """Lost records poison the reference chain: re-tune at next anchor."""
        if self.state == DECODING:
            self.state = TUNING
            self._held = None
            self._prev_anchor = None
        self.dropped_gap += n_lost
        self._count_drop("gap", n_lost)

    def _on_end(self) -> None:
        if self.state == DECODING and self._held is not None:
            self._emit(self._held)
            self._held = None
        self.state = DONE

    # ---------------------------- observability ----------------------------- #

    def _count_drop(self, reason: str, n: int = 1) -> None:
        families().counter(
            "repro_wall_frames_dropped",
            "wall receiver frames not displayed, by reason",
            labelnames=("tile", "reason"),
        ).inc(n, tile=str(self.tid), reason=reason)

    def _gauge_lag(self) -> None:
        families().gauge(
            "repro_wall_receiver_lag_s",
            "wall receiver lag behind the presentation timeline",
            labelnames=("tile",),
        ).set(max(0.0, self.clock.last_lag_s), tile=str(self.tid))

    def _maybe_report(self) -> None:
        now = time.monotonic()
        if now - self._last_report < self.report_every_s:
            return
        self._last_report = now
        try:
            self.rx.report(self.summary())
        except ChannelError:
            pass

    def summary(self) -> Dict:
        c = self.clock.to_dict()
        return {
            "name": self.name,
            "tile": self.tid,
            "state": self.state,
            "start_at": self.start_at,
            "tuned_at": self.tuned_at,
            "retunes": self.retunes,
            "decoded": self.decoded,
            "displayed": self.displayed,
            "dropped_tuning": self.dropped_tuning,
            "dropped_gap": self.dropped_gap,
            "dropped_late": c["dropped_late"],
            "lag_s": max(0.0, c["last_lag_s"]),
            "max_lag_s": max(0.0, c["max_lag_s"]),
            "digest": self._digest.hexdigest(),
            **{k: v for k, v in self.rx.stats.to_dict().items()},
        }

    def close(self) -> None:
        self.rx.close()

    def __enter__(self) -> "WallReceiver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def receive_tile(
    control: Address,
    tid: int,
    name: Optional[str] = None,
    use_clock: bool = False,
    max_wall_s: float = 120.0,
    frames: Optional[List[Frame]] = None,
) -> Dict:
    """Convenience wrapper: run one tile receiver to completion."""
    on_frame = None
    if frames is not None:
        on_frame = lambda idx, f: frames.append(f)  # noqa: E731
    with WallReceiver(
        control, tid, name=name, use_clock=use_clock, on_frame=on_frame
    ) as wr:
        return wr.run(max_wall_s=max_wall_s)
