"""Second-level (macroblock) splitter (paper §4.1 algorithm, refined §4.5).

For each coded picture the splitter:

1. VLC-parses the picture into macroblocks (no pixel work — "a splitter
   does not motion compensate", which is why pictures can be split in
   parallel with no inter-picture dependency);
2. sorts macroblocks into per-tile **sub-pictures**, copying partial-slice
   bytes and inserting State Propagation Headers where prediction chains
   break;
3. pre-calculates the **MEI** exchange programs from every motion vector
   that reads outside its tile's coverage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.mpeg2.batch_reconstruct import PlanBuilder
from repro.mpeg2.constants import PictureType
from repro.mpeg2.motion import Rect, chroma_reference_rect, reference_rect
from repro.mpeg2.parser import MacroblockParser, ParsedMB, ParsedPicture, PictureUnit
from repro.mpeg2.plan_codec import TilePlan
from repro.mpeg2.reconstruct import QuantMatrices
from repro.mpeg2.structures import SequenceHeader
from repro.parallel.mei import BWD, FWD, BlockXfer, MEIBatch
from repro.parallel.subpicture import SPH, RunRecord, SkipRecord, SubPicture
from repro.perf.metrics import StageTimes
from repro.perf.telemetry import registry
from repro.wall.layout import TileLayout


@dataclass
class SplitResult:
    """Everything a second-level splitter ships for one picture."""

    picture_index: int
    subpictures: Dict[int, SubPicture]
    mei: MEIBatch
    picture_type: PictureType

    def subpicture_bytes(self, tile: int) -> int:
        return len(self.subpictures[tile].serialize())

    def total_send_bytes(self) -> int:
        """Bytes this splitter sends to decoders (SPs + MEI programs)."""
        return sum(
            len(sp.serialize()) + self.mei.program(t).instruction_bytes
            for t, sp in self.subpictures.items()
        )


@dataclass
class PlanSplitResult:
    """Plan-shipping counterpart of :class:`SplitResult`.

    Instead of sub-picture bitstreams, each tile gets a compiled
    :class:`~repro.mpeg2.plan_codec.TilePlan` — the decoder side goes
    straight to the vectorized execute phase with no VLC work.  The MEI
    exchange programs are identical to the bitstream path's.
    """

    picture_index: int
    plans: Dict[int, TilePlan]
    mei: MEIBatch
    picture_type: PictureType


@dataclass
class _Run:
    """An open partial slice being accumulated for one tile."""

    row: int
    slice_index: int
    items: List[ParsedMB] = field(default_factory=list)

    @property
    def next_addr(self) -> int:
        return self.items[-1].mb.address + 1


def _contained(rect_cols, idx: np.ndarray, bound: Rect) -> np.ndarray:
    x0, y0, x1, y1 = rect_cols
    return (
        (x0[idx] >= bound.x0)
        & (y0[idx] >= bound.y0)
        & (x1[idx] <= bound.x1)
        & (y1[idx] <= bound.y1)
    )


@dataclass
class _SkipStreak:
    first_address: int
    count: int
    forward: bool
    backward: bool
    mv_fwd: tuple
    mv_bwd: tuple


class MacroblockSplitter:
    """Split coded pictures into per-tile sub-pictures + MEI programs.

    ``collect_content=True`` records a per-column/per-row coded-bit
    profile of each parsed picture in :attr:`last_content` — the load
    proxy the content-aware partition policy feeds on (the bits were
    parsed anyway, so the profile is one bincount per picture).
    """

    def __init__(
        self,
        sequence: SequenceHeader,
        layout: TileLayout,
        collect_content: bool = False,
    ):
        if layout.width != sequence.width or layout.height != sequence.height:
            raise ValueError("layout raster does not match the video raster")
        self.sequence = sequence
        self.layout = layout
        self.collect_content = collect_content
        self.last_content = None  # (col_bits, row_bits) of the last parse
        self.parser = MacroblockParser(sequence)
        self.matrices = QuantMatrices.from_sequence(sequence)
        # parse/plan attribution for the per-process stage_times traces.
        self.stage_times = StageTimes()
        # per-picture split latency distribution for the stats snapshots
        self.split_hist = registry().histogram("splitter.split_s")

    def set_layout(self, layout: TileLayout) -> None:
        """Swap the tile partition (adaptive repartitioning).

        The splitter is stateless across pictures — parsing depends only
        on the sequence header — so a layout swap between pictures is
        safe; the caller (the runtime's layout schedule) guarantees it
        only happens at closed-GOP boundaries.
        """
        if layout.width != self.sequence.width or layout.height != self.sequence.height:
            raise ValueError("layout raster does not match the video raster")
        self.layout = layout

    # ------------------------------------------------------------------ #

    def split(self, unit: PictureUnit, picture_index: int) -> SplitResult:
        t0 = time.perf_counter()
        with self.stage_times.stage("parse"):
            parsed = self.parser.parse_picture(unit.data)
        self._note_content(parsed)
        with self.stage_times.stage("plan"):
            result = self.split_parsed(parsed, picture_index)
        self.stage_times.pictures += 1
        self.split_hist.observe(time.perf_counter() - t0)
        return result

    def split_plans(self, unit: PictureUnit, picture_index: int) -> PlanSplitResult:
        """Parse once, compile each tile's share into a shipped plan."""
        t0 = time.perf_counter()
        with self.stage_times.stage("parse"):
            # Lean parse: plans carry no SPHs, so skip the state snapshots.
            parsed = self.parser.parse_picture(unit.data, lean=True)
        self._note_content(parsed)
        with self.stage_times.stage("plan"):
            result = self.compile_plans(parsed, picture_index)
        self.stage_times.pictures += 1
        self.split_hist.observe(time.perf_counter() - t0)
        return result

    def _note_content(self, parsed: ParsedPicture) -> None:
        if self.collect_content:
            from repro.parallel.partition import content_profile

            self.last_content = content_profile(parsed)

    def compile_plans(
        self, parsed: ParsedPicture, picture_index: int
    ) -> PlanSplitResult:
        """Vectorized plan compilation (output-identical to the reference).

        Works on the picture's columns (:attr:`ParsedPicture.columns`):
        tile membership, plan arrays, and the escape test for MEI
        exchanges are all array expressions.  Only the rare macroblocks
        whose reference rectangle actually leaves a tile's coverage fall
        back to the scalar exchange builder — in the same (stream, tile)
        order the reference path visits them, so MEI dedup and program
        order are preserved exactly.
        """
        layout = self.layout
        hdr = parsed.header
        mei = MEIBatch(picture_index, layout.n_tiles)
        tab = parsed.columns
        tab.check_staging(
            self.sequence.width, self.sequence.height, np.arange(tab.n)
        )

        cands = tab.mei_candidates()
        esc_items: List[np.ndarray] = []
        esc_tids: List[np.ndarray] = []
        plans: Dict[int, TilePlan] = {}
        for t in layout:
            idx = tab.members(t)
            m = len(idx)
            n_sk = int(tab.skipped[idx].sum())
            plans[t.tid] = TilePlan(
                picture_index=picture_index,
                tile=t.tid,
                picture_type=hdr.picture_type,
                n_coded=m - n_sk,
                n_skipped=n_sk,
                plan=tab.plan(idx, self.matrices, hdr.dc_scaler),
            )
            if m == 0:
                continue
            cov = t.coverage
            ccov = Rect(cov.x0 // 2, cov.y0 // 2, cov.x1 // 2, cov.y1 // 2)
            esc = np.zeros(m, bool)
            for act, lrect, crect in cands:
                a = act[idx]
                if not a.any():
                    continue
                esc |= a & ~(
                    _contained(lrect, idx, cov) & _contained(crect, idx, ccov)
                )
            if esc.any():
                esc_items.append(idx[esc])
                esc_tids.append(np.full(int(esc.sum()), t.tid, np.int64))

        if esc_items:
            gi = np.concatenate(esc_items)
            gt = np.concatenate(esc_tids)
            # Reference visit order: stream position major, tile id minor.
            for k in np.lexsort((gt, gi)):
                i = int(gi[k])
                directions = []
                if tab.fwd_flag[i] and tab.has_f[i]:
                    directions.append((FWD, tuple(tab.mvf_raw[i].tolist())))
                if tab.bwd_flag[i] and tab.has_b[i]:
                    directions.append((BWD, tuple(tab.mvb_raw[i].tolist())))
                self._exchanges(
                    mei, int(gt[k]), int(tab.mbx[i]), int(tab.mby[i]), directions
                )

        return PlanSplitResult(
            picture_index=picture_index,
            plans=plans,
            mei=mei,
            picture_type=hdr.picture_type,
        )

    def compile_plans_reference(
        self, parsed: ParsedPicture, picture_index: int
    ) -> PlanSplitResult:
        """Scalar reference for :meth:`compile_plans` (differential tests).

        The macroblock-at-a-time path the vectorized compiler must match
        bit for bit — plans, counts, MEI programs, and exceptions.
        """
        layout = self.layout
        hdr = parsed.header
        builders = {
            t.tid: PlanBuilder(
                hdr.picture_type,
                parsed.mb_width,
                self.sequence.width,
                self.sequence.height,
                self.matrices,
                hdr.dc_scaler,
            )
            for t in layout
        }
        counts = {t.tid: [0, 0] for t in layout}  # [coded, skipped]
        mei = MEIBatch(picture_index, layout.n_tiles)

        for item in parsed.items:
            mb = item.mb
            mb_x = mb.address % parsed.mb_width
            mb_y = mb.address // parsed.mb_width
            for t in layout.tiles_for_mb(mb_x, mb_y):
                builders[t].add(mb)
                counts[t][1 if mb.skipped else 0] += 1
                self._add_exchanges(mei, item, t, mb_x, mb_y)

        plans = {
            t.tid: TilePlan(
                picture_index=picture_index,
                tile=t.tid,
                picture_type=hdr.picture_type,
                n_coded=counts[t.tid][0],
                n_skipped=counts[t.tid][1],
                plan=builders[t.tid].build(),
            )
            for t in layout
        }
        return PlanSplitResult(
            picture_index=picture_index,
            plans=plans,
            mei=mei,
            picture_type=hdr.picture_type,
        )

    def split_parsed(self, parsed: ParsedPicture, picture_index: int) -> SplitResult:
        layout = self.layout
        hdr = parsed.header
        subpictures = {
            t.tid: SubPicture(
                picture_index=picture_index,
                tile=t.tid,
                picture_type=hdr.picture_type,
                temporal_reference=hdr.temporal_reference,
                f_code=hdr.f_code,
                mb_width=parsed.mb_width,
                mb_height=parsed.mb_height,
                intra_dc_precision=hdr.intra_dc_precision,
                intra_vlc_format=hdr.intra_vlc_format,
            )
            for t in layout
        }
        mei = MEIBatch(picture_index, layout.n_tiles)

        open_runs: Dict[int, Optional[_Run]] = {t.tid: None for t in layout}
        pending: Dict[int, Optional[_SkipStreak]] = {t.tid: None for t in layout}

        def flush_pending(t: int) -> None:
            streak = pending[t]
            if streak is None:
                return
            subpictures[t].records.append(
                SkipRecord(
                    address=streak.first_address,
                    count=streak.count,
                    forward=streak.forward,
                    backward=streak.backward,
                    mv_fwd=streak.mv_fwd,
                    mv_bwd=streak.mv_bwd,
                )
            )
            pending[t] = None

        def add_pending_skip(t: int, item: ParsedMB) -> None:
            mb = item.mb
            mvf = mb.mv_fwd or (0, 0)
            mvb = mb.mv_bwd or (0, 0)
            streak = pending[t]
            if (
                streak is not None
                and streak.first_address + streak.count == mb.address
                and streak.forward == mb.motion_forward
                and streak.backward == mb.motion_backward
                and streak.mv_fwd == mvf
                and streak.mv_bwd == mvb
            ):
                streak.count += 1
                return
            flush_pending(t)
            pending[t] = _SkipStreak(
                first_address=mb.address,
                count=1,
                forward=mb.motion_forward,
                backward=mb.motion_backward,
                mv_fwd=mvf,
                mv_bwd=mvb,
            )

        def close_run(t: int) -> None:
            run = open_runs[t]
            if run is None:
                return
            open_runs[t] = None
            items = run.items
            # Trailing skipped macroblocks have their increment bits inside
            # a later macroblock that is NOT in this run; ship them as
            # explicit skip records instead.
            last_coded = max(
                i for i, it in enumerate(items) if not it.mb.skipped
            )
            run_items, trailing = items[: last_coded + 1], items[last_coded + 1 :]
            first = run_items[0]
            start = first.mb.body_start
            end = run_items[-1].mb.bit_end
            payload = parsed.data[start // 8 : (end + 7) // 8]
            snap = first.state_before
            sph = SPH(
                address=first.mb.address,
                qscale_code=snap["qscale_code"],
                dc_pred=tuple(snap["dc_pred"]),
                pmv=(tuple(snap["pmv"][0]), tuple(snap["pmv"][1])),
                prev_forward=snap["prev_forward"],
                prev_backward=snap["prev_backward"],
                skip_bits=start % 8,
            )
            subpictures[t].records.append(
                RunRecord(
                    sph=sph,
                    n_coded=sum(1 for it in run_items if not it.mb.skipped),
                    n_total=len(run_items),
                    nbits=end - start,
                    payload=payload,
                )
            )
            for it in trailing:
                add_pending_skip(t, it)

        # ---------------- sort macroblocks into tiles ------------------- #
        for item in parsed.items:
            mb = item.mb
            mb_x = mb.address % parsed.mb_width
            mb_y = mb.address // parsed.mb_width
            tiles = layout.tiles_for_mb(mb_x, mb_y)
            for t in tiles:
                run = open_runs[t]
                contiguous = (
                    run is not None
                    and mb.address == run.next_addr
                    and item.slice_index == run.slice_index
                )
                if mb.skipped:
                    if contiguous:
                        run.items.append(item)
                    else:
                        close_run(t)
                        add_pending_skip(t, item)
                else:
                    if contiguous:
                        run.items.append(item)
                    else:
                        close_run(t)
                        flush_pending(t)
                        open_runs[t] = _Run(
                            row=item.slice_row,
                            slice_index=item.slice_index,
                            items=[item],
                        )
                self._add_exchanges(mei, item, t, mb_x, mb_y)

        for t in layout.tiles:
            close_run(t.tid)
            flush_pending(t.tid)

        return SplitResult(
            picture_index=picture_index,
            subpictures=subpictures,
            mei=mei,
            picture_type=hdr.picture_type,
        )

    # ------------------------------------------------------------------ #

    def _add_exchanges(
        self, mei: MEIBatch, item: ParsedMB, t: int, mb_x: int, mb_y: int
    ) -> None:
        """Pre-calculate remote reference transfers for one macroblock."""
        mb = item.mb
        if mb.intra:
            return
        directions = []
        if mb.motion_forward and mb.mv_fwd is not None:
            directions.append((FWD, mb.mv_fwd))
        if mb.motion_backward and mb.mv_bwd is not None:
            directions.append((BWD, mb.mv_bwd))
        # P "No MC" and P skips read the co-located macroblock, which is
        # always inside this tile's coverage — no exchange needed.
        self._exchanges(mei, t, mb_x, mb_y, directions)

    def _exchanges(
        self, mei: MEIBatch, t: int, mb_x: int, mb_y: int, directions
    ) -> None:
        """Transfers tile ``t`` needs for one macroblock's ``(direction,
        vector)`` reads that leave its coverage."""
        layout = self.layout
        tile = layout.tile(t)
        cov = tile.coverage
        ccov = Rect(cov.x0 // 2, cov.y0 // 2, cov.x1 // 2, cov.y1 // 2)

        for direction, mv in directions:
            if mv == (0, 0):
                continue  # co-located read, local by construction
            lrect = reference_rect(mb_x, mb_y, mv)
            crect = chroma_reference_rect(mb_x, mb_y, mv)
            if cov.contains(lrect) and ccov.contains(crect):
                continue
            for other in layout.tiles:
                if other.tid == t:
                    continue
                p = other.partition
                lpiece = p.intersect(lrect)
                cp = Rect(p.x0 // 2, p.y0 // 2, -(-p.x1 // 2), -(-p.y1 // 2))
                cpiece = cp.intersect(crect)
                luma_needed = not lpiece.is_empty() and not cov.contains(lpiece)
                chroma_needed = not cpiece.is_empty() and not ccov.contains(cpiece)
                if not luma_needed and not chroma_needed:
                    continue
                mei.add_exchange(
                    other.tid,
                    t,
                    BlockXfer(
                        luma=lpiece if luma_needed else Rect(0, 0, 0, 0),
                        chroma=cpiece if chroma_needed else Rect(0, 0, 0, 0),
                        direction=direction,
                    ),
                )
