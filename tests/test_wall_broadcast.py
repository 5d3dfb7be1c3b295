"""Wall broadcast plane: tune-in anchors, decode margins, bit-exact
tile receivers, presentation clock, and the broadcast session kind."""

import threading

import numpy as np
import pytest

from repro.mpeg2.constants import PictureType
from repro.mpeg2.decoder import decode_stream
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.parser import PictureScanner
from repro.service import ServiceClient, ServiceConfig, WallService
from repro.mpeg2.structures import SequenceHeader
from repro.wall.broadcast import (
    WallBroadcaster,
    WallPayloadError,
    _parse_picture_header,
    decode_margins,
    decode_seq_payload,
    encode_seq_payload,
    tune_anchors,
)
from repro.wall.clock import PresentationClock
from repro.wall.config import WallSpec
from repro.wall.display import assemble_wall
from repro.wall.receiver import WallReceiver, tile_decode_digest
from repro.workloads.streams import stream_by_id

SPEC = stream_by_id(5)


@pytest.fixture(scope="module")
def clip_stream():
    frames = SPEC.synthetic_frames(18, max_width=96)
    return Encoder(EncoderConfig(gop_size=6, b_frames=2)).encode(frames)


@pytest.fixture(scope="module")
def wall_spec():
    return WallSpec(cols=2, rows=2, overlap=0, name="testwall")


def unix_addr(tmp_path, name="wall.sock"):
    return ("unix", str(tmp_path / name))


# --------------------------------------------------------------------- #
# anchors and margins
# --------------------------------------------------------------------- #


class TestAnchorsAndMargins:
    def test_anchors_are_i_pictures(self, clip_stream):
        _, pictures = PictureScanner(clip_stream).scan()
        anchors = tune_anchors(pictures)
        assert anchors and anchors[0] == 0
        assert anchors == sorted(set(anchors))
        for a in anchors:
            h = _parse_picture_header(pictures[a].data)
            assert h.picture_type == PictureType.I

    def test_margins_cover_every_picture(self, clip_stream):
        _, pictures = PictureScanner(clip_stream).scan()
        margins = decode_margins(pictures)
        assert len(margins) == len(pictures)
        assert all(m >= 0 for m in margins)
        # references carry downstream motion requirements; with B-frames
        # in the clip at least one reference must demand a margin
        assert max(margins) > 0

    def test_open_gop_not_an_anchor(self):
        frames = SPEC.synthetic_frames(12, max_width=96)
        stream = Encoder(
            EncoderConfig(gop_size=6, b_frames=2, closed_gop=False)
        ).encode(frames)
        _, pictures = PictureScanner(stream).scan()
        # an open GOP's leading B-frames reference the previous GOP, so
        # only picture 0 (which needs no prior state) may tune a joiner
        assert tune_anchors(pictures) == [0]


# --------------------------------------------------------------------- #
# W_SEQ payload: coded sequence header, never pickle
# --------------------------------------------------------------------- #


def _custom_sequence() -> SequenceHeader:
    rng = np.random.default_rng(5)
    return SequenceHeader(
        width=1920,
        height=1088,
        frame_rate_code=3,
        bit_rate=123_456,
        vbv_buffer_size=1500,
        intra_matrix=rng.integers(1, 256, (8, 8)),
        non_intra_matrix=rng.integers(1, 256, (8, 8)),
    )


class TestSeqPayload:
    META = {"width": 1920, "height": 1088, "anchors": [0, 12], "epoch": 1.5}

    def test_round_trip_with_custom_matrices(self):
        seq = _custom_sequence()
        meta, back = decode_seq_payload(encode_seq_payload(self.META, seq))
        assert meta == self.META
        assert back == seq
        assert back.intra_matrix.tolist() == seq.intra_matrix.tolist()
        assert back.non_intra_matrix.tolist() == seq.non_intra_matrix.tolist()

    def test_round_trip_default_matrices(self, clip_stream):
        seq, _ = PictureScanner(clip_stream).scan()
        _, back = decode_seq_payload(encode_seq_payload({}, seq))
        assert back == seq
        assert back.intra_matrix is None and back.non_intra_matrix is None

    def test_malformed_payloads_raise_typed_error_without_unpickling(
        self, monkeypatch
    ):
        import pickle

        calls = []
        monkeypatch.setattr(pickle, "loads", lambda *a, **k: calls.append(a))
        good = encode_seq_payload(self.META, _custom_sequence())
        blob_end = 4 + int.from_bytes(good[:4], "little")
        bad = [
            b"",
            b"\x01\x00",
            b"\xff\xff\xff\x7f{}",  # metadata length past the end
            good[:blob_end],  # no coded header at all
            good[: blob_end + 9],  # header cut inside the matrices
            good[:-1],  # header cut inside the extension
            good + b"\x00",  # trailing garbage
            good[:4] + b"[1, 2]" + good[blob_end:],  # wrong length/metadata
            good[:blob_end] + pickle.dumps(_custom_sequence()),
            bytes(range(256)),
        ]
        for payload in bad:
            with pytest.raises(WallPayloadError):
                decode_seq_payload(payload)
        assert calls == []


# --------------------------------------------------------------------- #
# end to end: broadcast -> 4 receivers -> bit-exact wall
# --------------------------------------------------------------------- #


class TestWallEndToEnd:
    def test_four_tiles_bit_exact(self, tmp_path, clip_stream, wall_spec):
        bc = WallBroadcaster(
            clip_stream, wall_spec, unix_addr(tmp_path), mode="stream"
        )
        try:
            layout = wall_spec.to_layout(
                bc.sequence.width, bc.sequence.height
            )
            last = {}
            summaries = {}

            def run_tile(tid):
                rx = WallReceiver(
                    bc.control_address,
                    tid,
                    on_frame=lambda i, f, t=tid: last.__setitem__(t, f),
                )
                with rx:
                    summaries[tid] = rx.run(max_wall_s=60.0)

            threads = [
                threading.Thread(target=run_tile, args=(t,), daemon=True)
                for t in range(4)
            ]
            for t in threads:
                t.start()
            bc.sender.wait_subscribers(4, timeout=20.0)
            bc.run(rate_fps=None)
            for t in threads:
                t.join(timeout=60.0)

            assert set(summaries) == {0, 1, 2, 3}
            for tid, s in summaries.items():
                assert s["state"] == "done"
                assert s["tuned_at"] == 0
                assert s["digest"] == tile_decode_digest(
                    clip_stream, layout, tid, start_at=0
                )
            # single-encode fan-out: encodes track pictures, not receivers
            st = bc.stats()
            assert st["encodes"] == st["n_pictures"] + 2  # + W_SEQ + W_END
            assert st["fanout_sends"] >= 4 * st["encodes"]

            # assembled wall == sequential decode, bit for bit
            wall = assemble_wall(layout, last)
            ref = decode_stream(clip_stream)[-1]
            assert np.array_equal(wall.y, ref.y)
            assert np.array_equal(wall.cb, ref.cb)
            assert np.array_equal(wall.cr, ref.cr)
        finally:
            bc.close()

    def test_late_joiner_tunes_at_next_anchor(
        self, tmp_path, clip_stream, wall_spec
    ):
        bc = WallBroadcaster(
            clip_stream, wall_spec, unix_addr(tmp_path), mode="stream"
        )
        try:
            layout = wall_spec.to_layout(bc.sequence.width, bc.sequence.height)
            bc.publish_sequence()
            for i in range(8):  # cursor lands mid-GOP
                bc.publish_picture(i)
            rx = WallReceiver(bc.control_address, 0, name="late0")
            expected = next(a for a in bc.anchors if a > 7)
            assert rx.start_at == expected
            for i in range(8, len(bc.pictures)):
                bc.publish_picture(i)
            bc.publish_end()
            s = rx.run(max_wall_s=60.0)
            rx.close()
            assert s["state"] == "done"
            assert s["tuned_at"] == expected
            assert s["dropped_tuning"] == expected - 8
            assert s["digest"] == tile_decode_digest(
                clip_stream, layout, 0, start_at=expected
            )
        finally:
            bc.close()


# --------------------------------------------------------------------- #
# presentation clock
# --------------------------------------------------------------------- #


class TestPresentationClock:
    def test_free_run_releases_everything(self):
        clk = PresentationClock(fps=None)
        assert all(clk.offer(i) for i in range(5))
        assert clk.released == 5 and clk.dropped_late == 0

    def test_due_timeline(self):
        clk = PresentationClock(fps=10.0, epoch=100.0, latency_s=0.25)
        assert clk.due(0) == pytest.approx(100.25)
        assert clk.due(10) == pytest.approx(101.25)

    def test_early_frame_sleeps_until_due(self):
        now = [100.0]
        slept = []
        clk = PresentationClock(
            fps=10.0,
            epoch=100.0,
            latency_s=0.25,
            time_fn=lambda: now[0],
            sleep_fn=slept.append,
        )
        assert clk.offer(0)
        assert slept == [pytest.approx(0.25)]
        assert clk.released == 1

    def test_late_frame_dropped_and_accounted(self):
        now = [105.0]  # frame 0 due at 100.25: hopelessly late
        clk = PresentationClock(
            fps=10.0,
            epoch=100.0,
            latency_s=0.25,
            time_fn=lambda: now[0],
            sleep_fn=lambda s: None,
        )
        assert not clk.offer(0)
        assert clk.dropped_late == 1 and clk.released == 0
        assert clk.last_lag_s == pytest.approx(4.75)
        d = clk.to_dict()
        assert d["dropped_late"] == 1
        assert d["max_lag_s"] == pytest.approx(4.75)

    def test_tolerance_admits_slightly_late(self):
        now = [100.30]
        clk = PresentationClock(
            fps=10.0,
            epoch=100.0,
            latency_s=0.25,
            late_tolerance_s=0.1,
            time_fn=lambda: now[0],
            sleep_fn=lambda s: None,
        )
        assert clk.offer(0)
        assert clk.dropped_late == 0


# --------------------------------------------------------------------- #
# the broadcast session kind on the daemon
# --------------------------------------------------------------------- #


@pytest.fixture()
def service(tmp_path):
    cfg = ServiceConfig(capacity_mpps=200.0, workers=2, queue_slots=2)
    svc = WallService(tmp_path, cfg)
    svc.start()
    yield svc, tmp_path
    svc.stop()


class TestBroadcastSessionKind:
    def test_submit_publishes_and_receiver_matches_oracle(
        self, service, clip_stream, wall_spec
    ):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            reply = client.submit(
                SPEC,
                stream=clip_stream,
                name="bcast1",
                kind="broadcast",
                wall=wall_spec.to_dict(),
                rate_fps=10.0,  # hold the publish open for the subscribe
            )
            assert reply["admission"]["action"] == "accept"
            info = reply["broadcast"]
            assert info["anchors"][0] == 0
            control = tuple(info["control"])
            rx = WallReceiver(control, 2, name="svc-tile2")
            s = rx.run(max_wall_s=60.0)
            layout = rx.layout  # raster-true geometry from the broadcast
            rx.close()
            # the daemon free-runs from submit, so the receiver may tune
            # late; the oracle is keyed on its actual tune-in point
            assert s["digest"] == tile_decode_digest(
                clip_stream, layout, 2, start_at=s["tuned_at"]
            )
            done = client.wait(reply["sid"], timeout=30.0)
            assert done["state"] == "completed"
            assert done["kind"] == "broadcast"

    def test_cancel_mid_broadcast(self, service, clip_stream, wall_spec):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            reply = client.submit(
                SPEC,
                stream=clip_stream,
                name="bcast2",
                kind="broadcast",
                wall=wall_spec.to_dict(),
                rate_fps=2.0,  # slow publish so the cancel lands mid-run
            )
            sid = reply["sid"]
            out = client.cancel(sid)
            assert out["cancelled"] is True
            done = client.wait(sid, timeout=30.0)
            assert done["state"] == "cancelled"

    def test_broadcasts_do_not_consume_pool_capacity(
        self, service, clip_stream, wall_spec
    ):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            client.submit(
                SPEC,
                stream=clip_stream,
                kind="broadcast",
                wall=wall_spec.to_dict(),
                rate_fps=2.0,
            )
            snap = client.stats()["stats"]
            adm = snap["admission"]
            assert adm["active_demand_mpps"] == pytest.approx(0.0)
            assert snap["wall"]["broadcasts"] >= 1
