"""Process roles of the 1-k-(m,n) cluster: root, splitter, tile decoder.

Each role function is the body of one OS process (spawned by the
supervisor via :mod:`repro.cluster.runtime.worker`).  The control flow is
the same deadlock-free protocol the threaded runner demonstrates —
ack-credit flow control between root and splitters, ANID ack redirection
serializing sub-picture delivery, pre-calculated MEI block exchange
between decoders — but every queue is now a socket channel and every
actor a process, so decoding runs on real cores with no shared GIL.

Connection topology (arrows point from dialer to listener)::

    root ──► split[s]                 pictures down, credits back
    split[s] ──► dec[t]               sub-pictures down, ANID acks back
    dec[t] ──► dec[u<t]               reference blocks, both directions
    dec[t] ──► collector              tile frame crops, EOS, errors

Every process creates its listener first, then dials with bounded
retry-and-backoff, then labels inbound connections by their HELLO
message — so the supervisor can start the whole tree at once without an
ordered handshake.  All channels run heartbeats; a peer that dies is
detected as :class:`~repro.net.channel.ChannelClosed` (socket reset) or
:class:`~repro.net.channel.PeerDeadError` (hung: silent past
``dead_after``) instead of hanging the protocol.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.runtime.config import WallConfig
from repro.cluster.runtime.messages import (
    MSG_ACK,
    MSG_BLOCK,
    MSG_BLOCK_H,
    MSG_CREDIT,
    MSG_EOS,
    MSG_ERROR,
    MSG_FRAME,
    MSG_FRAME_H,
    MSG_HELLO,
    MSG_LAYOUT,
    MSG_PICTURE,
    MSG_PLAN,
    MSG_PLAN_H,
    MSG_REPORT,
    MSG_SEQ,
    MSG_SUBPICTURE,
    block_nbytes,
    decode_block,
    decode_block_hmsg,
    decode_hello_full,
    decode_picture,
    decode_plan_hmsg,
    decode_plan_msg,
    decode_report,
    decode_sequence,
    decode_subpicture,
    encode_block,
    encode_block_hmsg,
    encode_error,
    encode_hello,
    encode_picture,
    encode_plan_hmsg,
    encode_plan_msg,
    encode_report,
    encode_sequence,
    encode_subpicture,
    encode_tile_frame,
    encode_tile_frame_hmsg,
    tile_frame_nbytes,
    write_block_into,
    write_tile_frame_into,
)
from repro.mem import FramePool, PoolError, PoolExhausted, PoolRegistry
from repro.mpeg2 import plan_codec
from repro.mpeg2.constants import PictureType
from repro.mpeg2.motion import Rect
from repro.mpeg2.parser import PictureScanner
from repro.mpeg2.plan_codec import buffers_nbytes, plan_nbytes
from repro.net.channel import (
    Address,
    Channel,
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    CreditGate,
    Listener,
    Message,
    connect,
)
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.partition import (
    LayoutSchedule,
    LayoutUpdate,
    build_controller,
    is_repartition_point,
)
from repro.parallel.pdecoder import TileDecoder
from repro.parallel.subpicture import SubPicture
from repro.perf.telemetry import (
    emit_stats,
    maybe_emit_stats,
    registry,
    stage_span_block,
    traced_stage,
)
from repro.perf.trace import TraceWriter
from repro.wall.layout import TileLayout

STREAM_FILE = "stream.m2v"
CONFIG_FILE = "cluster.json"


class ProtocolError(RuntimeError):
    """The peer violated the 1-k-(m,n) protocol (ordering, routing)."""


# --------------------------------------------------------------------- #
# rendezvous: name -> address, rooted at the run directory
# --------------------------------------------------------------------- #


class Rendezvous:
    """Address book for the process tree.

    Unix transport: socket paths are derived from process names, so a
    dialer just retries until the listener has bound.  TCP transport:
    listeners bind an ephemeral port and publish ``{name}.addr``; dialers
    poll for the file.
    """

    def __init__(self, rundir: Path, transport: str, connect_timeout: float):
        self.rundir = Path(rundir)
        self.transport = transport
        self.connect_timeout = connect_timeout

    def listen(self, name: str) -> Listener:
        if self.transport == "unix":
            lst = Listener(("unix", str(self.rundir / f"{name}.sock")))
        else:
            lst = Listener(("tcp", "127.0.0.1", 0))
            host, port = lst.address[1], lst.address[2]
            tmp = self.rundir / f"{name}.addr.tmp"
            tmp.write_text(f"{host} {port}")
            tmp.rename(self.rundir / f"{name}.addr")  # atomic publish
        return lst

    def resolve(self, name: str) -> Address:
        if self.transport == "unix":
            return ("unix", str(self.rundir / f"{name}.sock"))
        path = self.rundir / f"{name}.addr"
        deadline = time.monotonic() + self.connect_timeout
        while not path.exists():
            if time.monotonic() >= deadline:
                raise ChannelTimeout(f"no address published for {name!r}")
            time.sleep(0.02)
        host, port = path.read_text().split()
        return ("tcp", host, int(port))

    def dial(self, peer: str, me: str, cfg: WallConfig) -> Channel:
        ch = connect(
            self.resolve(peer),
            timeout=self.connect_timeout,
            policy=cfg.connect_policy,
            name=f"{me}->{peer}",
            dead_after=cfg.dead_after,
        )
        ch.send(MSG_HELLO, encode_hello(me, _hello_features(cfg, ch)))
        # Symmetric handshake: the accepter replies with its own HELLO so
        # both ends learn the other's capabilities (shm handle support).
        reply = ch.recv(timeout=self.connect_timeout)
        if reply.type != MSG_HELLO:
            ch.close()
            raise ProtocolError(
                f"{me}: {peer} answered {reply.type}, not HELLO"
            )
        _name, ch.peer_features = decode_hello_full(reply.payload)
        ch.start_heartbeat(cfg.heartbeat_interval)
        return ch


def _hello_features(cfg: WallConfig, ch: Channel) -> dict:
    """Capabilities advertised in HELLO: shm handles need the pool flag on,
    a unix transport, and a provably same-host socket."""
    if cfg.pool_enabled and ch.is_local:
        return {"shm_pool": True}
    return {}


def accept_labeled(
    lst: Listener, me: str, cfg: WallConfig, timeout: float
) -> Tuple[str, Channel]:
    """Accept one connection within ``timeout``, read its HELLO within
    ``cfg.connect_timeout``, and reply with our own.  On any failure the
    accepted channel is closed."""
    ch = lst.accept(timeout=timeout, dead_after=cfg.dead_after)
    try:
        hello = ch.recv(timeout=cfg.connect_timeout)
    except ChannelError:
        ch.close()
        raise
    if hello.type != MSG_HELLO:
        ch.close()
        raise ProtocolError(f"{me}: first message was {hello.type}, not HELLO")
    peer, ch.peer_features = decode_hello_full(hello.payload)
    ch.name = f"{me}<-{peer}"
    ch.send(MSG_HELLO, encode_hello(me, _hello_features(cfg, ch)))
    ch.start_heartbeat(cfg.heartbeat_interval)
    return peer, ch


def _maybe_fail(cfg: WallConfig, name: str, picture: int) -> None:
    """Fault injection: die abruptly (SIGKILL) at the configured picture."""
    spec = cfg.parsed_fail_at()
    if spec is not None and spec == (name, picture):
        os.kill(os.getpid(), signal.SIGKILL)


def _pump(
    ch: Channel,
    out_q: "queue.Queue",
    label: str,
    relay: Optional[Callable[[Message], bool]] = None,
) -> threading.Thread:
    """Reader thread: forward every inbound message (and the terminal
    condition) into a queue the role's main loop consumes.  A message
    ``relay`` returns True for is handled there instead of queued."""

    def run() -> None:
        try:
            while True:
                msg = ch.recv()
                if relay is None or not relay(msg):
                    out_q.put(("msg", label, msg))
        except ChannelClosed:
            out_q.put(("closed", label, None))
        except ChannelError as exc:
            out_q.put(("error", label, exc))

    t = threading.Thread(target=run, name=f"pump:{ch.name}", daemon=True)
    t.start()
    return t


def _get(q: "queue.Queue", timeout: float, what: str):
    try:
        return q.get(timeout=timeout)
    except queue.Empty:
        raise ChannelTimeout(f"timed out after {timeout:.1f}s waiting for {what}")


# --------------------------------------------------------------------- #
# shared-memory pool plumbing
# --------------------------------------------------------------------- #


def _create_pool(cfg: WallConfig, name: str, classes, tracer: TraceWriter):
    """Best-effort owner-side pool creation.

    A missing token, an exhausted tmpfs, or any other segment failure
    degrades to ``None`` — the caller ships by value, output unchanged.
    Workers never unlink their pools; the supervisor purges every segment
    carrying the run's token after the tree is down (crash-safe even for
    SIGKILLed owners).
    """
    if not cfg.pool_enabled or not cfg.pool_token:
        return None
    try:
        pool = FramePool.create(
            f"{cfg.pool_token}-{name}",
            classes,
            shm_dir=Path(cfg.shm_dir) if cfg.shm_dir else None,
        )
    except (OSError, PoolError, ValueError) as exc:
        tracer.emit("pool_unavailable", proc=name, error=repr(exc))
        return None
    tracer.emit("pool_created", pool=pool.name, slabs=pool.n_slabs)
    return pool


def _plan_slab_bytes(layout: TileLayout, whole_raster: bool = False) -> int:
    """Worst-case per-tile plan wire size: every macroblock whose 16x16
    raster rect intersects the tile rect, all-coded with 6 blocks each.

    ``whole_raster=True`` sizes for an adaptive partition, where a tile
    may grow arbitrarily (bounded by the raster itself) between GOPs.
    """
    if whole_raster:
        n_mb = (layout.width // 16) * (layout.height // 16)
        return plan_codec.plan_wire_bound(n_mb, 6 * n_mb)
    worst = 0
    for t in layout:
        r = t.rect
        mw = -(-r.x1 // 16) - (r.x0 // 16)
        mh = -(-r.y1 // 16) - (r.y0 // 16)
        n_mb = mw * mh
        worst = max(worst, plan_codec.plan_wire_bound(n_mb, 6 * n_mb))
    return worst


#: Decoder-pool slab geometry: boundary blocks are at most one 17x17 luma
#: piece + two 9x9 chroma pieces (~450 B), so small slabs; the count covers
#: a few pictures' worth of in-flight exchanges before falling back.
BLOCK_SLAB_BYTES = 512
BLOCK_SLAB_COUNT = 256
#: Tile-frame crops in flight to the collector before falling back.
FRAME_SLAB_COUNT = 8


# --------------------------------------------------------------------- #
# root splitter
# --------------------------------------------------------------------- #


def run_root(cfg: WallConfig, rundir: Path, tracer: TraceWriter) -> None:
    """Scan the stream, round-robin pictures to splitters under credits."""
    rv = Rendezvous(rundir, cfg.transport, cfg.connect_timeout)
    stream = (rundir / STREAM_FILE).read_bytes()
    sequence, pictures = PictureScanner(stream).scan()

    # Adaptive partitioning: the controller ingests MSG_REPORT telemetry
    # (arriving on the credit back-channels) and issues versioned layout
    # updates at closed-GOP boundaries.  None under the static policy.
    base_layout = TileLayout(
        sequence.width, sequence.height, cfg.m, cfg.n, cfg.overlap
    )
    controller = build_controller(
        cfg.partition_policy, base_layout, ewma=cfg.partition_ewma
    )

    # Broadcast tee: the root publishes every coded picture once on the
    # one-to-many channel (wall receivers subscribe and self-decode their
    # tiles) in addition to the unicast splitter dispatch below.
    publisher = None
    if cfg.bcast_addr:
        from repro.wall.broadcast import WallBroadcaster
        from repro.wall.config import WallSpec

        publisher = WallBroadcaster(
            stream,
            WallSpec(cols=cfg.m, rows=cfg.n, overlap=cfg.overlap),
            ("unix", cfg.bcast_addr),
            mode="stream",
            fps=cfg.bcast_fps,
            name="root-bcast",
        )
        publisher.publish_sequence()
        tracer.emit(
            "bcast_open", address=cfg.bcast_addr, anchors=len(publisher.anchors)
        )

    channels: Dict[int, Channel] = {}
    gates: Dict[int, CreditGate] = {}
    for s in range(cfg.k):
        channels[s] = rv.dial(f"split{s}", "root", cfg)
        gates[s] = CreditGate(cfg.queue_depth)
        tracer.emit("connect", peer=f"split{s}")
    for s in range(cfg.k):
        channels[s].send(MSG_SEQ, encode_sequence(sequence))

    def credit_pump(s: int) -> threading.Thread:
        def run() -> None:
            ch = channels[s]
            try:
                while True:
                    msg = ch.recv()
                    if msg.type == MSG_CREDIT:
                        gates[s].release()
                    elif msg.type == MSG_REPORT and controller is not None:
                        controller.ingest(decode_report(msg.payload))
            except ChannelError as exc:
                gates[s].poison(exc)

        t = threading.Thread(target=run, name=f"credits:split{s}", daemon=True)
        t.start()
        return t

    pumps = [credit_pump(s) for s in range(cfg.k)]

    for i, unit in enumerate(pictures):
        _maybe_fail(cfg, "root", i)
        # Pipeline-ingress stamp (wall clock: the one base every process
        # shares): taken before the credit wait so upstream backpressure
        # is part of the picture's end-to-end latency.
        t_ingress = time.time()
        if unit.new_gop:
            tracer.emit(
                "gop",
                picture=i,
                closed=bool(unit.gop is not None and unit.gop.closed_gop),
            )
        if controller is not None:
            upd = controller.maybe_update(i, unit)
            if upd is not None:
                # Broadcast BEFORE dispatching picture i: per-channel FIFO
                # guarantees every splitter sees the update ahead of any
                # picture >= effective_from it will handle.
                payload = upd.encode()
                for s in range(cfg.k):
                    channels[s].send(MSG_LAYOUT, payload, picture=i)
                tracer.emit(
                    "layout_update",
                    picture=i,
                    version=upd.version,
                    x_bounds=list(upd.x_bounds),
                    y_bounds=list(upd.y_bounds),
                )
        a = i % cfg.k
        nsid = (a + 1) % cfg.k
        t0 = time.perf_counter()
        with tracer.span("credit_wait", picture=i, splitter=a):
            gates[a].acquire(cfg.recv_timeout)
        waited = time.perf_counter() - t0
        with tracer.span("dispatch", picture=i, splitter=a):
            channels[a].send(
                MSG_PICTURE, encode_picture(nsid, unit, t_ingress), picture=i
            )
        tracer.emit(
            "picture_sent",
            picture=i,
            splitter=a,
            bytes=unit.size_bytes,
            credit_wait_s=round(waited, 6),
        )
        if publisher is not None:
            publisher.publish_picture(i)
        maybe_emit_stats(tracer)
    for s in range(cfg.k):
        channels[s].send(MSG_EOS)
    if publisher is not None:
        publisher.publish_end()
        tracer.emit("bcast_stats", **publisher.stats())
        publisher.close()
    tracer.emit(
        "credit_totals",
        **{f"split{s}": gates[s].stats_dict() for s in range(cfg.k)},
    )
    if tracer.spans:
        emit_stats(tracer)
    tracer.emit("eos_sent", pictures=len(pictures))

    # Graceful drain: wait for every splitter to finish and close, so the
    # tail of the credit backchannel is consumed rather than reset.
    deadline = time.monotonic() + cfg.recv_timeout
    for t in pumps:
        t.join(timeout=max(0.1, deadline - time.monotonic()))
    for ch in channels.values():
        ch.close()


# --------------------------------------------------------------------- #
# second-level splitter
# --------------------------------------------------------------------- #


def run_splitter(cfg: WallConfig, rundir: Path, sid: int, tracer: TraceWriter) -> None:
    """Split pictures into sub-pictures + MEI programs; serialize delivery
    by waiting for the previous picture's ANID-redirected acks."""
    rv = Rendezvous(rundir, cfg.transport, cfg.connect_timeout)
    lst = rv.listen(f"split{sid}")
    me = f"split{sid}"
    try:
        peer, root_ch = accept_labeled(lst, me, cfg, cfg.connect_timeout)
        if peer != "root":
            raise ProtocolError(f"{me}: unexpected dialer {peer!r}")
    finally:
        lst.close()

    n_tiles = cfg.n_tiles
    dec_ch: Dict[int, Channel] = {}
    for t in range(n_tiles):
        dec_ch[t] = rv.dial(f"dec{t}", me, cfg)
        tracer.emit("connect", peer=f"dec{t}")

    def relay_report(msg: Message) -> bool:
        """Decoder telemetry rides the ack channel: relay it upstream (the
        root's controller consumes it) the moment it arrives, so it is in
        before the root's next repartition point; not an ack."""
        if msg.type != MSG_REPORT:
            return False
        try:
            root_ch.send(MSG_REPORT, msg.payload)
        except (ChannelError, OSError):
            pass  # root already gone: the report has no consumer
        return True

    ack_q: "queue.Queue" = queue.Queue()
    pumps = [
        _pump(dec_ch[t], ack_q, f"dec{t}", relay=relay_report)
        for t in range(n_tiles)
    ]

    seq_msg = root_ch.recv(cfg.connect_timeout)
    if seq_msg.type != MSG_SEQ:
        raise ProtocolError(f"{me}: expected SEQ, got {seq_msg.type}")
    sequence = decode_sequence(seq_msg.payload)
    layout = TileLayout(sequence.width, sequence.height, cfg.m, cfg.n, cfg.overlap)
    adaptive = cfg.partition_policy != "static"
    schedule = LayoutSchedule(layout)
    msplit = MacroblockSplitter(
        sequence, layout, collect_content=cfg.partition_policy == "content"
    )
    for t in range(n_tiles):
        dec_ch[t].send(MSG_SEQ, seq_msg.payload)

    # Shared-memory plan pool: one slab class sized for the worst-case
    # per-tile plan, enough slabs for every tile's in-flight pictures.
    # Under an adaptive policy a tile can grow between GOPs, so slabs are
    # sized for the whole-raster bound (a too-large plan would otherwise
    # silently fall back by value and muddy the copy accounting).
    pool = None
    if cfg.ship_plans and any(
        dec_ch[t].peer_features.get("shm_pool") for t in range(n_tiles)
    ):
        pool = _create_pool(
            cfg,
            me,
            [(
                _plan_slab_bytes(layout, whole_raster=adaptive),
                n_tiles * (cfg.queue_depth + 1),
            )],
            tracer,
        )

    def wait_acks(expect_picture: int) -> float:
        t0 = time.perf_counter()
        acked = 0
        while acked < n_tiles:
            kind, label, msg = _get(
                ack_q, cfg.recv_timeout, f"acks of picture {expect_picture}"
            )
            if kind == "closed":
                raise ChannelClosed(f"{me}: {label} disconnected during ack wait")
            if kind == "error":
                raise msg
            if msg.type != MSG_ACK:
                raise ProtocolError(f"{me}: unexpected {msg.type} from {label}")
            if msg.picture != expect_picture:
                raise ProtocolError(
                    f"{me}: ack for picture {msg.picture}, expected {expect_picture}"
                )
            acked += 1
        return time.perf_counter() - t0

    while True:
        msg = root_ch.recv(cfg.recv_timeout)
        if msg.type == MSG_EOS:
            break
        if msg.type == MSG_LAYOUT:
            # Versioned partition change from the root.  Apply to the
            # local schedule and forward to every decoder *now* — FIFO
            # order on each decoder channel guarantees the update lands
            # before any plan of a picture >= effective_from this
            # splitter will send.
            upd = LayoutUpdate.decode(msg.payload)
            schedule.apply(upd)
            for t in range(n_tiles):
                dec_ch[t].send(MSG_LAYOUT, msg.payload, picture=msg.picture)
            tracer.emit(
                "layout_recv",
                picture=upd.effective_from,
                version=upd.version,
            )
            continue
        if msg.type != MSG_PICTURE:
            raise ProtocolError(f"{me}: unexpected {msg.type} from root")
        i = msg.picture
        root_ch.send(MSG_CREDIT)  # receive buffer freed: root may send again
        _maybe_fail(cfg, me, i)
        lay = schedule.layout_for(i)
        if lay is not msplit.layout:
            msplit.set_layout(lay)
        nsid, unit, t_root = decode_picture(msg.payload)
        t0 = time.perf_counter()
        # Parent "split" span with parse/plan children synthesized from
        # the splitter's stage-time deltas across the call.
        with stage_span_block(
            tracer, msplit.stage_times, "split", picture=i,
            stages=("parse", "plan"),
        ):
            if cfg.ship_plans:
                result = msplit.split_plans(unit, i)
            else:
                result = msplit.split(unit, i)
        split_s = time.perf_counter() - t0
        if msplit.last_content is not None:
            # Content-aware policy: ship the per-column/row coded-bit
            # profile upstream (a few hundred floats per picture).
            cols, rows = msplit.last_content
            root_ch.send(
                MSG_REPORT,
                encode_report(
                    {
                        "kind": "content",
                        "picture": i,
                        "cols": [float(v) for v in cols],
                        "rows": [float(v) for v in rows],
                    }
                ),
            )
            msplit.last_content = None
        # Sub-picture delivery is serialized by the previous picture's acks,
        # redirected here via ANID — the reorder-free ordering guarantee.
        if i > 0:
            with tracer.span("ack_wait", picture=i - 1):
                ack_wait_s = wait_acks(i - 1)
        else:
            ack_wait_s = 0.0
        sent = 0
        pooled = 0
        # Second latency stamp: the split is done and the plans are about
        # to hit the decoder channels.  (t_split - t_root) is the split
        # hop, inclusive of ack serialization.
        stamps = (t_root, time.time())
        for t in range(n_tiles):
            with traced_stage(tracer, msplit.stage_times, "wire", picture=i):
                mtype = None
                if cfg.ship_plans:
                    tp = result.plans[t]
                    program = result.mei.program(t)
                    if pool is not None and dec_ch[t].peer_features.get(
                        "shm_pool"
                    ):
                        nb = plan_nbytes(tp)
                        try:
                            lease = pool.alloc(nb)
                        except PoolExhausted:
                            lease = None
                        if lease is not None:
                            plan_codec.encode_plan_into(tp, lease.buf)
                            payload = encode_plan_hmsg(
                                nsid, lease.handle, program, stamps
                            )
                            mtype = MSG_PLAN_H
                            nbytes = len(payload)
                            dec_ch[t].stats.note_handle(nb)
                            registry().counter("pool.bytes_by_handle").inc(nb)
                            pooled += nb
                    if mtype is None:
                        mtype = MSG_PLAN
                        payload = encode_plan_msg(nsid, tp, program, stamps)
                        nbytes = buffers_nbytes(payload)
                        registry().counter("pool.bytes_by_copy").inc(nbytes)
                else:
                    mtype = MSG_SUBPICTURE
                    payload = encode_subpicture(
                        nsid,
                        result.subpictures[t].serialize(),
                        result.mei.program(t),
                        stamps,
                    )
                    nbytes = len(payload)
            dec_ch[t].send(mtype, payload, picture=i)
            sent += nbytes
        tracer.emit(
            "split",
            picture=i,
            split_s=round(split_s, 6),
            ack_wait_s=round(ack_wait_s, 6),
            bytes=sent,
            pool_bytes=pooled,
        )
        maybe_emit_stats(tracer)
    for t in range(n_tiles):
        dec_ch[t].send(MSG_EOS)
    if tracer.spans:
        emit_stats(tracer)
    tracer.emit("stage_times", **msplit.stage_times.as_dict())
    if pool is not None:
        tracer.emit("pool_stats", pool=pool.name, **pool.stats.to_dict())
        pool.close()  # no unlink: consumers may still hold leases
    tracer.emit("eos_sent")
    root_ch.close()

    deadline = time.monotonic() + cfg.recv_timeout
    for t in pumps:
        t.join(timeout=max(0.1, deadline - time.monotonic()))
    for ch in dec_ch.values():
        ch.close()


# --------------------------------------------------------------------- #
# tile decoder
# --------------------------------------------------------------------- #


def run_decoder(cfg: WallConfig, rundir: Path, tid: int, tracer: TraceWriter) -> None:
    """Execute MEI sends, apply received blocks, decode sub-pictures, and
    stream displayed tile crops to the collector."""
    rv = Rendezvous(rundir, cfg.transport, cfg.connect_timeout)
    me = f"dec{tid}"
    lst = rv.listen(me)

    collector = rv.dial("collector", me, cfg)
    try:
        _decoder_body(cfg, rv, lst, collector, tid, tracer)
    except Exception as exc:
        # Best-effort rich diagnostic to the supervisor before dying; the
        # nonzero exit code is the authoritative failure signal.
        try:
            collector.send(MSG_ERROR, encode_error(me, repr(exc)))
        except ChannelError:
            pass
        raise
    finally:
        collector.close()


def _decoder_body(
    cfg: WallConfig,
    rv: Rendezvous,
    lst: Listener,
    collector: Channel,
    tid: int,
    tracer: TraceWriter,
) -> None:
    me = f"dec{tid}"
    n_tiles = cfg.n_tiles
    peers: Dict[str, Channel] = {}
    for u in range(tid):
        peers[f"dec{u}"] = rv.dial(f"dec{u}", me, cfg)
        tracer.emit("connect", peer=f"dec{u}")

    split_ch: Dict[int, Channel] = {}
    try:
        expected = cfg.k + (n_tiles - 1 - tid)
        for _ in range(expected):
            peer, ch = accept_labeled(lst, me, cfg, cfg.connect_timeout)
            if peer.startswith("split"):
                split_ch[int(peer[5:])] = ch
            elif peer.startswith("dec"):
                peers[peer] = ch
            else:
                raise ProtocolError(f"{me}: unexpected dialer {peer!r}")
            tracer.emit("accept", peer=peer)
    finally:
        lst.close()

    ctrl_q: "queue.Queue" = queue.Queue()
    blk_q: "queue.Queue" = queue.Queue()
    pumps = [_pump(ch, ctrl_q, f"split{s}") for s, ch in split_ch.items()]
    pumps += [_pump(ch, blk_q, name) for name, ch in peers.items()]

    # The sequence header cascades root -> splitters -> decoders; every
    # splitter forwards one copy and the first to arrive wins.
    sequence = None
    pre_eos: List[tuple] = []
    while sequence is None:
        kind, label, msg = _get(ctrl_q, cfg.connect_timeout, "sequence header")
        if kind == "error":
            raise msg
        if kind == "closed":
            raise ChannelClosed(f"{me}: {label} disconnected before SEQ")
        if msg.type == MSG_SEQ:
            sequence = decode_sequence(msg.payload)
        else:
            pre_eos.append((kind, label, msg))
    for item in pre_eos:  # anything that raced ahead of the first SEQ
        ctrl_q.put(item)

    layout = TileLayout(sequence.width, sequence.height, cfg.m, cfg.n, cfg.overlap)
    adaptive = cfg.partition_policy != "static"
    schedule = LayoutSchedule(layout)
    cur_layout = layout
    dec = TileDecoder(
        layout.tile(tid),
        layout,
        sequence,
        batch_reconstruct=cfg.batch_reconstruct,
    )
    partition = layout.tile(tid).partition
    # The partition a frame ships with is the one in force when it was
    # *decoded*: the held anchor may ship after a repartition boundary,
    # so its crop geometry travels with it.  Latency stamps follow the
    # same rule — a held anchor ships with the (t_root, t_split) of the
    # picture it *is*, not of the B picture that released it.
    held_partition = partition
    held_stamps = (0.0, 0.0)
    display_idx = 0

    # Shared-memory plumbing: ``pools`` attaches to peers' segments on the
    # receive side; ``pool`` is this decoder's own (boundary blocks for
    # peer decoders, tile-frame crops for the collector).  Adaptive
    # partitions can grow a tile between GOPs, so the frame slab class is
    # then sized for the whole-raster crop bound.
    pools = PoolRegistry(Path(cfg.shm_dir) if cfg.shm_dir else None) if cfg.pool_enabled else None
    slab_nb = (
        tile_frame_nbytes(Rect(0, 0, sequence.width, sequence.height))
        if adaptive
        else tile_frame_nbytes(partition)
    )
    pool = None
    if cfg.pool_enabled and (
        collector.peer_features.get("shm_pool")
        or any(ch.peer_features.get("shm_pool") for ch in peers.values())
    ):
        pool = _create_pool(
            cfg,
            me,
            [(BLOCK_SLAB_BYTES, BLOCK_SLAB_COUNT), (slab_nb, FRAME_SLAB_COUNT)],
            tracer,
        )

    def ship(frame, part, in_stamps=(0.0, 0.0)) -> None:
        nonlocal display_idx
        frame_nb = tile_frame_nbytes(part)
        # Third latency stamp: the decoded tile leaves for the collector.
        stamps = (*in_stamps, time.time())
        with traced_stage(tracer, dec.stage_times, "wire", picture=display_idx):
            lease = None
            if pool is not None and collector.peer_features.get("shm_pool"):
                try:
                    lease = pool.alloc(frame_nb)
                except PoolExhausted:
                    lease = None
            if lease is not None:
                write_tile_frame_into(frame, part, lease.buf)
                payload = encode_tile_frame_hmsg(tid, part, lease.handle, stamps)
                mtype = MSG_FRAME_H
                wire_bytes = len(payload)
            else:
                payload = encode_tile_frame(tid, part, frame, stamps)
                mtype = MSG_FRAME
                wire_bytes = buffers_nbytes(payload)
        collector.send(mtype, payload, picture=display_idx, sender=tid)
        if lease is not None:
            collector.stats.note_handle(frame_nb)
            registry().counter("pool.bytes_by_handle").inc(frame_nb)
        else:
            registry().counter("pool.bytes_by_copy").inc(wire_bytes)
        tracer.emit(
            "frame_sent",
            picture=display_idx,
            bytes=wire_bytes,
            pool_bytes=frame_nb if lease is not None else 0,
        )
        display_idx += 1

    held_back: Dict[int, List] = {}
    eos_from: set = set()
    closed: set = set()
    i = 0
    while len(eos_from) < cfg.k:
        kind, label, msg = _get(ctrl_q, cfg.recv_timeout, f"sub-picture {i}")
        if kind == "error":
            raise msg
        if kind == "closed":
            if label in eos_from:
                closed.add(label)  # orderly: EOS then close
                continue
            raise ChannelClosed(f"{me}: {label} disconnected mid-stream")
        if msg.type == MSG_SEQ:
            continue  # duplicate copies from the other splitters
        if msg.type == MSG_EOS:
            eos_from.add(label)
            continue
        if msg.type == MSG_LAYOUT:
            # Versioned repartition notice.  FIFO ordering guarantees it
            # precedes the plans of its effective_from picture on this
            # channel; the schedule dedupes the copies the other
            # splitters forward.
            schedule.apply(LayoutUpdate.decode(msg.payload))
            continue
        if msg.type not in (MSG_SUBPICTURE, MSG_PLAN, MSG_PLAN_H):
            raise ProtocolError(f"{me}: unexpected {msg.type} from {label}")

        _maybe_fail(cfg, me, msg.picture)
        if msg.picture != i:
            raise ProtocolError(
                f"{me}: picture {msg.picture} arrived, expected {i} "
                "(ordering broken)"
            )
        lay = schedule.layout_for(i)
        if lay is not cur_layout:
            # Closed-GOP boundary: swap tile geometry in place.  The
            # reference planes are full-raster, so no pixel state moves —
            # only which macroblocks arrive and which crop ships changes.
            cur_layout = lay
            new_tile = lay.tile(tid)
            dec.retile(new_tile, lay)
            partition = new_tile.partition
            tracer.emit(
                "repartition",
                picture=i,
                version=schedule.version_for(i),
                rect=[partition.x0, partition.y0, partition.x1, partition.y1],
            )
        plan_handle = None
        if msg.type == MSG_PLAN_H:
            with traced_stage(tracer, dec.stage_times, "wire", picture=i):
                anid, expected_recvs, plan_handle, program, in_stamps = (
                    decode_plan_hmsg(msg.payload)
                )
                # Zero-copy decode straight out of the splitter's slab;
                # the handle is released only after the plan executes.
                tp, _end = plan_codec.decode_plan(
                    pools.view(plan_handle), dec.matrices
                )
            sp = None
            ptype = tp.picture_type
        elif msg.type == MSG_PLAN:
            with traced_stage(tracer, dec.stage_times, "wire", picture=i):
                anid, expected_recvs, tp, program, in_stamps = decode_plan_msg(
                    msg.payload, dec.matrices
                )
            sp = None
            ptype = tp.picture_type
        else:
            anid, expected_recvs, sp_bytes, program, in_stamps = decode_subpicture(
                msg.payload
            )
            sp = SubPicture.deserialize(sp_bytes)
            ptype = sp.picture_type
        # Ack to the *next* splitter (ANID), releasing picture i+1.
        split_ch[anid].send(MSG_ACK, picture=i, sender=tid)

        t0 = time.perf_counter()
        c0 = time.thread_time()
        served = 0
        with tracer.span("serve", picture=i):
            for block in dec.execute_sends(program, ptype):
                ch = peers[f"dec{block.dest}"]
                bnb = block_nbytes(block)
                lease = None
                if (
                    pool is not None
                    and bnb > 0
                    and ch.peer_features.get("shm_pool")
                ):
                    try:
                        lease = pool.alloc(bnb)
                    except PoolExhausted:
                        lease = None
                if lease is not None:
                    write_block_into(block, lease.buf)
                    ch.send(
                        MSG_BLOCK_H,
                        encode_block_hmsg(block, lease.handle),
                        picture=i,
                        sender=tid,
                    )
                    ch.stats.note_handle(bnb)
                    registry().counter("pool.bytes_by_handle").inc(bnb)
                else:
                    ch.send(
                        MSG_BLOCK, encode_block(block), picture=i, sender=tid
                    )
                    registry().counter("pool.bytes_by_copy").inc(bnb)
                served += block.nbytes
        serve_s = time.perf_counter() - t0
        serve_cpu = time.thread_time() - c0

        t0 = time.perf_counter()
        # The MEI exchange barrier: this tile cannot reconstruct until every
        # remote reference block of picture i has arrived.
        with tracer.span("exchange_wait", picture=i):
            # Per-source debt ledger: a closed peer that still owes this
            # picture blocks is a death, not an orderly EOF — fail fast
            # instead of sitting out the full receive timeout.
            owed = Counter(f"dec{src}" for _, src in program.recvs)
            pending = held_back.pop(i, [])
            for block, bh in pending:
                dec.apply_recv(block, ptype)
                if bh is not None:
                    pools.release(bh)
                owed[f"dec{block.src}"] -= 1
            got = len(pending)
            for name in closed:
                if owed.get(name, 0) > 0:
                    raise ChannelClosed(
                        f"{me}: {name} died owing blocks of picture {i}"
                    )
            while got < expected_recvs:
                bkind, blabel, bmsg = _get(
                    blk_q, cfg.recv_timeout, f"blocks of picture {i}"
                )
                if bkind == "error":
                    raise bmsg
                if bkind == "closed":
                    closed.add(blabel)
                    if owed.get(blabel, 0) > 0:
                        raise ChannelClosed(
                            f"{me}: {blabel} died owing blocks of picture {i}"
                        )
                    continue
                if bmsg.type == MSG_BLOCK_H:
                    block, bh = decode_block_hmsg(bmsg.payload, pools.view)
                else:
                    block, bh = decode_block(bmsg.payload), None
                if bmsg.picture == i:
                    dec.apply_recv(block, ptype)
                    if bh is not None:
                        pools.release(bh)
                    owed[f"dec{block.src}"] -= 1
                    got += 1
                else:
                    held_back.setdefault(bmsg.picture, []).append((block, bh))
        wait_remote_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        c0 = time.thread_time()
        # Parent "decode" span; parse/plan/execute children are synthesized
        # from the decoder's stage-time deltas so the timeline attribution
        # matches load_stage_times exactly, even on the bitstream path
        # where the stages interleave per record.
        with stage_span_block(
            tracer, dec.stage_times, "decode", picture=i,
            stages=("parse", "plan", "execute"),
        ):
            ready = dec.decode_plan(tp) if sp is None else dec.decode_subpicture(sp)
        if plan_handle is not None:
            # The plan's arrays were zero-copy views into the splitter's
            # slab; execution is done, so give the slab back.
            pools.release(plan_handle)
        decode_s = time.perf_counter() - t0
        # CPU time excludes scheduler preemption: on an oversubscribed box
        # the wall spans of concurrent decoders absorb each other's work,
        # but thread CPU time stays an honest per-tile cost measure — it is
        # what the imbalance accounting and the feedback policy consume.
        busy_cpu = serve_cpu + (time.thread_time() - c0)
        tracer.emit(
            "decode",
            picture=i,
            ptype=ptype.name,
            serve_s=round(serve_s, 6),
            wait_remote_s=round(wait_remote_s, 6),
            decode_s=round(decode_s, 6),
            cpu_s=round(busy_cpu, 6),
            served_bytes=served,
        )
        if cfg.partition_policy == "feedback":
            # Telemetry upstream: per-picture busy time rides the ack
            # channel to the next splitter, which relays it to the root's
            # partition controller.
            split_ch[anid].send(
                MSG_REPORT,
                encode_report(
                    {
                        "kind": "exec",
                        "picture": i,
                        "tile": tid,
                        "busy_s": round(busy_cpu, 6),
                    }
                ),
                picture=i,
                sender=tid,
            )
        # A B picture ships immediately under the current partition; an
        # anchor releases the *previous* held anchor, which was decoded
        # under ``held_partition`` (possibly one repartition ago).
        if ptype == PictureType.B:
            out_part = partition
            out_stamps = in_stamps
        else:
            out_part = held_partition
            held_partition = partition
            out_stamps = held_stamps
            held_stamps = in_stamps
        if ready is not None:
            ship(ready, out_part, out_stamps)
        maybe_emit_stats(tracer)
        i += 1

    tail = dec.flush()
    if tail is not None:
        ship(tail, held_partition, held_stamps)
    dec.stage_times.pictures = dec.stats.pictures_decoded
    if tracer.spans:
        emit_stats(tracer)
    tracer.emit("stage_times", **dec.stage_times.as_dict())
    if pool is not None:
        tracer.emit("pool_stats", pool=pool.name, **pool.stats.to_dict())
        pool.close()  # no unlink: the collector may still hold frame leases
    if pools is not None:
        pools.close()
    collector.send(MSG_EOS, sender=tid)

    for ch in split_ch.values():
        ch.close()
    for ch in peers.values():
        ch.close()
    deadline = time.monotonic() + 1.0
    for t in pumps:
        t.join(timeout=max(0.05, deadline - time.monotonic()))
