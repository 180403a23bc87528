"""HTTP transport over the simulated TCP: the legacy wire and the fast path.

Faithful to the era the paper describes: by default, one connection per
exchange (``Connection: close``), textual headers, ``Content-Length``
framing.  The deliberate costs — handshake round trips, header bytes,
per-connection state — are what experiments C3/C4 measure.

The F2 experiment showed those costs dominate the bridged path (~13× the
latency, ~14× the bytes of native RMI, almost all TCP handshakes plus XML),
so this module also implements an *opt-in* fast path, configured through
:class:`InterchangeConfig`:

- **keep-alive** — HTTP/1.1-style persistent connections with a
  per-destination pool (:class:`HttpClient`), an idle timeout, an LRU cap
  on pooled destinations, and :meth:`HttpClient.invalidate` so the
  resilience layer can evict a pooled connection into a partitioned or
  crashed peer instead of reusing it;
- **compression** — ``Accept-Encoding: gzip`` negotiation; bodies above a
  size floor travel gzip-compressed (deterministically: fixed level,
  zeroed mtime);
- **feature negotiation** — a fast client advertises what it accepts in an
  ``X-Interchange`` header; servers echo their own capabilities only when
  asked, so a legacy exchange is byte-identical to the seed wire format.

Everything stays off unless a client is constructed with a fast config, and
a fast client talking to a legacy server degrades transparently: the first
exchange is always legacy-shaped, and upgrades happen only after the peer
has proven it understands them.

Both wires share one client exchange path, :class:`_ClientConnection`: a
keep-alive request joins its destination's pooled connection, and any other
request gets an unpooled connection of its own that carries one HTTP/1.0
exchange and then closes.
"""

from __future__ import annotations

import gzip
import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.errors import HttpError, ProtocolError, TransportError
from repro.net.addressing import NodeAddress
from repro.net.simkernel import Event, SimFuture
from repro.net.transport import Connection, TransportStack
from repro.obs import NOOP_OBS, NULL_SPAN

_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Capability-negotiation header (client advert / server echo).
FEATURES_HEADER = "X-Interchange"
#: What this implementation's server side can do.
SERVER_FEATURES = "terse gzip"
#: Floor below which bodies, requests and responses alike, are never
#: compressed.
COMPRESS_MIN_BYTES = 200
#: Largest header section (start line, headers and the blank line) and
#: largest announced body the message assembler accepts; a peer past
#: either is a protocol error, not a buffer that grows without limit.
#: The largest sizes the test suites and benchmarks exchange are about
#: 450 B and 680 KiB.
MAX_HEADER_BYTES = 8 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class InterchangeConfig:
    """Knobs for the interchange fast path.

    The default instance is the legacy wire behaviour (one connection per
    exchange, verbose XML, no compression) so the F2/C-series baselines
    stay measurable; :data:`FAST_INTERCHANGE` turns everything on.
    """

    #: Reuse one pooled connection per destination (HTTP/1.1 keep-alive).
    keep_alive: bool = False
    #: LRU cap on pooled destinations; the least-recently-used idle
    #: destination is closed when the cap is exceeded.
    pool_destinations: int = 8
    #: Virtual seconds an idle pooled connection survives before closing.
    idle_timeout: float = 30.0
    #: Negotiate ``Accept-Encoding: gzip`` with peers; bodies below
    #: :data:`COMPRESS_MIN_BYTES` are sent uncompressed.
    compress: bool = False
    #: Negotiate the terse envelope encoding (see ``repro.soap.envelope``).
    terse: bool = False
    #: Virtual seconds before a started exchange is declared wedged: the
    #: request future fails with :class:`TransportError` and the underlying
    #: connection is torn down.  Without this a reply lost to a crashed or
    #: partitioned peer parks the exchange (and its pooled connection, and
    #: its trace spans) forever — there is no transport retransmission.
    #: 0 disables the watchdog.
    exchange_timeout: float = 60.0
    #: Offer/accept streamed push event channels (``events-push`` token).
    #: When both peers advertise it, the event router replaces its HTTP
    #: poll loop with a held exchange the publisher answers the moment an
    #: event fires (see ``repro.soap.channel``).
    events_push: bool = False
    #: Virtual seconds the publisher coalesces a burst of events before
    #: flushing one batched frame down the channel.  0 still coalesces
    #: same-instant bursts (the flush fires after the current instant's
    #: callbacks) while adding no latency.
    event_flush_window: float = 0.0
    #: Longest the publisher may park a channel wait before answering with
    #: an empty keepalive frame.  Must stay comfortably below
    #: ``exchange_timeout`` or the subscriber's watchdog reaps idle
    #: channels as wedged.
    event_max_hold: float = 25.0
    #: Route pooled connections through the node's reactor: outbound
    #: frames coalesce into vectored segment transmissions and inbound
    #: data arrives as zero-copy slices.  Advertised as the ``vectored``
    #: X-Interchange token so the server flips its side of the connection
    #: too; connections to non-advertising clients keep the legacy wire.
    vectored: bool = False
    #: Concurrent exchanges allowed on one pooled connection (HTTP
    #: pipelining).  Effective only once the peer has proven keep-alive —
    #: the first exchange on a fresh connection is always one-in-flight,
    #: so a legacy server never sees pipelined requests.  1 = the old
    #: strictly-serial behaviour.
    pipeline_depth: int = 1

    @cached_property
    def advertised_features(self) -> str:
        """The ``X-Interchange`` advert this config sends to peers
        (computed once per config, not once per request)."""
        parts = []
        if self.terse:
            parts.append("terse")
        if self.compress:
            parts.append("gzip")
        if self.events_push:
            parts.append("events-push")
        if self.vectored:
            parts.append("vectored")
        return " ".join(parts)


#: The seed wire behaviour: HTTP/1.0, connection per exchange, verbose XML.
LEGACY_INTERCHANGE = InterchangeConfig()
#: Everything on: keep-alive pool + gzip + terse envelopes.
FAST_INTERCHANGE = InterchangeConfig(keep_alive=True, compress=True, terse=True)
#: The fast path plus streamed push event channels.
PUSH_INTERCHANGE = InterchangeConfig(
    keep_alive=True, compress=True, terse=True, events_push=True
)
#: The push fast path on the reactor substrate: vectored (coalesced)
#: writes, zero-copy reads, and deep pipelining — many concurrent
#: exchanges multiplexed over one pooled connection per destination.
REACTOR_INTERCHANGE = InterchangeConfig(
    keep_alive=True,
    compress=True,
    terse=True,
    events_push=True,
    vectored=True,
    pipeline_depth=32,
)


def gzip_bytes(data: bytes) -> bytes:
    """Deterministic gzip (fixed level, zeroed mtime) so identical runs
    put identical bytes on the wire."""
    return gzip.compress(data, compresslevel=6, mtime=0)


def gunzip_bytes(data: bytes) -> bytes:
    try:
        return gzip.decompress(data)
    except Exception as exc:
        raise ProtocolError(f"bad gzip body: {exc}") from exc


def reason_for(status: int) -> str:
    """Default reason phrase for a status code."""
    return _REASONS.get(status, "Unknown")


class _HeaderIndexMixin:
    """Case-folded header lookup built once instead of an O(n) scan per
    :meth:`header` call.  The index rebuilds itself if headers are added
    after construction (detected by a length change)."""

    headers: dict[str, str]

    def _build_index(self) -> None:
        self._index = {key.lower(): value for key, value in self.headers.items()}

    def header(self, name: str, default: str = "") -> str:
        if len(self._index) != len(self.headers):
            self._build_index()
        return self._index.get(name.lower(), default)


@dataclass
class HttpRequest(_HeaderIndexMixin):
    """One HTTP request message."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.0"

    def __post_init__(self) -> None:
        self._build_index()

    def to_bytes(self) -> bytes:
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        headers.setdefault("Connection", "close")
        lines = [f"{self.method} {self.path} {self.version}".encode("ascii")]
        lines += [f"{key}: {value}".encode("latin-1") for key, value in headers.items()]
        return _CRLF.join(lines) + _HEADER_END + self.body


@dataclass
class HttpResponse(_HeaderIndexMixin):
    """One HTTP response message."""

    status: int
    reason: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.0"

    def __post_init__(self) -> None:
        if not self.reason:
            self.reason = reason_for(self.status)
        self._build_index()

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def to_bytes(self) -> bytes:
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        headers.setdefault("Connection", "close")
        lines = [f"{self.version} {self.status} {self.reason}".encode("ascii")]
        lines += [f"{key}: {value}".encode("latin-1") for key, value in headers.items()]
        return _CRLF.join(lines) + _HEADER_END + self.body


def _parse_head(raw: bytes) -> tuple[list[str], dict[str, str]]:
    """Split the header block into (start-line parts, headers).

    Repeated header lines fold into one comma-joined value (RFC 2616
    §4.2) instead of the last occurrence silently winning; the fold is
    case-insensitive, keeping the first spelling of the name.
    """
    text = raw.decode("latin-1")
    lines = text.split("\r\n")
    start = lines[0].split(" ", 2)
    headers: dict[str, str] = {}
    canonical: dict[str, str] = {}  # folded name -> first-seen spelling
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        name = name.strip()
        value = value.strip()
        folded = name.lower()
        seen = canonical.get(folded)
        if seen is None:
            canonical[folded] = name
            headers[name] = value
        else:
            headers[seen] = f"{headers[seen]}, {value}"
    return start, headers


class _MessageAssembler:
    """Accumulates stream bytes until one complete HTTP message arrives.

    Reusable across messages on one keep-alive connection: returning a
    complete message consumes it from the buffer and resets the head
    state, so the next ``feed`` starts parsing the next message (any
    already-buffered surplus bytes are kept).

    The buffer is one reused ``bytearray``, and ``feed`` accepts zero-copy
    ``memoryview`` slices from the reactor transport as readily as
    ``bytes``: stream bytes are copied exactly once, into the buffer.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._head: tuple[list[str], dict[str, str]] | None = None
        self._body_needed = 0

    @property
    def has_buffered(self) -> bool:
        """True when bytes of a further message are already buffered."""
        return bool(self._buffer)

    def feed(
        self, data: bytes | memoryview
    ) -> tuple[list[str], dict[str, str], bytes] | None:
        """Returns (start-line parts, headers, body) once complete."""
        self._buffer += data
        if self._head is None:
            end = self._buffer.find(_HEADER_END, 0, MAX_HEADER_BYTES)
            if end < 0:
                if len(self._buffer) >= MAX_HEADER_BYTES:
                    raise ProtocolError("header section too large")
                return None
            self._head = _parse_head(bytes(self._buffer[:end]))
            del self._buffer[: end + len(_HEADER_END)]
            headers = self._head[1]
            try:
                self._body_needed = int(headers.get("Content-Length", "0"))
            except ValueError as exc:
                raise ProtocolError("bad Content-Length") from exc
            if self._body_needed < 0:
                raise ProtocolError("negative Content-Length")
            if self._body_needed > MAX_BODY_BYTES:
                raise ProtocolError("Content-Length too large")
        if len(self._buffer) < self._body_needed:
            return None
        start, headers = self._head
        body = bytes(self._buffer[: self._body_needed])
        del self._buffer[: self._body_needed]
        self._head = None
        self._body_needed = 0
        return start, headers, body


def _build_response(start: list[str], headers: dict[str, str], body: bytes) -> HttpResponse:
    """Turn an assembled message into an :class:`HttpResponse`, raising
    :class:`ProtocolError` on a bad status line or undecodable body."""
    if len(start) < 2 or not start[1].isdigit():
        raise ProtocolError("bad status line")
    reason = start[2] if len(start) > 2 else ""
    response = HttpResponse(
        status=int(start[1]), reason=reason, headers=headers, body=body,
        version=start[0],
    )
    if response.header("Content-Encoding").lower() == "gzip":
        response.body = gunzip_bytes(response.body)
    return response


#: Server handler signature.
Handler = Callable[[HttpRequest], HttpResponse]


class HttpServer:
    """Routes requests by exact path, with optional prefix routes.

    The server side of the fast path is reactive and always on, because it
    only ever activates when a request asks for it (so legacy exchanges
    stay byte-identical): gzip request bodies are decompressed, responses
    to ``Accept-Encoding: gzip`` requests are compressed past a size
    floor, capabilities are echoed only to clients that advertised theirs,
    and connections are kept open only for ``Connection: keep-alive``
    requests.
    """

    def __init__(self, stack: TransportStack, port: int = 80) -> None:
        self.stack = stack
        self.port = port
        #: Capabilities echoed to clients that advertise theirs.  Instance
        #: state (not the module constant) so a gateway that accepts push
        #: event channels can append ``events-push`` without every other
        #: server on the simulation advertising it too.
        self.features = SERVER_FEATURES
        self._routes: dict[str, Handler] = {}
        self._prefix_routes: list[tuple[str, Handler]] = []
        self._listener = stack.listen(port, self._on_connection)
        self.requests_served = 0
        self.keepalive_reuses = 0

    def register(self, path: str, handler: Handler) -> None:
        self._routes[path] = handler

    def register_prefix(self, prefix: str, handler: Handler) -> None:
        self._prefix_routes.append((prefix, handler))

    def close(self) -> None:
        self._listener.close()
        # Cancel every held exchange still parked on the reactor: each
        # continuation answers its slot with 503 so no connection is left
        # waiting on a server that no longer exists.
        self.stack.reactor.cancel_key(self)

    # -- internals ------------------------------------------------------------

    def _on_connection(self, conn: Connection) -> None:
        # The assembler copies stream bytes exactly once, so the server
        # can always take the transport's zero-copy inbound slices.
        conn.zero_copy = True
        assembler = _MessageAssembler()
        served = {"count": 0}
        # Pipelined responses must leave in request order even when async
        # handlers resolve out of order: each request claims a slot here
        # and completed slots flush strictly from the head.
        slots: list[dict] = []

        def flush() -> None:
            while slots and slots[0]["response"] is not None:
                slot = slots.pop(0)
                self._respond(conn, slot["request"], slot["response"], slot["keep"])

        def on_data(connection: Connection, data: bytes) -> None:
            while True:
                try:
                    complete = assembler.feed(data)
                except ProtocolError:
                    self._respond(
                        connection, None, HttpResponse(400, body=b"malformed request"),
                        keep=False,
                    )
                    return
                if complete is None:
                    return
                start, headers, body = complete
                if len(start) != 3:
                    self._respond(
                        connection, None, HttpResponse(400, body=b"bad request line"),
                        keep=False,
                    )
                    return
                request = HttpRequest(
                    method=start[0], path=start[1], headers=headers, body=body,
                    version=start[2],
                )
                if request.header("Content-Encoding").lower() == "gzip":
                    try:
                        request.body = gunzip_bytes(request.body)
                    except ProtocolError:
                        self._respond(
                            connection, None, HttpResponse(400, body=b"bad gzip body"),
                            keep=False,
                        )
                        return
                if served["count"]:
                    self.keepalive_reuses += 1
                served["count"] += 1
                self._dispatch(connection, request, slots, flush)
                # Loop in case a further pipelined request is buffered.
                data = b""
                if not assembler.has_buffered:
                    return

        conn.set_receiver(on_data)

    def _dispatch(
        self,
        conn: Connection,
        request: HttpRequest,
        slots: list[dict],
        flush: Callable[[], None],
    ) -> None:
        keep = "keep-alive" in request.header("Connection").lower()
        if "vectored" in request.header(FEATURES_HEADER).split():
            # The client runs the reactor wire; coalesce our side too.
            conn.vectored = True
        slot: dict = {"request": request, "keep": keep, "response": None}
        slots.append(slot)
        handler = self._routes.get(request.path)
        if handler is None:
            for prefix, prefix_handler in self._prefix_routes:
                if request.path.startswith(prefix):
                    handler = prefix_handler
                    break
        if handler is None:
            slot["response"] = HttpResponse(404, body=b"no such path")
            flush()
            return
        try:
            response = handler(request)
        except Exception as exc:  # a handler bug must not kill the server
            response = HttpResponse(500, body=str(exc).encode("utf-8"))
        self.requests_served += 1
        if isinstance(response, SimFuture):
            # Asynchronous handler: the held exchange parks as a reactor
            # continuation until the handler resolves (or the server is
            # closed, which cancels the continuation and answers 503).
            continuation = self.stack.reactor.park(
                self, on_cancel=lambda: self._abandon_slot(slot, flush)
            )

            def on_done(future: SimFuture) -> None:
                if slot["response"] is not None:
                    return  # already answered by shutdown cancellation
                continuation.finish()
                exc = future.exception()
                if exc is not None:
                    slot["response"] = HttpResponse(
                        500, body=str(exc).encode("utf-8")
                    )
                else:
                    slot["response"] = future.result()
                flush()

            response.add_done_callback(on_done)
        else:
            slot["response"] = response
            flush()

    def _abandon_slot(self, slot: dict, flush: Callable[[], None]) -> None:
        """Continuation cancelled (server closed) before the handler
        resolved: answer the held exchange so the client is not left
        parked, and close the connection behind it."""
        if slot["response"] is not None:
            return
        slot["keep"] = False
        slot["response"] = HttpResponse(503, body=b"server shutting down")
        flush()

    def _respond(
        self,
        conn: Connection,
        request: HttpRequest | None,
        response: HttpResponse,
        keep: bool,
    ) -> None:
        if conn.state != Connection.ESTABLISHED:
            return  # client gave up while an async handler was running
        if request is not None:
            if request.header(FEATURES_HEADER):
                response.headers.setdefault(FEATURES_HEADER, self.features)
            if (
                "gzip" in request.header("Accept-Encoding").lower()
                and len(response.body) >= COMPRESS_MIN_BYTES
                and "content-encoding" not in (k.lower() for k in response.headers)
            ):
                response.body = gzip_bytes(response.body)
                response.headers["Content-Encoding"] = "gzip"
        if keep:
            response.version = "HTTP/1.1"
            response.headers.setdefault("Connection", "keep-alive")
        conn.send(response.to_bytes())
        if not keep:
            conn.close()


def _fail_all(futures, exc: BaseException) -> None:
    """Fail every still-pending future with ``exc``."""
    for future in futures:
        if not future.done():
            future.set_exception(exc)


class _ClientConnection:
    """One client connection and the exchanges queued on it: a FIFO of
    pending exchanges, up to ``pipeline_depth`` in flight at a time
    (responses match requests in order), and enough bookkeeping to die
    cleanly when the path does.

    A *pooled* entry is a destination's persistent keep-alive connection
    in the client's pool, with an idle-close timer.  An unpooled entry
    carries a single legacy exchange — HTTP/1.0, ``Connection: close`` —
    and dies with it, which is the paper's one connection per exchange.
    """

    def __init__(
        self, client: "HttpClient", key: tuple[NodeAddress, int],
        pooled: bool = True, span=NULL_SPAN,
    ) -> None:
        self.client = client
        self.key = key
        self.pooled = pooled
        #: The exchange span an unpooled entry's ``http.connect`` span
        #: nests under (pooled connects are not traced).
        self.span = span
        self.conn: Connection | None = None
        #: Fresh per transport connection (see ``_connect``).
        self.assembler: _MessageAssembler | None = None
        self.queue: list[tuple[HttpRequest, SimFuture]] = []
        #: Futures of requests already written, in request order.
        self.inflight: list[SimFuture] = []
        self.idle_timer: Event | None = None
        #: Invalidates this entry's records in the client's idle heap
        #: whenever it leaves the idle state (lazy deletion).
        self.idle_gen = 0
        #: The peer answered with keep-alive at least once on the current
        #: connection; pipelining past depth 1 waits for this proof so a
        #: legacy server never sees overlapped requests.
        self.peer_keeps_alive = False
        self.connecting = False
        self.dead = False

    # -- public (driven by HttpClient) ---------------------------------------

    def enqueue(self, request: HttpRequest, future: SimFuture) -> None:
        self._cancel_idle_timer()
        self.queue.append((request, future))
        if self.conn is not None and self.conn.state == Connection.ESTABLISHED:
            self._pump()
        elif not self.connecting:
            self._connect()

    def abort(self, exc: BaseException) -> None:
        """Evict: kill the transport connection (RST and local close) and
        fail every pending exchange with ``exc`` so callers retry on a
        fresh connection."""
        if self.dead:
            return
        self.dead = True
        self._cancel_idle_timer()
        conn, self.conn = self.conn, None
        if conn is not None:
            conn.abort()
        inflight, self.inflight = self.inflight, []
        _fail_all(inflight, exc)
        queue, self.queue = self.queue, []
        _fail_all([future for _request, future in queue], exc)

    # -- internals ------------------------------------------------------------

    def _connect(self) -> None:
        self.connecting = True
        dst, port = self.key
        client = self.client
        connect_span = (
            client.obs.tracer.start_span(
                "http.connect", island=client.label, kind="transport", parent=self.span
            )
            if self.span.recording
            else NULL_SPAN
        )

        def on_connected(conn_future: SimFuture) -> None:
            self.connecting = False
            exc = conn_future.exception()
            connect_span.finish(exc)
            if self.dead:
                if exc is None:
                    conn_future.result().abort()
                return
            if exc is not None:
                client._drop_entry(self)
                self.abort(exc)
                return
            self.conn = conn_future.result()
            if client.config.vectored:
                # Reactor wire: coalesce our writes, take zero-copy reads
                # (the bytearray assembler accepts memoryview slices).
                self.conn.vectored = True
                self.conn.zero_copy = True
            self.assembler = _MessageAssembler()
            # Pipelining proof is per transport connection: a reconnect
            # starts one-in-flight again until the peer re-proves itself.
            self.peer_keeps_alive = False
            self.conn.set_receiver(self._on_data)
            self.conn.on_close(self._on_closed)
            self._pump()

        client.stack.connect(dst, port).add_done_callback(on_connected)

    def _pump(self) -> None:
        if not self.queue:
            return
        if self.conn is None or self.conn.state != Connection.ESTABLISHED:
            if not self.connecting:
                self._connect()
            return
        depth = (
            max(1, self.client.config.pipeline_depth)
            if self.peer_keeps_alive
            else 1
        )
        while self.queue and len(self.inflight) < depth:
            request, future = self.queue.pop(0)
            self.inflight.append(future)
            try:
                self.conn.send(request.to_bytes())
            except Exception as exc:
                self.inflight.pop()
                self.client._drop_entry(self)
                if not future.done():
                    future.set_exception(TransportError(f"HTTP send failed: {exc}"))
                self.abort(TransportError(f"HTTP connection unusable: {exc}"))
                return

    def _on_data(self, connection: Connection, data: bytes) -> None:
        # Loop: one delivery may complete several pipelined responses
        # (a vectored peer coalesces them into one transmission).
        while True:
            try:
                complete = self.assembler.feed(data)
                if complete is None:
                    return
                response = _build_response(*complete)
            except ProtocolError as exc:
                future = self.inflight.pop(0) if self.inflight else None
                if future is not None and not future.done():
                    future.set_exception(exc)
                self.client._drop_entry(self)
                self.abort(TransportError("HTTP connection desynchronised"))
                return
            future = self.inflight.pop(0) if self.inflight else None
            self.client._note_response(self.key, response)
            keep = self.pooled and "keep-alive" in response.header("Connection").lower()
            if not keep:
                self._close_after_exchange(future, response)
                return
            self.peer_keeps_alive = True
            if future is not None and not future.done():
                future.set_result(response)
            if self.queue:
                self._pump()
            if not self.inflight and not self.queue:
                self._start_idle_timer()
            data = b""
            if not self.assembler.has_buffered:
                return

    def _close_after_exchange(self, future: SimFuture | None, response: HttpResponse) -> None:
        """The connection ends with this exchange: a legacy server closes
        after it, and so does an unpooled entry's single exchange.  Close
        before resolving, so a request issued from the response's
        callbacks never lands on the closing connection.  Anything
        pipelined behind the response will never be answered; requests
        queued but unsent reconnect fresh."""
        conn, self.conn = self.conn, None
        if conn is not None:
            conn.close()
        stranded, self.inflight = self.inflight, []
        self._reconnect_or_die()
        if future is not None and not future.done():
            future.set_result(response)
        _fail_all(stranded, TransportError("peer closed before pipelined response"))

    def _on_closed(self, connection: Connection) -> None:
        if self.dead or connection is not self.conn:
            return
        self.conn = None
        inflight, self.inflight = self.inflight, []
        _fail_all(inflight, TransportError("connection closed mid-response"))
        self._reconnect_or_die()

    def _reconnect_or_die(self) -> None:
        """The transport connection is gone.  Requests never sent are safe
        to replay on a new connection; with none queued the entry dies."""
        if self.queue:
            self._connect()
        else:
            self.client._drop_entry(self)
            self.dead = True

    def _start_idle_timer(self) -> None:
        self._cancel_idle_timer()
        timeout = self.client.config.idle_timeout
        if timeout <= 0:
            # No idle reaping (the legacy leak shape) — but the entry is
            # still idle, so it stays reachable for LRU cap eviction.
            self.client._note_idle(self, self.client.stack.sim.now)
            return
        deadline = self.client.stack.sim.now + timeout
        self.idle_timer = self.client.stack.sim.schedule(timeout, self._idle_close)
        self.client._note_idle(self, deadline)

    def _idle_close(self) -> None:
        self.idle_timer = None
        if self.inflight or self.queue:
            return
        self.client._m_idle_closes.inc()
        self.client._drop_entry(self)
        self.abort(TransportError("pooled connection idle-closed"))

    def _cancel_idle_timer(self) -> None:
        # Leaving the idle state: stale idle-heap records for this entry
        # are invalidated by the generation bump (lazy deletion).
        self.idle_gen += 1
        if self.idle_timer is not None:
            self.idle_timer.cancel()
            self.idle_timer = None

    @property
    def idle(self) -> bool:
        return not self.inflight and not self.queue


class HttpClient:
    """HTTP exchanges, each carried by a :class:`_ClientConnection`: a
    connection per exchange by default, the destination's pooled
    keep-alive connection when the config asks for it."""

    def __init__(self, stack: TransportStack, config: InterchangeConfig | None = None) -> None:
        self.stack = stack
        self.config = config or LEGACY_INTERCHANGE
        self.requests_sent = 0
        self.pooled_exchanges = 0
        self.pooled_evictions = 0
        self.compressed_requests = 0
        #: destination -> pooled entry, in LRU order (oldest first).
        self._pool: dict[tuple[NodeAddress, int], _ClientConnection] = {}
        #: Idle entries indexed by expiry deadline: a heap of
        #: ``(deadline, seq, entry, generation)`` records.  Records go
        #: stale (lazy deletion) when the entry leaves the idle state and
        #: bumps its ``idle_gen``; eviction pops from the head, so finding
        #: the next idle victim is O(evicted + stale) instead of a linear
        #: scan of the whole pool on every acquire.
        self._idle_heap: list[tuple[float, int, _ClientConnection, int]] = []
        self._idle_seq = 0
        #: destination -> features the peer has proven it understands.
        self._peer_features: dict[tuple[NodeAddress, int], frozenset[str]] = {}
        #: Optional :class:`repro.obs.flight.FlightRecorder`: watchdog reaps
        #: record a ``watchdog_reap`` entry and trigger a dump.
        self.flight = None
        self._set_obs(NOOP_OBS, "")

    def observe(self, obs, label: str = "") -> "HttpClient":
        """Attach an observability bundle; ``label`` namespaces the pool
        and request metrics (e.g. the owning island's name)."""
        self._set_obs(obs, label)
        return self

    def _set_obs(self, obs, label: str) -> None:
        self.obs = obs
        self.label = label
        metrics = obs.metrics
        prefix = f"http.{label}" if label else "http.client"
        self._m_requests = metrics.counter(f"{prefix}.requests")
        self._m_pool_hits = metrics.counter(f"{prefix}.pool_hits")
        self._m_pool_misses = metrics.counter(f"{prefix}.pool_misses")
        self._m_evictions = metrics.counter(f"{prefix}.evictions")
        self._m_idle_closes = metrics.counter(f"{prefix}.idle_closes")
        self._m_compressed = metrics.counter(f"{prefix}.compressed_requests")

    # -- negotiation ------------------------------------------------------------

    def peer_features(self, dst: NodeAddress, port: int) -> frozenset[str]:
        """Capabilities learned from the peer's ``X-Interchange`` echo."""
        return self._peer_features.get((dst, port), frozenset())

    def _note_response(self, key: tuple[NodeAddress, int], response: HttpResponse) -> None:
        advertised = response.header(FEATURES_HEADER)
        if advertised:
            self._peer_features[key] = frozenset(advertised.split())

    # -- pool management --------------------------------------------------------

    def invalidate(self, dst: NodeAddress, port: int | None = None) -> None:
        """Evict pooled connections to ``dst`` (any port unless given).

        The resilience layer calls this when a circuit breaker opens or a
        call into ``dst`` fails with a connectivity error: a partitioned
        or crashed peer must not be reached through a stale pooled
        connection, and failing the pending exchanges here lets retries
        run on a fresh connection immediately.
        """
        for key in list(self._pool):
            if key[0] == dst and (port is None or key[1] == port):
                entry = self._pool.pop(key)
                self.pooled_evictions += 1
                self._m_evictions.inc()
                entry.abort(TransportError(f"pooled connection to {dst} invalidated"))

    def _drop_entry(self, entry: _ClientConnection) -> None:
        current = self._pool.get(entry.key)
        if current is entry:
            del self._pool[entry.key]

    def _entry_for(self, key: tuple[NodeAddress, int]) -> _ClientConnection:
        entry = self._pool.pop(key, None)
        if entry is None:
            entry = _ClientConnection(self, key)
            self._evict_lru_idle()
        self._pool[key] = entry  # (re-)append: most recently used last
        return entry

    def _note_idle(self, entry: _ClientConnection, deadline: float) -> None:
        """Index an entry that just went idle by its expiry deadline."""
        self._idle_seq += 1
        heapq.heappush(
            self._idle_heap, (deadline, self._idle_seq, entry, entry.idle_gen)
        )

    def _evict_lru_idle(self) -> None:
        if len(self._pool) < self.config.pool_destinations:
            return
        while self._idle_heap:
            _deadline, _seq, entry, gen = heapq.heappop(self._idle_heap)
            if gen != entry.idle_gen or entry.dead or not entry.idle:
                continue  # stale record: the entry got busy again or died
            if self._pool.get(entry.key) is not entry:
                continue
            del self._pool[entry.key]
            self.pooled_evictions += 1
            self._m_evictions.inc()
            entry.abort(TransportError("pooled connection LRU-evicted"))
            return

    @property
    def pooled_destinations(self) -> int:
        return len(self._pool)

    def open_connections(self) -> list["_ClientConnection"]:
        """Pool entries whose transport connection is still live (or still
        being established).  A quiesced client — nothing in flight, idle
        timers allowed to run — must report none; the testkit's pool-leak
        oracle asserts exactly that after shutdown."""
        return [
            entry
            for entry in self._pool.values()
            if not entry.dead
            and (
                entry.connecting
                or entry.inflight
                or entry.queue
                or (
                    entry.conn is not None
                    and entry.conn.state != Connection.CLOSED
                )
            )
        ]

    def close(self) -> None:
        """Abort every pooled connection immediately (final teardown, not
        quiesce: pending exchanges fail with :class:`TransportError`)."""
        for key in list(self._pool):
            entry = self._pool.pop(key, None)
            if entry is not None:
                entry.abort(TransportError("HTTP client closed"))

    # -- requests ------------------------------------------------------------

    def request(
        self,
        dst: NodeAddress,
        port: int,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> SimFuture:
        """Returns a future resolving to :class:`HttpResponse` (any status);
        transport failures resolve to :class:`TransportError`."""
        self.requests_sent += 1
        self._m_requests.inc()
        tracer = self.obs.tracer
        span = NULL_SPAN
        if tracer.enabled and tracer.current() is not None:
            # Transport spans join the ambient trace only — an untraced
            # request (heartbeat, poll) must not start a root trace.
            span = tracer.start_span(
                f"http.exchange {method} {path}", island=self.label, kind="transport"
            )
        if span.recording:

            def finish_span(done: SimFuture) -> None:
                if done.exception() is None:
                    span.set_attribute("status", done.result().status)
                span.finish(done.exception())

        headers = dict(headers or {})
        key = (dst, port)
        advert = self.config.advertised_features
        if advert:
            headers.setdefault(FEATURES_HEADER, advert)
        if self.config.compress:
            headers.setdefault("Accept-Encoding", "gzip")
            if (
                "gzip" in self._peer_features.get(key, frozenset())
                and len(body) >= COMPRESS_MIN_BYTES
            ):
                body = gzip_bytes(body)
                headers["Content-Encoding"] = "gzip"
                self.compressed_requests += 1
                self._m_compressed.inc()
        future: SimFuture = SimFuture()
        if self.config.keep_alive:
            headers.setdefault("Connection", "keep-alive")
            request = HttpRequest(
                method=method, path=path, headers=headers, body=body, version="HTTP/1.1"
            )
            self.pooled_exchanges += 1
            entry = self._entry_for(key)
            reused = entry.conn is not None and entry.conn.state == Connection.ESTABLISHED
            if reused:
                self._m_pool_hits.inc()
            else:
                self._m_pool_misses.inc()
            if span.recording:
                span.set_attribute("pool", "reused" if reused else "fresh")
        else:
            # The legacy wire: a connection of its own for this exchange.
            request = HttpRequest(method=method, path=path, headers=headers, body=body)
            entry = _ClientConnection(self, key, pooled=False, span=span)
        if span.recording:
            future.add_done_callback(finish_span)
        entry.enqueue(request, future)
        timeout = self.config.exchange_timeout
        if timeout:

            def give_up() -> None:
                if future.done():
                    return
                # The connection is wedged mid-exchange; everything queued
                # behind the stuck request is doomed with it.
                self._drop_entry(entry)
                entry.abort(
                    TransportError(
                        f"HTTP exchange with {dst}:{port} timed out "
                        f"after {timeout:g}s"
                    )
                )
                if self.flight is not None:
                    self.flight.record(
                        "watchdog_reap",
                        mode="pooled" if entry.pooled else "oneshot",
                        dst=str(dst),
                        port=port,
                        timeout=timeout,
                    )
                    self.flight.trigger("watchdog-reap")

            timer = self.stack.sim.schedule(timeout, give_up)
            future.add_done_callback(lambda _done: timer.cancel())
        return future

    def get(self, dst: NodeAddress, port: int, path: str) -> SimFuture:
        return self.request(dst, port, "GET", path)

    def post(
        self,
        dst: NodeAddress,
        port: int,
        path: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> SimFuture:
        return self.request(dst, port, "POST", path, body=body, headers=headers)


def expect_ok(response: HttpResponse) -> HttpResponse:
    """Raise :class:`HttpError` unless the status is 2xx."""
    if not response.ok:
        raise HttpError(response.status, response.reason, response.body)
    return response
