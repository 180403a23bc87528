"""Tests for the HTTP/1.0-style transport and the keep-alive fast path."""

import pytest

from repro.errors import HttpError, ProtocolError, TransportError
from repro.net.simkernel import SimFuture
from repro.obs.flight import FlightRecorder
from repro.soap.http import (
    FAST_INTERCHANGE,
    FEATURES_HEADER,
    HttpClient,
    HttpRequest,
    HttpResponse,
    HttpServer,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    InterchangeConfig,
    _MessageAssembler,
    _parse_head,
    expect_ok,
    gzip_bytes,
)


@pytest.fixture
def server_client(sim, two_hosts):
    a, b = two_hosts
    server = HttpServer(b, 80)
    client = HttpClient(a)
    return sim, server, client, b.local_address()


class TestMessages:
    def test_request_serialisation(self):
        request = HttpRequest("POST", "/soap/Calc", {"X-Thing": "1"}, b"body")
        raw = request.to_bytes()
        assert raw.startswith(b"POST /soap/Calc HTTP/1.0\r\n")
        assert b"Content-Length: 4" in raw
        assert b"Connection: close" in raw
        assert raw.endswith(b"\r\n\r\nbody")

    def test_response_defaults_reason(self):
        assert HttpResponse(404).reason == "Not Found"
        assert HttpResponse(200).ok
        assert not HttpResponse(500).ok

    def test_header_lookup_case_insensitive(self):
        request = HttpRequest("GET", "/", {"Content-Type": "text/xml"})
        assert request.header("content-type") == "text/xml"
        assert request.header("missing", "dflt") == "dflt"

    def test_expect_ok_raises_on_error_status(self):
        with pytest.raises(HttpError):
            expect_ok(HttpResponse(500, body=b"oops"))
        response = HttpResponse(200)
        assert expect_ok(response) is response


class TestExchanges:
    def test_get_roundtrip(self, server_client):
        sim, server, client, address = server_client
        server.register("/hello", lambda req: HttpResponse(200, body=b"hi " + req.method.encode()))
        response = sim.run_until_complete(client.get(address, 80, "/hello"))
        assert response.status == 200
        assert response.body == b"hi GET"

    def test_post_body_delivered(self, server_client):
        sim, server, client, address = server_client
        bodies = []

        def handler(request):
            bodies.append(request.body)
            return HttpResponse(200, body=b"ok")

        server.register("/submit", handler)
        payload = b"x" * 5000  # several MTUs
        response = sim.run_until_complete(client.post(address, 80, "/submit", payload))
        assert response.status == 200
        assert bodies == [payload]

    def test_unknown_path_404(self, server_client):
        sim, server, client, address = server_client
        response = sim.run_until_complete(client.get(address, 80, "/nope"))
        assert response.status == 404

    def test_prefix_routing(self, server_client):
        sim, server, client, address = server_client
        server.register_prefix("/soap/", lambda req: HttpResponse(200, body=req.path.encode()))
        response = sim.run_until_complete(client.get(address, 80, "/soap/AnyService"))
        assert response.body == b"/soap/AnyService"

    def test_handler_exception_becomes_500(self, server_client):
        sim, server, client, address = server_client

        def broken(request):
            raise RuntimeError("handler bug")

        server.register("/broken", broken)
        response = sim.run_until_complete(client.get(address, 80, "/broken"))
        assert response.status == 500
        assert b"handler bug" in response.body

    def test_async_handler_resolves_later(self, server_client):
        sim, server, client, address = server_client

        def slow(request):
            future = SimFuture()
            sim.schedule(5.0, future.set_result, HttpResponse(200, body=b"eventually"))
            return future

        server.register("/slow", slow)
        t0 = sim.now
        response = sim.run_until_complete(client.get(address, 80, "/slow"))
        assert response.body == b"eventually"
        assert sim.now - t0 >= 5.0

    def test_async_handler_failure_becomes_500(self, server_client):
        sim, server, client, address = server_client

        def failing(request):
            return SimFuture.failed(ValueError("deferred bug"))

        server.register("/fail", failing)
        response = sim.run_until_complete(client.get(address, 80, "/fail"))
        assert response.status == 500

    def test_each_exchange_uses_fresh_connection(self, server_client):
        """HTTP/1.0 behaviour: connection per request (the stack weight
        the paper's Section 4.2 complains about)."""
        sim, server, client, address = server_client
        server.register("/a", lambda req: HttpResponse(200))
        for _ in range(3):
            sim.run_until_complete(client.get(address, 80, "/a"))
        assert client.requests_sent == 3
        assert server.requests_served == 3
        # After the close handshakes drain, no connections linger.
        sim.run()
        assert client.stack.open_connections == 0

    def test_closed_server_refuses(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        client = HttpClient(a)
        server.close()
        with pytest.raises(Exception):
            sim.run_until_complete(client.get(b.local_address(), 80, "/"))

    def test_watchdog_reap_of_partitioned_exchange_frees_connection(
        self, sim, eth, two_hosts
    ):
        """The legacy watchdog ends a wedged exchange with RST and local
        close (regression: it sent a FIN the partitioned peer never
        answered, leaving the connection in CLOSING forever)."""
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register("/stuck", lambda req: SimFuture())  # never answers
        client = HttpClient(a, InterchangeConfig(exchange_timeout=5.0))
        client.flight = FlightRecorder(sim, "a")
        future = client.get(b.local_address(), 80, "/stuck")
        sim.run(until=1.0)  # the request is parked in the handler
        assert client.stack.open_connections == 1
        eth.loss_model = lambda frame: True  # partition: every frame lost
        sim.run(until=10.0)
        assert isinstance(future.exception(), TransportError)
        assert client.stack.open_connections == 0
        assert [r["kind"] for r in client.flight.records] == ["watchdog_reap"]

    def test_concurrent_requests_from_one_client(self, server_client):
        sim, server, client, address = server_client
        server.register("/n", lambda req: HttpResponse(200, body=req.header("X-N").encode()))
        futures = [
            client.request(address, 80, "GET", "/n", headers={"X-N": str(n)})
            for n in range(5)
        ]
        results = [sim.run_until_complete(f) for f in futures]
        assert [r.body for r in results] == [b"0", b"1", b"2", b"3", b"4"]


class TestHeaderParsing:
    def test_duplicate_headers_fold_comma_joined(self):
        """Repeated header lines must fold per RFC 2616 §4.2, not silently
        overwrite each other (regression: the old parser kept only the
        last occurrence)."""
        raw = (
            b"GET / HTTP/1.0\r\n"
            b"X-Tag: one\r\n"
            b"X-Tag: two\r\n"
            b"x-tag: three"
        )
        _start, headers = _parse_head(raw)
        assert headers == {"X-Tag": "one, two, three"}

    def test_duplicate_fold_keeps_first_spelling(self):
        raw = b"GET / HTTP/1.0\r\nAccept-encoding: gzip\r\nACCEPT-ENCODING: br"
        _start, headers = _parse_head(raw)
        assert headers == {"Accept-encoding": "gzip, br"}

    def test_header_index_survives_post_construction_mutation(self):
        """The case-folded index is built once, but additions after
        construction must still be visible through header()."""
        response = HttpResponse(200, headers={"Content-Type": "text/xml"})
        response.headers["X-Late"] = "yes"
        assert response.header("x-late") == "yes"
        assert response.header("CONTENT-TYPE") == "text/xml"


class TestNegativeContentLength:
    """``Content-Length: -3`` used to slice the body short and leave the
    rest buffered as the start of the next message."""

    BAD_TAIL = b"Content-Length: -3\r\n\r\nhello world"

    def test_assembler_rejects_negative_length(self):
        with pytest.raises(ProtocolError):
            _MessageAssembler().feed(b"HTTP/1.1 200 OK\r\n" + self.BAD_TAIL)

    def test_server_answers_400_and_closes(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register("/a", lambda req: HttpResponse(200))
        conn = sim.run_until_complete(a.connect(b.local_address(), 80))
        received = []
        conn.set_receiver(lambda _conn, data: received.append(bytes(data)))
        conn.send(b"POST /a HTTP/1.1\r\nConnection: keep-alive\r\n" + self.BAD_TAIL)
        sim.run()
        assert b"".join(received).startswith(b"HTTP/1.0 400 ")
        assert conn.state != conn.ESTABLISHED
        assert server.requests_served == 0

    def test_client_fails_exchange_and_drops_pooled_connection(self, sim, two_hosts):
        a, b = two_hosts

        def on_connection(conn):
            conn.set_receiver(
                lambda c, _data: c.send(
                    b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n" + self.BAD_TAIL
                )
            )

        b.listen(80, on_connection)
        client = HttpClient(a, InterchangeConfig(keep_alive=True))
        future = client.get(b.local_address(), 80, "/a")
        sim.run()
        assert isinstance(future.exception(), ProtocolError)
        assert client.pooled_destinations == 0
        assert client.stack.open_connections == 0


class TestMessageCaps:
    """A peer that never ends its header section, or announces a body of
    ``Content-Length: 99999999999``, used to leave the assembler waiting
    forever on a growing buffer."""

    #: Header-section tails past each cap, after a start line.
    OVERSIZED = {
        "header": b"X-Pad: " + b"a" * MAX_HEADER_BYTES,
        "body": b"Content-Length: 99999999999\r\n\r\n",
    }

    def test_assembler_accepts_messages_at_the_caps(self):
        head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n" % MAX_BODY_BYTES
        pad = b"X-Pad: " + b"a" * (MAX_HEADER_BYTES - len(head) - 11) + b"\r\n\r\n"
        assert len(head + pad) == MAX_HEADER_BYTES
        complete = _MessageAssembler().feed(head + pad + b"b" * MAX_BODY_BYTES)
        assert complete is not None
        assert len(complete[2]) == MAX_BODY_BYTES

    @pytest.mark.parametrize("cap", sorted(OVERSIZED))
    def test_assembler_rejects_past_the_cap(self, cap):
        with pytest.raises(ProtocolError):
            _MessageAssembler().feed(b"HTTP/1.1 200 OK\r\n" + self.OVERSIZED[cap])

    def test_header_cap_trips_across_feeds(self):
        assembler = _MessageAssembler()
        assert assembler.feed(b"HTTP/1.1 200 OK\r\n") is None
        with pytest.raises(ProtocolError):
            for _ in range(MAX_HEADER_BYTES):
                assembler.feed(b"X-Pad: aaaaaaaa\r\n")

    @pytest.mark.parametrize("cap", sorted(OVERSIZED))
    def test_server_answers_400_and_closes(self, sim, two_hosts, cap):
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register("/a", lambda req: HttpResponse(200))
        conn = sim.run_until_complete(a.connect(b.local_address(), 80))
        received = []
        conn.set_receiver(lambda _conn, data: received.append(bytes(data)))
        conn.send(
            b"POST /a HTTP/1.1\r\nConnection: keep-alive\r\n" + self.OVERSIZED[cap]
        )
        sim.run()
        assert b"".join(received).startswith(b"HTTP/1.0 400 ")
        assert conn.state != conn.ESTABLISHED
        assert server.requests_served == 0

    @pytest.mark.parametrize("cap", sorted(OVERSIZED))
    def test_client_fails_exchange_and_drops_pooled_connection(
        self, sim, two_hosts, cap
    ):
        a, b = two_hosts

        def on_connection(conn):
            conn.set_receiver(
                lambda c, _data: c.send(
                    b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n"
                    + self.OVERSIZED[cap]
                )
            )

        b.listen(80, on_connection)
        client = HttpClient(a, InterchangeConfig(keep_alive=True))
        future = client.get(b.local_address(), 80, "/a")
        sim.run()
        assert isinstance(future.exception(), ProtocolError)
        assert client.pooled_destinations == 0
        assert client.stack.open_connections == 0


class TestExtensionHeaderRoundTrip:
    """Unknown ``X-*`` extension headers (the trace context travels as
    ``X-Trace``) must survive serialize → parse unchanged, in both
    directions, without the transport knowing what they mean."""

    @staticmethod
    def _head_of(raw: bytes):
        head, _sep, _body = raw.partition(b"\r\n\r\n")
        return _parse_head(head)

    def test_request_extension_headers_round_trip(self):
        request = HttpRequest(
            "POST",
            "/soap/Calc",
            {"X-Trace": "t000001;s000003", "X-Custom-Flag": "on"},
            b"<xml/>",
        )
        start, headers = self._head_of(request.to_bytes())
        assert start == ["POST", "/soap/Calc", "HTTP/1.0"]
        assert headers["X-Trace"] == "t000001;s000003"
        assert headers["X-Custom-Flag"] == "on"

    def test_response_extension_headers_round_trip(self):
        response = HttpResponse(200, headers={"X-Trace": "t000001;s000004"})
        _start, headers = self._head_of(response.to_bytes())
        assert headers["X-Trace"] == "t000001;s000004"

    def test_reserialized_message_preserves_extension_headers(self):
        """Parse a request off the wire, rebuild it, and the unknown
        header is still there — proxies/servers that reconstruct messages
        must not shed extension headers."""
        original = HttpRequest("POST", "/p", {"X-Trace": "t000002;s000001"}, b"hi")
        start, headers = self._head_of(original.to_bytes())
        rebuilt = HttpRequest(start[0], start[1], headers, b"hi", version=start[2])
        _start2, headers2 = self._head_of(rebuilt.to_bytes())
        assert headers2["X-Trace"] == "t000002;s000001"

    def test_duplicate_extension_headers_fold_on_parse(self):
        """Duplicate X-* lines fold comma-joined (RFC 2616 §4.2) like any
        other header — the folded value then round-trips as one line."""
        raw = (
            b"POST /p HTTP/1.0\r\n"
            b"X-Trace: t000001;s000001\r\n"
            b"x-trace: t000001;s000002"
        )
        _start, headers = _parse_head(raw)
        assert headers == {"X-Trace": "t000001;s000001, t000001;s000002"}
        rebuilt = HttpRequest("POST", "/p", headers, b"")
        _s, reparsed = self._head_of(rebuilt.to_bytes())
        assert reparsed["X-Trace"] == "t000001;s000001, t000001;s000002"


class TestKeepAlive:
    @pytest.fixture
    def fast_pair(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        client = HttpClient(a, FAST_INTERCHANGE)
        return sim, server, client, b.local_address()

    def test_connection_reused_across_exchanges(self, fast_pair):
        sim, server, client, address = fast_pair
        server.register("/a", lambda req: HttpResponse(200, body=b"ok"))
        for _ in range(4):
            response = sim.run_until_complete(client.get(address, 80, "/a"))
            assert response.status == 200
        assert server.requests_served == 4
        assert server.keepalive_reuses == 3
        assert client.pooled_destinations == 1

    def test_idle_timeout_closes_pooled_connection(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        client = HttpClient(a, InterchangeConfig(keep_alive=True, idle_timeout=5.0))
        server.register("/a", lambda req: HttpResponse(200))
        sim.run_until_complete(client.get(b.local_address(), 80, "/a"))
        assert client.pooled_destinations == 1
        sim.run()  # drains the idle timer
        assert client.pooled_destinations == 0
        assert client.stack.open_connections == 0

    def test_invalidate_evicts_and_future_requests_reconnect(self, fast_pair):
        sim, server, client, address = fast_pair
        server.register("/a", lambda req: HttpResponse(200))
        sim.run_until_complete(client.get(address, 80, "/a"))
        client.invalidate(address)
        assert client.pooled_destinations == 0
        assert client.pooled_evictions == 1
        response = sim.run_until_complete(client.get(address, 80, "/a"))
        assert response.status == 200

    def test_pool_lru_cap_evicts_idle_destination(self, sim, net, eth):
        from tests.conftest import make_host

        hosts = [make_host(net, f"h{i}", eth) for i in range(4)]
        client_stack = make_host(net, "client", eth)
        servers = [HttpServer(stack, 80) for stack in hosts]
        for server in servers:
            server.register("/a", lambda req: HttpResponse(200))
        client = HttpClient(
            client_stack, InterchangeConfig(keep_alive=True, pool_destinations=2)
        )
        for stack in hosts[:3]:
            sim.run_until_complete(client.get(stack.local_address(), 80, "/a"))
        # Cap is 2: pooling the 3rd destination evicted the LRU first one.
        assert client.pooled_destinations == 2
        assert client.pooled_evictions == 1

    def test_legacy_server_close_degrades_transparently(self, sim, two_hosts):
        """A keep-alive client talking to a server that answers
        ``Connection: close`` must still complete every exchange."""
        a, b = two_hosts
        server = HttpServer(b, 80)
        # Handler forces legacy behaviour by overriding the connection token.
        server.register(
            "/a", lambda req: HttpResponse(200, headers={"Connection": "close"})
        )
        client = HttpClient(a, InterchangeConfig(keep_alive=True))
        for _ in range(3):
            response = sim.run_until_complete(client.get(b.local_address(), 80, "/a"))
            assert response.status == 200
        sim.run()
        assert client.stack.open_connections == 0

    def test_request_from_close_response_callback_gets_fresh_connection(
        self, sim, two_hosts
    ):
        """A request issued from the done-callback of a ``Connection:
        close`` response must not be written onto the closing connection
        (regression: it was, and failed as an unanswered pipelined
        request)."""
        a, b = two_hosts
        server = HttpServer(b, 80)
        server.register(
            "/a", lambda req: HttpResponse(200, headers={"Connection": "close"})
        )
        client = HttpClient(a, InterchangeConfig(keep_alive=True))
        address = b.local_address()
        second = []
        first = client.get(address, 80, "/a")
        first.add_done_callback(
            lambda _done: second.append(client.get(address, 80, "/a"))
        )
        assert sim.run_until_complete(first).status == 200
        assert sim.run_until_complete(second[0]).status == 200
        sim.run()
        assert client.stack.open_connections == 0


class TestCompression:
    def test_gzip_negotiation_roundtrip(self, sim, two_hosts):
        a, b = two_hosts
        server = HttpServer(b, 80)
        client = HttpClient(a, InterchangeConfig(compress=True))
        big = b"event " * 200

        def handler(request):
            return HttpResponse(200, body=big)

        server.register("/big", handler)
        address = b.local_address()
        first = sim.run_until_complete(client.post(address, 80, "/big", b"hello-world"))
        # First exchange: response was compressed (we advertised), and the
        # server's capability echo taught us the peer speaks gzip.
        assert first.body == big
        assert first.header("Content-Encoding") == "gzip"
        assert "gzip" in client.peer_features(address, 80)
        # Second request: body large enough now travels compressed.
        second = sim.run_until_complete(client.post(address, 80, "/big", b"x" * 500))
        assert second.body == big
        assert client.compressed_requests == 1

    def test_gzip_deterministic(self):
        assert gzip_bytes(b"payload" * 50) == gzip_bytes(b"payload" * 50)

    def test_legacy_exchange_carries_no_negotiation_headers(self, server_client):
        """A default-config client must not leak fast-path headers — the
        2002 wire format is the baseline the experiments measure."""
        sim, server, client, address = server_client
        seen = {}

        def handler(request):
            seen.update(request.headers)
            return HttpResponse(200, body=b"ok" * 200)

        server.register("/a", handler)
        response = sim.run_until_complete(client.get(address, 80, "/a"))
        assert FEATURES_HEADER not in seen
        assert "Accept-Encoding" not in seen
        assert response.header("Content-Encoding") == ""
        assert response.header(FEATURES_HEADER) == ""
