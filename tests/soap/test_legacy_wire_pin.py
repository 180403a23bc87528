"""Digest pins of the legacy (HTTP/1.0, connection per exchange) wire.

C8's byte-identity test compares the default config against an explicit
legacy config; both run through the same client code, so a change to that
code moves both sides at once and the comparison still passes.  These pins
compare against digests recorded from the wire itself instead: every
frame's timestamp, endpoints, size and payload bytes, for

- C8's bridged Telemetry scene (two SOAP islands, legacy interchange);
- two concurrent legacy requests from one client to one destination.

A refactor of the HTTP client that keeps the legacy wire leaves both
digests unchanged.  A digest that moves means the 2002 wire moved.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import SimFuture, Simulator
from repro.soap.http import HttpClient, HttpResponse, HttpServer

from tests.conftest import make_host

TELEMETRY_IFACE = simple_interface("Telemetry", {"snapshot": ("string", "->string")})
REPORT = "temp=21.50C;humidity=40.2%;pressure=1013.2hPa;battery=97%;status=OK;" * 10

BRIDGED_DIGEST = "63dc4e94acb5377589b8d0d4cd41936caa97ecc7844e84dab2ca6099e5b684f3"
CONCURRENT_DIGEST = "9a374be64026ea5ce611b279c943c9badf8b3ec7bfc9afe8c8aaceb7d59524d8"


class _WireTap:
    """Segment monitor hashing every transmission: the monitor's trace
    entry (time, endpoints, size) plus the frame's payload bytes."""

    def __init__(self, segment) -> None:
        self.monitor = TrafficMonitor(trace_enabled=True)
        self.frames = 0
        self._hash = hashlib.sha256()
        segment.monitors.append(self)

    def record(self, segment, frame, size, dropped) -> None:
        self.monitor.record(segment, frame, size, dropped)
        entry = self.monitor.trace[-1]
        self._hash.update(repr(dataclasses.astuple(entry)).encode())
        self._hash.update(bytes(frame.payload))
        self.frames += 1

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


def bridged_scene_digest() -> tuple[int, str]:
    """C8's legacy scene: island b calls island a's Telemetry five times."""
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    mm = MetaMiddleware(net, backbone)
    island_a = mm.add_island("a", None)
    island_b = mm.add_island("b", None)
    sim.run_until_complete(
        island_a.gateway.export_service(
            "Telemetry", TELEMETRY_IFACE, lambda operation, args: REPORT
        )
    )
    sim.run_until_complete(mm.connect())
    tap = _WireTap(backbone)
    for _ in range(5):
        assert (
            sim.run_until_complete(island_b.gateway.invoke("Telemetry", "snapshot", ["x"]))
            == REPORT
        )
    sim.run()
    return tap.frames, tap.digest


def concurrent_scene_digest() -> tuple[int, str]:
    """Two legacy requests to one destination in flight at once; the
    second handler answers later, so the exchanges overlap on the wire."""
    sim = Simulator()
    net = Network(sim)
    eth = net.create_segment(EthernetSegment, "eth0")
    a, b = make_host(net, "a", eth), make_host(net, "b", eth)
    server = HttpServer(b, 80)
    server.register("/now", lambda request: HttpResponse(200, body=b"now" * 40))

    def later(request):
        future = SimFuture()
        sim.schedule(0.004, future.set_result, HttpResponse(200, body=request.body))
        return future

    server.register("/later", later)
    client = HttpClient(a)
    tap = _WireTap(eth)
    address = b.local_address()
    slow = client.post(address, 80, "/later", b"payload " * 30)
    fast = client.get(address, 80, "/now")
    assert sim.run_until_complete(fast).body == b"now" * 40
    assert sim.run_until_complete(slow).body == b"payload " * 30
    sim.run()
    assert client.stack.open_connections == 0
    return tap.frames, tap.digest


def test_bridged_legacy_wire_matches_recorded_digest():
    assert bridged_scene_digest() == (56, BRIDGED_DIGEST)


def test_concurrent_legacy_exchanges_match_recorded_digest():
    assert concurrent_scene_digest() == (18, CONCURRENT_DIGEST)
