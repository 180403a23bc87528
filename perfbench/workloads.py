"""The four seeded workloads of the host-cost benchmark.

Every workload builds its simulated world only through the public API of
``repro`` and then drives *ops* (the unit its metrics are counted in).
The seed is the only source of variation: it decides the op mix, the
name and topic draws and the callers' start offsets, so the same seed
gives the same virtual-time run on any machine.

A workload exposes:

- ``build()`` — construct the world, connect it and warm it up (the part
  timed as ``setup_s``);
- ``start(recorder)`` / ``stop()`` — begin and end issuing ops, reporting
  each op's issue and completion to the :class:`Recorder`;
- ``drain_check()`` — after the window, let the in-flight work settle and
  return the end-of-run correctness problems (an empty list when the
  outputs are right);
- ``events_published()`` — how many framework events the load published
  (the base of the ``rules.*_per_event`` ratios).
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable

from repro.apps import build_smart_home
from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.core.shard import FederationConfig, ShardLoadModel, VsrFederation
from repro.core.vsr import VsrClient
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import SimFuture, Simulator
from repro.net.transport import TransportStack
from repro.rules import RuleEngine, dsl
from repro.soap.http import REACTOR_INTERCHANGE
from repro.soap.wsdl import WsdlDocument
from repro.store import GatewayJournal, MemWalStore

_now_ns = time.perf_counter_ns


class Recorder:
    """Issue/completion bookkeeping for the ops of one measured window.

    An op issued while the window is open and completed before it closes
    is *completed* (and *failed* too when its result fails the workload's
    correctness check).  Ops still in flight when the window closes are
    neither: they are dropped, so a clean teardown never counts as loss.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.open = False
        #: Host ns the measuring loop paused for; the recorder's clock
        #: leaves them out.
        self.paused_ns = 0
        #: Completed ops: (host issue ns, host done ns, virtual latency s).
        self.completed: list[tuple[int, int, float]] = []
        self.failed = 0
        self.problems: list[str] = []

    def issue(self) -> tuple[int, float]:
        return _now_ns() - self.paused_ns, self.sim.now

    def done(self, token: tuple[int, float], ok: bool, problem: str = "") -> None:
        if not self.open:
            return
        host_issue, virtual_issue = token
        self.completed.append((host_issue, _now_ns() - self.paused_ns, self.sim.now - virtual_issue))
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


def _backbone_world(interchange) -> tuple[Simulator, Network, Any, MetaMiddleware]:
    sim = Simulator()
    net = Network(sim)
    backbone = net.create_segment(EthernetSegment, "backbone")
    return sim, net, backbone, MetaMiddleware(net, backbone, interchange=interchange)


class Workload:
    name = ""
    #: Virtual seconds, from the start of the load, whose completed ops
    #: give the deterministic metrics (virtual latency, wire bytes).
    window = 2.0
    #: The tail of ``window`` that the call-counting pass profiles.
    count_window = 0.3
    sim: Simulator
    monitor: TrafficMonitor

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.running = False

    def start(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        self.running = False

    def drain_check(self) -> list[str]:
        self.sim.run_for(2.0)
        return []


    def events_published(self) -> int:
        return 0


# -- bridged_burst ------------------------------------------------------------

TELEMETRY_IFACE = simple_interface("Telemetry", {"snapshot": ("string", "->string")})
REPORT = ("temp=21.50C;humidity=40.2%;pressure=1013.2hPa;battery=97%;status=OK;") * 10
#: In-island device latency per served call (C11's saturation setting).
SERVICE_DELAY = 0.005
BURST_CALLERS = 64
START_GROUPS = 8
CHANNELS = 16


def telemetry_report(channel: str) -> str:
    return f"channel={channel};" + REPORT


class BridgedBurst(Workload):
    """64 closed-loop callers on two REACTOR_INTERCHANGE SOAP islands."""

    name = "bridged_burst"
    #: Long enough that its ops meet several generation-2 collections,
    #: which set their host-time p99.
    window = 4.0

    def build(self) -> None:
        sim, _net, backbone, mm = _backbone_world(REACTOR_INTERCHANGE)
        island_a = mm.add_island("a", None)
        island_b = mm.add_island("b", None)

        def handler(operation: str, args: list) -> SimFuture:
            future = SimFuture()
            sim.schedule(SERVICE_DELAY, future.set_result, telemetry_report(args[0]))
            return future

        sim.run_until_complete(
            island_a.gateway.export_service("Telemetry", TELEMETRY_IFACE, handler)
        )
        sim.run_until_complete(mm.connect())
        self.sim, self.mm = sim, mm
        self.gateway = island_b.gateway
        # Warm-up: VSR cache, capability negotiation and the keep-alive
        # proof all happen on the first exchanges of a fresh connection.
        for _ in range(2):
            assert sim.run_until_complete(self._invoke("ch0")) == telemetry_report("ch0")
        self.monitor = TrafficMonitor().watch(backbone)

    def _invoke(self, channel: str) -> SimFuture:
        return self.gateway.invoke("Telemetry", "snapshot", [channel])

    def start(self, recorder: Recorder) -> None:
        self.running = True
        sim, rng = self.sim, self.rng

        def call() -> None:
            channel = f"ch{rng.randrange(CHANNELS)}"
            token = recorder.issue()

            def on_done(future: SimFuture) -> None:
                exc = future.exception()
                if exc is not None:
                    recorder.done(token, False, f"snapshot raised {exc!r}")
                else:
                    ok = future.result() == telemetry_report(channel)
                    recorder.done(token, ok, "snapshot returned the wrong report")
                if self.running:
                    call()

            self._invoke(channel).add_done_callback(on_done)

        # Callers start in a few same-instant groups, so the reactor has
        # concurrent frames to coalesce, as under a real burst.
        base = sim.now
        for _ in range(BURST_CALLERS):
            sim.at(base + rng.randrange(START_GROUPS) * SERVICE_DELAY / START_GROUPS, call)



# -- paper_home ---------------------------------------------------------------


#: Mean think time of a paper_home caller between two ops (virtual s).
HOME_THINK_TIME = 0.0001


class PaperHome(Workload):
    """The paper's Figure-5 home on the legacy wire: one closed-loop caller
    per island, each driving real native operations on a device of
    another island that no other caller touches, so every result and
    every device state after an op has one expected value."""

    name = "paper_home"
    window = 3.0

    def build(self) -> None:
        home = build_smart_home()
        home.connect()
        self.home, self.sim = home, home.sim
        # One call per driven service warms the VSR caches and proxies.
        for island, (service, ops) in self._plan().items():
            home.invoke_from(island, service, ops[0][0], [])
        for island, (service, ops) in self._plan().items():
            home.invoke_from(island, service, ops[-1][0], [])
        self.monitor = TrafficMonitor().watch(home.mm.backbone)

    def _plan(self) -> dict[str, tuple[str, list[tuple[str, Callable[[], Any]]]]]:
        """Caller island -> (service, [(operation, expected-state probe)])."""
        home = self.home
        return {
            "havi": (
                "Laserdisc",
                [
                    ("play", lambda: home.laserdisc.playing),
                    ("get_state", lambda: home.laserdisc.playing),
                    ("stop", lambda: home.laserdisc.playing),
                ],
            ),
            "jini": (
                "DV_Camera_camera",
                [
                    ("start_capture", lambda: home.camera.capturing),
                    ("stop_capture", lambda: home.camera.capturing),
                ],
            ),
            "x10": (
                "Digital_TV_display",
                [
                    ("power_on", lambda: home.tv_display.powered),
                    ("power_off", lambda: home.tv_display.powered),
                ],
            ),
            "mail": (
                "X10_A1_hall_lamp",
                [
                    ("turn_on", lambda: home.lamps["hall"].on),
                    ("turn_off", lambda: home.lamps["hall"].on),
                ],
            ),
        }

    #: Device state each state-changing operation leaves behind.
    AFTER = {
        "play": True,
        "stop": False,
        "start_capture": True,
        "stop_capture": False,
        "power_on": True,
        "power_off": False,
        "turn_on": True,
        "turn_off": False,
    }

    def start(self, recorder: Recorder) -> None:
        self.running = True
        for island, (service, ops) in self._plan().items():
            self._caller(recorder, self.home.island(island).gateway, service, ops)

    def _caller(self, recorder: Recorder, gateway: Any, service: str, ops: list) -> None:
        rng = self.rng
        # The device state this caller's ops should have left behind (the
        # warm-up left every driven device in its "off" state).
        model = {"state": False}

        def call() -> None:
            operation, probe = ops[rng.randrange(len(ops))]
            token = recorder.issue()

            def on_done(future: SimFuture) -> None:
                exc = future.exception()
                if exc is not None:
                    recorder.done(token, False, f"{service}.{operation} raised {exc!r}")
                else:
                    model["state"] = self.AFTER.get(operation, model["state"])
                    result = future.result()
                    if operation == "get_state":
                        expected: Any = "PLAY" if model["state"] else "STOP"
                    else:
                        expected = True
                    ok = result == expected and probe() == model["state"]
                    recorder.done(
                        token, ok,
                        f"{service}.{operation} -> {result!r}, device state "
                        f"{probe()!r}, expected {expected!r}/{model['state']!r}",
                    )
                if self.running:
                    self.sim.schedule(rng.expovariate(1.0 / HOME_THINK_TIME), call)

            gateway.invoke(service, operation, []).add_done_callback(on_done)

        call()


# -- event_storm --------------------------------------------------------------

ACTUATOR_IFACE = simple_interface("Actuator", {"pulse": ("string", "int", "->string")})
TOPICS = [f"storm/t{index}" for index in range(10)]
SUBSCRIBERS = ("s1", "s2", "s3")
#: Mean gap between two publishes of the open-loop publisher (virtual s);
#: each gap is drawn uniformly from 0.5x to 1.5x of it.
EVENT_INTERVAL = 0.002


class EventStorm(Workload):
    """One publisher, three subscribers with push subscriptions and one
    rule each, all four islands journaling to a WAL.  An op is one event
    delivered to one subscriber, or one rule firing that reached the
    publisher's actuator."""

    name = "event_storm"
    window = 6.0

    def build(self) -> None:
        sim, _net, backbone, mm = _backbone_world(REACTOR_INTERCHANGE)
        self.stores: list[MemWalStore] = []
        islands = {name: mm.add_island(name, None) for name in ("pub", *SUBSCRIBERS)}
        for name, island in islands.items():
            store = MemWalStore()
            self.stores.append(store)
            island.gateway.attach_journal(GatewayJournal(store, name))
        #: (subscriber, seq) -> pulses the actuator received for it.
        self.pulses: dict[tuple[str, int], int] = {}
        self.pulse_hook: Callable[[str, int], None] = lambda sub, seq: None

        def actuator(operation: str, args: list) -> str:
            key = (args[0], args[1])
            self.pulses[key] = self.pulses.get(key, 0) + 1
            self.pulse_hook(*key)
            return "pulsed"

        sim.run_until_complete(
            islands["pub"].gateway.export_service("Actuator", ACTUATOR_IFACE, actuator)
        )
        sim.run_until_complete(mm.connect())
        #: seq -> topic of every published event.
        self.published: dict[int, str] = {}
        #: (subscriber, seq) -> deliveries seen.
        self.delivered: dict[tuple[str, int], int] = {}
        self.delivery_hook: Callable[[str, int, str], None] = lambda sub, seq, topic: None
        self.engines: dict[str, RuleEngine] = {}
        for index, name in enumerate(SUBSCRIBERS):
            gateway = islands[name].gateway

            def on_event(topic: str, payload: Any, source: str, name=name) -> None:
                key = (name, payload["seq"])
                self.delivered[key] = self.delivered.get(key, 0) + 1
                self.delivery_hook(name, payload["seq"], topic)

            sim.run_until_complete(gateway.subscribe_many(TOPICS, on_event))
            engine = RuleEngine(gateway)
            engine.add_rule(
                dsl.rule(f"{name}-pulse")
                .when(dsl.on_event(TOPICS[index]))
                .then(dsl.invoke("Actuator", "pulse", name, dsl.event("seq")))
                .build()
            )
            sim.run_until_complete(engine.start())
            self.engines[name] = engine
        sim.run_for(1.0)  # let the push channels establish and settle
        self.sim, self.mm = sim, mm
        self.seq = 0
        # Warm-up: one event per topic through every subscriber and rule.
        for topic in TOPICS:
            self._publish(topic)
        sim.run_for(1.0)
        self.monitor = TrafficMonitor().watch(backbone)

    def _publish(self, topic: str) -> int:
        self.seq += 1
        self.published[self.seq] = topic
        self.mm.island("pub").gateway.publish_event(topic, {"seq": self.seq})
        return self.seq

    def start(self, recorder: Recorder) -> None:
        self.running = True
        sim, rng = self.sim, self.rng
        issued: dict[int, tuple[int, float]] = {}

        def on_delivery(sub: str, seq: int, topic: str) -> None:
            token = issued.get(seq)
            if token is not None:
                once = self.delivered[(sub, seq)] == 1
                ok = once and self.published.get(seq) == topic
                recorder.done(token, ok, f"{sub} got seq {seq} on {topic!r} "
                              f"(delivery #{self.delivered[(sub, seq)]})")

        def on_pulse(sub: str, seq: int) -> None:
            token = issued.get(seq)
            if token is not None:
                ok = (self.published.get(seq) == TOPICS[SUBSCRIBERS.index(sub)]
                      and self.pulses[(sub, seq)] == 1)
                recorder.done(token, ok, f"pulse {sub}/{seq} for topic "
                              f"{self.published.get(seq)!r} (pulse #{self.pulses[(sub, seq)]})")

        self.delivery_hook, self.pulse_hook = on_delivery, on_pulse
        due = [sim.now]

        def tick() -> None:
            if not self.running:
                return
            token = recorder.issue()
            seq = self._publish(TOPICS[rng.randrange(len(TOPICS))])
            issued[seq] = token
            due[0] += EVENT_INTERVAL * rng.uniform(0.5, 1.5)
            sim.at(due[0], tick)

        sim.at(due[0], tick)

    def drain_check(self) -> list[str]:
        self.sim.run_for(2.0)
        problems = []
        for name, engine in self.engines.items():
            pulses = sum(count for (sub, _), count in self.pulses.items() if sub == name)
            if pulses != engine.fired_count:
                problems.append(f"{name}: {pulses} actuator pulses for "
                                f"{engine.fired_count} rule firings")
        for seq in self.published:
            for name in SUBSCRIBERS:
                count = self.delivered.get((name, seq), 0)
                if count != 1:
                    problems.append(f"{name} got event {seq} {count} times")
                    break
        return problems[:5]

    def events_published(self) -> int:
        return self.seq


# -- directory_churn ----------------------------------------------------------

SEEDED_NAMES = 2000
DIRECTORY_CLIENTS = 4
PUBLISH_SHARE = 0.10
#: Client cache lifetime and mean think time (virtual seconds): with the
#: skewed draw below they hold the cache hit ratio mid-range for the whole
#: window instead of letting it climb towards 1 as the cache fills.
CLIENT_CACHE_TTL = 2.0
THINK_TIME = 0.002
#: Name draw skew: index = N * u**SKEW, so low indices are hot.
SKEW = 3.0
#: Virtual seconds a directory replica is busy per operation: requests
#: queue behind each other, as on a modest home-gateway-class directory.
REPLICA_SERVICE_TIME = 0.001
#: Registrations carry a seeded note of up to MAX_NOTE characters.
MAX_NOTE = 400


def stub_location(name: str) -> str:
    return f"soap://stubnet/{name}:8080/{name}"


def stub_doc(name: str, note: str) -> WsdlDocument:
    """A registration whose context carries a free-text ``note``, so that
    documents, and the exchanges that carry them, differ in size."""
    context = {"island": name, "middleware": "stub", "kind": "stub", "note": note}
    return WsdlDocument(service=name, location=stub_location(name), context=context)


def random_note(rng: random.Random) -> str:
    """Up to MAX_NOTE hex digits: text that compression cannot shrink away."""
    return format(rng.getrandbits(4 * rng.randrange(1, MAX_NOTE)), "x")


class DirectoryChurn(Workload):
    """4 shards x 2 replicas with anti-entropy, 2000 seeded registrations,
    four closed-loop clients: 90% ``find_by_name`` on a skewed name draw,
    10% ``publish`` of a fresh registration."""

    name = "directory_churn"
    window = 8.0
    count_window = 0.5

    def build(self) -> None:
        sim = Simulator()
        net = Network(sim)
        backbone = net.create_segment(EthernetSegment, "backbone")
        federation = VsrFederation(
            net, backbone,
            FederationConfig(shards=4, replicas=2, ring_seed="perfbench", sync_interval=0.5),
            load_model_factory=lambda sim: ShardLoadModel(sim, REPLICA_SERVICE_TIME),
        )
        for index in range(SEEDED_NAMES):
            federation.view.publish(stub_doc(f"Svc_{index}", random_note(self.rng)))
        federation.start_sync()
        while not federation.converged():
            sim.run_for(0.5)
        self.clients: list[VsrClient] = []
        for index in range(DIRECTORY_CLIENTS):
            node = net.create_node(f"perf-client{index}")
            net.attach(node, backbone)
            stack = TransportStack(node, net)
            self.clients.append(
                VsrClient(
                    stack,
                    federation.primary_endpoint.address,
                    federation.primary_endpoint.port,
                    cache_ttl=CLIENT_CACHE_TTL,
                    interchange=REACTOR_INTERCHANGE,
                    federation=federation.routing(),
                )
            )
        # Warm-up: open each client's connections to every shard.
        for client in self.clients:
            sim.gather([client.find_by_name(f"Svc_{i}") for i in range(8)])
        self.sim, self.federation = sim, federation
        self.monitor = TrafficMonitor().watch(backbone)

    def start(self, recorder: Recorder) -> None:
        self.running = True
        for index, client in enumerate(self.clients):
            self._client_loop(recorder, index, client)

    def _client_loop(self, recorder: Recorder, index: int, client: VsrClient) -> None:
        sim, rng = self.sim, self.rng
        published = 0

        def call() -> None:
            nonlocal published
            if not self.running:
                return
            token = recorder.issue()
            if rng.random() < PUBLISH_SHARE:
                published += 1
                name = f"Svc_c{index}_{published}"
                future = client.publish(stub_doc(name, random_note(rng)))
                what = f"publish {name}"
                check: Callable[[Any], bool] = lambda result: result is True
            else:
                name = f"Svc_{int(SEEDED_NAMES * rng.random() ** SKEW)}"
                future = client.find_by_name(name)
                what = f"find_by_name {name}"
                check = lambda doc: doc.location == stub_location(name)

            def on_done(done: SimFuture) -> None:
                exc = done.exception()
                if exc is not None:
                    recorder.done(token, False, f"{what} raised {exc!r}")
                else:
                    recorder.done(token, check(done.result()), f"{what} -> wrong document")
                sim.schedule(rng.expovariate(1.0 / THINK_TIME), call)

            future.add_done_callback(on_done)

        sim.schedule(rng.expovariate(1.0 / THINK_TIME), call)



WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BridgedBurst, PaperHome, EventStorm, DirectoryChurn)
}
