"""Seeded random topologies: a whole simulated home from one integer.

``TopologyGen.generate(seed)`` draws a :class:`TopologySpec` — pure frozen
data — and ``build_world(spec)`` assembles the live world from it.  The
split matters: specs are comparable, printable and replayable, and the
shrinker can rebuild the identical world for every candidate subset.

RNG streams are namespaced (``testkit:topology:<seed>``) with string seeds
so results do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.framework import Island, MetaMiddleware
from repro.core.interface import ServiceInterface, simple_interface
from repro.core.pcm import ProtocolConversionManager
from repro.core.resilience import CallPolicy
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.segment import EthernetSegment, IEEE1394Segment, Segment
from repro.net.simkernel import SimFuture, Simulator
from repro.obs import Observability
from repro.soap.http import (
    FAST_INTERCHANGE,
    PUSH_INTERCHANGE,
    REACTOR_INTERCHANGE,
    InterchangeConfig,
)

if TYPE_CHECKING:  # pragma: no cover - bands imports this module
    from repro.testkit.bands import Band

#: Middleware kinds islands are drawn from; x10 and mail are bus-less
#: (their native medium carries no SOAP, so the gateway is backbone-only).
ISLAND_KINDS = ("jini", "havi", "upnp", "x10", "mail")

_SEGMENT_SUFFIX = {"jini": "-lan", "upnp": "-lan", "havi": "-bus"}

#: Every generated service speaks the same small interface; behavioural
#: variety comes from the workload, not from per-service schemas.
SERVICE_OPS = {
    "get": ("->int",),
    "add": ("int", "->int"),
    "echo": ("string", "->string"),
    "fail": (),
}


def service_interface(name: str) -> ServiceInterface:
    return simple_interface(name, dict(SERVICE_OPS))


# ---------------------------------------------------------------------------
# Specs (pure data)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSpec:
    name: str


@dataclass(frozen=True)
class IslandSpec:
    name: str
    kind: str
    services: tuple[str, ...]
    #: "legacy" | "keepalive" | "fast" | "push" — wire behaviour of this
    #: island's SOAP client/protocol (mixed-format worlds exercise
    #: negotiation; "push" adds streamed event channels).
    interchange: str
    poll_interval: float

    @property
    def segment_name(self) -> str | None:
        suffix = _SEGMENT_SUFFIX.get(self.kind)
        return f"{self.name}{suffix}" if suffix else None


@dataclass(frozen=True)
class TopologySpec:
    seed: int
    islands: tuple[IslandSpec, ...]
    obs_enabled: bool
    deadline: float
    max_retries: int
    breaker_threshold: int
    heartbeat_interval: float
    #: Directory federation (scale band): 0 = the legacy single
    #: directory; >=1 builds a sharded, replicated plane
    #: (``repro.core.shard``) with this many shards...
    federation_shards: int = 0
    #: ...each replicated this many ways.
    federation_replicas: int = 1
    #: Pure-data island stubs seeded straight into the shard primaries
    #: after connect (no gateway stacks — see testkit.scale_profile).
    stub_islands: int = 0

    @property
    def service_names(self) -> list[str]:
        return [name for island in self.islands for name in island.services]

    @property
    def island_names(self) -> list[str]:
        return [island.name for island in self.islands]

    @property
    def directory_node_names(self) -> list[str]:
        """The directory plane's backbone node names (one for the legacy
        or trivial-federation shape, N*R replicas otherwise)."""
        if self.federation_shards <= 0 or (
            self.federation_shards == 1 and self.federation_replicas == 1
        ):
            return ["uddi-directory"]
        return [
            f"vsr-s{shard}r{replica}"
            for shard in range(self.federation_shards)
            for replica in range(self.federation_replicas)
        ]

    @property
    def node_names(self) -> list[str]:
        """Every backbone node a fault can target."""
        return self.directory_node_names + [
            f"gw-{island.name}" for island in self.islands
        ]

    @property
    def segment_names(self) -> list[str]:
        names = ["backbone"]
        for island in self.islands:
            if island.segment_name:
                names.append(island.segment_name)
        return names

    def describe(self) -> str:
        lines = [
            f"topology seed={self.seed}: {len(self.islands)} islands, "
            f"{len(self.service_names)} services, "
            f"deadline={self.deadline:g}s retries={self.max_retries} "
            f"breaker={self.breaker_threshold} "
            f"heartbeat={self.heartbeat_interval:g}s "
            f"obs={'on' if self.obs_enabled else 'off'}"
        ]
        if self.federation_shards:
            lines.append(
                f"  federation: {self.federation_shards} shards x "
                f"{self.federation_replicas} replicas, "
                f"{self.stub_islands} stub islands"
            )
        for island in self.islands:
            lines.append(
                f"  {island.name} ({island.kind}, {island.interchange}, "
                f"poll={island.poll_interval:g}s): "
                f"{len(island.services)} services"
            )
        return "\n".join(lines)


class TopologyGen:
    """Draws a random :class:`TopologySpec` from a seed and its band
    (``repro.testkit.bands``): the band weights each island's interchange
    draw and may reshape the spec after the base draws."""

    MIN_ISLANDS = 2
    MAX_ISLANDS = 6
    MIN_SERVICES = 1
    MAX_SERVICES = 20

    def generate(self, seed: int, band: Band) -> TopologySpec:
        choices = tuple(band.interchange)
        weights = tuple(band.interchange.values())
        rng = random.Random(f"testkit:topology:{seed}")
        islands = []
        for index in range(rng.randint(self.MIN_ISLANDS, self.MAX_ISLANDS)):
            kind = rng.choice(ISLAND_KINDS)
            name = f"{kind}{index}"
            services = tuple(
                f"Svc_{name}_{slot}"
                for slot in range(rng.randint(self.MIN_SERVICES, self.MAX_SERVICES))
            )
            interchange = rng.choices(choices, weights=weights)[0]
            islands.append(
                IslandSpec(
                    name=name,
                    kind=kind,
                    services=services,
                    interchange=interchange,
                    poll_interval=rng.choice((1.0, 2.0, 5.0)),
                )
            )
        spec = TopologySpec(
            seed=seed,
            islands=tuple(islands),
            obs_enabled=rng.random() < 0.5,
            deadline=rng.choice((5.0, 10.0, 15.0)),
            max_retries=rng.choice((0, 1, 2)),
            breaker_threshold=rng.choice((0, 3, 5)),
            heartbeat_interval=rng.choice((0.0, 0.0, 5.0, 10.0)),
        )
        if band.topology is not None:
            spec = band.topology(rng, spec)
        return spec


# ---------------------------------------------------------------------------
# Live world
# ---------------------------------------------------------------------------


class SimService:
    """The one service implementation every generated island hosts."""

    def __init__(self) -> None:
        self.value = 0
        self.calls = 0

    def get(self) -> int:
        self.calls += 1
        return self.value

    def add(self, amount: int) -> int:
        self.calls += 1
        self.value += amount
        return self.value

    def echo(self, message: str) -> str:
        self.calls += 1
        return message

    def fail(self) -> None:
        self.calls += 1
        raise RuntimeError("SimService.fail always fails")


class SimServicePcm(ProtocolConversionManager):
    """PCM hosting :class:`SimService` instances for one generated island.

    ``middleware_name`` is per-instance (the island's kind) so exported
    WSDL context looks like a heterogeneous home, not five clones.
    """

    def __init__(
        self,
        vsg: Any,
        kind: str,
        services: dict[str, SimService],
    ) -> None:
        super().__init__(vsg)
        self.middleware_name = kind
        self.services = services
        self.facades: dict[str, Any] = {}

    def _discover_local_services(self) -> SimFuture:
        discovered = []
        for name, service in self.services.items():
            def handler(operation: str, args: list, _svc: SimService = service) -> Any:
                return getattr(_svc, operation)(*args)

            discovered.append(
                (name, service_interface(name), handler, {"kind": self.middleware_name})
            )
        return SimFuture.completed(discovered)

    def _materialise(self, document: Any, interface: ServiceInterface) -> SimFuture:
        self.facades[document.service] = self.remote_proxy(document)
        return SimFuture.completed(True)


_INTERCHANGE = {
    "legacy": None,  # framework default = legacy wire behaviour
    "keepalive": InterchangeConfig(keep_alive=True),
    "fast": FAST_INTERCHANGE,
    "push": PUSH_INTERCHANGE,
    "reactor": REACTOR_INTERCHANGE,
}


@dataclass
class World:
    """Everything a run (and its oracles) needs a handle on."""

    spec: TopologySpec
    sim: Simulator
    network: Network
    backbone: Segment
    mm: MetaMiddleware
    monitor: TrafficMonitor
    obs: Observability | None
    services: dict[str, SimService]
    service_island: dict[str, str]
    pcms: dict[str, SimServicePcm] = field(default_factory=dict)
    #: Rule engines installed by the "rules" profile, keyed by host
    #: island (empty on every other profile); see testkit.rules_profile.
    rule_engines: dict[str, Any] = field(default_factory=dict)
    #: Flight recorders, one per gateway node (installed for every
    #: profile by the runner); see testkit.blackbox.
    flight: dict[str, Any] = field(default_factory=dict)
    #: Telemetry agents keyed by island + the single collector, installed
    #: by the "telemetry" profile; see testkit.telemetry_profile.
    telemetry_agents: dict[str, Any] = field(default_factory=dict)
    telemetry_collector: Any = None
    #: WAL journals installed by the "persistence" profile: one
    #: GatewayJournal per island (keyed by island name) plus the
    #: directory's DirectoryJournal; empty/None on every other profile.
    #: The journals' MemWalStores are the durable medium — owned here,
    #: outside any node, so crashes cannot touch them.
    journals: dict[str, Any] = field(default_factory=dict)
    directory_journal: Any = None
    #: The sharded directory plane (``repro.core.shard.VsrFederation``)
    #: on scale-profile seeds; None everywhere else.
    federation: Any = None
    #: Names of the pure-data stub islands the scale profile seeded into
    #: the shard primaries (empty off the scale band); the vsr-islands
    #: oracle treats them as known.
    scale_stubs: tuple[str, ...] = ()

    @property
    def islands(self) -> dict[str, Island]:
        return self.mm.islands

    def segments(self) -> list[Segment]:
        return [self.network.segments[name] for name in self.spec.segment_names]

    def http_clients(self) -> list[tuple[str, Any]]:
        """Every pooled HTTP client the pool-leak oracle must audit.

        Event channels own a dedicated keep-alive client per remote
        gateway; ``channel_clients`` retains even dead ones, so a channel
        that leaked its connection past shutdown is still caught here.
        """
        clients = []
        for name, island in self.mm.islands.items():
            clients.append((f"{name}.protocol", island.gateway.protocol.client.http))
            clients.append((f"{name}.vsr", island.gateway.vsr.soap.http))
            for index, channel in enumerate(island.gateway.events.channel_clients):
                clients.append((f"{name}.events[{index}]", channel.http))
        return clients


def build_world(spec: TopologySpec, force_obs: bool = False) -> World:
    """Assemble the live world a spec describes (nothing has run yet)."""
    sim = Simulator()
    network = Network(sim)
    backbone = network.create_segment(EthernetSegment, "backbone")
    obs = Observability(sim) if (spec.obs_enabled or force_obs) else None
    policy = CallPolicy(
        deadline=spec.deadline,
        max_retries=spec.max_retries,
        breaker_threshold=spec.breaker_threshold,
        heartbeat_interval=spec.heartbeat_interval,
        # Directory round trips must be bounded too: an unanswerable
        # publish/withdraw would otherwise hang a workload future forever
        # and fail the call-completion oracle on a healthy world.
        directory_deadline=spec.deadline,
        seed=spec.seed,
    )
    federation_config = None
    if spec.federation_shards > 0:
        from repro.core.shard import FederationConfig

        federation_config = FederationConfig(
            shards=spec.federation_shards,
            replicas=spec.federation_replicas,
            ring_seed=f"testkit:ring:{spec.seed}",
            sync_interval=2.0,
            find_deadline=spec.deadline,
        )
    mm = MetaMiddleware(
        network, backbone, policy=policy, obs=obs, federation=federation_config
    )
    monitor = TrafficMonitor()
    monitor.watch(backbone)

    world = World(
        spec=spec,
        sim=sim,
        network=network,
        backbone=backbone,
        mm=mm,
        monitor=monitor,
        obs=obs,
        services={},
        service_island={},
        federation=mm.federation,
    )

    for ispec in spec.islands:
        segment: Segment | None = None
        if ispec.segment_name:
            cls = IEEE1394Segment if ispec.kind == "havi" else EthernetSegment
            segment = network.create_segment(cls, ispec.segment_name)
            monitor.watch(segment)
        services = {name: SimService() for name in ispec.services}
        world.services.update(services)
        for name in ispec.services:
            world.service_island[name] = ispec.name

        def pcm_factory(
            island: Island,
            _kind: str = ispec.kind,
            _services: dict[str, SimService] = services,
        ) -> SimServicePcm:
            return SimServicePcm(island.gateway, _kind, _services)

        mm.add_island(
            ispec.name,
            segment,
            pcm_factory=pcm_factory,
            poll_interval=ispec.poll_interval,
            interchange=_INTERCHANGE[ispec.interchange],
        )
        world.pcms[ispec.name] = mm.islands[ispec.name].pcm  # type: ignore[assignment]

    return world
