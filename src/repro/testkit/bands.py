"""The testkit's seed bands: one table row per band.

A seed's band decides everything a run varies beyond the base draws:
which interchanges islands lean on, how the workload mixes op kinds,
what the topology and fault draws add after the shared base draws, which
planes replay installs, and how long the run settles before shutdown.
``TopologyGen``, ``WorkloadGen``, ``FaultPlanGen`` and ``replay`` read
the row for the seed; none of them knows a band by name.

Every band draws its extras *after* the base draws on the same RNG
stream, so the base prefix of a seed's scripts is the same whatever band
it falls in.  Seeds no row claims (the nightly sweep's 10000+, say) take
the ``default`` row.  Adding a band is one row here plus its five corpus
seeds, which ``tests/testkit/test_corpus.py`` derives from the table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.faults.plan import FaultAction, NodeCrash
from repro.net.simkernel import SimFuture
from repro.testkit.persistence_profile import install_persistence
from repro.testkit.rules_profile import start_rule_engines
from repro.testkit.scale_profile import install_scale
from repro.testkit.telemetry_profile import mount_telemetry
from repro.testkit.topology import TopologySpec, World


@dataclass(frozen=True)
class Band:
    name: str
    seeds: range
    #: Per-island interchange draw: wire name -> weight.
    interchange: dict[str, int]
    #: Workload op-kind weights, in ``workload.KINDS`` order:
    #: call, publish, subscribe, lookup, join, leave.
    kinds: tuple[int, ...]
    #: Runs after the base topology draws and returns the final spec.
    topology: Callable[[random.Random, TopologySpec], TopologySpec] | None = None
    #: Extra faults ``(at, action)``, drawn after the base fault script
    #: over the workload horizon.
    faults: (
        Callable[[random.Random, TopologySpec, float], list[tuple[float, FaultAction]]]
        | None
    ) = None
    #: Replay installers, by phase.  ``after_connect`` may return a future
    #: replay runs to completion before the workload clock starts.
    before_connect: Callable[[World], object] | None = None
    after_connect: Callable[[World], SimFuture | None] | None = None
    at_start: Callable[[World], None] | None = None
    #: Extra virtual seconds the run window gets before shutdown.
    settle: float = 0.0


def _telemetry_floors(rng: random.Random, spec: TopologySpec) -> TopologySpec:
    # Agents need a live registry to snapshot and a heartbeat for the
    # collector's staleness scoring.
    return replace(
        spec, obs_enabled=True, heartbeat_interval=spec.heartbeat_interval or 5.0
    )


def _restart_cycles(
    rng: random.Random, spec: TopologySpec, horizon: float
) -> list[tuple[float, FaultAction]]:
    # Every crash restarts: permanent deaths are covered by the base
    # draws; the band exists to exercise recovery.
    gateways = [name for name in spec.node_names if name.startswith("gw-")]
    cycles: list[tuple[float, FaultAction]] = []
    for _ in range(rng.randint(1, 3)):
        at = rng.uniform(0.0, horizon)
        crash = NodeCrash(
            node=rng.choice(gateways), restart_after=rng.uniform(2.0, 8.0)
        )
        cycles.append((at, crash))
    return cycles


def _federation(rng: random.Random, spec: TopologySpec) -> TopologySpec:
    shards = rng.choice((4, 8, 16))
    replicas = rng.choice((2, 3))
    stubs = rng.choices((1000, 2000, 4000), weights=(50, 35, 15))[0]
    # Thousands of stub registrations sit in the gateway registry:
    # heartbeating them all would drown the band in ping traffic.
    return replace(
        spec,
        federation_shards=shards,
        federation_replicas=replicas,
        stub_islands=stubs,
        heartbeat_interval=0.0,
    )


BANDS = (
    # The historical draw: every pinned corpus and sweep seed replays it.
    Band(
        "default", range(0, 100),
        interchange={"legacy": 40, "keepalive": 25, "fast": 35},
        kinds=(50, 15, 10, 10, 8, 7),
    ),
    # Push-capable islands mixed with legacy ones under a publish-heavy
    # workload: streamed event channels and their polling fallback.
    Band(
        "push", range(100, 200),
        interchange={"legacy": 25, "keepalive": 10, "fast": 20, "push": 45},
        kinds=(20, 45, 20, 5, 5, 5),
    ),
    # Rule engines on a couple of islands (rules_profile).  Trigger events
    # mostly ride push channels; legacy islands keep redelivered events
    # hitting the engines' dedup.  Calls stay frequent enough that rule
    # actions contend with workload traffic.
    Band(
        "rules", range(200, 300),
        interchange={"legacy": 20, "fast": 20, "push": 60},
        kinds=(25, 45, 10, 5, 8, 7),
        at_start=start_rule_engines,
    ),
    # Vectored/pipelined islands against every older wire shape, under a
    # call-heavy mix with a strong publish side: deep RPC pipelines and
    # coalesced event bursts.
    Band(
        "reactor", range(300, 400),
        interchange={"legacy": 15, "fast": 15, "push": 20, "reactor": 50},
        kinds=(45, 30, 10, 5, 5, 5),
    ),
    # Every island streams delta reports to one collector
    # (telemetry_profile), mounted after connect so report channels are
    # open from t=0.  Call-heavy so health windows always have samples;
    # legacy/fast islands put reports on the polling fallback too.
    Band(
        "telemetry", range(400, 500),
        interchange={"legacy": 15, "fast": 20, "push": 45, "reactor": 20},
        kinds=(45, 25, 12, 6, 6, 6),
        topology=_telemetry_floors,
        after_connect=mount_telemetry,
    ),
    # Restart torture: WAL journals on every gateway and the directory
    # (persistence_profile), installed before connect so its
    # registrations are journaled, plus 1-3 crash→restart cycles on
    # gateways amid publish-heavy traffic.  The settle lets a late cold
    # restart (≤ 8s), a channel watchdog round (~35s) and a poll (≤ 5s)
    # land retained redeliveries the durability oracle demands.
    Band(
        "persistence", range(500, 600),
        interchange={"legacy": 20, "fast": 15, "push": 45, "reactor": 20},
        kinds=(20, 45, 20, 5, 5, 5),
        faults=_restart_cycles,
        before_connect=install_persistence,
        settle=90.0,
    ),
    # A sharded, replicated directory under 1k-4k stub islands seeded
    # after connect (scale_profile).  Lookup-heavy, no subscribes, no
    # push: the band measures directory scaling, not event fan-out.  The
    # settle gives anti-entropy (~2s rounds) a few digest→pull cycles
    # after a late replica fault.
    Band(
        "scale", range(600, 700),
        interchange={"legacy": 25, "fast": 40, "reactor": 35},
        kinds=(35, 15, 0, 35, 7, 8),
        topology=_federation,
        after_connect=install_scale,
        settle=30.0,
    ),
)

BY_NAME = {band.name: band for band in BANDS}


def band_for(seed: int) -> Band:
    for band in BANDS:
        if seed in band.seeds:
            return band
    return BANDS[0]


def journaled(band: Band) -> Band:
    """``band`` with the persistence row's journals and settle on top."""
    persistence = BY_NAME["persistence"]
    if band is persistence:
        return band
    return replace(
        band,
        before_connect=persistence.before_connect,
        settle=band.settle + persistence.settle,
    )
