"""Seeded workload scripts and their deterministic executor.

``WorkloadGen.generate(spec, steps)`` draws a list of :class:`WorkloadOp`
— pure data, derived only from the seed, never from run outcomes — so any
subset of the list replays meaningfully (the shrinker depends on this).

``WorkloadRunner`` schedules the ops on the sim clock, records every
intent the moment it is issued and every outcome the moment its future
settles, and keeps each issued future for the call-completion oracle:
an accepted call must end in exactly one reply or one declared failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import GatewayError
from repro.net.simkernel import SimFuture
from repro.testkit.topology import SimService, TopologySpec, World, service_interface

if TYPE_CHECKING:  # pragma: no cover - bands imports this module
    from repro.testkit.bands import Band

TOPICS = ("alerts", "telemetry", "scene", "motion", "status")

#: Op kinds, in the order a band's ``kinds`` weights them.
KINDS = ("call", "publish", "subscribe", "lookup", "join", "leave")
_OPERATIONS = ("get", "add", "echo", "fail")
_OP_WEIGHTS = (40, 30, 20, 10)


@dataclass(frozen=True)
class WorkloadOp:
    """One scripted client action (pure data)."""

    index: int
    time: float
    kind: str
    island: str  # the island acting as the client
    service: str = ""
    operation: str = ""
    args: tuple[Any, ...] = ()
    topics: tuple[str, ...] = ()
    payload: Any = None

    def describe(self) -> str:
        if self.kind == "call":
            rendered = ", ".join(repr(a) for a in self.args)
            return f"[{self.island}] call {self.service}.{self.operation}({rendered})"
        if self.kind == "publish":
            return f"[{self.island}] publish {self.topics[0]} payload={self.payload!r}"
        if self.kind == "subscribe":
            return f"[{self.island}] subscribe {','.join(self.topics)}"
        if self.kind == "lookup":
            return f"[{self.island}] lookup {self.service}"
        if self.kind == "join":
            return f"[{self.island}] join {self.service}"
        if self.kind == "leave":
            return f"[{self.island}] leave {self.service}"
        return f"[{self.island}] {self.kind}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "time": self.time,
            "kind": self.kind,
            "detail": self.describe(),
        }


class WorkloadGen:
    """Draws a workload script from a topology spec's seed, with op kinds
    weighted by the seed's band (``repro.testkit.bands``)."""

    def generate(self, spec: TopologySpec, steps: int, band: Band) -> list[WorkloadOp]:
        rng = random.Random(f"testkit:workload:{spec.seed}")
        islands = spec.island_names
        # Track the catalog the script *intends* to exist so later ops can
        # target joined services; runtime failures (a leave racing a call)
        # surface as declared errors, which every oracle tolerates.
        alive: dict[str, list[str]] = {
            island.name: list(island.services) for island in spec.islands
        }
        all_services = list(spec.service_names)
        joined: dict[str, int] = {name: 0 for name in islands}
        ops: list[WorkloadOp] = []
        t = 0.0
        for index in range(steps):
            t += rng.uniform(0.05, 1.5)
            kind = rng.choices(KINDS, weights=band.kinds)[0]
            island = rng.choice(islands)
            if kind == "leave" and not alive[island]:
                kind = "publish"  # nothing left to withdraw; stay deterministic
            if kind == "call":
                service = rng.choice(all_services)
                operation = rng.choices(_OPERATIONS, weights=_OP_WEIGHTS)[0]
                args: tuple[Any, ...] = ()
                if operation == "add":
                    args = (rng.randint(1, 100),)
                elif operation == "echo":
                    args = (f"msg-{index}",)
                ops.append(WorkloadOp(index, t, kind, island,
                                      service=service, operation=operation, args=args))
            elif kind == "publish":
                ops.append(WorkloadOp(index, t, kind, island,
                                      topics=(rng.choice(TOPICS),),
                                      payload=rng.randint(0, 999)))
            elif kind == "subscribe":
                topics = tuple(rng.sample(TOPICS, rng.randint(1, 3)))
                ops.append(WorkloadOp(index, t, kind, island, topics=topics))
            elif kind == "lookup":
                if spec.stub_islands and rng.random() < 0.5:
                    # Half the lookups in a world with a seeded stub
                    # catalogue target it: names spread across every
                    # shard, mostly cache-cold, exactly the traffic
                    # sharding exists for.
                    service = f"Svc_stub{rng.randrange(spec.stub_islands)}"
                else:
                    service = rng.choice(all_services + ["Svc_ghost"])
                ops.append(WorkloadOp(index, t, kind, island, service=service))
            elif kind == "join":
                service = f"Svc_{island}_J{joined[island]}"
                joined[island] += 1
                alive[island].append(service)
                all_services.append(service)
                ops.append(WorkloadOp(index, t, kind, island, service=service))
            else:  # leave
                service = rng.choice(alive[island])
                alive[island].remove(service)
                ops.append(WorkloadOp(index, t, kind, island, service=service))
        return ops


class WorkloadRunner:
    """Executes a script against a world, logging intents and outcomes."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.entries: list[dict[str, Any]] = []
        #: (op, future, log entry) for every async op — the call-completion
        #: oracle walks this after quiesce.
        self.pending: list[tuple[WorkloadOp, SimFuture, dict[str, Any]]] = []
        #: (op index, island a VSR lookup resolved to) for the VSR oracle.
        self.lookup_results: list[tuple[int, str]] = []
        self.events_received = 0

    # -- scheduling ----------------------------------------------------------

    def schedule(self, ops: list[WorkloadOp], start: float) -> None:
        for op in ops:
            self.world.sim.at(start + op.time, self._run, op)

    # -- execution -----------------------------------------------------------

    def _run(self, op: WorkloadOp) -> None:
        entry = op.as_dict()
        entry["outcome"] = None
        entry["completed_at"] = None
        self.entries.append(entry)
        gateway = self.world.mm.islands[op.island].gateway
        if op.kind == "publish":
            gateway.publish_event(op.topics[0], op.payload)
            self._complete(entry, "ok:published")
            return
        try:
            future = self._issue(op, gateway)
        except Exception as exc:  # synchronous refusal is a declared failure
            future = SimFuture.failed(exc)
        self.pending.append((op, future, entry))
        future.add_done_callback(lambda done: self._record(op, entry, done))

    def _issue(self, op: WorkloadOp, gateway: Any) -> SimFuture:
        if op.kind == "call":
            return gateway.invoke(op.service, op.operation, list(op.args))
        if op.kind == "subscribe":
            def on_event(topic: str, payload: Any, source: str) -> None:
                self.events_received += 1

            return gateway.subscribe_many(list(op.topics), on_event)
        if op.kind == "lookup":
            return gateway.vsr.find_by_name(op.service)
        if op.kind == "join":
            service = SimService()
            self.world.services[op.service] = service
            self.world.service_island[op.service] = op.island

            def handler(operation: str, args: list) -> Any:
                return getattr(service, operation)(*args)

            try:
                return gateway.export_service(
                    op.service, service_interface(op.service), handler,
                    {"middleware": "testkit"},
                )
            except GatewayError as exc:
                return SimFuture.failed(exc)
        if op.kind == "leave":
            return gateway.withdraw_service(op.service)
        raise ValueError(f"unknown op kind {op.kind!r}")

    # -- recording -----------------------------------------------------------

    def _record(self, op: WorkloadOp, entry: dict[str, Any], done: SimFuture) -> None:
        exc = done.exception()
        if exc is not None:
            self._complete(entry, f"err:{type(exc).__name__}")
            return
        result = done.result()
        if op.kind == "lookup":
            island = getattr(result, "context", {}).get("island", "")
            self.lookup_results.append((op.index, island))
            self._complete(entry, f"ok:doc@{island}")
            return
        self._complete(entry, f"ok:{result!r}")

    def _complete(self, entry: dict[str, Any], outcome: str) -> None:
        entry["outcome"] = outcome
        entry["completed_at"] = self.world.sim.now

    # -- oracle/report surface ----------------------------------------------

    def unresolved(self) -> list[tuple[WorkloadOp, dict[str, Any]]]:
        return [(op, entry) for op, future, entry in self.pending if not future.done()]

    def log_json(self) -> str:
        """Canonical workload log: identical seeds must yield identical bytes."""
        return json.dumps(self.entries, sort_keys=True, separators=(",", ":"))
