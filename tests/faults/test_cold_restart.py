"""Cold crash→restart recovery: stale-epoch interlocks and the restart
matrix (crash-point × interchange).

A *cold* crash (journal attached) models real process death: volatile
state and sockets die, the WAL survives.  These tests pin the two
hazards that class of fault exposed:

- async continuations issued before the crash (a registry lookup, a poll
  reply) landing *after* it and touching the closed store or resurrecting
  poll loops from the dead epoch; and
- recovery itself — after every crash point, on every interchange, the
  gateway must re-announce to the directory, resume serving, and leave
  exactly one black-box dump behind.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import GatewayError
from repro.faults.plan import NodeCrash
from repro.testkit.persistence_profile import install_persistence
from repro.testkit.bands import band_for
from repro.testkit.runner import check, generate, replay
from repro.testkit.topology import IslandSpec, TopologySpec, build_world
from repro.testkit.workload import WorkloadGen


def two_island_spec(seed: int, interchange: str) -> TopologySpec:
    return TopologySpec(
        seed=seed,
        islands=(
            IslandSpec(
                name="alpha",
                kind="jini",
                services=("Svc_alpha_0", "Svc_alpha_1"),
                interchange=interchange,
                poll_interval=1.0,
            ),
            IslandSpec(
                name="beta",
                kind="upnp",
                services=("Svc_beta_0",),
                interchange=interchange,
                poll_interval=1.0,
            ),
        ),
        obs_enabled=True,
        deadline=10.0,
        max_retries=1,
        breaker_threshold=0,
        heartbeat_interval=5.0,
    )


class TestStaleEpochInterlocks:
    """Satellite: continuations from before a cold crash must not touch
    the dead epoch's journal or poll loops."""

    def test_subscribe_in_flight_across_cold_crash_settles_declared(self):
        spec = two_island_spec(seed=9_590, interchange="legacy")
        world = build_world(spec)
        install_persistence(world)
        world.sim.run_until_complete(world.mm.connect())
        gateway = world.mm.islands["alpha"].gateway
        journal = world.journals["alpha"]

        # Issue a subscription, then kill the process while the registry
        # lookup is still on the wire.
        future = gateway.events.subscribe("tk/topic", lambda event: None)
        assert not future.done()
        gateway.node.crash()
        gateway.on_crash()
        records_at_crash = journal.store.records_appended

        # Restart the node but do NOT recover yet: the store stays closed,
        # exactly the window where a stale success used to append to it.
        world.sim.run(until=world.sim.now + 2.0)
        gateway.node.restart()
        world.sim.run(until=world.sim.now + 30.0)

        assert future.done()
        assert isinstance(future.exception(), GatewayError)
        # Nothing from the dead epoch reached the WAL.
        assert journal.store.records_appended == records_at_crash
        assert gateway.events._poll_timers == {}

    def test_poll_loops_resume_in_the_new_epoch(self):
        spec = two_island_spec(seed=9_591, interchange="legacy")
        world = build_world(spec)
        install_persistence(world)
        world.sim.run_until_complete(world.mm.connect())
        gateway = world.mm.islands["alpha"].gateway

        future = gateway.events.subscribe("tk/topic", lambda event: None)
        world.sim.run(until=world.sim.now + 5.0)
        assert future.result() == 1  # beta accepted

        generation = gateway.events._delivery_generation
        gateway.node.crash()
        gateway.on_crash()
        world.sim.run(until=world.sim.now + 3.0)
        gateway.node.restart()
        gateway.recover()
        assert gateway.events._delivery_generation > generation

        polls_at_recovery = gateway.events.polls_performed
        world.sim.run(until=world.sim.now + 10.0)
        assert gateway.events.polls_performed > polls_at_recovery, (
            "restarted gateway never resumed polling its remote peer"
        )

    def test_previously_failing_sweep_seeds_stay_fixed(self):
        """Regression pins: these band seeds crashed on stale-epoch
        continuations (closed-store appends, mispaired pipelined replies
        decoded as poll batches) before the interlocks landed."""
        for seed in (532, 550, 573):
            result = check(seed)
            assert result.ok, result.render_repro()


class TestRestartMatrix:
    """Satellite: crash-point × interchange matrix.  Every cell must
    re-announce to the VSR, recover health, and leave exactly one
    black-box dump for the crash."""

    @pytest.mark.parametrize("interchange", ("legacy", "push", "reactor"))
    @pytest.mark.parametrize("crash_fraction", (0.3, 0.7))
    def test_cold_restart_recovers(self, interchange: str, crash_fraction: float):
        # Seed inside the persistence band so replay() attaches journals;
        # distinct per cell so fault RNG streams never collide.
        seed = 590
        spec = two_island_spec(seed=seed, interchange=interchange)
        ops = WorkloadGen().generate(spec, 25, band_for(seed))
        horizon = max(op.time for op in ops)
        victim = "alpha"
        faults = [
            (
                horizon * crash_fraction,
                NodeCrash(node=f"gw-{victim}", restart_after=4.0),
            )
        ]
        result = replay(spec, ops, faults)
        assert result.error == ""
        assert result.ok, result.render_repro()

        # Exactly one cold crash, recovered.
        persistence = json.loads(result.metrics_json())["persistence"]
        assert persistence[victim]["cold_crashes"] == 1
        assert persistence[victim]["recoveries"] == 1

        # Exactly one black box for the one crash.
        reasons = [dump["reason"] for dump in result.world.flight[victim].dumps]
        assert reasons.count("node-crash") == 1

        # Re-announced: the directory lists the victim again, and its own
        # journal agrees it holds a live registration.
        directory = result.world.mm.uddi.directory
        assert victim in directory.gateways()
        state = result.world.journals[victim].replay()
        assert state["registered"] is not None
        assert state["registered"][0] == victim

        # Healthy: the node is back up, the gateway serves again.
        gateway = result.world.mm.islands[victim].gateway
        assert gateway.node.alive
        assert not gateway.down
