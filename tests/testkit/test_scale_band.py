"""The scale seed band (sharded directory plane under stub load), plus
liveness proof for the ring-placement and replica-convergence oracles.

Band seeds build a federated directory (4-16 shards × 2-3 replicas),
seed 1k-4k stub registrations straight into the plane after connect, and
drive a lookup-heavy workload against it; the oracles then demand that
every key sits on the shard the ring assigns it and that every live
replica group converged to one canonical state by quiesce.
"""

from __future__ import annotations

import json

import pytest

from repro.soap.wsdl import WsdlDocument
from repro.testkit.bands import BY_NAME, band_for
from repro.testkit.oracles import InvariantSuite
from repro.testkit.runner import check, generate

SEED = 602  # corpus-pinned scale-band seed


@pytest.fixture(scope="module")
def band_result():
    result = check(SEED)
    assert result.ok, result.render_repro()
    return result


class TestBand:
    def test_band_selects_scale_profile(self):
        seeds = BY_NAME["scale"].seeds
        assert band_for(seeds.start).name == "scale"
        assert band_for(seeds.stop - 1).name == "scale"
        assert band_for(seeds.start - 1).name == "persistence"
        assert band_for(seeds.stop).name == "default"

    def test_pinned_seeds_outside_band_unchanged(self):
        """Every older band keeps the legacy single directory."""
        for seed in (0, 7, 100, 200, 300, 400, 500):
            spec, _ops, _faults = generate(seed)
            assert spec.federation_shards == 0
            assert spec.stub_islands == 0

    def test_band_draws_a_sharded_plane(self):
        for seed in range(600, 610):
            spec, _ops, _faults = generate(seed)
            assert spec.federation_shards in (4, 8, 16)
            assert spec.federation_replicas in (2, 3)
            assert spec.stub_islands in (1000, 2000, 4000)
            # Stub islands never heartbeat: the band measures the
            # directory plane, not 4k fake liveness timers.
            assert spec.heartbeat_interval == 0.0
            names = spec.directory_node_names
            assert len(names) == spec.federation_shards * spec.federation_replicas
            assert all(name.startswith("vsr-s") for name in names)


class TestRun:
    def test_stubs_installed_and_spread(self, band_result):
        world = band_result.world
        assert len(world.scale_stubs) == world.spec.stub_islands
        federation = world.federation
        assert federation is not None
        # The ring must actually spread the stub registrations: every
        # shard's primary owns a non-trivial slice.
        for group in federation.replicas:
            assert group[0].directory.service_count > 0

    def test_metrics_snapshot_carries_federation_section(self, band_result):
        snapshot = json.loads(band_result.metrics_json())
        section = snapshot["federation"]
        assert section["shards"] == band_result.world.spec.federation_shards
        assert section["converged"] is True
        for shard_entry in section["per_shard"]:
            assert shard_entry["converged"] is True

    def test_anti_entropy_actually_ran(self, band_result):
        snapshot = json.loads(band_result.metrics_json())
        rounds = sum(
            replica.get("digest_rounds", 0)
            for shard in snapshot["federation"]["per_shard"]
            for replica in shard["replicas"]
        )
        assert rounds > 0, "no replica ever gossiped"

    def test_identical_seed_identical_artifacts(self):
        first = check(SEED)
        second = check(SEED)
        assert first.metrics_json() == second.metrics_json()
        assert first.flight_dumps_json() == second.flight_dumps_json()


def _misplaced_key(federation, shard):
    """A service name the ring does NOT assign to ``shard``."""
    for i in range(10_000):
        name = f"Svc_misplaced{i}"
        if federation.ring.owner(name) != shard:
            return name
    raise AssertionError("ring maps everything to one shard?")


class TestOracleLiveness:
    def test_ring_placement_fires_on_misplaced_document(self):
        result = check(SEED)
        world = result.world
        federation = world.federation
        rogue = _misplaced_key(federation, 0)
        document = WsdlDocument(
            service=rogue,
            location=f"soap://backbone/1:8080/{rogue}",
            context={"island": "stub0"},
        )
        for replica in federation.replicas[0]:
            replica.directory.publish(document)
        suite = InvariantSuite(world)
        suite._check_federation()
        assert "ring-placement" in {v.oracle for v in suite.violations}
        assert any(rogue in v.message for v in suite.violations)

    def test_replica_convergence_fires_on_diverged_replica(self):
        result = check(SEED)
        world = result.world
        federation = world.federation
        rogue = "Svc_diverge"
        federation.replicas[federation.ring.owner(rogue)][1].directory.publish(
            WsdlDocument(
                service=rogue,
                location=f"soap://backbone/1:8080/{rogue}",
                context={"island": "stub0"},
            )
        )
        suite = InvariantSuite(world)
        suite._check_federation()
        assert "replica-convergence" in {v.oracle for v in suite.violations}

    def test_replica_convergence_excuses_dead_replicas(self):
        result = check(SEED)
        world = result.world
        federation = world.federation
        rogue = "Svc_diverge"
        shard = federation.ring.owner(rogue)
        replica = federation.replicas[shard][1]
        replica.directory.publish(
            WsdlDocument(
                service=rogue,
                location=f"soap://backbone/1:8080/{rogue}",
                context={"island": "stub0"},
            )
        )
        replica.node.crash()  # permanently down: it catches up on return
        suite = InvariantSuite(world)
        suite._check_federation()
        assert "replica-convergence" not in {v.oracle for v in suite.violations}
