"""Identical seed => byte-identical run.

This is the property every other testkit promise leans on: a seed printed
by a failing CI job must reproduce the same world, the same workload
outcomes, and the same end-of-run counters on a developer laptop.
"""

from __future__ import annotations

import pytest

from repro.testkit import TopologyGen, WorkloadGen, check
from repro.testkit.bands import BY_NAME
from repro.testkit.runner import FaultPlanGen, generate

SEEDS = [1, 7, 23]


@pytest.mark.parametrize("seed", SEEDS)
def test_workload_log_is_byte_identical(seed: int) -> None:
    first = check(seed)
    second = check(seed)
    assert first.workload_json() == second.workload_json()


@pytest.mark.parametrize("seed", SEEDS)
def test_metric_snapshot_is_byte_identical(seed: int) -> None:
    first = check(seed)
    second = check(seed)
    assert first.metrics_json() == second.metrics_json()


def test_scripts_are_pure_data() -> None:
    """Generation never consults the simulation, so regenerating scripts
    must give structurally equal results without building any world."""
    for seed in SEEDS:
        spec_a, ops_a, faults_a = generate(seed)
        spec_b, ops_b, faults_b = generate(seed)
        assert spec_a == spec_b
        assert ops_a == ops_b
        assert faults_a == faults_b


def test_distinct_seeds_give_distinct_worlds() -> None:
    default = BY_NAME["default"]
    specs = {TopologyGen().generate(seed, default).describe() for seed in range(10)}
    assert len(specs) > 1, "topology generation ignores the seed"


def test_workload_depends_on_seed_not_object_identity() -> None:
    default = BY_NAME["default"]
    spec = TopologyGen().generate(5, default)
    ops_a = WorkloadGen().generate(spec, 40, default)
    ops_b = WorkloadGen().generate(spec, 40, default)
    assert ops_a == ops_b
    faults_a = FaultPlanGen().generate(spec, ops_a, 5, default)
    faults_b = FaultPlanGen().generate(spec, ops_b, 5, default)
    assert faults_a == faults_b
