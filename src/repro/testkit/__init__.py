"""Deterministic simulation-testing harness (FoundationDB-style).

One integer seed fully determines a run: the topology (``TopologyGen``),
the workload script (``WorkloadGen``), and the fault schedule
(``FaultPlanGen``) are all pure data derived from the seed before the
simulation starts; the seed's band (one row of ``bands.BANDS``) weights
those draws and picks the planes replay installs.  ``runner.check`` replays the scripts against a fresh
world and evaluates system-wide invariants (``oracles.InvariantSuite``);
``shrink.shrink_failure`` minimises a failing script to a small repro.

Reproduce any failure with::

    PYTHONPATH=src python -m repro.testkit --seed <seed> --shrink
"""

from repro.testkit.topology import IslandSpec, ServiceSpec, TopologyGen, TopologySpec, World, build_world
from repro.testkit.workload import WorkloadGen, WorkloadOp, WorkloadRunner
from repro.testkit.oracles import InvariantSuite, Violation
from repro.testkit.runner import FaultPlanGen, RunResult, check, generate, replay, sweep
from repro.testkit.shrink import ShrinkResult, shrink_failure

__all__ = [
    "FaultPlanGen",
    "InvariantSuite",
    "IslandSpec",
    "RunResult",
    "ServiceSpec",
    "ShrinkResult",
    "TopologyGen",
    "TopologySpec",
    "Violation",
    "WorkloadGen",
    "WorkloadOp",
    "WorkloadRunner",
    "World",
    "build_world",
    "check",
    "generate",
    "replay",
    "shrink_failure",
    "sweep",
]
