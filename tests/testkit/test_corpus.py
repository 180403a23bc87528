"""Fixed seed corpus + opt-in randomized and full-band sweeps.

The corpus pins seeds forever: every oracle must hold on each of them on
every commit.  The sweep (``--testkit-seeds N``) explores fresh seeds
beyond the corpus; CI runs it nightly with N=200, plus the full
persistence and scale bands, and uploads a shrunk repro when a seed
fails (see docs/TESTING.md for how to replay one).
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.testkit import check, shrink_failure, sweep
from repro.testkit.bands import BANDS, BY_NAME

#: Seeds 0-29 of the default band, then the first five seeds of every
#: other band in table order (docs/TESTING.md lists what each band
#: changes).  Never reorder or remove entries; a new band appends its
#: own five.  A corpus seed that starts failing is a regression in the
#: system or a newly-tightened oracle.
CORPUS = list(range(30)) + [seed for band in BANDS[1:] for seed in band.seeds[:5]]

#: Sweep seeds live far above the corpus so the nightly never rechecks
#: what every push already covers.
SWEEP_BASE = 10_000


@pytest.mark.parametrize("seed", CORPUS)
def test_corpus_seed_holds_all_invariants(seed: int) -> None:
    result = check(seed)
    assert result.ok, result.render_repro()


def test_killed_channels_mid_run_keep_all_oracles() -> None:
    """Killing every live push channel mid-workload must not silently
    drop calls, leak pooled connections or unbalance frame accounting —
    the subscriber falls back to polling and later re-establishes."""
    from repro.errors import TransportError
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.testkit.oracles import InvariantSuite
    from repro.testkit.runner import QUIESCE_MARGIN, generate
    from repro.testkit.topology import build_world
    from repro.testkit.workload import WorkloadRunner

    spec, ops, _faults = generate(101)  # push-profile seed, no extra faults
    world = build_world(spec)
    suite = InvariantSuite(world)
    runner = WorkloadRunner(world)
    world.sim.run_until_complete(world.mm.connect())
    start = world.sim.now
    runner.schedule(ops, start)

    killed: list = []

    def kill_live_channels() -> None:
        for island in world.mm.islands.values():
            for channel in list(island.gateway.events._channels.values()):
                channel.kill(TransportError("testkit channel kill"))
                killed.append(channel)

    horizon = max(op.time for op in ops)
    for fraction in (0.4, 0.6, 0.8):
        world.sim.at(start + horizon * fraction, kill_live_channels)

    injector = FaultInjector(world.network, FaultPlan(seed=spec.seed), mm=world.mm).arm()
    end = start + horizon + 1.0
    world.sim.run(until=end)
    world.mm.shutdown()
    world.sim.run(until=end + QUIESCE_MARGIN)

    violations = suite.finish(runner, injector.report())
    assert killed, "no live channels to kill: seed no longer opens any"
    assert violations == [], "\n".join(v.render() for v in violations)


def _fail_with_repro(failures: list, total: int, label: str) -> None:
    """Shrink the first failure to a minimal repro, write it and the
    failing run's black boxes to ``TESTKIT_OUTPUT_DIR`` (where CI picks
    them up as artifacts), and fail the test."""
    first = failures[0]
    shrunk = shrink_failure(first.seed)
    out_dir = os.environ.get("TESTKIT_OUTPUT_DIR")
    if out_dir:
        path = pathlib.Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"repro-seed-{first.seed}.txt").write_text(shrunk.render())
        # Oracle failures trigger every node's flight recorder.
        (path / f"flight-seed-{first.seed}.json").write_text(
            first.flight_dumps_json()
        )
        # Journaled runs also ship every WAL dump (record stream +
        # truncation accounting) for offline replay.
        wal_dumps = first.wal_dumps_json()
        if wal_dumps != "{}":
            (path / f"wal-seed-{first.seed}.json").write_text(wal_dumps)
        # The ring is the routing ground truth: a placement or
        # convergence violation is only debuggable against the exact
        # vnode layout the failing seed drew.
        if first.world.federation is not None:
            (path / f"ring-seed-{first.seed}.json").write_text(
                json.dumps(first.world.federation.ring_dump(), indent=2)
            )
    pytest.fail(
        f"{len(failures)} of {total} {label} seeds failed "
        f"(first: seed={first.seed})\n\n{shrunk.render()}"
    )


@pytest.mark.parametrize("band", list(BY_NAME))
def test_band_full_sweep(band: str) -> None:
    """Every seed of a band, not just its corpus pins.  Opt-in: set
    ``TESTKIT_BAND_SWEEP`` to comma-separated band names (CI sweeps
    ``persistence,scale`` nightly)."""
    if band not in os.environ.get("TESTKIT_BAND_SWEEP", "").split(","):
        pytest.skip(f"{band}-band sweep disabled (add it to TESTKIT_BAND_SWEEP)")
    seeds = list(BY_NAME[band].seeds)
    failures = sweep(seeds)
    if failures:
        _fail_with_repro(failures, len(seeds), f"{band}-band")


def test_sweep_random_seeds(request: pytest.FixtureRequest) -> None:
    count = request.config.getoption("--testkit-seeds")
    if not count:
        pytest.skip("randomized sweep disabled (pass --testkit-seeds N)")
    seeds = list(range(SWEEP_BASE, SWEEP_BASE + count))
    failures = sweep(seeds)
    if failures:
        _fail_with_repro(failures, count, "sweep")
