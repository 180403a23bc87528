#!/usr/bin/env python3
"""Host-cost benchmark of the home-middleware federation.

Run from the root of the repository:

    python3 perfbench/run.py --workload bridged_burst --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics on an untraced run;
``--trace 1`` prints the per-layer metrics instead, from a call-counting
pass (run twice, under PYTHONHASHSEED 0 and 1, which must agree exactly)
and a span-timed pass.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  README.md
describes the workloads, layers and metrics.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: An untraced run measures this many windows of ``--seconds / ROUNDS``
#: each, every one on a world freshly built from the same seed, so every
#: round replays the same virtual run and the heap a round leaves behind
#: does not slow the next.
ROUNDS = 2
#: World builds before each round and once more after the last;
#: ``setup_s`` is the median of all of them, so that it samples the speed
#: of the host across the run rather than in one short burst.
SETUPS = 3
#: Host-time sub-windows per round whose mean p50 is ``op_host_us.p50``:
#: when the host changes speed during a run, the result moves in
#: proportion to the time spent at each speed instead of jumping to
#: whichever held longer.
P50_WINDOWS = 10
#: A shared host drifts in speed, for reasons outside the process (by up
#: to 1.6x over minutes on the 2-core container this was written on).  A
#: measured window therefore pauses every REFERENCE_EVERY_NS to time a
#: fixed reference kernel for REFERENCE_SECONDS (the pause is left out of
#: the window and of every op's latency), and every world build is
#: bracketed by two such samples.  The host-time metrics are scaled from
#: the kernel's speed to REFERENCE_RATE kernel rounds per second, the
#: nominal host.
REFERENCE_EVERY_NS = 250_000_000
REFERENCE_SECONDS = 0.02
REFERENCE_RATE = 1_000_000
#: A run that cannot finish its virtual window in this long is broken.
HARD_LIMIT_S = 120.0
#: Simulator steps between two looks at the host clock.
STEPS_PER_CHECK = 256


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def build_worlds(cls, seed: int, count: int):
    """Build the world ``count`` times; return the last world and, for
    each build, its host seconds and the host's speed around it as a share
    of the nominal host's."""
    builds, world = [], None
    for _ in range(count):
        # Free the previous world first, so that collecting it does not
        # land inside the next build's time.
        world = None
        gc.collect()
        before = reference_rate()
        started = time.perf_counter()
        world = cls(seed)
        world.build()
        seconds = time.perf_counter() - started
        speed = (before + reference_rate()) / 2 / REFERENCE_RATE
        builds.append((seconds, speed))
    return builds, world


def _mix(due: int, seq: int) -> int:
    return (due ^ seq) & 0xFF


def reference_rate() -> float:
    """Rounds per host second of a fixed piece of pure-Python work of the
    kind the simulator does (heap pushes and pops, dict updates, small
    tuples, calls) that uses nothing of ``repro`` and keeps no garbage, so
    that its speed is the host's and not the program's."""
    gc.disable()
    try:
        heap: list[tuple[int, int]] = []
        table: dict[int, int] = {}
        rounds, started = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - started) < REFERENCE_SECONDS:
            for i in range(rounds, rounds + 2000):
                heapq.heappush(heap, ((i * 7919) % 1009, i))
                if len(heap) > 256:
                    due, seq = heapq.heappop(heap)
                    table[due] = table.get(due, 0) + _mix(due, seq)
            rounds += 2000
        return rounds / elapsed
    finally:
        gc.enable()


class Window:
    """One measured window on a freshly built world."""

    def __init__(self, workloads, cls, seed: int, seconds: float, setups: int, tracer=None) -> None:
        self.builds, world = build_worlds(cls, seed, setups)
        self.world = world
        self.virtual_window = world.window
        # Collect the garbage of the builds now rather than in a collection
        # that would land inside the measured window.
        gc.collect()
        sim = world.sim
        recorder = self.recorder = workloads.Recorder(sim)
        # The deterministic metrics cover the ops completed in a fixed
        # virtual window, snapshotted by a simulator event at its end.
        self.snapshot: dict[str, int] = {}
        t0 = sim.now

        def snapshot() -> None:
            self.snapshot = {
                "ops": len(recorder.completed),
                "bytes": world.monitor.total_bytes,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }

        sim.at(t0 + world.window, snapshot)
        if tracer is not None:
            tracer.spans.clear()
            entries0, self0, top0 = list(tracer.entries), list(tracer.self_ns), tracer.top_ns
        recorder.open = True
        world.start(recorder)
        step = sim.step
        #: Reference-kernel speeds sampled through the window.
        self.rates: list[float] = []
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        limit = start + int(HARD_LIMIT_S * 1e9)
        next_sample = start + REFERENCE_EVERY_NS
        while True:
            for _ in range(STEPS_PER_CHECK):
                if not step():
                    raise RuntimeError(f"{world.name}: the simulation ran out of events")
            now = time.perf_counter_ns()
            if now >= deadline and self.snapshot:
                break
            if now >= limit:
                raise RuntimeError(f"{world.name}: virtual window not reached in {HARD_LIMIT_S}s")
            if now >= next_sample:
                self.rates.append(reference_rate())
                paused = time.perf_counter_ns() - now
                recorder.paused_ns += paused
                deadline += paused
                next_sample = now + paused + REFERENCE_EVERY_NS
        # Host times of the window on the recorder's clock, which stops
        # while the reference kernel runs.
        self.start_ns, self.end_ns = start, now - recorder.paused_ns
        recorder.open = False
        world.stop()
        if tracer is not None:
            self.entries = [b - a for a, b in zip(entries0, tracer.entries)]
            self.self_ns = [b - a for a, b in zip(self0, tracer.self_ns)]
            self.top_ns = tracer.top_ns - top0
        self.problems = list(recorder.problems) + world.drain_check()

    @property
    def ops(self) -> int:
        return len(self.recorder.completed)

    def ops_per_s(self) -> float:
        return self.ops / ((self.end_ns - self.start_ns) / 1e9)

    def release(self) -> None:
        """Drop the measured world, so that builds made after the window
        start from the same heap as those made before it."""
        self.world = self.recorder.sim = None
        gc.collect()

    def host_us_parts(self, count: int) -> list[list[float]]:
        """Host latencies in µs, split by completion time into ``count``
        equal host-time sub-windows (empty ones left out)."""
        width = (self.end_ns - self.start_ns) / count
        parts: list[list[float]] = [[] for _ in range(count)]
        for issued, done, _ in self.recorder.completed:
            part = min(int((done - self.start_ns) / width), count - 1)
            parts[part].append((done - issued) / 1e3)
        return [part for part in parts if part]


def host_speed(windows: list[Window]) -> float:
    """The host's mean speed over the windows, as a share of the nominal
    host's."""
    return statistics.fmean(rate for window in windows for rate in window.rates) / REFERENCE_RATE


def end_to_end(windows: list[Window], builds: list[tuple[float, float]],
               scaled: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of the rounds of one run.  Host-time figures
    pool every round and, when ``scaled``, are scaled to the nominal host;
    the deterministic ones come from the first round (every round replays
    the same virtual run)."""
    speed = host_speed(windows) if scaled else 1.0
    setup_s = statistics.median(seconds * (build_speed if scaled else 1.0) for seconds, build_speed in builds)
    first = windows[0]
    virtual_ms = [latency * 1e3 for _, _, latency in first.recorder.completed[: first.snapshot["ops"]]]
    ops = sum(window.ops for window in windows)
    host_s = sum(window.end_ns - window.start_ns for window in windows) / 1e9
    failed = sum(window.recorder.failed for window in windows)
    p50s = [statistics.median(part) for window in windows for part in window.host_us_parts(P50_WINDOWS)]
    # The p99 is taken over the ops of the fixed virtual window of every
    # round: the same ops on every run of a seed, met at the same heap size.
    # Generation-2 collections set the tail (bridged_burst grows its heap
    # with every call), and over a fixed host time a faster host would
    # grow a bigger heap and pause for longer.
    fixed_us = [(done - issued) / 1e3 for window in windows
                for issued, done, _ in window.recorder.completed[: window.snapshot["ops"]]]
    return {
        "ops_per_s": (ops / host_s / speed, "1/s"),
        "op_host_us.p50": (statistics.fmean(p50s) * speed, "us"),
        "op_host_us.p99": (quantile(fixed_us, 99) * speed, "us"),
        "op_virtual_ms.p50": (statistics.median(virtual_ms), "ms"),
        "op_virtual_ms.p99": (quantile(virtual_ms, 99), "ms"),
        "wire_bytes_per_op": (first.snapshot["bytes"] / first.snapshot["ops"], "B"),
        "ok_ratio": ((ops - failed) / ops, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (first.snapshot["rss_kb"] / 1024.0, "MB"),
    }


# -- call-counting pass -----------------------------------------------------------


def public_stats(world) -> dict[str, int]:
    """Work counters read from the public stats and attributes of every
    object of the world, plus the backbone monitor."""
    from repro.core.resilience import ResilientExecutor
    from repro.core.shard import ReplicaSyncAgent
    from repro.core.vsr import VsrClient
    from repro.rules import RuleEngine
    from repro.soap.http import HttpServer
    from repro.store.wal import WalStore

    fields = {
        VsrClient: ("cache_hits", "remote_lookups"),
        ReplicaSyncAgent: ("deltas_pulled",),
        ResilientExecutor: ("attempts", "retries"),
        RuleEngine: ("fired_count", "suppressed_count"),
        WalStore: ("records_appended", "bytes_appended"),
        HttpServer: ("keepalive_reuses", "requests_served"),
    }
    totals = {f"{cls.__name__}.{name}": 0 for cls, names in fields.items() for name in names}
    for obj in gc.get_objects():
        for cls, names in fields.items():
            if isinstance(obj, cls):
                for name in names:
                    totals[f"{cls.__name__}.{name}"] += getattr(obj, name)
    totals["wire.frames"] = world.monitor.total_frames
    totals["events"] = world.events_published()
    return totals


def count_pass(workloads, layers, cls, seed: int) -> dict:
    """Exact per-layer call counts over the last ``count_window`` virtual
    seconds of the workload's virtual window."""
    from repro.net.simkernel import Simulator
    from repro.net.transport import TransportStack
    from repro.soap.http import HttpClient, HttpServer

    world = cls(seed)
    world.build()
    recorder = workloads.Recorder(world.sim)
    recorder.open = True
    world.start(recorder)
    t0 = world.sim.now
    world.sim.run(until=t0 + world.window - world.count_window)
    before, ops0 = public_stats(world), len(recorder.completed)
    counter = layers.CallCounter(
        watch={
            "sim.at": Simulator.at,
            "sim.post": Simulator.post,
            "http.request": HttpClient.request,
            "http.accept": HttpServer._on_connection,
            "transport.send": TransportStack.send_network,
        },
        watch_arg_len={"transport.coalesced": (TransportStack.send_vectored, "frames")},
    )
    with counter:
        world.sim.run(until=t0 + world.window)
    after, ops1 = public_stats(world), len(recorder.completed)
    return {
        "ops": ops1 - ops0,
        "failed": recorder.failed,
        "calls": counter.calls,
        "counters": counter.counters,
        "stats": {key: after[key] - before[key] for key in after},
    }


def count_in_subprocesses(workload: str, seed: int, hash_seeds: tuple[int, ...]) -> list[dict]:
    """Run the call-counting pass once per hash seed, side by side (the
    counts do not depend on timing), and return their results in order."""
    children = [
        subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--count-pass",
             "--workload", workload, "--seed", str(seed)],
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
            stdout=subprocess.PIPE, text=True,
        )
        for hash_seed in hash_seeds
    ]
    results = []
    try:
        for child in children:
            out, _ = child.communicate(timeout=HARD_LIMIT_S)
            if child.returncode != 0:
                raise RuntimeError(f"count pass exited with {child.returncode}")
            results.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    return results


def per_layer(layers, counts: dict, traced: Window, untraced_rate: float) -> dict[str, tuple[float, str]]:
    ops = counts["ops"]
    counters, stats = counts["counters"], counts["stats"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    window_ns = traced.end_ns - traced.start_ns
    for position, layer in enumerate(layers.LAYERS):
        self_ns = traced.self_ns[position]
        if layer == "driver":
            self_ns += window_ns - traced.top_ns
        metrics[f"{layer}.calls_per_op"] = (ratio(counts["calls"][layer], ops), "calls")
        metrics[f"{layer}.entries_per_op"] = (ratio(traced.entries[position], traced.ops), "spans")
        metrics[f"{layer}.self_us_per_op"] = (ratio(self_ns / 1e3, traced.ops), "us")
    coalesced = counters["transport.coalesced"]
    reuses, served = stats["HttpServer.keepalive_reuses"], stats["HttpServer.requests_served"]
    hits, lookups = stats["VsrClient.cache_hits"], stats["VsrClient.remote_lookups"]
    metrics.update({
        "sim.events_per_op": (ratio(counters["sim.at"] + counters["sim.post"], ops), "events"),
        "transport.frames_per_op": (ratio(stats["wire.frames"], ops), "frames"),
        "transport.coalesced_ratio": (ratio(coalesced, coalesced + counters["transport.send"]), "ratio"),
        "http.exchanges_per_op": (ratio(counters["http.request"], ops), "exchanges"),
        "http.connections_per_op": (ratio(counters["http.accept"], ops), "connections"),
        "http.keepalive_reuse_ratio": (ratio(reuses, served), "ratio"),
        "vsr.cache_hit_ratio": (ratio(hits, hits + lookups), "ratio"),
        "vsr.remote_lookups_per_op": (ratio(lookups, ops), "lookups"),
        "vsr.deltas_pulled_per_op": (ratio(stats["ReplicaSyncAgent.deltas_pulled"], ops), "ops"),
        "resilience.attempts_per_op": (ratio(stats["ResilientExecutor.attempts"], ops), "attempts"),
        "resilience.retries_per_op": (ratio(stats["ResilientExecutor.retries"], ops), "retries"),
        "rules.fired_per_event": (ratio(stats["RuleEngine.fired_count"], stats["events"]), "firings"),
        "rules.suppressed_per_event": (ratio(stats["RuleEngine.suppressed_count"], stats["events"]), "firings"),
        "store.appends_per_op": (ratio(stats["WalStore.records_appended"], ops), "records"),
        "store.wal_bytes_per_op": (ratio(stats["WalStore.bytes_appended"], ops), "B"),
        "trace.count_window_ops": (float(ops), "ops"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.traced_ops_per_s": (traced.ops_per_s(), "1/s"),
        "trace.overhead_ratio": (ratio(untraced_rate, traced.ops_per_s()), "x"),
    })
    return metrics


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import layers
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.count_pass:
        print(json.dumps(count_pass(workloads, layers, cls, args.seed)))
        return 0

    if not args.trace:
        windows, builds = [], []
        for _ in range(ROUNDS):
            window = Window(workloads, cls, args.seed, args.seconds / ROUNDS, SETUPS)
            window.release()
            windows.append(window)
            builds += window.builds
        builds += build_worlds(cls, args.seed, SETUPS)[0]
        metrics = end_to_end(windows, builds)
        problems = [problem for window in windows for problem in window.problems]
        for round_, window in enumerate(windows, 1):
            print(f"{args.workload} seed {args.seed} round {round_}: {window.ops} ops in "
                  f"{(window.end_ns - window.start_ns) / 1e9:.2f} host s, "
                  f"{window.snapshot['ops']} in the {window.virtual_window} virtual s window")
        unscaled = end_to_end(windows, builds, scaled=False)
        print(f"host speed {host_speed(windows):.3f} of nominal; unscaled: " + ", ".join(
            f"{name} {unscaled[name][0]:.6g}"
            for name in ("ops_per_s", "op_host_us.p50", "op_host_us.p99", "setup_s")))
        for problem in problems:
            print(f"  incorrect: {problem}")
        attempted = sum(window.ops for window in windows)
        failed = sum(window.recorder.failed for window in windows)
        print_result(failed == 0 and not problems, attempted, failed, metrics)
        return 0

    counts = count_in_subprocesses(args.workload, args.seed, hash_seeds=(0, 1))
    problems = []
    if counts[0] != counts[1]:
        problems.append("call counts differ between PYTHONHASHSEED 0 and 1: "
                        f"{counts[0]['calls']} vs {counts[1]['calls']}")
    untraced = Window(workloads, cls, args.seed, args.seconds / 4, 1)
    tracer = layers.SpanTracer()
    tracer.install()
    traced = Window(workloads, cls, args.seed, args.seconds / 4, 1, tracer=tracer)
    tracer.write(os.path.join(os.getcwd(), ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl"))
    metrics = per_layer(layers, counts[0], traced, untraced.ops_per_s())
    problems += untraced.problems + traced.problems
    for problem in problems:
        print(f"  incorrect: {problem}")
    failed = untraced.recorder.failed + traced.recorder.failed + counts[0]["failed"]
    print_result(not problems and failed == 0, untraced.ops + traced.ops, failed, metrics)
    return 1 if counts[0] != counts[1] else 0


if __name__ == "__main__":
    sys.exit(main())
