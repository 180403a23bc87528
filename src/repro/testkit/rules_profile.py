"""Deterministic rule-engine installation for the ``rules`` seed band.

Seeds in [200, 300) (see :mod:`repro.testkit.bands`) host automation
rules over the generated world: a couple of islands each run a
:class:`~repro.rules.engine.RuleEngine` whose rules trigger on the
workload's own publish topics (including prefix patterns) and on
sim-clock schedules, and whose actions invoke the generated ``Svc_*``
services over the ordinary bridged call path.

Like every other testkit script, the rule set is **pure data drawn from
the seed** (``generate_rules(spec)`` never looks at a live world), so a
replayed seed installs byte-identical rules and the schedule-determinism
oracle can recompute every due instant from closed form.
"""

from __future__ import annotations

import random

from repro.rules import dsl
from repro.rules.engine import Rule, RuleEngine
from repro.testkit.topology import TopologySpec, World
from repro.testkit.workload import TOPICS

#: Schedule intervals are drawn from primes-ish gaps so several rules'
#: occurrences interleave rather than stacking on one instant.
_INTERVALS = (3.0, 5.0, 8.0, 13.0)

#: Rule actions publish here — a topic outside the workload's ``TOPICS``
#: and outside every generated trigger, so rules can never feed rules
#: (no event loops regardless of the draw).
OUT_TOPIC = "rules.out"

_ACTION_OPS = ("get", "add", "echo", "fail")
_ACTION_OP_WEIGHTS = (35, 35, 20, 10)


def generate_rules(spec: TopologySpec) -> dict[str, list[Rule]]:
    """Draw the per-island rule sets for a spec (pure data)."""
    rng = random.Random(f"testkit:rules:{spec.seed}")
    hosts = sorted(rng.sample(spec.island_names, min(len(spec.island_names), 2)))
    services = list(spec.service_names)
    plan: dict[str, list[Rule]] = {}
    for host in hosts:
        rules = []
        for slot in range(rng.randint(2, 4)):
            name = f"rule-{host}-{slot}"
            builder = dsl.rule(name)
            if rng.random() < 0.6:
                topic = rng.choice(TOPICS)
                if rng.random() < 0.3:
                    topic = topic[: rng.randint(1, 2)] + "*"
                builder.when(dsl.on_event(topic))
                if rng.random() < 0.4:
                    # Workload payloads are ints in [0, 999]; gate on them.
                    builder.only_if(dsl.payload("").ge(rng.randint(100, 800)))
                builder.cooldown(rng.choice((0.0, 0.0, 1.5, 4.0)))
            else:
                builder.when(
                    dsl.every(
                        rng.choice(_INTERVALS),
                        offset=round(rng.uniform(0.0, 4.0), 3),
                    )
                )
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.15:
                    builder.then(dsl.publish(OUT_TOPIC, rule=name))
                    continue
                operation = rng.choices(_ACTION_OPS, weights=_ACTION_OP_WEIGHTS)[0]
                args: tuple = ()
                if operation == "add":
                    args = (rng.randint(1, 9),)
                elif operation == "echo":
                    args = (name,)
                builder.then(dsl.invoke(rng.choice(services), operation, *args))
            rules.append(builder.build())
        plan[host] = rules
    return plan


def start_rule_engines(world: World) -> None:
    """Build and start one engine per drawn host island, at workload
    start; an engine journals its dedup window when its host carries a
    WAL journal."""
    for host, rules in sorted(generate_rules(world.spec).items()):
        engine = RuleEngine(world.mm.islands[host].gateway)
        for rule in rules:
            engine.add_rule(rule)
        journal = world.journals.get(host)
        if journal is not None:
            engine.attach_journal(journal)
        world.rule_engines[host] = engine
        engine.start()
