"""The rules seed band: deterministic engines over generated worlds,
plus liveness proof for the two rule oracles."""

from __future__ import annotations

import json

from repro.rules import dsl
from repro.rules.engine import Firing
from repro.testkit import check
from repro.testkit.bands import BY_NAME, band_for
from repro.testkit.oracles import InvariantSuite
from repro.testkit.runner import generate
from repro.testkit.rules_profile import OUT_TOPIC, generate_rules
from repro.testkit.topology import build_world
from repro.testkit.workload import TOPICS

SEED = 201  # rules band: both event- and schedule-triggered rules


class TestBand:
    def test_band_selects_rules_profile(self):
        seeds = BY_NAME["rules"].seeds
        assert band_for(seeds.start).name == "rules"
        assert band_for(seeds.stop - 1).name == "rules"
        assert band_for(seeds.start - 1).name == "push"
        # Seed 300 opens the reactor band (see tests/net/test_reactor.py
        # and the corpus).
        assert band_for(seeds.stop).name == "reactor"


class TestGeneratedRules:
    def test_pure_data_and_serializable(self):
        spec, _ops, _faults = generate(SEED)
        first = generate_rules(spec)
        second = generate_rules(spec)
        assert first == second
        for rules in first.values():
            assert dsl.loads(dsl.dumps(rules)) == rules

    def test_triggers_target_workload_topics_only(self):
        """Generated triggers listen on workload topics (or prefixes of
        them) and never on OUT_TOPIC — rules cannot feed rules."""
        spec, _ops, _faults = generate(SEED)
        for rules in generate_rules(spec).values():
            for rule in rules:
                for trigger in rule.triggers:
                    topic = getattr(trigger, "topic", None)
                    if topic is None:
                        continue
                    assert not OUT_TOPIC.startswith(topic.rstrip("*"))
                    assert any(t.startswith(topic.rstrip("*")) for t in TOPICS)


class TestReplay:
    def test_rules_seed_runs_clean_and_snapshots_engines(self):
        result = check(SEED)
        assert result.ok, result.render_repro()
        snapshot = json.loads(result.metrics_json())
        assert snapshot["rules"], "no rule engines installed on a rules seed"
        totals = sum(section["firings"] for section in snapshot["rules"].values())
        assert totals > 0, "no rule ever fired over the whole run"
        assert any(
            section["schedule_occurrences"] > 0
            for section in snapshot["rules"].values()
        ), "no scheduled occurrence fired"

    def test_identical_seed_identical_schedule_log(self):
        first = check(SEED)
        second = check(SEED)
        assert first.metrics_json() == second.metrics_json()
        logs = lambda r: {  # noqa: E731
            name: engine.schedule_log
            for name, engine in r.world.rule_engines.items()
        }
        assert logs(first) == logs(second)

    def test_engines_stopped_before_shutdown(self):
        result = check(SEED)
        for engine in result.world.rule_engines.values():
            assert not engine._running


class _FakeEngine:
    """Just enough engine surface for the oracle walk."""

    def __init__(self, rules=(), firings=(), schedule_log=(), epoch=0.0):
        self.rules = tuple(rules)
        self.firings = list(firings)
        self.schedule_log = list(schedule_log)
        self.epoch = epoch


def _suite_over_fake(engine) -> list:
    spec, _ops, _faults = generate(0)
    world = build_world(spec)
    suite = InvariantSuite(world)
    world.rule_engines["fake"] = engine
    suite._check_rules()
    return suite.violations


def _firing(rule: str, key: str) -> Firing:
    return Firing(rule=rule, key=key, trigger_kind="event", fired_at=1.0, topic="t")


class TestOracleLiveness:
    def test_rule_dedup_oracle_fires_on_duplicate(self):
        engine = _FakeEngine(firings=[_firing("r", "evt:a:1"), _firing("r", "evt:a:1")])
        violations = _suite_over_fake(engine)
        assert [v.oracle for v in violations] == ["rule-dedup"]

    def test_rule_dedup_oracle_quiet_on_distinct_keys(self):
        engine = _FakeEngine(firings=[_firing("r", "evt:a:1"), _firing("r", "evt:a:2")])
        assert _suite_over_fake(engine) == []

    def test_rule_schedule_oracle_fires_on_drifted_due(self):
        rule = (
            dsl.rule("r").when(dsl.every(5.0, offset=1.0)).then(dsl.invoke("S", "get"))
        ).build()
        bad_due = {"rule": "r", "trigger": 0, "n": 2, "due": 11.5, "fired_at": 11.5}
        late = {"rule": "r", "trigger": 0, "n": 3, "due": 16.0, "fired_at": 16.25}
        engine = _FakeEngine(rules=[rule], schedule_log=[bad_due, late])
        violations = _suite_over_fake(engine)
        assert [v.oracle for v in violations] == ["rule-schedule", "rule-schedule"]

    def test_rule_schedule_oracle_quiet_on_closed_form(self):
        rule = (
            dsl.rule("r").when(dsl.every(5.0, offset=1.0)).then(dsl.invoke("S", "get"))
        ).build()
        good = {"rule": "r", "trigger": 0, "n": 2, "due": 11.0, "fired_at": 11.0}
        engine = _FakeEngine(rules=[rule], schedule_log=[good])
        assert _suite_over_fake(engine) == []
