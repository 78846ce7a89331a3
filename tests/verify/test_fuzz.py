"""Tests for the self-shrinking fuzz harness."""

import hashlib
import json
import random

from repro.experiment import ExperimentSpec
from repro.netsim.router import Router
from repro.verify.fuzz import (
    generate_case,
    run_case,
    run_fuzz,
    shrink_case,
)

# sha256 of the canonical JSON of the first 20 cases of the seed-4
# campaign.  A change that widens the generator or the spec schema
# updates this and says why in CHANGES.md.
CAMPAIGN_PIN = (
    "af50dcb93b12a14b9dae792245eff87bd51d3af07e49b0bb05a6184858ad00da")


def _event_lists(spec):
    faults = spec.faults["events"] if spec.faults is not None else []
    return spec.traffic.events, faults, spec.adversary


def _event_count(spec):
    return sum(len(events) for events in _event_lists(spec))


def _violated(result):
    return {v["invariant"] for v in result.violations}


class TestCaseGeneration:
    def test_same_seed_same_case(self):
        assert generate_case(12345) == generate_case(12345)

    def test_different_seeds_differ(self):
        cases = {generate_case(seed).to_json() for seed in range(10)}
        assert len(cases) == 10

    def test_events_are_time_sorted(self):
        for events, key in zip(_event_lists(generate_case(7)),
                               ("at", "time", "at")):
            times = [e[key] for e in events]
            assert times == sorted(times)

    def test_json_round_trip(self):
        case = generate_case(99)
        assert ExperimentSpec.from_json(case.to_json()) == case

    def test_campaign_cases_are_pinned(self):
        master = random.Random(4)
        seeds = [master.randrange(1 << 31) for _ in range(20)]
        text = json.dumps([generate_case(s).to_dict() for s in seeds],
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == CAMPAIGN_PIN


class TestRunCase:
    def test_same_case_same_result(self):
        case = generate_case(4242)
        first = run_case(case)
        second = run_case(case)
        assert first.digest == second.digest
        assert first.trace_entries == second.trace_entries
        assert first.invariants["checks"] == second.invariants["checks"]
        assert first.violations == second.violations

    def test_case_runs_are_violation_free_and_checked(self):
        case = generate_case(4242)
        result = run_case(case)
        assert result.ok, result.violations
        assert result.invariants["checks"]["no-loop"] > 0
        assert result.invariants["checks"]["termination"] > 0


class TestFuzzLoop:
    def test_short_campaign_finds_nothing(self):
        report = run_fuzz(iterations=5, seed=4)
        assert not report.failed
        assert report.cases_run == 5

    def test_campaign_is_seed_deterministic(self):
        first = run_fuzz(iterations=3, seed=17)
        second = run_fuzz(iterations=3, seed=17)
        assert first.to_dict() == second.to_dict()

    def test_broken_ttl_is_caught_and_shrunk(self, monkeypatch, tmp_path):
        """The acceptance sabotage: a router that forgets to decrement
        TTL must be caught and shrunk to a tiny repro."""
        monkeypatch.setattr(Router, "ttl_decrement", 0)
        out = tmp_path / "repro.json"
        report = run_fuzz(iterations=5, seed=4, out=str(out))
        assert report.failed
        assert any(v["invariant"] == "ttl-decreases"
                   for v in report.violations)
        assert _event_count(report.shrunk_case) <= 10
        # The repro file holds both specs, and the spec loader that
        # `fuzz --repro` and `sweep --spec` share replays the shrunken
        # one to the same violation.
        payload = json.loads(out.read_text())
        assert sorted(payload) == ["original_spec", "spec", "violations"]
        assert payload["spec"] == report.shrunk_case.to_dict()
        assert payload["original_spec"] == report.failing_case.to_dict()
        spec = ExperimentSpec.from_file(str(out))
        assert spec == report.shrunk_case
        assert "ttl-decreases" in _violated(run_case(spec))

    def test_shrinking_preserves_the_target_violation(self, monkeypatch):
        monkeypatch.setattr(Router, "ttl_decrement", 0)
        case = generate_case(4242)
        assert "ttl-decreases" in _violated(run_case(case))
        shrunk = shrink_case(case, "ttl-decreases", max_runs=40)
        assert _event_count(shrunk) <= _event_count(case)
        assert "ttl-decreases" in _violated(run_case(shrunk))
