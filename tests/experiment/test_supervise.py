"""Fault tolerance: supervised workers, retries, quarantine, resume.

The executor error paths the anonymous pool could not survive — a
worker exception, a worker SIGKILLed mid-cell, a hung cell — plus the
poison-cell quarantine and checkpoint/resume semantics.  Faults are
injected deterministically through the ``REPRO_SWEEP_FAULT`` hook (the
same one the CI resume-smoke job uses), so every scenario is
reproducible and the determinism bar stays pinned: a sweep that
crashed, hung, retried, and resumed must land the byte-identical
digests of an undisturbed serial run.
"""

import json

import pytest
from jsonl_contract import JsonlWriterContract

from repro.experiment import (
    CellFailedError,
    ExperimentSpec,
    SweepCheckpoint,
    SweepExecutor,
    TrafficProgram,
)
from repro.experiment.supervise import (
    FAULT_ENV,
    InjectedFault,
    describe_exception,
    maybe_inject_fault,
    parse_fault_directives,
)


def _specs(n=4, datagrams=5):
    """N cheap labelled cells with distinct traffic (distinct digests)."""
    return [
        ExperimentSpec(
            seed=1401 + i, label=f"cell-{i}", duration=10.0,
            traffic=TrafficProgram(uniform={
                "datagrams": datagrams + i, "spacing": 0.25, "size": 100,
                "direction": "both"}),
            arm_invariants=True)
        for i in range(n)
    ]


class TestFaultDirectives:
    def test_parse_single(self):
        assert parse_fault_directives("crash:cell-1") == \
            [("crash", "cell-1", 1)]

    def test_parse_times_and_label_with_colons_kept_apart(self):
        assert parse_fault_directives("fail:cell-1:99") == \
            [("fail", "cell-1", 99)]
        # A non-numeric tail stays part of the label.
        assert parse_fault_directives("fail:cell:a") == \
            [("fail", "cell:a", 1)]

    def test_parse_multiple_directives_with_grid_labels(self):
        # Grid labels contain "," and "="; ";" separates directives.
        text = "crash:seed=1,encap=ipip;hang:seed=2,encap=gre:3"
        assert parse_fault_directives(text) == [
            ("crash", "seed=1,encap=ipip", 1),
            ("hang", "seed=2,encap=gre", 3),
        ]

    @pytest.mark.parametrize("bad", ["explode:cell", "crash", "crash:"])
    def test_bad_directives_raise(self, bad):
        with pytest.raises(ValueError, match="bad fault directive"):
            parse_fault_directives(bad)

    def test_inject_fail_raises_while_attempt_below_times(self):
        with pytest.raises(InjectedFault):
            maybe_inject_fault("cell-1", 0, env="fail:cell-1:2")
        with pytest.raises(InjectedFault):
            maybe_inject_fault("cell-1", 1, env="fail:cell-1:2")
        maybe_inject_fault("cell-1", 2, env="fail:cell-1:2")  # retired

    def test_inject_ignores_other_labels_and_empty_env(self):
        maybe_inject_fault("cell-2", 0, env="fail:cell-1")
        maybe_inject_fault("cell-1", 0, env="")
        maybe_inject_fault("", 0, env=None)


class TestDescribeException:
    def test_shape_and_bound(self):
        try:
            raise ValueError("boom " + "x" * 10000)
        except ValueError as exc:
            detail = describe_exception(exc)
        assert detail["type"] == "ValueError"
        assert detail["message"].startswith("boom")
        assert len(detail["traceback"]) <= 4000
        json.dumps(detail)  # JSON-clean


class TestSweepCheckpoint(JsonlWriterContract):
    writer = SweepCheckpoint

    def append_sample(self, checkpoint, n):
        checkpoint.record(f"sha-{n}", {"digest": str(n)})

    def read(self, path):
        completed, torn = SweepCheckpoint.load(str(path))
        return list(completed.values()), torn

    def test_round_trip_last_wins(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with SweepCheckpoint(str(path)) as checkpoint:
            checkpoint.record("sha-a", {"digest": "old"})
            checkpoint.record("sha-b", {"digest": "b"})
            checkpoint.record("sha-a", {"digest": "new"})
        assert checkpoint.appended == 3
        completed, torn = SweepCheckpoint.load(str(path))
        assert torn == 0
        assert completed == {"sha-a": {"digest": "new"},
                             "sha-b": {"digest": "b"}}

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with SweepCheckpoint(str(path)) as checkpoint:
            checkpoint.record("sha-a", {"digest": "a"})
        with open(path, "a") as handle:
            handle.write('{"schema": "something-else"}\n')
            handle.write('{"torn half of a lin')
        completed, torn = SweepCheckpoint.load(str(path))
        assert completed == {"sha-a": {"digest": "a"}}
        assert torn == 2


class TestSupervisedFaultTolerance:
    """The acceptance scenario: crash + hang + poison in one sweep."""

    def test_crash_hang_and_poison_in_one_sweep(self, monkeypatch):
        specs = _specs(4)
        monkeypatch.delenv(FAULT_ENV, raising=False)
        serial = SweepExecutor(jobs=1).run(specs)
        assert len(set(serial.digests())) == 4

        # cell-0: worker SIGKILLs itself once (crash, retry succeeds);
        # cell-1: hangs once (cell timeout reaps it, retry succeeds);
        # cell-2: poison — fails every attempt, must quarantine.
        monkeypatch.setenv(
            FAULT_ENV, "crash:cell-0;hang:cell-1;fail:cell-2:99")
        result = SweepExecutor(
            jobs=2, cell_timeout=5.0, max_retries=1, retry_backoff=0.05,
        ).run(specs)

        assert len(result.results) == 4
        assert result.failed_count == 1
        quarantined = result.failures[0]
        assert quarantined.label == "cell-2"
        assert quarantined.outcome == "failed"
        assert quarantined.failure["reason"] == "exception"
        assert quarantined.failure["attempts"] == 2
        assert quarantined.digest == ""
        # Crash and hang each cost one retry; the poison cell another.
        assert result.retries >= 3
        # Determinism: every non-quarantined cell matches its serial twin.
        survivors = [r.digest for r in result.results if r.failure is None]
        expected = [d for s, d in zip(specs, serial.digests())
                    if s.label != "cell-2"]
        assert survivors == expected
        # No real invariant violations: the sweep is "not ok" only
        # because of the quarantine.
        assert result.violation_count == 0
        assert not result.ok

    def test_strict_cells_fails_fast(self, monkeypatch):
        specs = _specs(3)
        monkeypatch.setenv(FAULT_ENV, "fail:cell-1:99")
        with pytest.raises(CellFailedError, match="cell-1"):
            SweepExecutor(jobs=2, strict_cells=True,
                          retry_backoff=0.05).run(specs)

    def test_failure_events_reach_ledger_and_progress(
            self, tmp_path, monkeypatch):
        from repro.obs.ledger import RunLedger, read_ledger, validate_record

        specs = _specs(3)
        monkeypatch.setenv(FAULT_ENV, "fail:cell-1:99")
        events = []
        path = tmp_path / "ledger.jsonl"
        with RunLedger(str(path)) as ledger:
            result = SweepExecutor(
                jobs=2, max_retries=1, retry_backoff=0.05,
                ledger=ledger, progress=events.append).run(specs)
        assert result.failed_count == 1
        records, skipped = read_ledger(str(path))
        assert skipped == 0
        assert all(validate_record(r) == [] for r in records)
        failed = [r for r in records if r.get("outcome") == "failed"]
        assert len(failed) == 1
        assert failed[0]["label"] == "cell-1"
        assert failed[0]["failure"]["reason"] == "exception"
        assert failed[0]["attempts"] == 2
        failed_events = [e for e in events if e["failed"]]
        assert len(failed_events) == 1
        assert failed_events[0]["failures_total"] == 1
        assert events[-1]["retries_total"] >= 1


class TestInlineFaultTolerance:
    """jobs=1 gets the same retry/quarantine policy, minus timeouts."""

    def test_inline_exception_retries_then_succeeds(self, monkeypatch):
        specs = _specs(2)
        monkeypatch.delenv(FAULT_ENV, raising=False)
        serial = SweepExecutor(jobs=1).run(specs)
        monkeypatch.setenv(FAULT_ENV, "fail:cell-0")
        result = SweepExecutor(jobs=1, retry_backoff=0.05).run(specs)
        assert result.digests() == serial.digests()
        assert result.retries == 1

    def test_inline_poison_quarantines(self, monkeypatch):
        specs = _specs(2)
        monkeypatch.setenv(FAULT_ENV, "fail:cell-0:99")
        result = SweepExecutor(
            jobs=1, max_retries=1, retry_backoff=0.05).run(specs)
        assert result.failed_count == 1
        assert result.failures[0].label == "cell-0"
        assert result.failures[0].failure["attempts"] == 2

    def test_inline_strict_cells_raises(self, monkeypatch):
        specs = _specs(2)
        monkeypatch.setenv(FAULT_ENV, "fail:cell-0:99")
        with pytest.raises(CellFailedError, match="cell-0"):
            SweepExecutor(jobs=1, strict_cells=True).run(specs)


class TestCheckpointResume:
    def test_checkpoint_then_resume_skips_completed_cells(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        specs = _specs(3)
        path = tmp_path / "ck.jsonl"
        with SweepCheckpoint(str(path)) as checkpoint:
            first = SweepExecutor(jobs=1, checkpoint=checkpoint).run(specs)
        completed, torn = SweepCheckpoint.load(str(path))
        assert torn == 0 and len(completed) == 3

        events = []
        resumed = SweepExecutor(
            jobs=1, resume=completed, progress=events.append).run(specs)
        assert resumed.digests() == first.digests()
        assert [e["provenance"] for e in events] == ["checkpoint"] * 3

    def test_partial_checkpoint_reruns_only_missing_cells(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        specs = _specs(3)
        path = tmp_path / "ck.jsonl"
        with SweepCheckpoint(str(path)) as checkpoint:
            first = SweepExecutor(jobs=1, checkpoint=checkpoint).run(specs[:2])
        completed, _ = SweepCheckpoint.load(str(path))
        events = []
        resumed = SweepExecutor(
            jobs=1, resume=completed, progress=events.append).run(specs)
        assert [e["provenance"] for e in sorted(
            events, key=lambda e: e["index"])] == \
            ["checkpoint", "checkpoint", "run"]
        assert resumed.digests()[:2] == first.digests()

    def test_failed_cells_are_not_checkpointed(self, tmp_path, monkeypatch):
        specs = _specs(2)
        monkeypatch.setenv(FAULT_ENV, "fail:cell-0:99")
        path = tmp_path / "ck.jsonl"
        with SweepCheckpoint(str(path)) as checkpoint:
            result = SweepExecutor(
                jobs=1, max_retries=0, checkpoint=checkpoint).run(specs)
        assert result.failed_count == 1
        completed, _ = SweepCheckpoint.load(str(path))
        # Only the healthy cell is journaled: a resume retries cell-0.
        assert len(completed) == 1

    def test_unusable_checkpoint_payload_is_a_miss(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        specs = _specs(1)
        from repro.obs.ledger import spec_content_digest

        bogus = {spec_content_digest(specs[0].to_dict()): {"not": "a result"}}
        result = SweepExecutor(jobs=1, resume=bogus).run(specs)
        # The cell re-ran live instead of crashing on the bad payload.
        assert result.runs == 1
        assert result.results[0].digest
