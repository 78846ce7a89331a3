"""Tests for the streaming run ledger (:mod:`repro.obs.ledger`)."""

import json

import pytest
from jsonl_contract import JsonlWriterContract

from repro.experiment import Runner, canonical_traffic_spec
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    read_ledger,
    render_ledger_markdown,
    run_record,
    spec_content_digest,
    summarize_ledger,
    sweep_end_record,
    sweep_start_record,
    validate_record,
)


@pytest.fixture(scope="module")
def small_result():
    """One small live run, shared read-only across the module."""
    return Runner().run(canonical_traffic_spec(datagrams=5))


class TestRecordBuilders:
    def test_run_record_validates_and_carries_the_run(self, small_result):
        record = run_record(small_result)
        assert validate_record(record) == []
        assert record["schema"] == LEDGER_SCHEMA
        assert record["kind"] == "run"
        assert record["outcome"] == "ok"
        assert record["provenance"] == "run"
        assert record["digest"] == small_result.digest
        assert record["seed"] == small_result.seed
        assert set(record["timings"]) == {
            "build", "arm", "drive", "collect", "total"}
        assert record["spec_sha256"] == spec_content_digest(small_result.spec)
        assert record["deliverability"]["delivered"] > 0
        assert "fast_forward" not in record
        assert record["flightrec"] is None  # recorder was not armed

    def test_cache_provenance_and_timestamp_override(self, small_result):
        record = run_record(small_result, provenance="cache", ts=123.5)
        assert validate_record(record) == []
        assert record["provenance"] == "cache"
        assert record["ts"] == 123.5

    def test_sweep_bookend_records_validate(self):
        start = sweep_start_record(total=4, jobs=2, cache=True)
        end = sweep_end_record(
            completed=4, total=4, elapsed=1.5, violation_count=0, cache=None)
        assert validate_record(start) == []
        assert validate_record(end) == []
        assert start["kind"] == "sweep-start"
        assert end["kind"] == "sweep-end"

    def test_spec_content_digest_is_canonical(self):
        a = {"x": 1, "y": [2, 3]}
        b = {"y": [2, 3], "x": 1}
        assert spec_content_digest(a) == spec_content_digest(b)
        assert spec_content_digest(a) != spec_content_digest({"x": 2})
        assert len(spec_content_digest(a)) == 64


class TestValidation:
    def test_rejects_non_dict(self):
        assert validate_record([1, 2]) != []
        assert validate_record(None) != []

    def test_rejects_wrong_schema_and_unknown_kind(self):
        record = sweep_start_record(total=1, jobs=1, cache=False)
        record["schema"] = "something/else"
        assert any("schema" in e for e in validate_record(record))
        record = sweep_start_record(total=1, jobs=1, cache=False)
        record["kind"] = "mystery"
        assert any("kind" in e for e in validate_record(record))

    def test_reports_missing_and_mistyped_fields(self, small_result):
        record = run_record(small_result)
        del record["digest"]
        record["seed"] = "not-an-int"
        errors = validate_record(record)
        assert any("digest" in e for e in errors)
        assert any("seed" in e for e in errors)

    def test_bool_does_not_pass_as_int(self):
        # bool is an int subclass; the schema must still reject it
        # where an actual count is required.
        record = sweep_start_record(total=True, jobs=1, cache=False)
        assert any("total" in e for e in validate_record(record))

    def test_outcome_and_provenance_vocabulary(self, small_result):
        record = run_record(small_result)
        record["outcome"] = "meh"
        record["provenance"] = "psychic"
        errors = validate_record(record)
        assert any("outcome" in e for e in errors)
        assert any("provenance" in e for e in errors)

    def test_optional_fields_validate_when_present(self, small_result):
        # Fault-tolerance fields are schema-optional: pre-existing
        # ledgers without them stay valid, new ones are type-checked.
        record = run_record(small_result, attempts=2)
        record["failure"] = {"reason": "timeout"}
        assert validate_record(record) == []
        record["attempts"] = "two"
        assert any("attempts" in e for e in validate_record(record))
        record["attempts"] = True  # bool must not pass as int
        assert any("attempts" in e for e in validate_record(record))
        end = sweep_end_record(
            completed=1, total=2, elapsed=0.5, violation_count=0,
            cache=None, interrupted=True, failed=1)
        assert validate_record(end) == []
        assert end["interrupted"] is True
        assert end["failed"] == 1

    def test_failed_outcome_is_valid(self, small_result):
        record = run_record(small_result)
        record["outcome"] = "failed"
        assert validate_record(record) == []
        record["provenance"] = "checkpoint"
        assert validate_record(record) == []


class TestRunLedger(JsonlWriterContract):
    writer = RunLedger

    def append_sample(self, ledger, n):
        ledger.append(sweep_start_record(total=n, jobs=1, cache=False))

    def read(self, path):
        return read_ledger(str(path))

    def test_append_read_round_trip(self, tmp_path, small_result):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(str(path)) as ledger:
            ledger.append(sweep_start_record(total=2, jobs=1, cache=False))
            ledger.append(run_record(small_result, ts=1.0))
            ledger.append(run_record(small_result, provenance="cache", ts=2.0))
            ledger.append(sweep_end_record(
                completed=2, total=2, elapsed=0.5, violation_count=0,
                cache=None))
            assert ledger.appended == 4
        records, skipped = read_ledger(str(path))
        assert skipped == 0
        assert [r["kind"] for r in records] == [
            "sweep-start", "run", "run", "sweep-end"]
        for record in records:
            assert validate_record(record) == []
        # Every line is one complete JSON document.
        assert len(path.read_text().strip().splitlines()) == 4

    def test_append_rejects_invalid_records(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(str(path)) as ledger:
            with pytest.raises(ValueError, match="invalid ledger record"):
                ledger.append({"kind": "run"})
        assert not path.exists() or path.read_text() == ""


class TestSummarizeAndRender:
    def _records(self, small_result):
        ok = run_record(small_result, ts=10.0)
        slow = run_record(small_result, provenance="cache", ts=11.0)
        bad = run_record(small_result, ts=12.0)
        bad["outcome"] = "violations"
        bad["violation_count"] = 2
        bad["violations"] = [
            {"invariant": "ttl-decreases", "time": 1.0, "node": "r1",
             "trace_id": 7, "message": "boom"},
            {"invariant": "ttl-decreases", "time": 2.0, "node": "r1",
             "trace_id": 8, "message": "boom"},
        ]
        bad["label"] = "bad-cell"
        return [
            sweep_start_record(total=3, jobs=1, cache=True, ts=9.5),
            ok, slow, bad,
            sweep_end_record(completed=3, total=3, elapsed=2.5,
                             violation_count=2, cache={"hits": 1}, ts=12.5),
        ]

    def test_summary_aggregates(self, small_result):
        summary = summarize_ledger(self._records(small_result))
        assert summary["records"] == 5
        assert summary["runs"] == 3
        assert summary["sweeps"] == 1
        assert summary["outcomes"] == {"ok": 2, "violations": 1, "failed": 0}
        assert summary["provenance"] == {"run": 2, "cache": 1,
                                         "checkpoint": 0}
        assert summary["failures"] == []
        assert summary["retries"] == 0
        assert summary["interrupted_sweeps"] == 0
        assert summary["cache_hit_rate"] == pytest.approx(1 / 3)
        assert summary["timed_runs"] == 3
        assert summary["phase_totals"]["total"] > 0
        assert summary["phase_means"]["drive"] > 0
        assert len(summary["slowest"]) == 3
        index = summary["violation_index"]
        assert index["ttl-decreases"]["count"] == 2
        assert index["ttl-decreases"]["labels"] == ["bad-cell"]
        assert summary["wall"]["elapsed"] == pytest.approx(3.0)

    def test_summary_of_empty_ledger(self):
        summary = summarize_ledger([])
        assert summary["runs"] == 0
        assert summary["cache_hit_rate"] == 0.0
        assert summary["slowest"] == []

    def test_markdown_rendering(self, small_result):
        summary = summarize_ledger(self._records(small_result))
        text = render_ledger_markdown(summary)
        assert text.startswith("# Run-ledger report")
        assert "## Phase-time breakdown" in text
        assert "## Slowest cells" in text
        assert "## Cache efficacy" in text
        assert "## Violation index" in text
        assert "`ttl-decreases`" in text
        # Markdown survives a JSON round trip (report --json contract).
        assert json.loads(json.dumps(summary)) == summary

    def test_markdown_without_violations(self, small_result):
        summary = summarize_ledger([run_record(small_result)])
        text = render_ledger_markdown(summary)
        assert "No invariant violations recorded." in text
