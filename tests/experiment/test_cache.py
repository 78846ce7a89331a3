"""Tests for the spec-digest result cache."""

import dataclasses
import json
import pathlib

import pytest

import repro.experiment.cache as cache_mod
from repro.experiment import (
    ExperimentSpec,
    ResultCache,
    Runner,
    SweepExecutor,
    canonical_traffic_spec,
    spec_digest,
)

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _specs(n=3, datagrams=8):
    base = canonical_traffic_spec(datagrams=datagrams)
    return [dataclasses.replace(base, seed=1401 + i, label=f"cell-{i}")
            for i in range(n)]


def _results_json(sweep):
    return json.dumps([r.to_dict() for r in sweep.results], sort_keys=True)


class TestSpecDigest:
    def test_digest_is_stable_for_equal_specs(self):
        a = canonical_traffic_spec(datagrams=5)
        b = canonical_traffic_spec(datagrams=5)
        assert spec_digest(a) == spec_digest(b)

    def test_digest_tracks_spec_content(self):
        a = canonical_traffic_spec(datagrams=5)
        b = dataclasses.replace(a, seed=a.seed + 1)
        assert spec_digest(a) != spec_digest(b)

    def test_digest_tracks_salt(self):
        spec = canonical_traffic_spec(datagrams=5)
        assert spec_digest(spec) != spec_digest(spec, salt="other")


class TestResultCache:
    def test_round_trip(self, tmp_path):
        spec = canonical_traffic_spec(datagrams=6)
        result = Runner().run(spec)
        cache = ResultCache(root=str(tmp_path))
        assert cache.lookup(spec) is None
        cache.store(spec, result)
        hit = cache.lookup(spec)
        assert hit is not None
        assert hit.to_dict() == result.to_dict()
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["stores"] == 1
        assert cache.stats()["bytes_written"] > 0

    def test_spec_content_change_misses(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = canonical_traffic_spec(datagrams=6)
        cache.store(spec, Runner().run(spec))
        changed = dataclasses.replace(spec, seed=spec.seed + 1)
        assert cache.lookup(changed) is None
        assert cache.stats()["misses"] == 1

    def test_salt_change_invalidates(self, tmp_path, monkeypatch):
        spec = canonical_traffic_spec(datagrams=6)
        cache = ResultCache(root=str(tmp_path))
        cache.store(spec, Runner().run(spec))
        key = cache.key_for(spec)
        # Simulate a code-version bump: the stored entry's embedded
        # salt no longer matches the running code.  Pin the key so the
        # lookup actually reaches the stale file.
        monkeypatch.setattr(cache_mod, "CACHE_SALT", "vNext")
        monkeypatch.setattr(ResultCache, "key_for", lambda self, s: key)
        stale = ResultCache(root=str(tmp_path))
        assert stale.lookup(spec) is None
        assert stale.stats()["invalidations"] == 1
        # The stale entry was deleted eagerly.
        assert not (tmp_path / key[:2] / f"{key}.json").exists()

    @pytest.mark.parametrize(
        "garbage", ["{not json", "[]", "1", '"x"'],
        ids=["not-json", "list", "number", "string"])
    def test_corrupt_entry_invalidates(self, tmp_path, garbage):
        spec = canonical_traffic_spec(datagrams=6)
        cache = ResultCache(root=str(tmp_path))
        key = cache.key_for(spec)
        entry = tmp_path / key[:2] / f"{key}.json"
        entry.parent.mkdir()
        entry.write_text(garbage)
        assert cache.lookup(spec) is None
        assert cache.stats()["invalidations"] == 1
        assert cache.stats()["misses"] == 1
        assert not entry.exists()

    def test_failed_results_are_never_cached(self, tmp_path):
        from repro.experiment import failed_result

        cache = ResultCache(root=str(tmp_path))
        spec = _specs(1, datagrams=5)[0]
        cache.store(spec, failed_result(spec, {
            "reason": "exception", "attempts": 3, "message": "boom",
            "history": []}))
        assert cache.stats()["stores"] == 0
        assert cache.lookup(spec) is None

    def test_register_metrics_family(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResultCache(root=str(tmp_path))
        cache.register_metrics(registry)
        spec = canonical_traffic_spec(datagrams=5)
        cache.lookup(spec)
        family = registry.read_family("result_cache")
        assert family["misses"] == 1.0
        assert family["hits"] == 0.0


class TestSweepCaching:
    def test_second_sweep_is_all_hits_and_byte_identical(self, tmp_path):
        specs = _specs(3)
        first = SweepExecutor(
            jobs=1, cache=ResultCache(root=str(tmp_path))).run(specs)
        assert first.cache["misses"] == 3
        assert first.cache["stores"] == 3
        second_cache = ResultCache(root=str(tmp_path))
        second = SweepExecutor(jobs=1, cache=second_cache).run(specs)
        assert second.cache["hits"] == 3
        assert second.cache["misses"] == 0
        assert _results_json(first) == _results_json(second)
        assert "cache 3 hit(s)" in second.render()

    def test_partial_warm_cache_fills_the_gaps(self, tmp_path):
        specs = _specs(3)
        SweepExecutor(
            jobs=1, cache=ResultCache(root=str(tmp_path))).run(specs[:2])
        sweep = SweepExecutor(
            jobs=1, cache=ResultCache(root=str(tmp_path))).run(specs)
        assert sweep.cache["hits"] == 2
        assert sweep.cache["misses"] == 1
        # Results come back in spec order regardless of cache state.
        assert [r.label for r in sweep.results] == [s.label for s in specs]

    def test_no_cache_executor_reports_none(self):
        sweep = SweepExecutor(jobs=1).run(_specs(1))
        assert sweep.cache is None
        assert "cache" not in sweep.render().splitlines()[0]

    def test_cached_cells_still_count_violations(self, tmp_path):
        spec = ExperimentSpec.from_file(
            str(EXAMPLES / "violating_spec.json"))
        first = SweepExecutor(
            jobs=1, cache=ResultCache(root=str(tmp_path))).run([spec])
        assert first.violation_count > 0
        second = SweepExecutor(
            jobs=1, cache=ResultCache(root=str(tmp_path))).run([spec])
        assert second.cache["hits"] == 1
        assert second.violation_count == first.violation_count
        assert not second.ok
