"""Tests for grid expansion and the (parallel) sweep executor."""

import pathlib

import pytest

from repro.experiment import (
    ExperimentSpec,
    SpecError,
    SpecGrid,
    SweepExecutor,
    canonical_traffic_spec,
    demo_grid,
)


def _small_grid(datagrams=8):
    """A 16-spec grid cheap enough to run twice in one test."""
    base = canonical_traffic_spec(datagrams=datagrams).to_dict()
    del base["label"]
    return SpecGrid(
        base=base,
        axes={
            "seed": [1401, 1996],
            "awareness": ["conventional", "decap-capable"],
            "visited_filtering": [True, False],
            "encap": ["ipip", "minimal"],
        },
    )


class TestSpecGrid:
    def test_expansion_order_is_nested_loops(self):
        grid = SpecGrid(axes={"seed": [1, 2], "encap": ["ipip", "gre"]})
        specs = grid.expand()
        assert len(grid) == len(specs) == 4
        assert [(s.seed, s.encap) for s in specs] == [
            (1, "ipip"), (1, "gre"), (2, "ipip"), (2, "gre")]

    def test_labels_name_coordinates(self):
        specs = SpecGrid(axes={"seed": [7], "encap": ["gre"]}).expand()
        assert specs[0].label == "seed=7,encap=gre"

    def test_base_label_wins(self):
        specs = SpecGrid(base={"label": "fixed"},
                         axes={"seed": [1, 2]}).expand()
        assert [s.label for s in specs] == ["fixed", "fixed"]

    def test_json_round_trip(self):
        grid = _small_grid()
        clone = SpecGrid.from_json(grid.to_json())
        assert clone.to_dict() == grid.to_dict()
        assert [s.to_dict() for s in clone.expand()] == \
            [s.to_dict() for s in grid.expand()]

    @pytest.mark.parametrize("data,match", [
        ({"axes": {"warp_factor": [1]}}, "not an experiment-spec field"),
        ({"axes": {"seed": []}}, "non-empty list"),
        ({"axes": {"seed": 5}}, "non-empty list"),
        ({"base": {"bogus": 1}}, "unknown spec fields"),
        ({"base": [], "axes": {}}, "must be an object"),
        ({"extra": {}}, "unknown fields"),
    ])
    def test_bad_grid_raises(self, data, match):
        with pytest.raises(SpecError, match=match):
            SpecGrid.from_dict(data)

    def test_grid_base_retired_field_is_dropped(self):
        # Grid files written while the flow replay engine existed.
        legacy = SpecGrid.from_dict({"base": {"fast_forward": True},
                                     "axes": {"seed": [1, 2]}})
        assert legacy.to_dict() == {"base": {}, "axes": {"seed": [1, 2]}}
        assert [s.seed for s in legacy.expand()] == [1, 2]
        with pytest.raises(SpecError, match="fast_forward"):
            SpecGrid.from_dict({"base": {"fast_forward": 1}})

    def test_expansion_validates_each_cell(self):
        grid = SpecGrid(axes={"encap": ["ipip", "smoke-signals"]})
        with pytest.raises(SpecError, match="unknown encap"):
            grid.expand()

    def test_demo_grid_covers_sixteen_plus_cells(self):
        specs = demo_grid().expand()
        assert len(specs) >= 16
        assert all(s.arm_invariants for s in specs)
        assert len({s.label for s in specs}) == len(specs)


class TestSweepExecutor:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepExecutor(jobs=0)

    def test_serial_sweep_preserves_spec_order(self):
        specs = _small_grid().expand()[:4]
        result = SweepExecutor(jobs=1).run(specs)
        assert [r.label for r in result.results] == \
            [s.label for s in specs]
        assert result.jobs == 1
        assert result.runs == 4
        assert result.elapsed > 0

    def test_parallel_digests_match_serial(self):
        # The PR's determinism bar: a fixed-seed sweep over >= 16
        # specs yields byte-identical per-run trace digests whether
        # run inline or across a 4-worker spawn pool.
        specs = _small_grid().expand()
        assert len(specs) == 16
        serial = SweepExecutor(jobs=1).run(specs)
        parallel = SweepExecutor(jobs=4).run(specs)
        assert serial.digests() == parallel.digests()
        assert [r.label for r in parallel.results] == \
            [s.label for s in specs]
        # The grid genuinely varies the world: distinct digests exist.
        assert len(set(serial.digests())) > 1

    def test_demo_grid_slice_is_clean_across_workers(self):
        # Every demo-grid cell arms the invariant monitor, so ``ok``
        # means these cells ran in workers with no violation.
        specs = demo_grid(seeds=[1996], datagrams=20).expand()[:4]
        result = SweepExecutor(jobs=2).run(specs)
        assert result.runs == 4
        assert result.ok

    def test_violations_surface_in_sweep_result(self):
        bad = canonical_traffic_spec(
            datagrams=5, arm_invariants=True, max_tunnel_depth=0)
        result = SweepExecutor(jobs=1).run([bad])
        assert not result.ok
        assert result.violation_count > 0

    def test_render_mentions_every_label(self):
        specs = _small_grid().expand()[:2]
        rendered = SweepExecutor(jobs=1).run(specs).render()
        assert "sweep: 2 runs" in rendered
        for spec in specs:
            assert spec.label[:44] in rendered

    def test_result_dict_is_json_clean(self):
        import json

        result = SweepExecutor(jobs=1).run(_small_grid().expand()[:2])
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["runs"] == 2
        assert len(payload["results"]) == 2

    def test_zero_elapsed_result_round_trips_as_json(self):
        # Regression: runs_per_sec was runs/elapsed, so elapsed == 0
        # produced float("inf") and json.dumps emitted the non-standard
        # "Infinity" token into --json-out.
        import json

        from repro.experiment.sweep import SweepResult

        empty = SweepResult(results=[], jobs=1, elapsed=0.0)
        payload = json.loads(json.dumps(empty.to_dict()))
        assert payload["runs_per_sec"] == 0.0
        assert json.loads(
            json.dumps(payload)) == payload  # strictly valid JSON

    def test_quarantined_cell_surfaces_in_dict_and_render(self):
        import json

        from repro.experiment import failed_result
        from repro.experiment.sweep import SweepResult

        spec = canonical_traffic_spec(datagrams=5)
        failed = failed_result(spec, {
            "reason": "timeout", "attempts": 3,
            "message": "cell exceeded 2.0s wall clock", "history": []})
        result = SweepResult(results=[failed], jobs=2, elapsed=1.0,
                             retries=2)
        assert result.failed_count == 1
        assert not result.ok
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["failed"] == 1
        assert payload["retries"] == 2
        assert payload["failures"][0]["reason"] == "timeout"
        rendered = result.render()
        assert "1 quarantined" in rendered
        assert "FAILED" in rendered
        assert "timeout after 3 attempt(s)" in rendered

    def test_single_spec_skips_the_pool(self):
        # jobs>1 with one spec must not pay spawn cost; digest still
        # matches the inline path.
        spec = canonical_traffic_spec(datagrams=5)
        inline = SweepExecutor(jobs=1).run([spec])
        fanned = SweepExecutor(jobs=4).run([spec])
        assert inline.digests() == fanned.digests()


class TestSpecFieldCoverage:
    def test_grid_axes_accept_any_spec_field(self):
        # Guard: every public spec field can be an axis name.
        for name in ExperimentSpec.__dataclass_fields__:
            SpecGrid(axes={name: [getattr(ExperimentSpec(), name)]})


class TestExampleFiles:
    """The committed example grid/spec files stay loadable and honest."""

    EXAMPLES = (pathlib.Path(__file__).resolve().parent.parent.parent
                / "examples")

    def test_grid_4x4_expands_to_sixteen_plus_cells(self):
        grid = SpecGrid.from_file(str(self.EXAMPLES / "grid_4x4.json"))
        specs = grid.expand()
        assert len(specs) >= 16
        assert all(s.arm_invariants for s in specs)
        # It is exactly the worked demo grid the CLI runs by default.
        assert grid.to_dict() == demo_grid().to_dict()

    def test_violating_spec_violates(self):
        spec = ExperimentSpec.from_file(
            str(self.EXAMPLES / "violating_spec.json"))
        assert spec.arm_invariants and spec.max_tunnel_depth == 0
        result = SweepExecutor(jobs=1).run([spec])
        assert result.violation_count > 0


class TestSweepTelemetry:
    """The parent-side hooks: progress stream, ledger, flight dumps."""

    def _specs(self, n=3, datagrams=5):
        base = canonical_traffic_spec(datagrams=datagrams).to_dict()
        del base["label"]
        return SpecGrid(
            base=base, axes={"seed": [1401 + i for i in range(n)]},
        ).expand()

    def test_progress_events_stream_per_cell(self):
        events = []
        executor = SweepExecutor(jobs=1, progress=events.append)
        result = executor.run(self._specs(3))
        assert len(events) == result.runs == 3
        assert [e["completed"] for e in events] == [1, 2, 3]
        assert all(e["total"] == 3 for e in events)
        final = events[-1]
        assert final["completed"] == final["total"]
        assert final["eta_sec"] == 0.0
        for event in events:
            assert {"index", "label", "digest", "cache_hit", "violations",
                    "elapsed", "cells_per_sec", "eta_sec", "cache_hits",
                    "cache_hit_rate", "violations_total"} <= set(event)
            assert event["cache_hit"] is False

    def test_ledger_records_bookend_the_sweep(self, tmp_path):
        from repro.experiment import ResultCache
        from repro.obs.ledger import RunLedger, read_ledger, validate_record

        specs = self._specs(2)
        cache = ResultCache(str(tmp_path / "cache"))
        path = tmp_path / "ledger.jsonl"
        with RunLedger(str(path)) as ledger:
            SweepExecutor(jobs=1, cache=cache, ledger=ledger).run(specs)
            # Warm second pass: every cell should land as a cache hit.
            SweepExecutor(jobs=1, cache=cache, ledger=ledger).run(specs)
        records, skipped = read_ledger(str(path))
        assert skipped == 0
        assert [r["kind"] for r in records] == [
            "sweep-start", "run", "run", "sweep-end",
            "sweep-start", "run", "run", "sweep-end"]
        assert all(validate_record(r) == [] for r in records)
        assert [r["provenance"] for r in records if r["kind"] == "run"] == [
            "run", "run", "cache", "cache"]
        assert records[3]["cache"]["misses"] == 2
        assert records[7]["cache"]["hits"] == 2

    def test_per_cell_flightrec_paths(self):
        executor = SweepExecutor(flightrec_path="out/flightrec.json")
        assert executor._cell_flightrec_path(7, 16) == \
            "out/flightrec-007.json"
        assert executor._cell_flightrec_path(0, 1) == "out/flightrec.json"
        assert SweepExecutor()._cell_flightrec_path(7, 16) is None

    def test_violating_sweep_dumps_per_cell_flightrecs(self, tmp_path):
        base = canonical_traffic_spec(
            datagrams=5, arm_invariants=True, max_tunnel_depth=0).to_dict()
        del base["label"]
        specs = SpecGrid(base=base, axes={"seed": [1401, 1402]}).expand()
        path = tmp_path / "flightrec.json"
        executor = SweepExecutor(jobs=1, flightrec_path=str(path))
        result = executor.run(specs)
        assert result.violation_count > 0
        dumps = result.flightrec_dumps()
        assert dumps == [
            str(tmp_path / "flightrec-000.json"),
            str(tmp_path / "flightrec-001.json")]
        for dump in dumps:
            assert pathlib.Path(dump).exists()
