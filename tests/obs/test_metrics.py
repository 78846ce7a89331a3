"""Tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_push_counter_increments(self):
        counter = Counter("c", {})
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_push_counter_rejects_decrease(self):
        counter = Counter("c", {})
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_pull_counter_reads_source(self):
        source = {"n": 0}
        counter = Counter("c", {}, read=lambda: source["n"])
        assert counter.value == 0
        source["n"] = 42
        assert counter.value == 42

    def test_pull_counter_rejects_push(self):
        counter = Counter("c", {}, read=lambda: 0)
        with pytest.raises(RuntimeError):
            counter.inc()


class TestGauge:
    def test_push_gauge_goes_up_and_down(self):
        gauge = Gauge("g", {})
        gauge.set(3.0)
        assert gauge.value == 3.0
        gauge.set(1.0)
        assert gauge.value == 1.0

    def test_pull_gauge_rejects_push(self):
        gauge = Gauge("g", {}, read=lambda: 7)
        assert gauge.value == 7
        with pytest.raises(RuntimeError):
            gauge.set(1.0)


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", {}, (1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", {}, ())

    def test_observe_and_stats(self):
        histogram = Histogram("h", {}, (1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.5, 10.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.min == 0.5
        assert histogram.max == 10.0
        assert histogram.mean == pytest.approx(13.5 / 4)
        # 0.5 -> bucket le=1.0; both 1.5 -> le=2.0; 10.0 -> overflow
        assert histogram.bucket_counts == [1, 2, 0, 1]

    def test_quantile_interpolates(self):
        histogram = Histogram("h", {}, (1.0, 2.0))
        for _ in range(10):
            histogram.observe(1.5)
        p50 = histogram.quantile(0.5)
        assert 1.0 <= p50 <= 2.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_quantile_empty_is_zero(self):
        assert Histogram("h", {}, (1.0,)).quantile(0.5) == 0.0

    def test_snapshot_shape(self):
        histogram = Histogram("h", {"mode": "x"}, (1.0, 2.0))
        histogram.observe(0.5)
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["buckets"][-1]["le"] == "+Inf"
        assert len(snap["buckets"]) == 3
        assert set(snap) >= {"count", "sum", "mean", "min", "max", "p50", "p99"}

    def test_canonical_bucket_sets(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
        assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c", node="a")
        second = registry.counter("c", node="a")
        assert first is second

    def test_same_name_different_labels_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("c", node="a")
        b = registry.counter("c", node="b")
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert registry.total("c") == 5

    def test_reregistration_repoints_read(self):
        registry = MetricsRegistry()
        registry.counter("c", read=lambda: 1, node="a")
        registry.counter("c", read=lambda: 99, node="a")
        assert registry.value("c", node="a") == 99

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", node="a")
        with pytest.raises(TypeError):
            registry.gauge("m", node="a")
        with pytest.raises(TypeError):
            registry.histogram("m", node="a")

    def test_family_and_series_cannot_share_a_name(self):
        # The snapshot keys a family and an unlabelled series alike, so
        # a shared name, in either registration order, would hide one.
        registry = MetricsRegistry()
        registry.counter("x").inc(5)
        with pytest.raises(TypeError, match="x already registered as counter"):
            registry.family("x", lambda: {"a": 1})
        registry.histogram("h", node="a")
        with pytest.raises(TypeError, match="h already registered as histogram"):
            registry.family("h", lambda: {"a": 1})
        registry.family("f", lambda: {"a": 1})
        for register in (registry.counter, registry.gauge, registry.histogram):
            with pytest.raises(TypeError, match="f already registered as family"):
                register("f")
            with pytest.raises(TypeError, match="f already registered as family"):
                register("f", node="a")
        # A registration that failed leaves no series behind to clash.
        with pytest.raises(ValueError):
            registry.histogram("g", bounds=())
        registry.family("g", lambda: {"b": 2})
        assert registry.value("x") == 5
        collected = registry.collect()
        assert (collected["x"], collected["f"], collected["g"]) == (
            5, {"a": 1}, {"b": 2})

    def test_value_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().value("nope", node="a")

    def test_series_yields_labels_and_values(self):
        registry = MetricsRegistry()
        registry.counter("c", read=lambda: 4, node="a")
        registry.counter("c", read=lambda: 6, node="b")
        series = {labels["node"]: value for labels, value in registry.series("c")}
        assert series == {"a": 4, "b": 6}

    def test_family_read(self):
        registry = MetricsRegistry()
        data = {"ttl": 3}
        registry.family("drops", lambda: data)
        assert registry.read_family("drops") == {"ttl": 3}
        assert registry.read_family("missing") == {}

    def test_names_and_collect(self):
        registry = MetricsRegistry()
        registry.counter("z.count", node="a").inc()
        registry.gauge("a.depth", read=lambda: 2, node="a")
        registry.histogram("h.lat", bounds=(1.0,), mode="x").observe(0.5)
        registry.family("f.map", lambda: {"k": 1})
        registry.counter("m", b="2", a="1").inc(3)
        registry.gauge("u", read=lambda: 7)
        assert registry.names() == [
            "a.depth", "f.map", "h.lat", "m", "u", "z.count"]
        collected = registry.collect()
        # One flat object: kind stays on the live metric, labels sort
        # by key into the name, and an unlabelled series is its name.
        assert collected == {
            "a.depth{node=a}": 2,
            "f.map": {"k": 1},
            "h.lat{mode=x}": registry.get("h.lat", mode="x").snapshot(),
            "m{a=1,b=2}": 3,
            "u": 7,
            "z.count{node=a}": 1,
        }
        assert collected["h.lat{mode=x}"]["count"] == 1
        assert registry.get("z.count", node="a").kind == "counter"

    def test_collect_is_json_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", node="a").inc()
        registry.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        json.dumps(registry.collect())
