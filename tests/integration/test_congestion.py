"""Integration: the congestion scenario exercises real link contention.

A throttled, shallow-queued ``uplink-home`` bottleneck must actually
overflow, and the In-IE cell (every datagram dog-legs through the home
agent, crossing the bottleneck twice) must pay visibly more latency and
lose more goodput than the direct-path cells that route around it once
the correspondent learns the care-of binding.
"""

import pytest

from repro.analysis.congestion import (
    BOTTLENECK_SEGMENT,
    congestion_spec,
    run_congestion,
)
from repro.experiment import ExperimentSpec, Runner


@pytest.fixture(scope="module")
def report():
    return run_congestion(seed=1402, datagrams=200)


class TestCongestionScenario:
    def test_bottleneck_overflows_and_everything_is_accounted(self, report):
        assert report.total_queue_dropped > 0
        assert report.violation_count == 0
        for cell in report.cells:
            lost = sum(cell.losses_by_reason.values())
            assert cell.sent - cell.received <= lost + cell.queue_dropped

    def test_indirect_path_pays_more_latency_than_direct(self, report):
        indirect = report.cell("In-IE")
        direct = report.cell("In-DH")
        # p99 is not compared: the direct cell's tail still holds the
        # pre-binding datagrams that crossed the bottleneck before the
        # care-of advisory landed.
        assert indirect.latency_mean > direct.latency_mean
        assert indirect.latency_p50 > direct.latency_p50

    def test_indirect_path_loses_goodput_to_overflow(self, report):
        indirect = report.cell("In-IE")
        direct = report.cell("In-DH")
        assert indirect.goodput < direct.goodput
        assert indirect.queue_dropped > 0
        assert indirect.losses_by_reason.get("queue-overflow", 0) > 0

    def test_ranking_prefers_direct_paths(self, report):
        ranked = [cell.mode for cell in report.ranked()]
        assert ranked[-1] == "In-IE"

    def test_peak_queue_depth_lands_on_the_bottleneck(self, report):
        # The exact high-water mark: every cell's train fills the
        # bottleneck queue before the binding (if any) is learned.
        for cell in report.cells:
            assert cell.peak_queue_depth == 8
            assert cell.bottleneck_busy > 0

    @pytest.mark.parametrize("mode", ["In-IE", "In-DE", "In-DH"])
    def test_cell_spec_replays_alone(self, report, mode):
        spec = congestion_spec(mode, seed=1402, datagrams=200)
        result = Runner().run(ExperimentSpec.from_json(spec.to_json()))
        assert result.digest == report.cell(mode).digest

    def test_report_renders(self, report):
        table = report.render()
        assert BOTTLENECK_SEGMENT in table
        for cell in report.cells:
            assert cell.mode in table
