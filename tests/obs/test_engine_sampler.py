"""Tests for the engine sampler and the Observability facade."""

import pytest

from repro.analysis import MH_HOME_ADDRESS, build_scenario
from repro.mobileip import Awareness
from repro.netsim.simulator import Simulator
from repro.obs import EngineSampler


class TestEngineSampler:
    def test_cadence_controls_sample_count(self):
        sim = Simulator(seed=3)
        sampler = EngineSampler(sim, cadence=0.5)
        sampler.start()
        sim.run(until=10.0)
        sampler.stop()
        assert len(sampler.samples) == 20
        times = [sample["time"] for sample in sampler.samples]
        assert times[0] == pytest.approx(0.5)
        assert times == sorted(times)

    def test_processed_is_exact_at_each_sample(self):
        # Within one run() each sample counts every event dispatched so
        # far: the workload's timed events plus the sampler's own ticks,
        # the current one included.  A cancelled event never counts.
        sim = Simulator(seed=3)
        times = [0.15 + 0.4 * index for index in range(12)]  # no tick ties
        for time in times:
            sim.events.schedule(time, lambda: None)
        sim.events.schedule(1.0, lambda: None).cancel()
        sampler = EngineSampler(sim, cadence=0.5)
        sampler.start()
        sim.run(until=5.0)
        sampler.stop()
        processed = [sample["processed"] for sample in sampler.samples]
        assert processed == [
            tick + sum(1 for time in times if time < 0.5 * tick)
            for tick in range(1, 11)]
        assert processed[-1] == sim.events.processed == 12 + 10

    def test_invalid_cadence_rejected(self):
        with pytest.raises(ValueError):
            EngineSampler(Simulator(seed=3), cadence=0.0)

    def test_sample_fields(self):
        scenario = build_scenario(seed=31, ch_awareness=Awareness.CONVENTIONAL)
        sampler = EngineSampler(scenario.sim, cadence=1.0)
        sampler.start()
        scenario.sim.run_for(3)
        sampler.stop()
        sample = sampler.samples[-1]
        assert set(sample) >= {"time", "pending", "heap", "cancelled",
                               "cancelled_ratio", "processed", "nodes", "links"}
        assert sample["pending"] == sample["heap"] - sample["cancelled"]
        assert "mh" in sample["nodes"]
        assert "reassembly_pending" in sample["nodes"]["mh"]
        assert any("utilization" in link for link in sample["links"].values())

    def test_link_utilization_reflects_traffic(self):
        scenario = build_scenario(seed=31, ch_awareness=Awareness.CONVENTIONAL)
        sampler = EngineSampler(scenario.sim, cadence=1.0)
        sampler.start()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        ch_sock = scenario.ch.stack.udp_socket()
        for index in range(20):
            scenario.sim.events.schedule(
                index * 0.05,
                lambda: ch_sock.sendto("x", 1000, MH_HOME_ADDRESS, 7000))
        scenario.sim.run_for(2)
        sampler.stop()
        peak = sampler.summary()["peak_link_utilization"]
        assert any(value > 0 for value in peak.values())

    def test_link_samples_carry_queue_fields(self):
        scenario = build_scenario(seed=31, ch_awareness=Awareness.CONVENTIONAL)
        sampler = EngineSampler(scenario.sim, cadence=1.0)
        sampler.start()
        scenario.sim.run_for(2)
        sampler.stop()
        for link in sampler.samples[-1]["links"].values():
            assert "queue_depth" in link
            assert "queue_dropped" in link

    def test_peak_queue_depth_reports_contended_segment(self):
        scenario = build_scenario(
            seed=31, ch_awareness=Awareness.CONVENTIONAL,
            link_bandwidths={"uplink-home": 1.5e6},
            queue_capacities={"uplink-home": 8})
        sampler = EngineSampler(scenario.sim, cadence=0.05)
        sampler.start()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        ch_sock = scenario.ch.stack.udp_socket()
        for index in range(40):
            scenario.sim.events.schedule(
                index * 0.001,
                lambda: ch_sock.sendto("x", 1000, MH_HOME_ADDRESS, 7000))
        scenario.sim.run_for(2)
        sampler.stop()
        peaks = sampler.summary()["peak_queue_depth"]
        assert peaks.get("uplink-home", 0) > 0
        # Uncontended segments are elided from the peak map entirely.
        assert all(depth > 0 for depth in peaks.values())

    def test_max_samples_stops_rescheduling(self):
        sim = Simulator(seed=3)
        sampler = EngineSampler(sim, cadence=0.1, max_samples=5)
        sampler.start()
        # Unbounded run: must terminate because the sampler caps itself.
        sim.run()
        assert len(sampler.samples) == 5

    def test_stop_cancels_timer(self):
        sim = Simulator(seed=3)
        sampler = EngineSampler(sim, cadence=0.5)
        sampler.start()
        sim.run(until=1.0)
        sampler.stop()
        count = len(sampler.samples)
        sim.run(until=5.0)
        assert len(sampler.samples) == count

    def test_empty_summary(self):
        sampler = EngineSampler(Simulator(seed=3), cadence=0.5)
        assert sampler.summary() == {"samples": 0}


class TestObservabilityFacade:
    def test_report_structure(self):
        scenario = build_scenario(seed=32, ch_awareness=Awareness.CONVENTIONAL)
        obs = scenario.sim.enable_observability()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        ch_sock = scenario.ch.stack.udp_socket()
        ch_sock.sendto("x", 100, MH_HOME_ADDRESS, 7000)
        scenario.sim.run_for(3)
        obs.finish()
        report = obs.report()
        assert report["sim_time"] == scenario.sim.now
        assert report["spans"]["count"] >= 1
        assert report["engine"]["summary"]["samples"] >= 1
        assert "node.packets_sent{node=mh}" in report["metrics"]

    def test_finish_is_idempotent(self):
        sim = Simulator(seed=3)
        obs = sim.enable_observability()
        sim.run(until=2.0)
        obs.finish()
        obs.finish()
        assert obs.report()["spans"]["count"] == 0

    def test_spans_disabled_export_raises(self, tmp_path):
        # Spans cannot be switched off any more (they cost nothing until
        # a report folds them), so the old switch is refused, and a run
        # with no datagrams exports only the metadata event.
        sim = Simulator(seed=3)
        with pytest.raises(TypeError):
            sim.enable_observability(spans=False)
        assert sim.obs is None
        obs = sim.enable_observability(engine_cadence=None)
        assert obs.export_chrome_trace(tmp_path / "trace.json") == 1
        assert obs.report()["spans"] == {"count": 0, "per_mode": {}}
        assert "engine" not in obs.report()
