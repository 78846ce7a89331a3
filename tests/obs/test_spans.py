"""Tests for packet-lifecycle span recording."""

import pytest

from repro.analysis import MH_HOME_ADDRESS, build_scenario
from repro.mobileip import Awareness
from repro.netsim.simulator import Simulator


def _traffic_scenario(seed=901):
    scenario = build_scenario(seed=seed, ch_awareness=Awareness.CONVENTIONAL)
    obs = scenario.sim.enable_observability()
    return scenario, obs


class TestSpanRecorder:
    def test_root_span_per_datagram(self):
        scenario, obs = _traffic_scenario()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        ch_sock = scenario.ch.stack.udp_socket()
        for _ in range(5):
            ch_sock.sendto("x", 100, MH_HOME_ADDRESS, 7000)
            scenario.sim.run_for(1)
        obs.finish()
        roots = [span for span in obs.spans.roots()
                 if span.args.get("dst") == str(MH_HOME_ADDRESS)]
        assert len(roots) == 5
        for root in roots:
            assert root.parent_id is None
            assert root.args.get("delivered") is True
            assert root.end is not None and root.duration > 0

    def test_tunnel_span_nested_under_root(self):
        scenario, obs = _traffic_scenario()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        ch_sock = scenario.ch.stack.udp_socket()
        ch_sock.sendto("x", 100, MH_HOME_ADDRESS, 7000)
        scenario.sim.run_for(5)
        obs.finish()
        root = [span for span in obs.spans.roots()
                if span.args.get("dst") == str(MH_HOME_ADDRESS)][0]
        tree = obs.spans.tree(root.trace_id)
        tunnels = [span for span in tree if span.name == "tunnel"]
        assert len(tunnels) == 1
        assert tunnels[0].parent_id == root.span_id
        assert tunnels[0].node == "ha"
        assert tunnels[0].end is not None
        # The tunnel leg lives inside the root interval.
        assert root.start <= tunnels[0].start <= tunnels[0].end <= root.end

    def test_outgoing_mode_tagging(self):
        scenario, obs = _traffic_scenario()
        ch_sock = scenario.ch.stack.udp_socket(6000)
        ch_sock.on_receive(lambda *_: None)
        mh_sock = scenario.mh.stack.udp_socket()
        mh_sock.sendto("y", 64, scenario.ch_ip, 6000)
        scenario.sim.run_for(5)
        obs.finish()
        modes = {span.args.get("mode") for span in obs.spans.roots()
                 if span.args.get("mode")}
        assert "Out-IE" in modes

    def test_max_bytes_tracks_encapsulation_overhead(self):
        scenario, obs = _traffic_scenario()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        ch_sock = scenario.ch.stack.udp_socket()
        ch_sock.sendto("x", 100, MH_HOME_ADDRESS, 7000)
        scenario.sim.run_for(5)
        obs.finish()
        root = [span for span in obs.spans.roots()
                if span.args.get("dst") == str(MH_HOME_ADDRESS)][0]
        # IPIP adds one 20-byte outer header on the tunneled leg.
        assert root.args["max_bytes"] - root.args["base_bytes"] == 20

    def test_finish_marks_inflight_incomplete(self):
        scenario, obs = _traffic_scenario()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        ch_sock = scenario.ch.stack.udp_socket()
        ch_sock.sendto("x", 100, MH_HOME_ADDRESS, 7000)
        # Stop mid-flight: not enough time to deliver.
        scenario.sim.run_for(0.001)
        obs.finish()
        roots = [span for span in obs.spans.roots()
                 if span.args.get("dst") == str(MH_HOME_ADDRESS)]
        assert roots and roots[0].args.get("incomplete") is True
        assert obs.spans.open_count == 0

    def test_summarize_per_mode(self):
        scenario, obs = _traffic_scenario()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        ch_sock = scenario.ch.stack.udp_socket()
        for _ in range(3):
            ch_sock.sendto("x", 100, MH_HOME_ADDRESS, 7000)
            scenario.sim.run_for(1)
        obs.finish()
        summary = obs.spans.summarize()
        conventional = summary["conventional"]
        assert conventional["delivered"] >= 3
        assert conventional["latency"]["count"] >= 3
        assert conventional["latency"]["mean"] > 0
        assert conventional["overhead_bytes"]["max"] >= 20

    def test_double_attach_rejected(self):
        sim = Simulator(seed=1)
        obs = sim.enable_observability()
        with pytest.raises(RuntimeError):
            obs.spans.attach(sim.trace)

    def test_enable_observability_twice_rejected(self):
        sim = Simulator(seed=1)
        sim.enable_observability()
        with pytest.raises(RuntimeError):
            sim.enable_observability()

    def test_detach_restores_note(self):
        sim = Simulator(seed=1)
        original = sim.trace.note
        obs = sim.enable_observability(engine_cadence=None)
        assert sim.trace.subscribers == [obs.spans.on_event]
        assert sim.trace.note == original      # subscribing rebinds nothing
        obs.disable()
        assert sim.trace.subscribers == []
        assert sim.trace.note == original
        assert "note" not in sim.trace.__dict__


class TestGoldenTraceUnperturbed:
    def test_spans_do_not_change_the_trace(self):
        """Span recording must observe, never perturb, the event stream."""
        from repro.bench.golden import golden_trace_digest

        plain_digest, plain_count = golden_trace_digest(datagrams=20)

        from repro.analysis import scenarios as scenarios_mod
        original = scenarios_mod.build_scenario

        def build_with_obs(*args, **kwargs):
            scenario = original(*args, **kwargs)
            scenario.sim.enable_observability()
            return scenario

        # golden_trace_digest imports build_scenario from repro.analysis.
        import repro.analysis as analysis_mod
        analysis_mod.build_scenario = build_with_obs
        try:
            observed_digest, observed_count = golden_trace_digest(datagrams=20)
        finally:
            analysis_mod.build_scenario = original
        assert observed_digest == plain_digest
        assert observed_count == plain_count
