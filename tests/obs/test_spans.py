"""Tests for packet-lifecycle spans, folded from the trace after a run."""

import pytest

from repro.analysis import MH_HOME_ADDRESS, build_scenario
from repro.mobileip import Awareness
from repro.netsim.simulator import Simulator
from repro.netsim.trace import TraceEntry
from repro.obs.spans import datagrams, summarize


def _traffic_scenario(seed=901):
    scenario = build_scenario(seed=seed, ch_awareness=Awareness.CONVENTIONAL)
    obs = scenario.sim.enable_observability()
    return scenario, obs


def _roots(spans, dst=None):
    return [span for span in spans if span.parent_id is None
            and (dst is None or span.args.get("dst") == dst)]


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
        roots = _roots(obs.spans(), str(MH_HOME_ADDRESS))
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
        spans = obs.spans()
        root = _roots(spans, str(MH_HOME_ADDRESS))[0]
        tree = [span for span in spans if span.trace_id == root.trace_id]
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
        modes = {span.args.get("mode") for span in _roots(obs.spans())
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
        root = _roots(obs.spans(), str(MH_HOME_ADDRESS))[0]
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
        spans = obs.spans()
        roots = _roots(spans, str(MH_HOME_ADDRESS))
        assert roots and roots[0].args.get("incomplete") is True
        assert roots[0].end == scenario.sim.now
        assert all(span.end is not None for span in spans)

    def test_summarize_per_mode(self):
        scenario, obs = _traffic_scenario()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        ch_sock = scenario.ch.stack.udp_socket()
        for _ in range(3):
            ch_sock.sendto("x", 100, MH_HOME_ADDRESS, 7000)
            scenario.sim.run_for(1)
        obs.finish()
        summary = summarize(obs.spans())
        assert obs.report()["spans"]["per_mode"] == summary
        conventional = summary["conventional"]
        assert conventional["delivered"] >= 3
        assert conventional["latency"]["count"] >= 3
        assert conventional["latency"]["mean"] > 0
        assert conventional["overhead_bytes"]["max"] >= 20

    def test_double_attach_rejected(self):
        # Nothing attaches: the spans are a fold of the kept trace, so
        # asking twice gives the same trees, and a second arming of the
        # same run is still refused.
        scenario, obs = _traffic_scenario()
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        scenario.ch.stack.udp_socket().sendto("x", 100, MH_HOME_ADDRESS, 7000)
        scenario.sim.run_for(5)

        def shape(spans):
            return [(s.span_id, s.parent_id, s.name, s.start, s.end, s.args)
                    for s in spans]

        first = shape(obs.spans())
        assert first and shape(obs.spans()) == first
        with pytest.raises(RuntimeError):
            scenario.sim.enable_observability()
        assert shape(obs.spans()) == first

    def test_enable_observability_twice_rejected(self):
        sim = Simulator(seed=1)
        sim.enable_observability()
        with pytest.raises(RuntimeError):
            sim.enable_observability()

    def test_detach_restores_note(self):
        # Observability subscribes nothing and rebinds nothing, so there
        # is nothing to detach.
        sim = Simulator(seed=1)
        original = sim.trace.note
        sim.enable_observability(engine_cadence=None)
        assert sim.trace.subscribers == []
        assert sim.trace.note == original
        assert "note" not in sim.trace.__dict__

    def test_spans_start_at_the_arming_index(self):
        scenario = build_scenario(seed=901,
                                  ch_awareness=Awareness.CONVENTIONAL)
        sim = scenario.sim
        before = {entry.trace_id for entry in sim.trace.entries}
        assert before  # registration ran while the scenario was built
        start = len(sim.trace.entries)
        obs = sim.enable_observability(engine_cadence=None)
        sock = scenario.mh.stack.udp_socket(7000)
        sock.on_receive(lambda *_: None)
        scenario.ch.stack.udp_socket().sendto("x", 100, MH_HOME_ADDRESS, 7000)
        sim.run_for(5)
        spans = obs.spans()
        after = {entry.trace_id for entry in sim.trace.entries[start:]}
        assert {span.trace_id for span in spans} == after
        assert [s.span_id for s in spans] == list(range(1, len(spans) + 1))
        assert len(datagrams(sim.trace.entries, sim.now)) > len(spans)


def _entry(time, node, action, trace_id, wire_size=100, proto="UDP",
           detail=""):
    return TraceEntry(time, node, action, proto, trace_id,
                      f"10.0.0.{trace_id}", "10.9.0.1", wire_size, detail)


# Hand-written entries, interleaved across four trace ids:
#   10: Out-IE mode, a tunnel (ha..fa) holding a tunnel (x..y), then a
#       fragmentation inside the outer tunnel whose IPIP ``deliver`` at
#       fa closes the fragments but not the root; delivered at mh;
#   20: dropped at gw, and a later forward of it is ignored;
#   30: sent twice (one resend), still inside a tunnel at the end;
#   40: first seen at a forward (it was sent before the fold's start).
FOLD_ENTRIES = [
    _entry(0.0, "a", "send", 10),
    _entry(0.5, "b", "send", 20, wire_size=50),
    _entry(1.0, "a", "mode-select", 10, detail="Out-IE"),
    _entry(1.0, "ha", "encapsulate", 10, 120, "IPIP", "ipip to fa"),
    _entry(1.1, "r1", "forward", 20, wire_size=50),
    _entry(1.2, "x", "encapsulate", 10, 140, "IPIP", "ipip to y"),
    _entry(1.3, "r1", "forward", 10, 140, "IPIP"),
    _entry(1.4, "y", "decapsulate", 10, 120, "IPIP"),
    _entry(1.5, "gw", "drop", 20, wire_size=50, detail="filter"),
    _entry(1.6, "gw", "forward", 20, wire_size=50),
    _entry(1.7, "fa", "fragment", 10, 120, "IPIP", "into 2 pieces (mtu 100)"),
    _entry(1.8, "fa", "deliver", 10, 120, "IPIP"),
    _entry(1.9, "fa", "decapsulate", 10),
    _entry(2.0, "mh", "deliver", 10),
    _entry(2.1, "mh", "forward", 10),
    _entry(2.2, "c", "send", 30, wire_size=60),
    _entry(2.5, "c", "send", 30, wire_size=60),
    _entry(2.6, "r1", "forward", 30, wire_size=60),
    _entry(2.7, "ha", "encapsulate", 30, 80, "IPIP", "ipip to fa"),
    _entry(3.0, "r2", "forward", 40),
    _entry(3.1, "h", "deliver", 40),
]


class TestDatagramsFold:
    @pytest.fixture
    def spans(self):
        return datagrams(FOLD_ENTRIES, end=5.0)

    def test_ids_and_parents_follow_open_order(self, spans):
        assert [(s.span_id, s.parent_id, s.trace_id, s.name, s.cat)
                for s in spans] == [
            (1, None, 10, "datagram-10", "packet"),
            (2, None, 20, "datagram-20", "packet"),
            (3, 1, 10, "tunnel", "encap"),
            (4, 3, 10, "tunnel", "encap"),
            (5, 3, 10, "fragmentation", "frag"),
            (6, None, 30, "datagram-30", "packet"),
            (7, 6, 30, "tunnel", "encap"),
            (8, None, 40, "datagram-40", "packet"),
        ]

    def test_each_span_ends_where_it_closed(self, spans):
        assert [(s.node, s.start, s.end, s.args["end_node"])
                for s in spans] == [
            ("a", 0.0, 2.0, "mh"),     # delivered, not closed by IPIP
            ("b", 0.5, 1.5, "gw"),     # the drop
            ("ha", 1.0, 1.9, "fa"),    # outer tunnel: second decapsulate
            ("x", 1.2, 1.4, "y"),      # inner tunnel: first decapsulate
            ("fa", 1.7, 1.8, "fa"),    # reassembled at the IPIP deliver
            ("c", 2.2, 5.0, "c"),      # in flight at the end
            ("ha", 2.7, 5.0, "ha"),
            ("r2", 3.0, 3.1, "h"),
        ]

    def test_root_args(self, spans):
        roots = {s.trace_id: list(s.args.items()) for s in spans
                 if s.parent_id is None}
        assert roots[10] == [
            ("src", "10.0.0.10"), ("dst", "10.9.0.1"),
            ("base_bytes", 100), ("max_bytes", 140), ("mode", "Out-IE"),
            ("hops", 1), ("fragmented", True), ("delivered", True),
            ("end_node", "mh"),
        ]
        assert roots[20] == [
            ("src", "10.0.0.20"), ("dst", "10.9.0.1"),
            ("base_bytes", 50), ("max_bytes", 50), ("hops", 1),
            ("dropped", "filter"), ("end_node", "gw"),
        ]
        assert roots[30] == [
            ("src", "10.0.0.30"), ("dst", "10.9.0.1"),
            ("base_bytes", 60), ("max_bytes", 80), ("resends", 1),
            ("hops", 1), ("incomplete", True), ("end_node", "c"),
        ]
        assert roots[40] == [
            ("src", "10.0.0.40"), ("dst", "10.9.0.1"),
            ("base_bytes", 100), ("max_bytes", 100), ("hops", 1),
            ("delivered", True), ("end_node", "h"),
        ]

    def test_child_args_carry_the_trace_detail(self, spans):
        assert [s.args.get("detail") for s in spans
                if s.parent_id is not None] == [
            "ipip to fa", "ipip to y", "into 2 pieces (mtu 100)",
            "ipip to fa"]


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
