"""Integration test: Chrome trace_event export of one encapsulated,
fragmented datagram, verified by loading the exported file.

The recipe: a conventional correspondent sends a UDP datagram of
data_size 1462, so the inner packet is 1490 bytes on the wire (20 IP +
8 UDP + 1462) — under the 1500-byte LAN MTU at the correspondent.  The
home agent captures it and IP-in-IP encapsulation adds 20 bytes,
pushing the outer packet to 1510 > 1500, so it fragments on the home
LAN's egress toward the backbone.  The datagram therefore travels
root -> tunnel -> fragmentation, which is exactly the parent/child
chain the exported trace must show.
"""

import json

from repro.analysis import MH_HOME_ADDRESS, build_scenario
from repro.mobileip import Awareness
from repro.obs.spans import chrome_trace, summarize


def _run_fragmented_datagram(tmp_path):
    scenario = build_scenario(seed=424, ch_awareness=Awareness.CONVENTIONAL)
    obs = scenario.sim.enable_observability()
    sock = scenario.mh.stack.udp_socket(7000)
    sock.on_receive(lambda *_: None)
    ch_sock = scenario.ch.stack.udp_socket()
    ch_sock.sendto("big", 1462, MH_HOME_ADDRESS, 7000)
    scenario.sim.run_for(10)
    obs.finish()
    path = tmp_path / "trace.json"
    count = obs.export_chrome_trace(path)
    assert count == len(obs.spans()) + 1  # +1 metadata event
    # One line: a default ``json.dumps`` of the trace and a newline.
    assert path.read_text() == json.dumps(chrome_trace(obs.spans())) + "\n"
    return scenario, obs, path


class TestChromeTraceExport:
    def test_span_links_across_encapsulated_fragmented_datagram(self, tmp_path):
        scenario, obs, path = _run_fragmented_datagram(tmp_path)
        with open(path) as handle:
            trace = json.load(handle)

        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        metadata = [e for e in events if e["ph"] == "M"]
        assert metadata and metadata[0]["name"] == "process_name"

        spans = [e for e in events if e["ph"] == "X"]
        by_id = {e["args"]["span_id"]: e for e in spans}

        # Find the big datagram's fragmentation span and walk up.
        frags = [e for e in spans if e["name"] == "fragmentation"]
        assert len(frags) == 1
        frag = frags[0]
        tunnel = by_id[frag["args"]["parent_id"]]
        assert tunnel["name"] == "tunnel"
        assert tunnel["cat"] == "encap"
        assert tunnel["args"]["node"] == "ha"
        root = by_id[tunnel["args"]["parent_id"]]
        assert root["name"].startswith("datagram-")
        assert root["args"]["parent_id"] is None
        assert root["args"]["delivered"] is True
        assert root["args"]["fragmented"] is True
        assert root["args"]["src"] == str(scenario.ch_ip)
        assert root["args"]["dst"] == str(MH_HOME_ADDRESS)

        # All three share the datagram's trace id as their thread id.
        assert frag["tid"] == tunnel["tid"] == root["tid"]

        # Complete-event timing invariants (microseconds, non-negative).
        for event in (root, tunnel, frag):
            assert event["pid"] == 1
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        # Children start no earlier than the root does.
        assert root["ts"] <= tunnel["ts"] <= frag["ts"]

    def test_overhead_recorded_in_root_args(self, tmp_path):
        _, obs, path = _run_fragmented_datagram(tmp_path)
        with open(path) as handle:
            trace = json.load(handle)
        roots = [e for e in trace["traceEvents"]
                 if e["ph"] == "X" and e["args"]["parent_id"] is None
                 and e["args"].get("fragmented")]
        assert len(roots) == 1
        args = roots[0]["args"]
        # 1490-byte inner plus the 20-byte IPIP outer header.
        assert args["base_bytes"] == 1490
        assert args["max_bytes"] == 1510

    def test_mode_summary_counts_fragmentation(self, tmp_path):
        _, obs, _ = _run_fragmented_datagram(tmp_path)
        summary = summarize(obs.spans())
        assert summary["conventional"]["fragmented"] >= 1
        assert summary["conventional"]["delivered"] >= 1
