"""Tests for the violation flight recorder (:mod:`repro.obs.flightrec`)."""

import json
import pathlib

import pytest

from repro.experiment import (
    Runner,
    SpecGrid,
    SweepExecutor,
    canonical_traffic_spec,
)
from repro.netsim.addressing import IPAddress
from repro.netsim.node import Node
from repro.netsim.packet import IPProto, Packet
from repro.netsim.simulator import Simulator
from repro.obs.flightrec import (
    DEFAULT_FLIGHT_LIMIT,
    FLIGHTREC_SCHEMA,
    FlightRecorder,
)
from repro.obs.ledger import RunLedger

# The canonical-workload digest pinned by tests/experiment/test_runner
# and tests/netsim/test_golden_trace — telemetry must never move it.
GOLDEN_DIGEST = "6c91661118a78681dfe5624d953ae85bb5a3f6e3b7e88fc4d166a9a121cf8a8f"
GOLDEN_ENTRIES = 3618


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _packet(trace_id):
    return Packet(src=IPAddress("10.0.0.1"), dst=IPAddress("10.0.0.2"),
                  proto=IPProto.UDP, payload_size=100, trace_id=trace_id)


def _eager_reprs(trace):
    """Subscribe a collector of ``repr(packet)`` taken at each event."""
    reprs = []
    trace.subscribe(lambda entry, packet: reprs.append(repr(packet)))
    return reprs


class TestRing:
    def test_ring_is_bounded_and_keeps_the_tail(self, sim):
        recorder = FlightRecorder(sim, limit=4)
        recorder.attach(sim.trace)
        for index in range(10):
            sim.trace.note(float(index), "n", "send", _packet(index))
        assert recorder.recorded == 10
        entries = recorder.entries()
        assert len(entries) == 4
        assert [e["trace_id"] for e in entries] == [6, 7, 8, 9]
        assert entries[-1]["packet"] == (
            "Packet(10.0.0.1->10.0.0.2 UDP 120B ttl=64)")

    def test_limit_must_be_positive(self, sim):
        with pytest.raises(ValueError, match="limit"):
            FlightRecorder(sim, limit=0)

    def test_default_limit(self, sim):
        recorder = sim.enable_flight_recorder()
        assert recorder.limit == DEFAULT_FLIGHT_LIMIT

    def test_trace_stream_is_unmodified(self, sim):
        recorder = FlightRecorder(sim, limit=8)
        recorder.attach(sim.trace)
        sim.trace.note(1.0, "n", "send", _packet(1), "hi")
        assert len(sim.trace.entries) == 1
        assert sim.trace.entries[0].detail == "hi"
        assert recorder.entries()[0]["detail"] == "hi"


class TestRenderAtDump:
    """The dump renders each packet from the headers frozen at its
    event; the text must equal an eager ``repr`` taken then."""

    def test_worked_grid_cell_renders_like_eager_repr(
        self, tmp_path, monkeypatch
    ):
        grid = SpecGrid.from_file(str(EXAMPLES / "grid_4x4.json"))
        spec = next(cell for cell in grid.expand()
                    if cell.awareness == "conventional"
                    and cell.visited_filtering)
        collectors = []
        arm = Simulator.enable_flight_recorder

        def arm_then_collect(sim, **kwargs):
            # The collector subscribes right after the recorder, before
            # the clock starts.
            recorder = arm(sim, **kwargs)
            collectors.append(_eager_reprs(sim.trace))
            return recorder

        monkeypatch.setattr(Simulator, "enable_flight_recorder",
                            arm_then_collect)
        runner = Runner(flightrec_path=str(tmp_path / "fr.json"),
                        flightrec_limit=10_000)
        runner.run(spec)
        (reprs,) = collectors
        recorder = runner.scenario.sim.flightrec
        assert recorder.recorded == len(reprs) == 759
        assert [e["packet"] for e in recorder.entries()] == reprs

    def test_source_routed_packet_renders_its_destination_then(
        self, two_domain_net
    ):
        # A loose source route re-addresses the packet after its
        # earlier events (Node._local_deliver).
        sim, net, a, ip_a, b, ip_b = two_domain_net
        relay = Node("relay", sim)
        relay_ip = net.add_host("a", relay)
        recorder = sim.enable_flight_recorder(limit=10_000)
        reprs = _eager_reprs(sim.trace)
        packet = Packet(src=ip_a, dst=relay_ip, proto=IPProto.UDP,
                        payload="x", payload_size=100, source_route=(ip_b,))
        a.ip_send(packet)
        sim.run(until=10)
        rendered = [e["packet"] for e in recorder.entries()]
        assert rendered == reprs
        assert packet.dst == ip_b
        assert rendered[0] == f"Packet({ip_a}->{relay_ip} UDP 128B ttl=64)"


class TestAttachment:
    def test_attach_detach_restores_class_method(self, sim):
        # Attaching adds one subscriber and rebinds nothing.  Nothing
        # detaches: a run's subscribers live as long as its world.
        trace = sim.trace
        recorder = FlightRecorder(sim, limit=4)
        recorder.attach(trace)
        assert "note" not in trace.__dict__     # a subscriber, not a rebind
        assert trace.subscribers == [recorder._record]
        assert not hasattr(recorder, "detach")

    def test_attach_composes_with_an_earlier_subscriber(self, sim):
        # Another observer (the invariant monitor) may already be
        # subscribed; both stay, in arming order.
        trace = sim.trace
        seen = []

        def earlier(entry, packet):
            seen.append(entry.action)

        trace.subscribe(earlier)
        recorder = FlightRecorder(sim, limit=4)
        recorder.attach(trace)
        trace.note(1.0, "n", "send", _packet(1))
        assert seen == ["send"]
        assert recorder.recorded == 1
        assert trace.subscribers == [earlier, recorder._record]

    def test_double_attach_and_double_enable_raise(self, sim):
        recorder = sim.enable_flight_recorder(limit=4)
        with pytest.raises(RuntimeError):
            recorder.attach(sim.trace)
        with pytest.raises(RuntimeError, match="already enabled"):
            sim.enable_flight_recorder()

    def test_detach_is_idempotent(self, sim):
        # Nothing detaches; a refused second attach leaves exactly one
        # subscription, so each event is recorded once.
        recorder = FlightRecorder(sim, limit=4)
        recorder.attach(sim.trace)
        with pytest.raises(RuntimeError):
            recorder.attach(sim.trace)
        assert sim.trace.subscribers == [recorder._record]
        sim.trace.note(1.0, "n", "send", _packet(1))
        assert recorder.recorded == 1


class TestDump:
    def test_dump_payload_and_atomicity(self, tmp_path, sim):
        recorder = FlightRecorder(sim, limit=4)
        recorder.attach(sim.trace)
        sim.segment("lan")
        sim.trace.note(1.0, "n", "send", _packet(3))
        path = tmp_path / "deep" / "flightrec.json"
        returned = recorder.dump(
            str(path), reason="unit-test",
            violations=[{"invariant": "x", "trace_id": 3}])
        assert returned == str(path)
        assert recorder.dumps == 1
        payload = json.loads(path.read_text())
        assert payload["schema"] == FLIGHTREC_SCHEMA
        assert payload["reason"] == "unit-test"
        assert payload["limit"] == 4
        assert payload["recorded"] == 1
        assert payload["entries"][-1]["trace_id"] == 3
        assert payload["violations"][0]["invariant"] == "x"
        engine = payload["engine"]
        assert set(engine) == {"clock", "events", "nodes", "segments"}
        assert engine["segments"]["lan"]["up"] is True
        # No leftover temp file from the write-then-rename.
        assert list(path.parent.iterdir()) == [path]


class TestRunnerIntegration:
    def test_violating_run_dumps_the_violating_datagram(self, tmp_path):
        path = tmp_path / "flightrec.json"
        spec = canonical_traffic_spec(
            datagrams=5, arm_invariants=True, max_tunnel_depth=0)
        runner = Runner(flightrec_path=str(path))
        result = runner.run(spec)
        info = result.extras["flightrec"]
        assert info["armed"] is True
        assert info["dumped"] is True
        assert info["reason"] == "invariant-violation"
        assert info["path"] == str(path)
        payload = json.loads(path.read_text())
        assert payload["reason"] == "invariant-violation"
        assert payload["violations"]
        # The ring's recent entries include the violating datagram.
        violating_ids = {v["trace_id"] for v in payload["violations"]}
        ring_ids = {e["trace_id"] for e in payload["entries"]}
        assert violating_ids & ring_ids
        # Engine state was captured live, with mobility bindings.
        assert payload["engine"]["nodes"]["ha"]["bindings"]

    def test_clean_run_arms_but_does_not_dump(self, tmp_path):
        path = tmp_path / "flightrec.json"
        runner = Runner(flightrec_path=str(path), flightrec_limit=32)
        result = runner.run(canonical_traffic_spec(datagrams=5))
        info = result.extras["flightrec"]
        assert info == {
            "armed": True, "limit": 32, "recorded": info["recorded"],
            "path": None, "dumped": False, "reason": None,
        }
        assert info["recorded"] > 0
        assert not path.exists()

    def test_recorder_counts_the_live_stream(self, tmp_path):
        runner = Runner(flightrec_path=str(tmp_path / "fr.json"))
        result = runner.run(canonical_traffic_spec(datagrams=20))
        # Build-phase registration entries predate the attach, so the
        # count is bounded by, not equal to, the trace total.
        recorder = runner.scenario.sim.flightrec
        assert 0 < recorder.recorded <= result.trace_entries
        trace = runner.scenario.sim.trace
        last = recorder.entries()[-1]
        assert last["trace_id"] == trace.entries[-1].trace_id
        assert last["action"] == trace.entries[-1].action

    def test_digest_neutral_with_ledger_and_flightrec_armed(self, tmp_path):
        # Full telemetry on, through the sweep that writes the ledger:
        # the canonical digest stays byte-identical to the golden value.
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        with ledger:
            sweep = SweepExecutor(
                ledger=ledger,
                flightrec_path=str(tmp_path / "flightrec.json"),
            ).run([canonical_traffic_spec()])
        (result,) = sweep.results
        assert result.digest == GOLDEN_DIGEST
        assert result.trace_entries == GOLDEN_ENTRIES
        assert ledger.appended == 3  # sweep-start, run, sweep-end
