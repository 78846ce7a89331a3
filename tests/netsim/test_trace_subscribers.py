"""Tests for TraceLog's subscriber list: the one live-stream hook."""

import pytest

from repro.experiment import Runner, canonical_traffic_spec
from repro.netsim.addressing import IPAddress
from repro.netsim.packet import IPProto, Packet
from repro.netsim.simulator import Simulator
from repro.netsim.trace import TraceEntry, TraceLog

GOLDEN_DIGEST = "6c91661118a78681dfe5624d953ae85bb5a3f6e3b7e88fc4d166a9a121cf8a8f"
GOLDEN_ENTRIES = 3618


def _packet():
    return Packet(src=IPAddress("10.3.0.10"), dst=IPAddress("10.1.0.10"),
                  proto=IPProto.UDP, payload_size=100)


def _recording(log, name):
    def subscriber(entry, packet):
        log.append((name, entry.action, packet.trace_id))
    return subscriber


class TestDelivery:
    def test_each_subscriber_gets_one_shared_entry_and_the_packet(self):
        trace = TraceLog()
        seen = []
        trace.subscribe(lambda entry, packet: seen.append((entry, packet)))
        trace.subscribe(lambda entry, packet: seen.append((entry, packet)))
        packet = _packet()
        trace.note(1.5, "r1", "forward", packet, "why")
        (first, p1), (second, p2) = seen
        assert first is second is trace.entries[0]
        assert p1 is p2 is packet
        assert isinstance(first, TraceEntry)
        assert not hasattr(first, "__dict__")   # one tuple per event
        assert (first.time, first.node, first.action, first.detail) == (
            1.5, "r1", "forward", "why")
        assert first.trace_id == packet.trace_id
        assert (first.proto, first.src, first.dst, first.wire_size) == (
            "UDP", "10.3.0.10", "10.1.0.10", packet.wire_size)

    def test_delivery_order_is_subscription_order(self):
        trace = TraceLog()
        log = []
        for name in ("a", "b", "c"):
            trace.subscribe(_recording(log, name))
        packet = _packet()
        trace.note(0.0, "n", "send", packet)
        assert [name for name, _, _ in log] == ["a", "b", "c"]

    def test_arming_order_is_obs_invariants_recorder(self):
        # Observability subscribes nothing (its spans are folded from
        # the entries), so the live subscribers are the other two.
        sim = Simulator(seed=1)
        sim.enable_observability(engine_cadence=None)
        monitor = sim.enable_invariants()
        recorder = sim.enable_flight_recorder(limit=8)
        assert sim.trace.subscribers == [monitor.on_event, recorder._record]


class TestDetach:
    def test_unsubscribe_removes_only_its_own_and_is_idempotent(self):
        # Subscriptions are permanent: a later subscriber joins the end
        # of the list and sees only later events; the earlier ones stay.
        trace = TraceLog()
        log = []
        first, second, late = (_recording(log, name) for name in "abc")
        trace.subscribe(first)
        trace.subscribe(second)
        trace.note(0.0, "n", "send", _packet())
        trace.subscribe(late)
        trace.note(1.0, "n", "deliver", _packet())
        assert trace.subscribers == [first, second, late]
        assert [(name, action) for name, action, _ in log] == [
            ("a", "send"), ("b", "send"),
            ("a", "deliver"), ("b", "deliver"), ("c", "deliver")]
        assert not hasattr(trace, "unsubscribe")

    def test_component_detach_leaves_the_others_subscribed(self, tmp_path):
        # Nothing detaches: after a whole observed, invariant-armed,
        # recorder-armed run the list holds exactly the two live
        # subscribers, and ``note`` was never rebound.
        runner = Runner(flightrec_path=str(tmp_path / "fr.json"))
        runner.run(canonical_traffic_spec(observe=True, arm_invariants=True))
        sim = runner.scenario.sim
        assert sim.trace.subscribers == [
            sim.invariants.on_event, sim.flightrec._record]
        assert "note" not in sim.trace.__dict__


class TestArmedRuns:
    @pytest.fixture(scope="class")
    def armed(self, tmp_path_factory):
        runner = Runner(
            flightrec_path=str(tmp_path_factory.mktemp("fr") / "fr.json"),
            flightrec_limit=10_000)
        result = runner.run(canonical_traffic_spec(
            observe=True, arm_invariants=True))
        return runner, result

    def test_golden_digest_with_spans_invariants_and_recorder(self, armed):
        runner, result = armed
        sim = runner.scenario.sim
        assert sim.obs is not None and sim.invariants is not None
        assert sim.flightrec is not None
        assert result.digest == GOLDEN_DIGEST
        assert result.trace_entries == GOLDEN_ENTRIES
        assert result.invariants["violation_count"] == 0

    def test_ring_holds_the_trace_log_entries_themselves(self, armed):
        runner, _ = armed
        sim = runner.scenario.sim
        ring = list(sim.flightrec.ring)
        assert len(ring) == sim.flightrec.recorded
        tail = sim.trace.entries[-len(ring):]
        assert all(entry is expected
                   for (entry, _, _), expected in zip(ring, tail))
        assert all(packet.trace_id == entry.trace_id
                   for entry, packet, _ in ring)
