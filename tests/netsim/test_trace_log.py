"""Tests for per-datagram records folded from interleaved trace events."""

from repro.netsim.addressing import IPAddress
from repro.netsim.packet import IPProto, Packet
from repro.netsim.trace import TraceLog
from repro.obs.spans import datagrams


def _packet(payload_size=100):
    return Packet(
        src=IPAddress("10.3.0.10"),
        dst=IPAddress("10.1.0.10"),
        proto=IPProto.UDP,
        payload_size=payload_size,
    )


def _interleaved_log(datagrams=5, hops=4):
    """Several datagrams noted hop-by-hop in interleaved order."""
    log = TraceLog()
    packets = [_packet() for _ in range(datagrams)]
    for hop in range(hops):
        for index, packet in enumerate(packets):
            action = ("send" if hop == 0
                      else "deliver" if hop == hops - 1 and index % 2 == 0
                      else "drop" if hop == hops - 1
                      else "forward")
            detail = "ttl" if action == "drop" else ""
            log.note(float(hop), f"n{hop}", action, packet, detail)
    return log, packets


def _roots(log):
    return {span.trace_id: span for span in datagrams(log.entries, 3.0)
            if span.parent_id is None}


class TestEntriesIndex:
    def test_entries_for_matches_linear_scan(self):
        # One record per datagram, in first-seen order, each built from
        # that datagram's entries alone.
        log, packets = _interleaved_log()
        roots = _roots(log)
        assert list(roots) == [packet.trace_id for packet in packets]
        for root in roots.values():
            assert (root.node, root.start, root.end) == ("n0", 0.0, 3.0)
            assert root.args["hops"] == 2
            assert root.args["end_node"] == "n3"

    def test_entries_for_unknown_id_is_empty(self):
        log, _ = _interleaved_log()
        assert 999_999_999 not in _roots(log)
        assert datagrams(log.entries[len(log.entries):], 3.0) == []

    def test_delivered_dropped_queries(self):
        log, packets = _interleaved_log()
        roots = _roots(log)
        delivered, dropped = roots[packets[0].trace_id], roots[packets[1].trace_id]
        assert delivered.args.get("delivered") is True
        assert "dropped" not in delivered.args
        assert dropped.args.get("dropped") == "ttl"
        assert "delivered" not in dropped.args
