"""Tests for TraceLog's per-datagram queries over interleaved events."""

from repro.netsim.addressing import IPAddress
from repro.netsim.packet import IPProto, Packet
from repro.netsim.trace import TraceLog


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


class TestEntriesIndex:
    def test_entries_for_matches_linear_scan(self):
        log, packets = _interleaved_log()
        for packet in packets:
            indexed = log.entries_for(packet.trace_id)
            scanned = [e for e in log.entries if e.trace_id == packet.trace_id]
            assert indexed == scanned
            assert len(indexed) == 4

    def test_entries_for_unknown_id_is_empty(self):
        log, _ = _interleaved_log()
        assert log.entries_for(999_999_999) == []

    def test_delivered_dropped_queries(self):
        log, packets = _interleaved_log()
        assert log.delivered(packets[0].trace_id)
        assert not log.delivered(packets[1].trace_id)
        assert log.dropped(packets[1].trace_id)
        assert log.drop_detail(packets[1].trace_id) == "ttl"
        assert log.drop_detail(packets[0].trace_id) is None
