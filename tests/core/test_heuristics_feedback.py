"""Tests for the §7.1.1 address choice and the §7.1.2 feedback detector."""

import pytest
from fake_clock import COA, HOME, away_engine

from repro.core.feedback import RetransmissionDetector
from repro.core.heuristics import AddressChoice, PortHeuristics
from repro.netsim import IPAddress
from repro.netsim.packet import IPProto

CH = IPAddress("10.3.0.2")


def ignore(remote, reason):
    """An ``on_suspect`` callback for tests that watch counters only."""


class TestBindIntent:
    """§7.1.1's explicit-bind rule, as a host away from home applies it.

    Under the port heuristics telnet (TCP 23) uses the home address and
    HTTP (TCP 80) the care-of address, so a bind that defers to them
    shows on both ports, and a bind that forces Out-DT shows on 23.
    """

    def setup_method(self):
        self.engine = away_engine()

    def select(self, port, bound):
        return self.engine.select_source(CH, port, IPProto.TCP, bound)

    def test_unbound_defers_to_heuristics(self):
        assert self.select(23, None) == HOME
        assert self.select(80, None) == COA

    def test_bound_to_unspecified_defers(self):
        assert self.select(23, IPAddress("0.0.0.0")) == HOME
        assert self.select(80, IPAddress("0.0.0.0")) == COA

    def test_bound_to_home_defers(self):
        """§7.1.1: home binding = 'application is not mobile-aware'."""
        assert self.select(23, HOME) == HOME
        assert self.select(80, HOME) == COA

    def test_bound_to_physical_forces_temporary(self):
        assert self.select(23, COA) == COA

    def test_bound_to_stale_care_of_still_temporary(self):
        assert self.select(23, IPAddress("10.9.0.9")) == COA


class TestPortHeuristics:
    def setup_method(self):
        self.heuristics = PortHeuristics()

    def test_http_uses_temporary(self):
        """§7.1.1: 'connections to port 80 ... can safely use Out-DT'."""
        assert self.heuristics.choose(CH, 80, IPProto.TCP) == AddressChoice.TEMPORARY

    def test_dns_udp_uses_temporary(self):
        assert self.heuristics.choose(CH, 53, IPProto.UDP) == AddressChoice.TEMPORARY

    def test_telnet_uses_home(self):
        assert self.heuristics.choose(CH, 23, IPProto.TCP) == AddressChoice.HOME

    def test_port_80_udp_is_not_http(self):
        assert self.heuristics.choose(CH, 80, IPProto.UDP) == AddressChoice.HOME

    def test_multicast_bypasses_mobile_ip(self):
        """§6.4: join through the real physical interface."""
        group = IPAddress("224.2.2.2")
        assert self.heuristics.choose(group, 5004, IPProto.UDP) == AddressChoice.TEMPORARY

    def test_custom_rule_addition_and_removal(self):
        self.heuristics.add_rule(IPProto.TCP, 110)   # POP3, the §2 trend
        assert self.heuristics.choose(CH, 110, IPProto.TCP) == AddressChoice.TEMPORARY
        self.heuristics.remove_rule(IPProto.TCP, 110)
        assert self.heuristics.choose(CH, 110, IPProto.TCP) == AddressChoice.HOME

    def test_no_rules_for_other_protocols(self):
        with pytest.raises(ValueError):
            self.heuristics.add_rule(IPProto.ICMP, 1)


class TestRetransmissionDetector:
    def test_threshold_of_retransmissions_to_fires(self):
        fired = []
        detector = RetransmissionDetector(
            threshold=3, on_suspect=lambda ip, why: fired.append((str(ip), why))
        )
        for _ in range(3):
            detector.on_send(CH, retransmission=True)
        assert fired == [("10.3.0.2", "repeated-retransmissions-to")]

    def test_retransmissions_from_also_fire(self):
        """'if the IP layer sees repeated retransmissions *from* a
        particular address ... acknowledgements are not getting
        through'."""
        fired = []
        detector = RetransmissionDetector(
            threshold=2, on_suspect=lambda ip, why: fired.append(why)
        )
        detector.on_receive(CH, retransmission=True)
        detector.on_receive(CH, retransmission=True)
        assert fired == ["repeated-retransmissions-from"]

    def test_original_receive_resets_counters(self):
        fired = []
        detector = RetransmissionDetector(threshold=3,
                                          on_suspect=lambda ip, why: fired.append(why))
        detector.on_send(CH, retransmission=True)
        detector.on_send(CH, retransmission=True)
        detector.on_receive(CH, retransmission=False)  # forward progress
        detector.on_send(CH, retransmission=True)
        detector.on_send(CH, retransmission=True)
        assert fired == []

    def test_original_send_does_not_reset(self):
        fired = []
        detector = RetransmissionDetector(threshold=2,
                                          on_suspect=lambda ip, why: fired.append(why))
        detector.on_send(CH, retransmission=True)
        detector.on_send(CH, retransmission=False)
        detector.on_send(CH, retransmission=True)
        assert len(fired) == 1

    def test_counters_reset_after_firing(self):
        fired = []
        detector = RetransmissionDetector(threshold=2,
                                          on_suspect=lambda ip, why: fired.append(why))
        for _ in range(4):
            detector.on_send(CH, retransmission=True)
        assert len(fired) == 2

    def test_per_remote_isolation(self):
        fired = []
        other = IPAddress("10.4.0.1")
        detector = RetransmissionDetector(
            threshold=2, on_suspect=lambda ip, why: fired.append(str(ip))
        )
        detector.on_send(CH, retransmission=True)
        detector.on_send(other, retransmission=True)
        assert fired == []
        detector.on_send(CH, retransmission=True)
        assert fired == ["10.3.0.2"]

    def test_health_accounting(self):
        detector = RetransmissionDetector(ignore, threshold=10)
        detector.on_send(CH, retransmission=False)
        detector.on_send(CH, retransmission=True)
        detector.on_receive(CH, retransmission=False)
        health = detector.health(CH)
        assert health.originals_to == 1
        assert health.originals_from == 1
        assert health.retx_to == 0  # reset by the original receive

    def test_reset_forgets_remote(self):
        detector = RetransmissionDetector(ignore)
        detector.on_send(CH, retransmission=True)
        detector.reset(CH)
        assert detector.health(CH).retx_to == 0

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            RetransmissionDetector(ignore, threshold=0)
