"""Coverage for small public APIs not exercised elsewhere."""

import pytest

from repro.core import GRID, CellClass, InMode
from repro.analysis.scenarios import MH_HOME_ADDRESS, build_scenario
from repro.mobileip import Awareness
from repro.netsim import IPAddress, Network, Node


class TestAddressingHelpers:
    def test_in_network_mirrors_contains(self):
        net = Network("10.1.0.0/16")
        assert IPAddress("10.1.2.3").in_network(net)
        assert not IPAddress("10.2.0.1").in_network(net)

    def test_network_address_property(self):
        assert str(Network("10.1.0.0/16").network_address) == "10.1.0.0"


class TestGridHelpers:
    def test_cells_of_partitions_grid(self):
        total = sum(
            len(GRID.cells_of(cls)) for cls in CellClass
        )
        assert total == 16

    def test_ch_requirement_strings(self):
        assert "conventional" in InMode.IN_IE.ch_requirement
        assert "mobile-aware" in InMode.IN_DE.ch_requirement
        assert "same network segment" in InMode.IN_DH.ch_requirement
        assert "forgoing" in InMode.IN_DT.ch_requirement


class TestSegmentHelpers:
    def test_interface_with_ip(self, lan):
        _sim, segment, a, _b = lan
        found = segment.interface_with_ip(IPAddress("192.168.1.1"))
        assert found is a.interfaces["eth0"]
        assert segment.interface_with_ip(IPAddress("192.168.1.99")) is None


class TestSimulatorRegistry:
    def test_duplicate_node_name_rejected(self, sim):
        Node("dup", sim)
        with pytest.raises(ValueError):
            Node("dup", sim)

    def test_duplicate_segment_name_rejected(self, sim):
        sim.segment("seg")
        with pytest.raises(ValueError):
            sim.segment("seg")

    def test_node_lookup(self, sim):
        node = Node("findme", sim)
        assert sim.node("findme") is node

    def test_next_token_monotonic(self, sim):
        assert sim.next_token() < sim.next_token()

    def test_run_for_advances_relative(self, sim):
        sim.run_for(5.0)
        sim.run_for(5.0)
        assert sim.now == 10.0


class TestTopologyHelpers:
    def test_gateway_ip_is_boundary_inside_address(self, sim):
        from repro.netsim import Internet

        net = Internet(sim)
        domain = net.add_domain("d", "10.1.0.0/16")
        assert str(domain.gateway_ip) == "10.1.0.1"


class TestCorrespondentHelpers:
    def test_forget_binding_reverts_to_triangle(self):
        scenario = build_scenario(seed=951, ch_awareness=Awareness.MOBILE_AWARE)
        scenario.ch.learn_binding(MH_HOME_ADDRESS, scenario.mh.care_of, 300.0)
        scenario.ch.forget_binding(MH_HOME_ADDRESS)
        sock = scenario.mh.stack.udp_socket(7000)
        got = []
        sock.on_receive(lambda d, *a: got.append(d))
        ch_sock = scenario.ch.stack.udp_socket()
        ch_sock.sendto("x", 50, MH_HOME_ADDRESS, 7000)
        scenario.sim.run_for(10)
        assert got == ["x"]
        assert scenario.ch.direct_tunneled == 0
        assert scenario.ha.packets_tunneled == 1

