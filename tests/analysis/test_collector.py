"""Tests for the scenario statistics collector."""

import pytest

from repro.analysis import MH_HOME_ADDRESS, build_scenario, snapshot
from repro.mobileip import Awareness


@pytest.fixture
def stage():
    return build_scenario(seed=1101, ch_awareness=Awareness.CONVENTIONAL)


class TestSnapshot:
    def test_counts_present_for_all_nodes(self, stage):
        snap = snapshot(stage)
        for name in ("mh", "ha", "ch"):
            assert name in snap.packets_sent
            assert name in snap.packets_received

    def test_registration_traffic_visible(self, stage):
        snap = snapshot(stage)
        assert snap.packets_sent["mh"] >= 1       # the registration
        assert snap.packets_received["ha"] >= 1
        assert snap.wide_area_bytes > 0

    def test_mobile_ip_packets_aggregate(self, stage):
        sock = stage.mh.stack.udp_socket(8000)
        sock.on_receive(lambda *a: None)
        ch_sock = stage.ch.stack.udp_socket()
        ch_sock.sendto("x", 50, MH_HOME_ADDRESS, 8000)
        stage.sim.run_for(10)
        snap = snapshot(stage)
        assert snap.tunneled_by_ha == 1
        assert snap.decapsulated_by_mh == 1


class TestDiff:
    """Two snapshots, read before and after a phase, bracket it."""

    def test_delta_isolates_a_phase(self, stage):
        before = snapshot(stage)
        sock = stage.mh.stack.udp_socket(8000)
        sock.on_receive(lambda *a: None)
        ch_sock = stage.ch.stack.udp_socket()
        for _ in range(3):
            ch_sock.sendto("x", 50, MH_HOME_ADDRESS, 8000)
        stage.sim.run_for(10)
        after = snapshot(stage)
        assert after.tunneled_by_ha - before.tunneled_by_ha == 3
        assert after.packets_sent["ch"] - before.packets_sent["ch"] == 3
        assert after.time > before.time

    def test_new_nodes_appear_in_delta(self, stage):
        from repro.netsim import Node

        before = snapshot(stage)
        newcomer = Node("late", stage.sim)
        stage.net.add_host("visited", newcomer)
        replies = []
        newcomer.ping(stage.ch_ip, replies.append)
        stage.sim.run_for(10)
        assert "late" not in before.packets_sent
        assert snapshot(stage).packets_sent["late"] >= 1

    def test_drop_deltas(self, stage):
        before = snapshot(stage)
        # Generate a drop: Out-DH from a filtered visited network.
        mh_sock = stage.mh.stack.udp_socket()
        record = stage.mh.engine.cache.record_for(stage.ch_ip)
        from repro.core import OutMode

        record.current = OutMode.OUT_DH
        mh_sock.sendto("x", 50, stage.ch_ip, 9000,
                       src_override=MH_HOME_ADDRESS)
        stage.sim.run_for(5)
        after = snapshot(stage)
        assert any("source-address-filter" in reason or "transit" in reason
                   for reason, count in after.drops.items()
                   if count > before.drops.get(reason, 0))
