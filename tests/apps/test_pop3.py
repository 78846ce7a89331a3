"""Tests for the POP3 workload and its §7.1.1 heuristic integration."""

import pytest

from repro.analysis import MH_HOME_ADDRESS, build_scenario
from repro.apps import POP3_PORT, POP3Client, POP3Server
from repro.mobileip import Awareness
from repro.netsim.packet import IPProto


@pytest.fixture
def stage():
    scenario = build_scenario(seed=1601, ch_awareness=Awareness.CONVENTIONAL)
    server = POP3Server(scenario.ch.stack)
    client = POP3Client(scenario.mh.stack)
    return scenario, server, client


class TestPop3Workload:
    def test_retrieves_whole_spool(self, stage):
        scenario, server, client = stage
        for size in (500, 1200, 300):
            server.deliver_mail(size)
        check = client.check_mail(scenario.ch_ip)
        scenario.sim.run_for(60)
        assert check.completed
        assert check.messages_retrieved == 3
        assert check.bytes_retrieved == 2000
        assert server.mailbox == []           # spool drained

    def test_empty_mailbox_still_completes(self, stage):
        scenario, _server, client = stage
        check = client.check_mail(scenario.ch_ip)
        scenario.sim.run_for(60)
        assert check.completed
        assert check.messages_retrieved == 0

    def test_sequential_checks(self, stage):
        scenario, server, client = stage
        server.deliver_mail(400)
        first = client.check_mail(scenario.ch_ip)
        scenario.sim.run_for(30)
        server.deliver_mail(700)
        second = client.check_mail(scenario.ch_ip)
        scenario.sim.run_for(30)
        assert first.messages_retrieved == 1
        assert second.messages_retrieved == 1
        assert server.sessions_served == 2

    def test_default_rides_mobile_ip(self, stage):
        """Port 110 is not in the default heuristics: the mail check's
        endpoint is the home address (tunneled, durable)."""
        scenario, server, client = stage
        server.deliver_mail(100)
        client.check_mail(scenario.ch_ip)
        scenario.sim.run_for(60)
        # IPIP: the mobile host's tunneled TCP.
        conn_sources = {
            e.src for e in scenario.sim.trace.entries
            if e.node == "mh" and e.action == "send"
            and e.proto in ("TCP", "IPIP")
        }
        assert str(MH_HOME_ADDRESS) in conn_sources

    def test_user_rule_switches_to_out_dt(self):
        """§7.1.1's extensibility: add a rule for port 110 and the mail
        check forgoes Mobile IP like HTTP does."""
        scenario = build_scenario(seed=1602,
                                  ch_awareness=Awareness.CONVENTIONAL)
        scenario.mh.engine.heuristics.add_rule(IPProto.TCP, POP3_PORT)
        server = POP3Server(scenario.ch.stack)
        server.deliver_mail(800)
        client = POP3Client(scenario.mh.stack)
        check = client.check_mail(scenario.ch_ip)
        scenario.sim.run_for(60)
        assert check.completed
        tcp_sources = {
            e.src for e in scenario.sim.trace.entries
            if e.node == "mh" and e.action == "send" and e.proto == "TCP"
        }
        assert tcp_sources == {str(scenario.mh.care_of)}
        assert scenario.mh.tunnel.encapsulated_count == 0
