"""Tests for the HTTP and telnet workloads."""

import pytest

from repro.analysis.scenarios import MH_HOME_ADDRESS, build_scenario
from repro.apps import HTTPClient, HTTPServer, TelnetServer, TelnetSession
from repro.mobileip import Awareness


@pytest.fixture
def stage():
    scenario = build_scenario(seed=91, ch_awareness=Awareness.CONVENTIONAL)
    return scenario


class TestHTTP:
    def test_fetch_completes(self, stage):
        server = HTTPServer(stage.ch.stack, page_size=8000)
        client = HTTPClient(stage.mh.stack)
        done = []
        client.fetch(stage.ch_ip, on_done=done.append)
        stage.sim.run_for(30)
        assert len(done) == 1
        result = done[0]
        assert result.completed
        assert result.bytes_received == 8000
        assert result.latency is not None and result.latency > 0
        assert server.requests_served == 1

    def test_fetch_uses_out_dt_heuristic(self, stage):
        """§7.1.1: port 80 -> temporary address on the wire."""
        HTTPServer(stage.ch.stack)
        client = HTTPClient(stage.mh.stack)
        client.fetch(stage.ch_ip)
        stage.sim.run_for(30)
        conn_sends = [
            e for e in stage.sim.trace.entries
            if e.node == "mh" and e.action == "send" and e.proto == "TCP"
        ]
        assert conn_sends
        assert all(e.src == str(stage.mh.care_of) for e in conn_sends)
        assert stage.mh.tunnel.encapsulated_count == 0

    def test_reload_after_connection_break(self):
        """§4 Out-DT: a move breaks the fetch; 'reload' retries it."""
        scenario = build_scenario(seed=92, ch_awareness=Awareness.CONVENTIONAL)
        HTTPServer(scenario.ch.stack, page_size=4000)
        client = HTTPClient(scenario.mh.stack, max_reloads=2)
        scenario.net.add_domain("visited2", "10.5.0.0/16", attach_at=3,
                                source_filtering=False, forbid_transit=False)
        done = []
        # Break the connection immediately after establishment by moving.
        client.fetch(scenario.ch_ip, on_done=done.append)
        scenario.sim.events.schedule(
            0.05, lambda: scenario.mh.move_to(scenario.net, "visited2")
        )
        scenario.sim.run_for(200)
        assert len(done) == 1
        result = done[0]
        assert result.reloads >= 1
        assert result.completed   # the reload from the new address worked

    def test_failed_after_max_reloads(self):
        """The user accepts 'the occasional incomplete image'."""
        scenario = build_scenario(seed=93, ch_awareness=Awareness.CONVENTIONAL)
        HTTPServer(scenario.ch.stack)
        client = HTTPClient(scenario.mh.stack, max_reloads=1)
        # Server vanishes entirely.
        scenario.net.detach_host(scenario.ch)
        done = []
        client.fetch(scenario.ch_ip, on_done=done.append)
        scenario.sim.run_for(600)
        assert len(done) == 1
        assert done[0].failed
        assert done[0].reloads == 1
        assert client.failed == [done[0]]


class TestTelnet:
    def test_session_types_and_receives_echoes(self, stage):
        TelnetServer(stage.ch.stack)
        session = TelnetSession(stage.mh.stack, stage.ch_ip,
                                think_time=0.5, keystrokes=5)
        stage.sim.run_for(60)
        assert session.keystrokes_sent == 5
        assert session.echoes_received == 5
        assert session.survived
        assert session.mean_echo_rtt() is not None

    def test_telnet_uses_home_address(self, stage):
        """§7.1.1: port 23 is not in the temporary-port list."""
        TelnetServer(stage.ch.stack)
        session = TelnetSession(stage.mh.stack, stage.ch_ip, keystrokes=1)
        stage.sim.run_for(30)
        assert session.connection.local_ip == MH_HOME_ADDRESS

    def test_session_survives_movement_with_mobile_ip(self):
        """§2's durability goal, end to end."""
        scenario = build_scenario(seed=94, ch_awareness=Awareness.CONVENTIONAL)
        TelnetServer(scenario.ch.stack)
        scenario.net.add_domain("visited2", "10.5.0.0/16", attach_at=3)
        session = TelnetSession(scenario.mh.stack, scenario.ch_ip,
                                think_time=1.0, keystrokes=10)
        scenario.sim.events.schedule(
            4.0, lambda: scenario.mh.move_to(scenario.net, "visited2")
        )
        scenario.sim.run_for(120)
        assert session.survived
        assert session.echoes_received == 10

    def test_session_dies_on_movement_with_out_dt(self):
        """The flip side: a temporary-address session breaks on a move."""
        scenario = build_scenario(seed=95, ch_awareness=Awareness.CONVENTIONAL)
        TelnetServer(scenario.ch.stack)
        scenario.net.add_domain("visited2", "10.5.0.0/16", attach_at=3,
                                source_filtering=False, forbid_transit=False)
        session = TelnetSession(scenario.mh.stack, scenario.ch_ip,
                                think_time=1.0, keystrokes=10,
                                bound_ip=scenario.mh.care_of)
        scenario.sim.events.schedule(
            4.0, lambda: scenario.mh.move_to(scenario.net, "visited2")
        )
        scenario.sim.run_for(300)
        assert not session.survived
        assert session.failure_reason == "retransmission-limit"
        assert session.echoes_received < 10
