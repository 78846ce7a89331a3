"""Tests for the MobilityEngine (the two §7.1 decisions, glued)."""


from fake_clock import COA, HOME, away_engine, make_engine

from repro.core.modes import OutMode
from repro.core.policy import Disposition, MobilityPolicyTable
from repro.core.selection import ProbeStrategy
from repro.netsim import IPAddress
from repro.netsim.packet import IPProto

CH = IPAddress("10.3.0.2")


class TestSourceSelection:
    def test_at_home_always_home_address(self):
        engine = make_engine()
        engine.at_home_test = lambda: True
        assert engine.select_source(CH, 80, IPProto.TCP, None) == HOME

    def test_http_goes_temporary_when_away(self):
        engine = away_engine()
        assert engine.select_source(CH, 80, IPProto.TCP, None) == COA

    def test_telnet_goes_home_when_away(self):
        engine = away_engine()
        assert engine.select_source(CH, 23, IPProto.TCP, None) == HOME

    def test_explicit_care_of_bind_wins_over_port(self):
        engine = away_engine()
        assert engine.select_source(CH, 23, IPProto.TCP, COA) == COA

    def test_home_bind_falls_back_to_heuristics(self):
        engine = away_engine()
        assert engine.select_source(CH, 80, IPProto.TCP, HOME) == COA

    def test_privacy_forces_home_address(self):
        """§4: privacy users never reveal their location."""
        engine = away_engine(privacy=True)
        assert engine.select_source(CH, 80, IPProto.TCP, None) == HOME

    def test_policy_no_mobile_ip_forces_temporary(self):
        policy = MobilityPolicyTable()
        policy.add("10.3.0.0/16", Disposition.NO_MOBILE_IP)
        engine = away_engine(policy=policy)
        assert engine.select_source(CH, 23, IPProto.TCP, None) == COA

    def test_no_care_of_address_means_home(self):
        engine = make_engine()
        engine.at_home_test = lambda: False
        engine.care_of_address = lambda: None
        assert engine.select_source(CH, 80, IPProto.TCP, None) == HOME

    def test_decisions_counted(self):
        engine = away_engine()
        engine.select_source(CH, 80, IPProto.TCP, None)
        engine.select_source(CH, 23, IPProto.TCP, None)
        assert engine.decisions_made == 2


class TestOutModeDecision:
    def test_privacy_pins_out_ie(self):
        engine = away_engine(privacy=True)
        assert engine.out_mode_for(CH) is OutMode.OUT_IE

    def test_same_segment_forces_out_dh(self):
        engine = away_engine(strategy=ProbeStrategy.CONSERVATIVE_FIRST)
        engine.same_segment_test = lambda dst: dst == CH
        assert engine.out_mode_for(CH) is OutMode.OUT_DH

    def test_known_not_decap_capable_skips_out_de(self):
        engine = away_engine(strategy=ProbeStrategy.AGGRESSIVE_FIRST)
        engine.learn(CH, decap_capable=False)
        assert engine.out_mode_for(CH) is OutMode.OUT_DH
        engine._on_suspect(CH, "test")      # DH fails...
        # ...and the cache would try DE next, but knowledge skips it.
        assert engine.out_mode_for(CH) is OutMode.OUT_IE

    def test_awareness_implies_decapsulation(self):
        engine = away_engine()
        engine.learn(CH, mobile_aware=True)
        assert engine.knowledge_for(CH).decap_capable is True

    def test_suspect_demotes_and_notifies(self):
        changes = []
        engine = away_engine(strategy=ProbeStrategy.AGGRESSIVE_FIRST)
        engine.on_mode_change = lambda ip, mode, why: changes.append((mode, why))
        engine.out_mode_for(CH)
        engine._on_suspect(CH, "filter")
        assert changes == [(OutMode.OUT_DE, "demoted: filter")]

    def test_progress_upgrades_and_notifies(self):
        changes = []
        engine = away_engine(strategy=ProbeStrategy.CONSERVATIVE_FIRST)
        engine.cache.upgrade_after = 2
        engine.on_mode_change = lambda ip, mode, why: changes.append(mode)
        engine.out_mode_for(CH)
        engine.on_receive(CH, retransmission=False)
        engine.on_receive(CH, retransmission=False)
        assert changes == [OutMode.OUT_DE]

    def test_retransmissions_flow_to_detector(self):
        engine = away_engine(strategy=ProbeStrategy.AGGRESSIVE_FIRST)
        engine.out_mode_for(CH)
        engine.on_send(CH, retransmission=True)
        engine.on_send(CH, retransmission=True)
        assert engine.cache.record_for(CH).current is OutMode.OUT_DE


class TestMovement:
    def test_on_moved_resets_cache_and_detector(self):
        engine = away_engine(strategy=ProbeStrategy.AGGRESSIVE_FIRST)
        engine.out_mode_for(CH)
        engine._on_suspect(CH, "old network was filtered")
        assert engine.cache.record_for(CH).current is OutMode.OUT_DE
        engine.on_moved()
        # Fresh network: start from the strategy's top again.
        assert engine.out_mode_for(CH) is OutMode.OUT_DH
        # Detector state is fresh too: one retx does not immediately fire.
        engine.on_send(CH, retransmission=True)
        assert engine.cache.record_for(CH).current is OutMode.OUT_DH

    def test_knowledge_survives_movement(self):
        """Decap capability is a property of the CH, not of the path."""
        engine = away_engine()
        engine.learn(CH, decap_capable=False)
        engine.on_moved()
        assert engine.knowledge_for(CH).decap_capable is False
