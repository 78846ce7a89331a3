"""Tests for the mobility policy table and the delivery-method cache."""


from fake_clock import FakeClock, make_cache

from repro.core.modes import OutMode
from repro.core.policy import Disposition, MobilityPolicyTable
from repro.core.selection import FAILED_MODE_TTL, FORGIVE_AFTER, ProbeStrategy
from repro.netsim import IPAddress

CH = IPAddress("10.3.0.2")


class TestPolicyTable:
    def test_default_disposition(self):
        table = MobilityPolicyTable()
        assert table.lookup(CH) is Disposition.PESSIMISTIC

    def test_custom_default(self):
        table = MobilityPolicyTable(default=Disposition.OPTIMISTIC)
        assert table.lookup(CH) is Disposition.OPTIMISTIC

    def test_longest_prefix_wins(self):
        """§7.1.2: rules 'specified similarly to ... routing table
        entries ... as an address and a mask value'."""
        table = MobilityPolicyTable()
        table.add("10.0.0.0/8", Disposition.OPTIMISTIC)
        table.add("10.3.0.0/16", Disposition.HOME_ONLY)
        assert table.lookup(IPAddress("10.1.0.1")) is Disposition.OPTIMISTIC
        assert table.lookup(CH) is Disposition.HOME_ONLY

    def test_single_rule_for_whole_home_network(self):
        """The paper's example: 'a single rule to identify ... the
        entire home network as a region where Out-IE should always be
        used'."""
        table = MobilityPolicyTable(default=Disposition.OPTIMISTIC)
        table.add("10.1.0.0/16", Disposition.HOME_ONLY)
        assert table.lookup(IPAddress("10.1.0.50")) is Disposition.HOME_ONLY
        assert table.lookup(IPAddress("10.9.0.1")) is Disposition.OPTIMISTIC

    def test_remove(self):
        table = MobilityPolicyTable()
        table.add("10.3.0.0/16", Disposition.NO_MOBILE_IP)
        assert table.remove("10.3.0.0/16") == 1
        assert table.lookup(CH) is Disposition.PESSIMISTIC

    def test_str_renders_rules_and_default(self):
        table = MobilityPolicyTable()
        table.add("10.3.0.0/16", Disposition.OPTIMISTIC)
        rendered = str(table)
        assert "10.3.0.0/16" in rendered and "default" in rendered


class TestCacheStartingModes:
    def test_conservative_first_starts_at_ie(self):
        cache = make_cache(ProbeStrategy.CONSERVATIVE_FIRST)
        assert cache.mode_for(CH) is OutMode.OUT_IE

    def test_aggressive_first_starts_at_dh(self):
        cache = make_cache(ProbeStrategy.AGGRESSIVE_FIRST)
        assert cache.mode_for(CH) is OutMode.OUT_DH

    def test_rule_seeded_optimistic(self):
        policy = MobilityPolicyTable()
        policy.add("10.3.0.0/16", Disposition.OPTIMISTIC)
        cache = make_cache(ProbeStrategy.RULE_SEEDED, policy=policy)
        assert cache.mode_for(CH) is OutMode.OUT_DH

    def test_rule_seeded_pessimistic_default(self):
        cache = make_cache(ProbeStrategy.RULE_SEEDED)
        assert cache.mode_for(CH) is OutMode.OUT_IE

    def test_rule_seeded_home_only_pins(self):
        policy = MobilityPolicyTable()
        policy.add("10.3.0.0/16", Disposition.HOME_ONLY)
        cache = make_cache(ProbeStrategy.RULE_SEEDED, policy=policy)
        assert cache.mode_for(CH) is OutMode.OUT_IE
        # Pinned: progress never upgrades it.
        for _ in range(50):
            cache.on_progress(CH)
        assert cache.record_for(CH).current is OutMode.OUT_IE


class TestDemotion:
    def test_aggressive_walks_down_the_ladder(self):
        """§7.1.2: Out-DH fails -> try Out-DE -> then Out-IE."""
        cache = make_cache(ProbeStrategy.AGGRESSIVE_FIRST)
        assert cache.mode_for(CH) is OutMode.OUT_DH
        assert cache.on_suspect(CH) is OutMode.OUT_DE
        assert cache.on_suspect(CH) is OutMode.OUT_IE
        assert cache.on_suspect(CH) is None  # nowhere left to go

    def test_failed_modes_remembered(self):
        cache = make_cache(ProbeStrategy.AGGRESSIVE_FIRST)
        cache.mode_for(CH)
        cache.on_suspect(CH)
        record = cache.record_for(CH)
        assert OutMode.OUT_DH in record.failed
        assert record.mode_changes == 1
        assert record.suspicions == 1

    def test_suspect_on_fresh_record_starts_it(self):
        cache = make_cache(ProbeStrategy.AGGRESSIVE_FIRST)
        # No mode_for called yet; a suspicion still demotes sanely.
        assert cache.on_suspect(CH) is OutMode.OUT_DE


class TestUpgrades:
    def test_conservative_upgrades_after_success_run(self):
        """[Fox96]: 'tentatively try each of the more aggressive
        options' — IE -> DE -> DH, one step per success run."""
        cache = make_cache(
            ProbeStrategy.CONSERVATIVE_FIRST, upgrade_after=3
        )
        assert cache.mode_for(CH) is OutMode.OUT_IE
        for _ in range(2):
            assert cache.on_progress(CH) is None
        assert cache.on_progress(CH) is OutMode.OUT_DE
        for _ in range(2):
            assert cache.on_progress(CH) is None
        assert cache.on_progress(CH) is OutMode.OUT_DH

    def test_failed_mode_not_retried_on_upgrade(self):
        cache = make_cache(
            ProbeStrategy.CONSERVATIVE_FIRST, upgrade_after=2
        )
        cache.mode_for(CH)
        # Upgrade to DE, fail it, drop back to IE.
        cache.on_progress(CH)
        assert cache.on_progress(CH) is OutMode.OUT_DE
        assert cache.on_suspect(CH) is OutMode.OUT_IE
        # Next upgrade run must skip failed DE and go straight to DH.
        cache.on_progress(CH)
        assert cache.on_progress(CH) is OutMode.OUT_DH

    def test_everything_failed_stays_conservative(self):
        cache = make_cache(
            ProbeStrategy.CONSERVATIVE_FIRST, upgrade_after=1
        )
        cache.mode_for(CH)
        record = cache.record_for(CH)
        record.failed.update({OutMode.OUT_DH, OutMode.OUT_DE})
        for _ in range(5):
            assert cache.on_progress(CH) is None
        assert record.current is OutMode.OUT_IE

    def assert_climbs_back_to_out_dh(self, cache, clock):
        """A record demoted from Out-DH stays put until its verdict is
        forgiven or expires, then climbs straight back."""
        cache.mode_for(CH)
        cache.on_suspect(CH)   # Out-DH fails: now at Out-DE
        for _ in range(FORGIVE_AFTER - 1):
            assert cache.on_progress(CH) is None
        assert cache.on_progress(CH) is OutMode.OUT_DH
        assert cache.on_suspect(CH) is OutMode.OUT_DE
        clock.now += FAILED_MODE_TTL - 1
        assert cache.on_progress(CH) is None
        clock.now += 1
        assert cache.on_progress(CH) is OutMode.OUT_DH

    def test_aggressive_first_climbs_back(self):
        clock = FakeClock()
        cache = make_cache(ProbeStrategy.AGGRESSIVE_FIRST, clock=clock,
                           upgrade_after=1)
        self.assert_climbs_back_to_out_dh(cache, clock)

    def test_rule_seeded_optimistic_climbs_back(self):
        policy = MobilityPolicyTable()
        policy.add("10.3.0.0/16", Disposition.OPTIMISTIC)
        clock = FakeClock()
        cache = make_cache(ProbeStrategy.RULE_SEEDED, clock=clock,
                           policy=policy, upgrade_after=1)
        self.assert_climbs_back_to_out_dh(cache, clock)

    def test_rule_seeded_pessimistic_upgrades(self):
        cache = make_cache(ProbeStrategy.RULE_SEEDED, upgrade_after=1)
        cache.mode_for(CH)
        assert cache.on_progress(CH) is OutMode.OUT_DE


class TestLifecycle:
    def test_reset_all_forgets_history(self):
        cache = make_cache(ProbeStrategy.AGGRESSIVE_FIRST)
        cache.mode_for(CH)
        cache.on_suspect(CH)
        cache.reset_all()
        assert cache.mode_for(CH) is OutMode.OUT_DH  # fresh start

    def test_forget_single(self):
        cache = make_cache(ProbeStrategy.AGGRESSIVE_FIRST)
        other = IPAddress("10.4.0.1")
        cache.mode_for(CH)
        cache.mode_for(other)
        cache.on_suspect(CH)
        cache.forget(CH)
        assert cache.mode_for(CH) is OutMode.OUT_DH
        assert cache.record_for(other).current is OutMode.OUT_DH

    def test_packets_counted(self):
        cache = make_cache(ProbeStrategy.CONSERVATIVE_FIRST)
        for _ in range(5):
            cache.mode_for(CH)
        assert cache.record_for(CH).packets_sent == 5

    def test_total_mode_changes(self):
        cache = make_cache(ProbeStrategy.AGGRESSIVE_FIRST)
        cache.mode_for(CH)
        cache.on_suspect(CH)
        cache.on_suspect(CH)
        assert cache.total_mode_changes() == 2

    def test_rule_seeded_requires_or_creates_policy(self):
        cache = make_cache(ProbeStrategy.RULE_SEEDED)
        assert cache.policy is not None
