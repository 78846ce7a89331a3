"""Tests for binding tables and registration message semantics."""


import pytest

from repro.mobileip.binding import Binding, BindingTable
from repro.mobileip.registration import (
    RegistrationReply,
    RegistrationRequest,
    ReplyCode,
)
from repro.netsim import IPAddress

HOME = IPAddress("10.1.0.10")
COA = IPAddress("10.2.0.2")
COA2 = IPAddress("10.4.0.7")


class TestBindingTable:
    def test_register_and_lookup(self):
        table = BindingTable()
        table.register(HOME, COA, now=0.0, lifetime=100.0)
        binding = table.lookup(HOME, now=50.0)
        assert binding is not None
        assert binding.care_of_address == COA

    def test_expiry(self):
        table = BindingTable()
        table.register(HOME, COA, now=0.0, lifetime=100.0)
        assert table.lookup(HOME, now=100.0) is None
        assert table.expirations == 1
        assert len(table) == 0

    def test_expires_exactly_at_lifetime_boundary(self):
        table = BindingTable()
        table.register(HOME, COA, now=10.0, lifetime=100.0)
        assert table.lookup(HOME, now=109.999) is not None
        assert table.lookup(HOME, now=110.0) is None

    def test_reregistration_replaces_care_of(self):
        """A new registration = the mobile host moved again."""
        table = BindingTable()
        table.register(HOME, COA, now=0.0)
        table.register(HOME, COA2, now=1.0)
        assert table.lookup(HOME, now=2.0).care_of_address == COA2
        assert len(table) == 1

    def test_refresh_extends_lifetime(self):
        table = BindingTable()
        table.register(HOME, COA, now=0.0, lifetime=100.0)
        table.register(HOME, COA, now=90.0, lifetime=100.0)
        assert table.lookup(HOME, now=150.0) is not None

    def test_deregister(self):
        table = BindingTable()
        table.register(HOME, COA, now=0.0)
        removed = table.deregister(HOME)
        assert removed is not None
        assert table.lookup(HOME, now=0.0) is None
        assert table.deregistrations == 1

    def test_deregister_absent_is_noop(self):
        table = BindingTable()
        assert table.deregister(HOME) is None
        assert table.deregistrations == 0

    def test_active_listing_excludes_expired(self):
        table = BindingTable()
        table.register(HOME, COA, now=0.0, lifetime=10.0)
        table.register(IPAddress("10.1.0.11"), COA2, now=0.0, lifetime=1000.0)
        active = table.active(now=100.0)
        assert len(active) == 1
        assert active[0].care_of_address == COA2

    def test_contains(self):
        table = BindingTable()
        table.register(HOME, COA, now=0.0)
        assert HOME in table
        assert COA not in table

    def test_binding_expires_at(self):
        binding = Binding(HOME, COA, registered_at=5.0, lifetime=60.0)
        assert binding.expires_at == 65.0
        assert binding.valid_at(64.9)
        assert not binding.valid_at(65.0)

    def test_validity_is_strict_at_the_boundary(self):
        # "Valid through, not at, expiry" — a tunnel decision made at
        # exactly expires_at must treat the binding as gone, or the home
        # agent and a refreshing mobile host disagree for one instant.
        binding = Binding(HOME, COA, registered_at=0.0, lifetime=100.0)
        assert binding.valid_at(binding.expires_at - 1e-9)
        assert not binding.valid_at(binding.expires_at)
        table = BindingTable()
        table.register(HOME, COA, now=0.0, lifetime=100.0)
        assert table.lookup(HOME, now=100.0) is None
        assert table.expirations == 1
        assert HOME not in table

    def test_flush_is_crash_semantics_not_deregistration(self):
        table = BindingTable()
        table.register(HOME, COA, now=0.0, lifetime=100.0)
        table.register(IPAddress("10.1.0.11"), COA2, now=0.0, lifetime=100.0)
        assert table.flush() == 2
        assert len(table) == 0
        assert table.deregistrations == 0
        assert table.expirations == 0
        assert table.registrations == 2  # history preserved
        assert table.flush() == 0  # idempotent on an empty table


class TestRefreshRacesExpiry:
    def test_80_percent_refresh_keeps_binding_alive(self):
        # A short lifetime makes the race tight: the refresh fires at
        # 80% of the granted lifetime and must land (including the
        # round trip to the home agent) before the binding lapses.
        from repro.analysis import build_scenario

        scenario = build_scenario(seed=61, ch_awareness=None,
                                  mobile_starts_away=False)
        scenario.mh.reg_lifetime = 10.0
        scenario.mh.move_to(scenario.net, "visited")
        scenario.sim.run_for(35)  # ~3 refresh cycles past first expiry
        assert scenario.mh.registered
        table = scenario.ha.bindings
        # The binding was refreshed, never allowed to lapse.
        assert table.expirations == 0
        binding = table.lookup(scenario.mh.home_address, scenario.sim.now)
        assert binding is not None
        assert binding.lifetime == 10.0
        # Multiple refresh registrations happened (initial + >= 2).
        assert table.registrations >= 3


class TestRegistrationMessages:
    def test_deregistration_is_lifetime_zero(self):
        request = RegistrationRequest(HOME, HOME, lifetime=0.0, ident=1)
        assert request.is_deregistration

    def test_normal_registration(self):
        request = RegistrationRequest(HOME, COA, lifetime=300.0, ident=2)
        assert not request.is_deregistration
        assert request.size == 28

    def test_reply_accepted(self):
        reply = RegistrationReply(ReplyCode.ACCEPTED, HOME, 300.0, ident=2)
        assert reply.accepted

    def test_reply_denied(self):
        reply = RegistrationReply(
            ReplyCode.DENIED_UNKNOWN_HOME_ADDRESS, HOME, 0.0, ident=2
        )
        assert not reply.accepted


def _block_table(count=8, base=None, now=0.0, lifetime=100.0):
    """A table with one PoolBlock covering HOME..HOME+count-1."""
    from array import array

    base = HOME.value if base is None else base
    table = BindingTable()
    block = table.register_many(
        base, count,
        care_of=lambda index: COA.value + index,
        registered_at=array("d", [now] * count),
        lifetime=lifetime,
        now=now,
        alive=bytearray(b"\x01") * count,
    )
    return table, block


class TestPoolBlocks:
    def test_register_many_counts_as_registrations(self):
        table, block = _block_table(count=8)
        assert table.registrations == 8
        assert block.live == 8
        assert len(table) == 8
        assert table.pool_stats()["pooled"] == 8

    def test_lookup_materializes_a_binding_lazily(self):
        table, _ = _block_table()
        target = IPAddress(HOME.value + 3)
        binding = table.lookup(target, now=50.0)
        assert binding is not None
        assert binding.home_address == target
        assert binding.care_of_address.value == COA.value + 3
        # The dict tier stays empty: blocks never leak Binding objects
        # into per-host storage.
        assert table.active(now=50.0) == []

    def test_contains_sees_block_entries(self):
        table, _ = _block_table(count=4)
        assert IPAddress(HOME.value + 3) in table
        assert IPAddress(HOME.value + 4) not in table

    def test_block_entry_expires_exactly_at_the_boundary(self):
        # Same strict boundary the dict tier pins above: valid through,
        # not at, expires_at.
        table, block = _block_table(now=10.0, lifetime=100.0)
        target = IPAddress(HOME.value)
        assert table.lookup(target, now=109.999) is not None
        assert table.lookup(target, now=110.0) is None
        assert table.expirations == 1
        assert block.live == 7
        # The slot stays dead on later lookups.
        assert table.lookup(target, now=10.0) is None

    def test_overlapping_blocks_rejected(self):
        from array import array

        table, _ = _block_table(count=8)
        with pytest.raises(ValueError):
            table.register_many(
                HOME.value + 4, 8,
                care_of=lambda index: COA.value,
                registered_at=array("d", [0.0] * 8),
                lifetime=100.0,
                now=0.0,
                alive=bytearray(b"\x01") * 8,
            )

    def test_explicit_register_shadows_and_retires_the_slot(self):
        table, block = _block_table()
        target = IPAddress(HOME.value + 2)
        table.register(target, COA2, now=5.0, lifetime=100.0)
        assert block.alive[2] == 0
        assert block.live == 7
        binding = table.lookup(target, now=50.0)
        assert binding.care_of_address == COA2
        assert table.deregistrations == 0  # replacement, not removal
        assert len(table) == 8  # 7 pooled + 1 dict

    def test_deregister_kills_the_slot(self):
        table, block = _block_table()
        target = IPAddress(HOME.value + 1)
        removed = table.deregister(target)
        assert removed is not None
        assert removed.care_of_address.value == COA.value + 1
        assert block.live == 7
        assert table.deregistrations == 1
        assert table.lookup(target, now=0.0) is None

    def test_prune_respects_the_expiry_floor(self):
        table, block = _block_table(now=0.0, lifetime=100.0)
        assert table.prune(now=99.0) == 0  # floor ahead of clock: no scan
        assert block.live == 8
        assert table.prune(now=100.0) == 8
        assert block.live == 0
        assert table.expirations == 8

    def test_prune_boundary_is_exact(self):
        table, block = _block_table(now=10.0, lifetime=100.0)
        # Refresh half the block to a later timestamp, as the wheel would.
        for index in range(4):
            block.registered_at[index] = 60.0
        pruned = table.prune(now=110.0)
        assert pruned == 4  # exactly the unrefreshed half, at the boundary
        assert [bool(b) for b in block.alive] == [True] * 4 + [False] * 4
        # The floor now reflects the survivors' expiry.
        assert block.expiry_floor == 160.0

    def test_prune_is_safe_during_active_snapshot_iteration(self):
        # prune() collects then deletes: mutating while a caller walks a
        # snapshot of active() must not blow up or skip entries.
        table = BindingTable()
        for offset in range(6):
            table.register(IPAddress(HOME.value + offset), COA,
                           now=0.0, lifetime=10.0 if offset % 2 else 1000.0)
        snapshot = table.active(now=0.0)
        for binding in snapshot:
            table.prune(now=500.0)  # expires the short-lived half
            assert binding.home_address is not None
        assert len(table) == 3
        assert table.expirations == 3

    def test_flush_counts_block_entries(self):
        table, block = _block_table(count=5)
        table.register(IPAddress("10.9.0.1"), COA, now=0.0)
        assert table.flush() == 6
        assert len(table) == 0
        assert table.pool_stats()["blocks"] == 0
        # The dropped block's alive column is zeroed, not just unlinked:
        # the pool sharing it must see its hosts unregistered.
        assert block.live == 0 and not any(block.alive)

    def test_peek_reads_without_expiring(self):
        table, block = _block_table(now=0.0, lifetime=100.0)
        target = IPAddress(HOME.value)
        binding = table.peek(target)
        assert binding is not None and binding.lifetime == 100.0
        assert block.live == 8  # peek never kills
