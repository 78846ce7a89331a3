"""Property-based tests for the delivery-method cache state machine.

The §7.1.2 ladder must hold its invariants under *any* interleaving of
failure suspicions, progress signals and the passing of time, in the
configuration every mobile host runs (failure verdicts age).  These
are the properties a deployment would rely on: the current mode is
always a home-address mode, the mode-change counter matches observed
transitions, a pinned record never moves, an upgrade never enters a
mode whose failure verdict is live, a record whose aggressive modes
have all failed sits at Out-IE until it is forgiven, and ``reset_all``
restores the strategy's starting mode.
"""

from fake_clock import FakeClock, make_cache
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modes import OutMode
from repro.core.policy import Disposition, MobilityPolicyTable
from repro.core.selection import (
    FAILED_MODE_TTL,
    FORGIVE_AFTER,
    LADDER_AGGRESSIVE_FIRST,
    ProbeStrategy,
)
from repro.netsim import IPAddress

CH = IPAddress("10.3.0.2")

SIGNALS = ("suspect", "progress", "packet")
signals = st.sampled_from(SIGNALS)
# A float is a tick: the clock advances that many seconds.  Ticks are
# as likely as each signal, and a case has at least ten events, so that
# most cases hold a success run long enough to upgrade (the product's
# four) while a verdict is still live.
events = st.lists(
    st.one_of(*map(st.just, SIGNALS), st.floats(min_value=0.0, max_value=40.0)),
    min_size=10, max_size=80,
)
strategies = st.sampled_from(list(ProbeStrategy))


def apply(cache, clock, event):
    if event == "suspect":
        cache.on_suspect(CH)
    elif event == "progress":
        cache.on_progress(CH)
    elif event == "packet":
        cache.mode_for(CH)
    else:
        clock.now += event


def drive(cache, clock, sequence):
    """Apply an event sequence, recording every observed transition."""
    transitions = []
    previous = cache.record_for(CH).current
    for event in sequence:
        apply(cache, clock, event)
        current = cache.record_for(CH).current
        if current is not previous:
            transitions.append((previous, current))
            previous = current
    return transitions


def live_verdicts(record, now):
    """The failure verdicts a progress call at ``now`` still honours:
    younger than ``FAILED_MODE_TTL``, and not cleared by the call's own
    forgiveness (its success would be the ``FORGIVE_AFTER``-th in a
    row)."""
    if record.successes_at_current + 1 >= FORGIVE_AFTER:
        return set()
    return {mode for mode in record.failed
            if now - record.failed_at[mode] < FAILED_MODE_TTL}


class TestCacheProperties:
    @settings(max_examples=200)
    @given(strategy=strategies, sequence=events)
    def test_current_mode_always_on_ladder(self, strategy, sequence):
        clock = FakeClock()
        cache = make_cache(strategy, clock=clock)
        drive(cache, clock, sequence)
        assert cache.record_for(CH).current in LADDER_AGGRESSIVE_FIRST

    @settings(max_examples=200)
    @given(strategy=strategies, sequence=events)
    def test_mode_changes_counter_matches_transitions(self, strategy, sequence):
        clock = FakeClock()
        cache = make_cache(strategy, clock=clock)
        transitions = drive(cache, clock, sequence)
        assert cache.record_for(CH).mode_changes == len(transitions)

    @settings(max_examples=200)
    @given(strategy=strategies, sequence=events)
    def test_upgrades_never_enter_failed_modes(self, strategy, sequence):
        clock = FakeClock()
        cache = make_cache(strategy, clock=clock)
        record = cache.record_for(CH)
        for event in sequence:
            if event == "progress":
                live = live_verdicts(record, clock.now)
                previous = record.current
                cache.on_progress(CH)
                if record.current is not previous:
                    assert record.current not in live
            else:
                apply(cache, clock, event)

    @settings(max_examples=200)
    @given(sequence=events)
    def test_pinned_record_never_moves(self, sequence):
        policy = MobilityPolicyTable()
        policy.add("10.3.0.0/16", Disposition.HOME_ONLY)
        clock = FakeClock()
        cache = make_cache(ProbeStrategy.RULE_SEEDED, clock=clock,
                           policy=policy, upgrade_after=1)
        # (suspicions may demote even a pinned record in principle,
        # but HOME_ONLY already sits at the bottom of the ladder)
        drive(cache, clock, sequence)
        assert cache.record_for(CH).current is OutMode.OUT_IE

    @settings(max_examples=200)
    @given(strategy=strategies,
           sequence=st.lists(signals, min_size=10, max_size=80))
    def test_all_failed_means_out_ie(self, strategy, sequence):
        """Once every aggressive mode has failed, the record sits at
        Out-IE while the clock stands still, until ``FORGIVE_AFTER``
        consecutive successes forgive the verdicts."""
        clock = FakeClock()
        cache = make_cache(strategy, clock=clock, upgrade_after=1)
        record = cache.record_for(CH)
        for mode in (OutMode.OUT_DH, OutMode.OUT_DE):
            record.failed.add(mode)
            record.failed_at[mode] = clock.now
        record.current = OutMode.OUT_IE
        run = 0
        for event in sequence:
            apply(cache, clock, event)
            if event == "suspect":
                run = 0
            elif event == "progress":
                run += 1
            if run >= FORGIVE_AFTER:
                break
            assert record.current is OutMode.OUT_IE

    @settings(max_examples=200)
    @given(strategy=strategies, sequence=events)
    def test_reset_all_restores_strategy_start(self, strategy, sequence):
        clock = FakeClock()
        cache = make_cache(strategy, clock=clock)
        drive(cache, clock, sequence)
        cache.reset_all()
        fresh = cache.record_for(CH)
        expected = (OutMode.OUT_DH
                    if strategy is ProbeStrategy.AGGRESSIVE_FIRST
                    else OutMode.OUT_IE)
        assert fresh.current is expected
        assert fresh.failed == set()
        assert fresh.mode_changes == 0


class TestAllocatorProperties:
    """Regression properties for the address allocator (a claim()ed
    address must never be re-issued by allocate())."""

    @settings(max_examples=100)
    @given(claims=st.lists(st.integers(min_value=1, max_value=50),
                           unique=True, max_size=20),
           allocations=st.integers(min_value=0, max_value=25))
    def test_allocate_never_returns_claimed(self, claims, allocations):
        from repro.netsim import AddressAllocator, IPAddress, Network

        allocator = AddressAllocator(Network("10.0.0.0/24"), reserve=0)
        claimed = set()
        for octet in claims:
            claimed.add(allocator.claim(IPAddress(f"10.0.0.{octet}")))
        issued = set()
        for _ in range(allocations):
            address = allocator.allocate()
            assert address not in claimed
            assert address not in issued
            issued.add(address)
