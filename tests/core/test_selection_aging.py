"""Failed-mode aging and forgiveness in the delivery-method cache.

Every mobile host ages its failure verdicts, so one transient failure
does not exclude Out-DH/Out-DE for a correspondent forever.  These
tests pin the two recovery paths: TTL expiry (a verdict expires
``FAILED_MODE_TTL`` seconds after it was recorded) and forgiveness
(``FORGIVE_AFTER`` consecutive successes clear the slate), plus the
detector-side reset on movement.
"""

from __future__ import annotations

from fake_clock import FakeClock, make_cache, make_engine

from repro.core.feedback import RetransmissionDetector
from repro.core.modes import OutMode
from repro.core.policy import Disposition, MobilityPolicyTable
from repro.core.selection import FAILED_MODE_TTL, FORGIVE_AFTER, ProbeStrategy

DST = "10.3.0.2"


class TestFailedTtl:
    def test_failure_verdict_expires_after_ttl(self):
        clock = FakeClock()
        cache = make_cache(ProbeStrategy.CONSERVATIVE_FIRST, clock=clock,
                           upgrade_after=2)
        for _ in range(2):
            cache.on_progress(DST)
        assert cache.record_for(DST).current is OutMode.OUT_DE
        cache.on_suspect(DST)  # Out-DE fails at t=0 -> back to Out-IE
        record = cache.record_for(DST)
        assert record.current is OutMode.OUT_IE
        assert OutMode.OUT_DE in record.failed

        # Within the TTL the verdict stands: upgrades skip Out-DE.
        clock.now = FAILED_MODE_TTL - 1
        for _ in range(2):
            cache.on_progress(DST)
        assert record.current is OutMode.OUT_DH

        # Out-DH fails too.  A TTL after the first verdict only that one
        # has expired: Out-DE is probeable again, Out-DH is not.
        cache.on_suspect(DST)  # DH fails -> DE is still failed -> IE
        assert record.current is OutMode.OUT_IE
        clock.now = FAILED_MODE_TTL
        cache.on_progress(DST)
        assert OutMode.OUT_DE not in record.failed
        assert OutMode.OUT_DH in record.failed
        assert record.forgiveness == 1

    def test_aging_enables_reprobe_for_aggressive_first(self):
        clock = FakeClock()
        cache = make_cache(ProbeStrategy.AGGRESSIVE_FIRST, clock=clock,
                           upgrade_after=2)
        cache.on_suspect(DST)  # Out-DH fails -> Out-DE
        assert cache.record_for(DST).current is OutMode.OUT_DE
        clock.now = FAILED_MODE_TTL
        for _ in range(2):
            cache.on_progress(DST)
        # The expired Out-DH verdict lets the ladder climb back up.
        assert cache.record_for(DST).current is OutMode.OUT_DH


class TestForgiveness:
    def test_sustained_success_clears_failed_set(self):
        cache = make_cache(ProbeStrategy.CONSERVATIVE_FIRST, upgrade_after=2)
        for _ in range(2):
            cache.on_progress(DST)
        cache.on_suspect(DST)  # Out-DE failed -> Out-IE
        record = cache.record_for(DST)
        assert record.failed == {OutMode.OUT_DE}
        # Two successes upgrade (to Out-DH, skipping failed Out-DE) and
        # reset the run counter; FORGIVE_AFTER more at Out-DH forgive.
        for _ in range(2 + FORGIVE_AFTER - 1):
            cache.on_progress(DST)
        assert record.current is OutMode.OUT_DH
        assert record.failed == {OutMode.OUT_DE}
        cache.on_progress(DST)
        assert record.failed == set()
        assert record.forgiveness == 1

    def test_rule_seeded_optimistic_can_reprobe_with_aging(self):
        policy = MobilityPolicyTable(default=Disposition.OPTIMISTIC)
        cache = make_cache(ProbeStrategy.RULE_SEEDED, policy=policy,
                           upgrade_after=2)
        assert cache.record_for(DST).current is OutMode.OUT_DH
        cache.on_suspect(DST)
        assert cache.record_for(DST).current is OutMode.OUT_DE
        for _ in range(FORGIVE_AFTER):
            cache.on_progress(DST)
        # Forgiven and re-probed back up to Out-DH.
        assert cache.record_for(DST).current is OutMode.OUT_DH


class TestDetectorReset:
    def test_reset_all_clears_every_remote(self):
        raised = []
        detector = RetransmissionDetector(
            threshold=3, on_suspect=lambda remote, reason: raised.append(remote)
        )
        for _ in range(2):
            detector.on_send("10.3.0.2", retransmission=True)
        detector.on_send("10.4.0.2", retransmission=True)
        detector.reset_all()
        # Old-path counters are gone: two more retx do not reach the
        # threshold of three, so no suspicion fires after movement.
        for _ in range(2):
            detector.on_send("10.3.0.2", retransmission=True)
        assert raised == []
        assert detector.health("10.3.0.2").retx_to == 2

    def test_engine_on_moved_preserves_detector_identity(self):
        # The transport stack holds the detector through its observer
        # list indirectly via the engine; on_moved must clear state in
        # place, not swap the object out from under held references.
        engine = make_engine()
        detector = engine.detector
        engine.detector.on_send("10.3.0.2", retransmission=True)
        engine.on_moved()
        assert engine.detector is detector
        assert engine.detector.health("10.3.0.2").retx_to == 0
