"""End-to-end chaos runs: determinism and scripted outage recovery.

These are the acceptance tests for the fault-injection subsystem: the
same plan and seed must reproduce a byte-identical trace, and a
scripted home-agent crash must drive the full recovery arc —
registration backoff, give-up, the slow re-registration loop picking
the restarted agent back up, and the delivery-method cache re-probing
its way up the ladder once the network heals.
"""

from __future__ import annotations

from repro.analysis.chaos import demo_plan, run_chaos
from repro.core.modes import OutMode
from repro.netsim import FaultKind, FaultPlan


class TestChaosDeterminism:
    def test_same_plan_and_seed_reproduce_digest(self):
        first = run_chaos(plan=demo_plan(), seed=7, duration=130.0)
        second = run_chaos(plan=demo_plan(), seed=7, duration=130.0)
        assert first.digest == second.digest
        assert first.trace_entries == second.trace_entries
        assert first.to_dict() == second.to_dict()
        assert first.faults  # the plan actually fired

    def test_different_seed_diverges(self):
        # Divergence needs genuinely probabilistic loss in play: a
        # rate-1.0 blackout drops everything whatever the RNG says, so
        # this plan uses a long partial-loss burst instead.
        def lossy_plan():
            return FaultPlan().add(5.0, FaultKind.LOSS_BURST, "visited-lan",
                                   duration=60.0, loss_rate=0.3)

        first = run_chaos(plan=lossy_plan(), seed=7, duration=80.0)
        other = run_chaos(plan=lossy_plan(), seed=8, duration=80.0)
        assert first.digest != other.digest


class TestHomeAgentOutageRecovery:
    def test_outage_restart_drives_backoff_and_reprobe(self):
        # A move inside the outage window: the mobile host registers
        # its new care-of address with a dead home agent at 45s and the
        # backoff ladder runs dry before the restart at 100s (an outage
        # shorter than the backoff window gets rescued by requests
        # queued behind ARP at the home router, so no give-up would be
        # recorded).  The post-give-up timer then re-registers with the
        # restarted agent.
        plan = FaultPlan()
        plan.add(20.0, FaultKind.LOSS_BURST, "visited-lan",
                 duration=8.0, loss_rate=1.0)
        plan.add(40.0, FaultKind.NODE_DOWN, "ha")
        plan.add(45.0, FaultKind.MOVE, "mh", domain="visited")
        plan.add(100.0, FaultKind.AGENT_RESTART, "ha", flush_bindings=True)
        report = run_chaos(plan=plan, seed=11, duration=200.0)

        # Registration arc: at least one backoff give-up during the
        # outage, then recovery — registered again at the end, with the
        # restarted agent holding exactly the mobile host's binding.
        assert report.registration_failures >= 1
        assert report.registered
        assert report.ha_restarts == 1
        assert report.ha_bindings == 1

        # Delivery-mode arc: the blackout demoted the ladder, aging/
        # forgiveness let it climb back to direct delivery.
        assert report.mode_changes >= 2
        assert report.forgiveness >= 1
        assert report.final_mode == OutMode.OUT_DH.value

        # The conversation survived the whole ordeal: traffic flowed
        # again after the last fault (echo count keeps growing past
        # the outage, so late messages really were delivered).
        assert report.reconnects >= 1
        assert report.echoes > 0
        assert report.messages_sent > report.echoes  # some were lost

    def test_outage_without_refresh_pressure_stays_clean(self):
        # Same outage but with the default 300s lifetime: no refresh
        # falls inside the window, so no give-up is recorded — the
        # failure counter isolates genuine backoff exhaustion.
        plan = FaultPlan()
        plan.add(40.0, FaultKind.NODE_DOWN, "ha")
        plan.add(70.0, FaultKind.AGENT_RESTART, "ha", flush_bindings=False)
        report = run_chaos(plan=plan, seed=11, duration=120.0)
        assert report.registration_failures == 0
        assert report.registered
