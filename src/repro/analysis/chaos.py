"""Chaos scenarios: the canonical stage under a scripted hostile network.

The recovery machinery of §7.1.2 — probe ladder, retransmission
feedback, registration retries — was designed for networks that fail.
This module runs the standard figure stage (:func:`chaos_spec`) under
a :class:`~repro.netsim.faults.FaultPlan` while a long-lived TCP
conversation between the mobile host and the correspondent keeps the
delivery-mode machinery honest: blackouts demote it down the ladder, a
home-agent crash forces registration backoff, and recovery lets the
failed-mode aging re-probe back up.

Everything is seed-deterministic: the fault plan schedules ordinary
engine events, so the same plan + seed reproduces the trace digest
byte-for-byte (:func:`repro.bench.golden.trace_digest`) — the property
the chaos determinism tests pin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from ..core.selection import ProbeStrategy
from ..experiment.runner import Runner
from ..experiment.spec import ExperimentSpec, TrafficProgram
from ..mobileip.correspondent import Awareness
from ..netsim.faults import FaultKind, FaultPlan

__all__ = [
    "CHAOS_PORT",
    "ChaosReport",
    "chaos_spec",
    "demo_plan",
    "run_chaos",
]

CHAOS_PORT = 6100


def chaos_spec(
    seed: int = 4242,
    duration: float = 260.0,
    plan: Optional[FaultPlan] = None,
    arm_invariants: bool = False,
    message_interval: float = 2.0,
    **overrides: Any,
) -> ExperimentSpec:
    """The chaos world as an :class:`ExperimentSpec`.

    The visited domain is permissive (no egress source filtering) and
    the correspondent can decapsulate, so a conservative-first mobile
    host genuinely climbs Out-IE → Out-DE → Out-DH when the network is
    healthy — giving faults something to knock down.  The traffic is a
    TCP conversation from the mobile host, one message per
    ``message_interval``.  ``overrides`` are further spec fields.
    """
    fields: Dict[str, Any] = dict(
        seed=seed,
        duration=duration,
        absolute=True,
        strategy=ProbeStrategy.CONSERVATIVE_FIRST.value,
        awareness=Awareness.DECAP_CAPABLE.value,
        visited_filtering=False,
        arm_invariants=arm_invariants,
        faults=plan.to_dict() if plan is not None else None,
        traffic=TrafficProgram(
            port=CHAOS_PORT, conversation={"interval": message_interval}),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def demo_plan() -> FaultPlan:
    """A default chaos script over the canonical stage's names.

    A loss blackout on the visited LAN (demotes the ladder), a
    home-agent crash and later restart with its binding table flushed
    (forces registration backoff + re-registration), a boundary-router
    filter toggle (kills Out-DH mid-run, then relents), and an uplink
    flap.  Times leave room between acts for the recovery machinery to
    visibly climb back.
    """
    plan = FaultPlan()
    plan.add(20.0, FaultKind.LOSS_BURST, "visited-lan",
             duration=8.0, loss_rate=1.0)
    plan.add(60.0, FaultKind.NODE_DOWN, "ha")
    plan.add(100.0, FaultKind.AGENT_RESTART, "ha", flush_bindings=True)
    plan.add(150.0, FaultKind.FILTER_TOGGLE, "visited-gw",
             source_filtering=True, forbid_transit=True)
    plan.add(185.0, FaultKind.FILTER_TOGGLE, "visited-gw",
             source_filtering=False, forbid_transit=False)
    plan.add(220.0, FaultKind.LINK_FLAP, "uplink-visited", duration=5.0)
    return plan


@dataclass
class ChaosReport:
    """What one chaos run did and how the recovery machinery fared."""

    seed: int
    duration: float
    digest: str
    trace_entries: int
    faults: Dict[str, int] = field(default_factory=dict)
    messages_sent: int = 0
    echoes: int = 0
    reconnects: int = 0
    registration_attempts: int = 0
    registration_failures: int = 0
    registered: bool = False
    ha_restarts: int = 0
    ha_bindings: int = 0
    mode_changes: int = 0
    final_mode: Optional[str] = None
    forgiveness: int = 0
    invariants_armed: bool = False
    invariant_violations: int = 0
    # Path of the postmortem flight-recorder dump, when one was armed
    # and the run ended unhealthy (violation or unrecovered
    # registration); None otherwise.
    flightrec_path: Optional[str] = None
    # The observability report, when the run was observed (see the
    # CLI's global --obs-out flag); None otherwise.
    obs: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        faults = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(self.faults.items())
        ) or "none"
        lines = [
            f"chaos run: seed={self.seed} duration={self.duration:.0f}s "
            f"trace={self.trace_entries} entries digest={self.digest[:16]}…",
            f"  faults applied      {faults}",
            f"  conversation        {self.echoes}/{self.messages_sent} echoed, "
            f"{self.reconnects} reconnects",
            f"  registration        {self.registration_attempts} attempts, "
            f"{self.registration_failures} give-ups, "
            f"registered={self.registered}",
            f"  home agent          {self.ha_restarts} restarts, "
            f"{self.ha_bindings} bindings at end",
            f"  delivery modes      {self.mode_changes} changes, "
            f"final={self.final_mode or '-'}, "
            f"forgiveness={self.forgiveness}",
        ]
        if self.invariants_armed:
            lines.append(
                f"  invariants          {self.invariant_violations} violations"
            )
        if self.flightrec_path:
            lines.append(
                f"  flight recorder     dumped to {self.flightrec_path}"
            )
        return "\n".join(lines)


def run_chaos(
    plan: Optional[FaultPlan] = None,
    seed: int = 4242,
    duration: float = 260.0,
    message_interval: float = 2.0,
    arm_invariants: bool = False,
    flightrec_path: Optional[str] = None,
    **overrides: Any,
) -> ChaosReport:
    """Run one chaos scenario end to end and report.

    A paced TCP conversation (one message per ``message_interval``)
    runs from the mobile host to the correspondent for the whole
    ``duration``; when a fault kills the connection outright the host
    reconnects on the next tick.  ``plan`` defaults to
    :func:`demo_plan`; pass ``duration`` long enough for the plan's
    last act plus recovery.

    ``overrides`` are further spec fields (the CLI passes ``observe``).
    ``flightrec_path`` arms the flight recorder for the run; beyond the
    runner's own dump-on-violation, a chaos run also dumps when the
    mobile host ends the run unregistered — the chaos-specific "the
    recovery machinery lost" outcome worth a postmortem.
    """
    if plan is None:
        plan = demo_plan()
    # The monitor is passive (no RNG draws, no state mutation), so
    # arming it never changes the digest of the run it watches.
    spec = chaos_spec(
        seed=seed,
        duration=duration,
        plan=plan,
        arm_invariants=arm_invariants,
        message_interval=message_interval,
        **overrides,
    )
    runner = Runner(flightrec_path=flightrec_path)
    result = runner.run(spec)
    conversation = result.extras["conversation"]
    scenario = runner.scenario
    assert scenario is not None
    record = scenario.mh.engine.cache.records.get(scenario.ch_ip)
    flightrec_info = result.extras.get("flightrec")
    dump_path: Optional[str] = None
    if flightrec_info is not None:
        if flightrec_info["dumped"]:
            dump_path = flightrec_info["path"]
        elif not scenario.mh.registered:
            recorder = scenario.sim.flightrec
            assert recorder is not None and flightrec_path is not None
            dump_path = recorder.dump(
                flightrec_path, reason="unrecovered-registration")
    return ChaosReport(
        seed=seed,
        duration=duration,
        digest=result.digest,
        trace_entries=result.trace_entries,
        faults=dict(result.faults),
        messages_sent=conversation["sent"],
        echoes=conversation["echoes"],
        reconnects=conversation["reconnects"],
        registration_attempts=scenario.mh.registration_attempts,
        registration_failures=scenario.mh.registration_failures,
        registered=scenario.mh.registered,
        ha_restarts=scenario.ha.restarts,
        ha_bindings=len(scenario.ha.bindings),
        mode_changes=scenario.mh.engine.cache.total_mode_changes(),
        final_mode=record.current.value if record else None,
        forgiveness=record.forgiveness if record else 0,
        invariants_armed=result.invariants["armed"],
        invariant_violations=result.invariants.get("violation_count", 0),
        flightrec_path=dump_path,
        obs=result.obs,
    )
