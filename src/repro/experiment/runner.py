"""The canonical run lifecycle: build → arm → drive → collect.

Every driver in the tree used to hand-roll this sequence around
:func:`build_scenario`; the :class:`Runner` owns it once.  Given an
:class:`~repro.experiment.spec.ExperimentSpec` it

1. **builds** the scenario from ``spec.scenario_kwargs()``;
2. **arms** the observability layer (``spec.observe``), the invariant
   monitor (``spec.arm_invariants``), the fault plan, and the
   adversary schedule — in that fixed order, which reproduces the
   event-queue insertion order of the legacy call sites so trace
   digests are byte-identical to the code this replaced;
3. **drives** the spec's traffic program: a UDP schedule, or a TCP
   conversation started after the faults and the adversary;
4. **collects** a :class:`RunResult`: trace digest, deliverability and
   overhead summaries, a full metrics-registry snapshot, and the
   invariant verdict.

A :class:`RunResult` is plain data (JSON/pickle-clean), so runs can
execute in worker processes and merge losslessly — the property the
parallel sweep executor is built on.  For in-process callers that need
the live objects (benchmark asserts, chrome-trace export), the runner
keeps the last scenario on :attr:`Runner.scenario`.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from ..analysis.scenarios import Scenario, build_scenario
from ..bench.golden import trace_digest
from ..netsim.faults import FaultInjector
from ..transport.tcp import TCPConnection, TCPState
from .spec import ExperimentSpec

__all__ = ["RunResult", "Runner", "gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic GC for the block; a nested pause changes nothing.

    A run allocates heavily (trace entries, heap tuples, packet
    objects) and frees almost nothing until it ends, so gen-0 scans
    during it are wasted work.  Hold the pause over a world's whole
    life: a world built, driven and dropped inside one pause is all
    young garbage when the GC resumes, and the first collection frees
    it.  A world still referenced when the pause ends is promoted to
    an older generation by that collection instead, and outlives later
    worlds until an older generation is collected.  So a caller that
    runs worlds in a loop drops its runner inside the pause.  The GC
    is re-enabled even on error, and only by the pause that disabled
    it.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class RunResult:
    """Everything one run produced, as plain data."""

    spec: Dict[str, Any]
    label: str
    seed: int
    sim_time: float
    digest: str
    trace_entries: int
    deliverability: Dict[str, Any]
    overhead: Dict[str, Any]
    # MetricsRegistry.collect(): {"name{k=v,...}": value}.
    metrics: Dict[str, Any]
    invariants: Dict[str, Any]
    registered: Optional[bool]
    faults: Dict[str, int] = field(default_factory=dict)
    obs: Optional[Dict[str, Any]] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    # Per-phase wall timings from the Runner profiler: build / arm /
    # drive / collect / total, in seconds.  Defaulted so result dicts
    # cached before the profiler existed still deserialize.
    timings: Dict[str, float] = field(default_factory=dict)
    # Non-None marks a quarantined sweep cell that never produced a
    # real result: {"reason": "exception"|"crash"|"timeout",
    # "attempts": N, "message": ..., "history": [...]}.  Defaulted so
    # result dicts written before fault tolerance still deserialize.
    failure: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Ran to completion with no invariant violations."""
        return (self.failure is None
                and not self.invariants.get("violation_count"))

    @property
    def outcome(self) -> str:
        """``"ok"`` | ``"violations"`` | ``"failed"`` — one word per cell."""
        if self.failure is not None:
            return "failed"
        if self.invariants.get("violation_count"):
            return "violations"
        return "ok"

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return self.invariants.get("violations", [])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "label": self.label,
            "seed": self.seed,
            "sim_time": self.sim_time,
            "digest": self.digest,
            "trace_entries": self.trace_entries,
            "deliverability": self.deliverability,
            "overhead": self.overhead,
            "metrics": self.metrics,
            "invariants": self.invariants,
            "registered": self.registered,
            "faults": self.faults,
            "obs": self.obs,
            "extras": self.extras,
            "timings": self.timings,
            "failure": self.failure,
            "outcome": self.outcome,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        data = dict(data)
        # outcome is derived, not stored state; older dicts lack it
        # (and failure), newer readers of older dicts default both.
        data.pop("outcome", None)
        return cls(**data)


class Runner:
    """Executes one :class:`ExperimentSpec` through the full lifecycle.

    ``flightrec_path`` arms the postmortem flight recorder (see
    :mod:`repro.obs.flightrec`): the ring rides every run, and a run
    that ends with invariant violations dumps it to that path; the
    dump's whereabouts land in ``RunResult.extras["flightrec"]``.  It
    defaults off, so plain callers pay nothing.  Run-ledger records
    are written by the sweep
    (:class:`~repro.experiment.sweep.SweepExecutor`), not here.
    """

    def __init__(
        self,
        flightrec_path: Optional[str] = None,
        flightrec_limit: Optional[int] = None,
    ) -> None:
        self.scenario: Optional[Scenario] = None
        self.flightrec_path = flightrec_path
        self.flightrec_limit = flightrec_limit

    def run(self, spec: ExperimentSpec) -> RunResult:
        with gc_paused():
            return self._run(spec)

    def _run(self, spec: ExperimentSpec) -> RunResult:
        t_start = perf_counter()
        # -- build ----------------------------------------------------
        scenario = build_scenario(**spec.scenario_kwargs())
        self.scenario = scenario
        sim = scenario.sim
        t_built = perf_counter()

        # -- arm ------------------------------------------------------
        obs = (
            sim.enable_observability(engine_cadence=spec.obs_cadence)
            if spec.observe else None
        )
        monitor = (
            sim.enable_invariants(**spec.invariant_kwargs())
            if spec.arm_invariants else None
        )
        flightrec = (
            sim.enable_flight_recorder(limit=self.flightrec_limit)
            if self.flightrec_path is not None else None
        )
        t_armed = perf_counter()

        # -- drive ----------------------------------------------------
        end = (spec.duration if spec.absolute
               else sim.now + spec.duration + spec.settle_margin)
        if spec.traffic is not None and spec.traffic.resolved_events():
            _schedule_traffic(scenario, spec)
        injector = None
        plan = spec.fault_plan()
        if plan is not None and plan.events:
            injector = FaultInjector(sim, net=scenario.net)
            injector.inject(plan)
        if spec.adversary:
            _schedule_adversary(scenario, spec)
        extras: Dict[str, Any] = {}
        if spec.traffic is not None and spec.traffic.conversation is not None:
            extras["conversation"] = _start_conversation(scenario, spec, end)

        sim.run(until=end)
        t_driven = perf_counter()

        if monitor is not None:
            monitor.finish(sim.now)
        if obs is not None:
            obs.finish()

        # -- collect --------------------------------------------------
        digest, entries = trace_digest(sim.trace)
        trace = sim.trace
        counts = trace.action_counts
        deliverability = {
            "sent": counts.get("send", 0),
            "delivered": counts.get("deliver", 0),
            "dropped": counts.get("drop", 0),
            "lost": counts.get("lost", 0),
            "drops_by_reason": dict(trace.drops_by_reason),
            "losses_by_reason": dict(trace.losses_by_reason),
        }
        overhead = {
            "tunneled_by_ha": scenario.ha.packets_tunneled,
            "bytes_by_link": dict(trace.bytes_by_link),
        }
        invariants: Dict[str, Any] = {"armed": monitor is not None}
        if monitor is not None:
            invariants.update({
                "violation_count": monitor.violation_count,
                "violations": [v.to_dict() for v in monitor.violations],
                "checks": dict(monitor.checks),
            })
        if flightrec is not None:
            info: Dict[str, Any] = {
                "armed": True,
                "limit": flightrec.limit,
                "recorded": flightrec.recorded,
                "path": None,
                "dumped": False,
                "reason": None,
            }
            if monitor is not None and monitor.violation_count:
                info["path"] = flightrec.dump(
                    self.flightrec_path, reason="invariant-violation",
                    violations=[v.to_dict() for v in monitor.violations])
                info["dumped"] = True
                info["reason"] = "invariant-violation"
            extras["flightrec"] = info
        t_collected = perf_counter()
        timings = {
            "build": t_built - t_start,
            "arm": t_armed - t_built,
            "drive": t_driven - t_armed,
            "collect": t_collected - t_driven,
            "total": t_collected - t_start,
        }
        return RunResult(
            spec=spec.to_dict(),
            label=spec.label,
            seed=spec.seed,
            sim_time=sim.now,
            digest=digest,
            trace_entries=entries,
            deliverability=deliverability,
            overhead=overhead,
            metrics=sim.metrics.collect(),
            invariants=invariants,
            registered=scenario.mh.registered,
            faults=dict(injector.applied) if injector is not None else {},
            obs=obs.report() if obs is not None else None,
            extras=extras,
            timings=timings,
        )


# ----------------------------------------------------------------------
# Traffic & adversary interpreters
# ----------------------------------------------------------------------
def _traffic_sink(*_args) -> None:
    """Shared no-op receive callback for traffic-program sockets."""


def _resolve_traffic_target(scenario: Scenario, target: Optional[str]):
    """The mobile-side traffic endpoint: ``scenario.mh`` by default, or
    the node named by ``TrafficProgram.target``.

    A target name that belongs to a pooled flyweight host promotes it
    to a full node here, at arm time — before any packet flows, so the
    trace is identical to a world where the host was always full (see
    repro.netsim.population).
    """
    if target is None:
        return scenario.mh
    node = scenario.sim.nodes.get(target)
    if node is None and scenario.population is not None:
        node = scenario.population.promote_name(target)
    if node is None:
        raise ValueError(
            f"traffic target {target!r} names no node (and no pooled host)")
    if not hasattr(node, "stack") or not hasattr(node, "home_address"):
        raise ValueError(
            f"traffic target {target!r} is not a mobile endpoint "
            f"(needs a transport stack and a home address)")
    return node


def _schedule_traffic(scenario: Scenario, spec: ExperimentSpec) -> None:
    """Install the spec's UDP program on the scenario's sockets.

    The correspondent and the mobile endpoint each bind a socket at the
    program's ``port``, and each datagram goes to the other end's
    ``port``.
    """
    program = spec.traffic
    assert program is not None
    sim = scenario.sim
    assert scenario.ch is not None and scenario.ch_ip is not None, (
        "traffic program needs a correspondent")
    mobile = _resolve_traffic_target(scenario, program.target)
    port = program.port
    ch_sock = scenario.ch.stack.udp_socket(port)
    ch_sock.on_receive(_traffic_sink)
    mh_sock = mobile.stack.udp_socket(port)
    mh_sock.on_receive(_traffic_sink)
    for index, event in enumerate(program.resolved_events()):
        if event["direction"] == "mh->ch":
            socket, dst = mh_sock, scenario.ch_ip
        else:
            socket, dst = ch_sock, mobile.home_address
        sim.events.schedule(
            event["at"],
            lambda s=socket, size=event["size"], d=dst:
                s.sendto("x", size, d, port),
            label=f"traffic-{index}",
        )


def _start_conversation(scenario: Scenario, spec: ExperimentSpec,
                        end: float) -> Dict[str, int]:
    """Start the spec's TCP conversation; return its live counters.

    The mobile end connects to the correspondent at the program's
    ``port`` and, every ``interval`` until ``end``, sends a 50-byte
    message on an open connection (the correspondent echoes 20 bytes)
    or replaces one that is neither open nor connecting.
    """
    program = spec.traffic
    assert program is not None and scenario.ch is not None
    sim = scenario.sim
    mobile = _resolve_traffic_target(scenario, program.target)
    interval = program.conversation["interval"]
    counts = {"sent": 0, "echoes": 0, "reconnects": 0}
    scenario.ch.stack.listen(program.port, lambda conn: setattr(
        conn, "on_data", lambda data, _size: conn.send(20, ("ack", data))))

    def on_echo(_data, _size) -> None:
        counts["echoes"] += 1

    def connect() -> TCPConnection:
        conn = mobile.stack.connect(scenario.ch_ip, program.port)
        conn.on_data = on_echo
        return conn

    conn = connect()

    def tick() -> None:
        nonlocal conn
        if sim.now >= end:
            return
        if not (conn.is_open or conn.state is TCPState.SYN_SENT):
            counts["reconnects"] += 1
            conn = connect()
        elif conn.is_open:
            counts["sent"] += 1
            conn.send(50, counts["sent"])
        sim.events.schedule(interval, tick)

    sim.events.schedule(interval, tick)
    return counts


def _schedule_adversary(scenario: Scenario, spec: ExperimentSpec) -> None:
    """Schedule the spec's adversary events (attacker on the visited LAN)."""
    from ..verify.adversary import Adversary

    adversary = Adversary("adv", scenario.sim)
    scenario.net.add_host("visited", adversary)
    for index, event in enumerate(spec.adversary):
        scenario.sim.events.schedule(
            event["at"], adversary.attack, event["kind"], scenario.ha_ip,
            scenario.mh, spec.auth_key, label=f"adversary-{index}",
        )
