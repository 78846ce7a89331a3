"""Property-based fuzzing with shrinking.

One :class:`FuzzCase` is a fully-serializable description of a run:
a seed, a topology shape, a traffic mix, a fault schedule, and an
adversary schedule.  :func:`run_case` converts it to an
:class:`~repro.experiment.spec.ExperimentSpec` (``FuzzCase.to_spec``)
and hands it to the shared :class:`~repro.experiment.runner.Runner`,
which builds the stage, arms the
:class:`~repro.verify.invariants.InvariantMonitor`, plays everything
out, and reports any invariant violations.  The spec is also embedded
in repro files, so a shrunken failure replays outside the fuzzer with
``repro-mobility sweep --spec repro.json``.

:func:`run_fuzz` generates cases seed-deterministically (the same
``--seed`` explores the same cases in the same order) and, on the
first violating case, **shrinks** it: greedily dropping fault events,
adversary events, and traffic, and cutting topology and duration, as
long as the violation reproduces.  The minimal case is written to disk
as JSON so ``repro-mobility fuzz --repro file.json`` (or a regression
test) can replay it exactly.

Everything here is deterministic by construction: case generation uses
its own :class:`random.Random`, and a run's behaviour depends only on
the case's fields — never on wall clocks or global state.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..experiment.cache import ResultCache
from ..experiment.runner import Runner
from ..experiment.spec import ExperimentSpec, TrafficProgram
from ..mobileip.correspondent import Awareness
from ..netsim.faults import FaultPlan

__all__ = [
    "FuzzCase",
    "CaseResult",
    "FuzzReport",
    "generate_case",
    "run_case",
    "shrink_case",
    "run_fuzz",
]

AUTH_KEY = "fuzz-shared-secret"
SETTLE_MARGIN = 5.0        # run past the nominal duration for stragglers
TRAFFIC_PORT = 6200
_TRAFFIC_SIZES = (50, 200, 600, 1400, 2500)
_FAULT_MENU = ("link-flap", "loss-burst", "filter-toggle",
               "agent-restart", "node-outage")
_ADVERSARY_MENU = ("spoof", "replay", "bogus", "truncated")


@dataclass
class FuzzCase:
    """One serializable fuzz input."""

    seed: int
    duration: float = 40.0
    backbone_size: int = 4
    ch_attach: int = 1
    visited_filtering: bool = False
    auth: bool = False
    traffic: List[Dict[str, Any]] = field(default_factory=list)
    faults: List[Dict[str, Any]] = field(default_factory=list)
    adversary: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def event_count(self) -> int:
        return len(self.traffic) + len(self.faults) + len(self.adversary)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        return cls.from_dict(json.loads(text))

    def to_spec(
        self, max_tunnel_depth: Optional[int] = None
    ) -> ExperimentSpec:
        """This case's world as an :class:`ExperimentSpec`.

        The spec is the replayable form: it lands inside the repro
        JSON so ``repro-mobility sweep --spec repro.json`` re-runs the
        exact world (invariants armed) outside the fuzzer.
        """
        faults = None
        if self.faults:
            plan = FaultPlan()
            for event in self.faults:
                plan.add(event["time"], event["kind"], event["target"],
                         **event.get("params", {}))
            faults = plan.to_dict()
        return ExperimentSpec(
            label=f"fuzz-case-{self.seed}",
            seed=self.seed,
            duration=self.duration,
            settle_margin=SETTLE_MARGIN,
            backbone_size=self.backbone_size,
            ch_attach=min(self.ch_attach, self.backbone_size - 1),
            awareness=Awareness.DECAP_CAPABLE.value,
            visited_filtering=self.visited_filtering,
            auth_key=AUTH_KEY if self.auth else None,
            traffic=TrafficProgram(
                port=TRAFFIC_PORT,
                ch_bind=True,
                payload_style="indexed",
                events=list(self.traffic),
            ),
            faults=faults,
            adversary=list(self.adversary),
            arm_invariants=True,
            max_tunnel_depth=max_tunnel_depth,
        )


@dataclass
class CaseResult:
    """What one case's run produced."""

    violations: List[Dict[str, Any]]
    checks: Dict[str, int]
    trace_entries: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated_invariants(self) -> List[str]:
        return sorted({v["invariant"] for v in self.violations})


def generate_case(seed: int) -> FuzzCase:
    """Derive one random case from a seed, deterministically."""
    rng = random.Random(seed)
    duration = round(rng.uniform(30.0, 80.0), 1)
    backbone_size = rng.randint(3, 6)
    case = FuzzCase(
        seed=seed,
        duration=duration,
        backbone_size=backbone_size,
        ch_attach=rng.randrange(backbone_size),
        visited_filtering=rng.random() < 0.25,
        auth=rng.random() < 0.5,
    )
    for _ in range(rng.randint(5, 20)):
        case.traffic.append({
            "at": round(rng.uniform(1.0, duration), 3),
            "direction": rng.choice(("mh->ch", "ch->mh")),
            "size": rng.choice(_TRAFFIC_SIZES),
        })
    for _ in range(rng.randint(0, 5)):
        case.faults.extend(_random_fault(rng, duration))
    for _ in range(rng.randint(0, 4)):
        case.adversary.append({
            "at": round(rng.uniform(2.0, duration), 3),
            "kind": rng.choice(_ADVERSARY_MENU),
        })
    case.traffic.sort(key=lambda event: event["at"])
    case.faults.sort(key=lambda event: event["time"])
    case.adversary.sort(key=lambda event: event["at"])
    return case


def _random_fault(rng: random.Random, duration: float) -> List[Dict[str, Any]]:
    kind = rng.choice(_FAULT_MENU)
    at = round(rng.uniform(2.0, max(3.0, duration - 5.0)), 3)
    if kind == "link-flap":
        target = rng.choice(("uplink-visited", "uplink-home"))
        return [{"time": at, "kind": "link-flap", "target": target,
                 "params": {"duration": round(rng.uniform(1.0, 8.0), 3)}}]
    if kind == "loss-burst":
        target = rng.choice(("visited-lan", "home-lan"))
        return [{"time": at, "kind": "loss-burst", "target": target,
                 "params": {"duration": round(rng.uniform(1.0, 6.0), 3),
                            "loss_rate": round(rng.uniform(0.3, 1.0), 3)}}]
    if kind == "filter-toggle":
        tighten = rng.random() < 0.5
        return [{"time": at, "kind": "filter-toggle", "target": "visited-gw",
                 "params": {"source_filtering": tighten,
                            "forbid_transit": tighten}}]
    if kind == "agent-restart":
        return [{"time": at, "kind": "agent-restart", "target": "ha",
                 "params": {"flush_bindings": rng.random() < 0.7}}]
    # node-outage: a down always paired with a later up, so the run can
    # end in a recoverable state.
    target = rng.choice(("ha", "mh"))
    up_at = round(at + rng.uniform(2.0, 10.0), 3)
    return [
        {"time": at, "kind": "node-down", "target": target, "params": {}},
        {"time": up_at, "kind": "node-up", "target": target, "params": {}},
    ]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_case(
    case: FuzzCase,
    max_tunnel_depth: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    flightrec_path: Optional[str] = None,
) -> CaseResult:
    """Build the case's world, run it with invariants armed, report.

    One line of real work: the case converts to an
    :class:`ExperimentSpec` and the shared :class:`Runner` owns the
    build → arm → drive → collect lifecycle (traffic, fault plan, and
    adversary schedule included).  With a ``cache``, the spec digest is
    looked up first — the shrinker revisits near-identical worlds, and
    a hit skips the whole run.  ``flightrec_path`` arms the flight
    recorder and forces a live run (a cache hit has no ring to dump).
    """
    spec = case.to_spec(max_tunnel_depth=max_tunnel_depth)
    if flightrec_path is not None:
        cache = None
    result = cache.lookup(spec) if cache is not None else None
    if result is None:
        result = Runner(flightrec_path=flightrec_path).run(spec)
        if cache is not None:
            cache.store(spec, result)
    return CaseResult(
        violations=list(result.invariants["violations"]),
        checks=dict(result.invariants["checks"]),
        trace_entries=result.trace_entries,
    )


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _candidates(case: FuzzCase) -> List[FuzzCase]:
    """Smaller variants, most-aggressive first."""
    variants: List[FuzzCase] = []

    def clone(**changes: Any) -> FuzzCase:
        data = case.to_dict()
        data.update(changes)
        return FuzzCase.from_dict(data)

    if len(case.traffic) > 1:
        half = len(case.traffic) // 2
        variants.append(clone(traffic=case.traffic[:half]))
        variants.append(clone(traffic=case.traffic[half:]))
    for index in range(len(case.faults)):
        variants.append(clone(
            faults=case.faults[:index] + case.faults[index + 1:]))
    for index in range(len(case.adversary)):
        variants.append(clone(
            adversary=case.adversary[:index] + case.adversary[index + 1:]))
    if len(case.traffic) <= 4:
        for index in range(len(case.traffic)):
            variants.append(clone(
                traffic=case.traffic[:index] + case.traffic[index + 1:]))
    if case.backbone_size > 2:
        variants.append(clone(backbone_size=case.backbone_size - 1,
                              ch_attach=min(case.ch_attach,
                                            case.backbone_size - 2)))
    last_event = max(
        [e["at"] for e in case.traffic]
        + [e["time"] for e in case.faults]
        + [e["at"] for e in case.adversary]
        + [0.0]
    )
    if case.duration > last_event + SETTLE_MARGIN + 1.0:
        variants.append(clone(duration=round(last_event + SETTLE_MARGIN, 1)))
    return variants


def shrink_case(
    case: FuzzCase,
    target_invariant: str,
    max_runs: int = 200,
    max_tunnel_depth: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> FuzzCase:
    """Greedy shrink to a fixpoint, preserving the target violation.

    The greedy loop regenerates candidate lists after every accepted
    shrink, so the same candidate world often comes up again; with a
    ``cache`` those repeats are digest hits instead of full runs.
    """
    current = case
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in _candidates(current):
            runs += 1
            if runs >= max_runs:
                break
            result = run_case(
                candidate, max_tunnel_depth=max_tunnel_depth, cache=cache)
            if target_invariant in result.violated_invariants():
                current = candidate
                improved = True
                break
    return current


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    seed: int
    iterations: int
    cases_run: int = 0
    failed: bool = False
    failing_case: Optional[Dict[str, Any]] = None
    shrunk_case: Optional[Dict[str, Any]] = None
    violations: List[Dict[str, Any]] = field(default_factory=list)
    repro_path: Optional[str] = None
    flightrec_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "cases_run": self.cases_run,
            "failed": self.failed,
            "failing_case": self.failing_case,
            "shrunk_case": self.shrunk_case,
            "violations": self.violations,
            "repro_path": self.repro_path,
            "flightrec_path": self.flightrec_path,
        }

    def render(self) -> str:
        if not self.failed:
            return (f"fuzz: {self.cases_run}/{self.iterations} cases, "
                    f"seed={self.seed}, no invariant violations")
        lines = [
            f"fuzz: FAILED after {self.cases_run} cases (seed={self.seed})",
        ]
        for violation in self.violations[:5]:
            lines.append(
                f"  [{violation['invariant']}] t={violation['time']:.3f} "
                f"node={violation['node']} trace={violation['trace_id']}: "
                f"{violation['message']}"
            )
        if self.shrunk_case is not None:
            shrunk = FuzzCase.from_dict(self.shrunk_case)
            lines.append(
                f"  shrunk to {shrunk.event_count} events "
                f"(duration {shrunk.duration:.0f}s, "
                f"backbone {shrunk.backbone_size})"
            )
        if self.repro_path:
            lines.append(f"  repro written to {self.repro_path}")
        if self.flightrec_path:
            lines.append(
                f"  flight recorder dumped to {self.flightrec_path}")
        return "\n".join(lines)


def run_fuzz(
    iterations: int = 200,
    seed: int = 4,
    out: Optional[str] = None,
    shrink: bool = True,
    max_tunnel_depth: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    flightrec_path: Optional[str] = None,
) -> FuzzReport:
    """Run the fuzz loop; on the first violation, shrink and report.

    ``out`` is where the shrunken repro JSON lands (only written on
    failure).  Stops at the first failing case — fuzzing is a
    detector, not a census.

    ``flightrec_path`` keeps the campaign and shrinker unperturbed
    (the ring would defeat the shrinker's cache) and instead replays
    the **shrunken** case once with the flight recorder armed, so the
    dump on disk matches the repro JSON next to it.
    """
    master = random.Random(seed)
    report = FuzzReport(seed=seed, iterations=iterations)
    for _ in range(iterations):
        case_seed = master.randrange(1 << 31)
        case = generate_case(case_seed)
        result = run_case(case, max_tunnel_depth=max_tunnel_depth, cache=cache)
        report.cases_run += 1
        if result.ok:
            continue
        report.failed = True
        report.failing_case = case.to_dict()
        report.violations = result.violations
        if shrink:
            target = result.violations[0]["invariant"]
            shrunk = shrink_case(
                case, target, max_tunnel_depth=max_tunnel_depth, cache=cache)
            report.shrunk_case = shrunk.to_dict()
        else:
            report.shrunk_case = case.to_dict()
        if out is not None:
            shrunk = FuzzCase.from_dict(report.shrunk_case)
            with open(out, "w") as handle:
                json.dump(
                    {
                        "case": report.shrunk_case,
                        # The replayable form: `repro-mobility sweep
                        # --spec repro.json` re-runs this exact world
                        # through the generic experiment runner.
                        "spec": shrunk.to_spec(
                            max_tunnel_depth=max_tunnel_depth).to_dict(),
                        "violations": report.violations,
                        "original_case": report.failing_case,
                    },
                    handle, indent=2, sort_keys=True,
                )
                handle.write("\n")
            report.repro_path = out
        if flightrec_path is not None:
            # One extra run of the minimal world, ring armed: the
            # violation re-fires (shrinking preserved it) and the
            # Runner dumps the last moments to flightrec_path.
            shrunk = FuzzCase.from_dict(report.shrunk_case)
            replay = run_case(
                shrunk, max_tunnel_depth=max_tunnel_depth,
                flightrec_path=flightrec_path)
            if not replay.ok:
                report.flightrec_path = flightrec_path
        break
    return report


def replay_repro(path: str) -> CaseResult:
    """Re-run a repro file written by :func:`run_fuzz`."""
    with open(path) as handle:
        payload = json.load(handle)
    case = FuzzCase.from_dict(payload["case"])
    return run_case(case)
