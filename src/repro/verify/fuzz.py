"""Property-based fuzzing with shrinking.

A fuzz case is an :class:`~repro.experiment.spec.ExperimentSpec`, the
same run format as a sweep cell: :func:`generate_case` derives one
from a seed (a topology shape, a traffic mix, a fault plan, and an
adversary schedule, invariants armed), and :func:`run_case` hands it
to the shared :class:`~repro.experiment.runner.Runner`, which builds
the stage, arms the
:class:`~repro.verify.invariants.InvariantMonitor`, plays everything
out, and returns the :class:`~repro.experiment.runner.RunResult` with
its invariant verdict.  A new axis to explore needs only a change to
the generator.

:func:`run_fuzz` generates cases seed-deterministically (the same
``--seed`` explores the same cases in the same order) and, on the
first violating case, **shrinks** it: greedily dropping fault events,
adversary events, and traffic, and cutting topology and duration, as
long as the violation reproduces.  The repro file is
``{"spec": shrunk, "original_spec": unshrunk, "violations": [...]}``;
``repro-mobility fuzz --repro file.json`` and ``repro-mobility sweep
--spec file.json`` both load it with
:meth:`~repro.experiment.spec.ExperimentSpec.from_file` and replay it
exactly.

Everything here is deterministic by construction: case generation uses
its own :class:`random.Random`, and a run's behaviour depends only on
the spec's fields — never on wall clocks or global state.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..experiment.cache import ResultCache
from ..experiment.runner import Runner, RunResult
from ..experiment.spec import ADVERSARY_KINDS, ExperimentSpec, TrafficProgram
from ..mobileip.correspondent import Awareness

__all__ = [
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


def generate_case(
    seed: int, max_tunnel_depth: Optional[int] = None
) -> ExperimentSpec:
    """Derive one random case from a seed, deterministically."""
    rng = random.Random(seed)
    duration = round(rng.uniform(30.0, 80.0), 1)
    backbone_size = rng.randint(3, 6)
    ch_attach = rng.randrange(backbone_size)
    visited_filtering = rng.random() < 0.25
    auth = rng.random() < 0.5
    traffic = [
        {
            "at": round(rng.uniform(1.0, duration), 3),
            "direction": rng.choice(("mh->ch", "ch->mh")),
            "size": rng.choice(_TRAFFIC_SIZES),
        }
        for _ in range(rng.randint(5, 20))
    ]
    faults: List[Dict[str, Any]] = []
    for _ in range(rng.randint(0, 5)):
        faults.extend(_random_fault(rng, duration))
    adversary = [
        {
            "at": round(rng.uniform(2.0, duration), 3),
            "kind": rng.choice(ADVERSARY_KINDS),
        }
        for _ in range(rng.randint(0, 4))
    ]
    traffic.sort(key=lambda event: event["at"])
    faults.sort(key=lambda event: event["time"])
    adversary.sort(key=lambda event: event["at"])
    return ExperimentSpec(
        label=f"fuzz-case-{seed}",
        seed=seed,
        duration=duration,
        settle_margin=SETTLE_MARGIN,
        backbone_size=backbone_size,
        ch_attach=ch_attach,
        awareness=Awareness.DECAP_CAPABLE.value,
        visited_filtering=visited_filtering,
        auth_key=AUTH_KEY if auth else None,
        traffic=TrafficProgram(port=TRAFFIC_PORT, events=traffic),
        faults={"events": faults} if faults else None,
        adversary=adversary,
        arm_invariants=True,
        max_tunnel_depth=max_tunnel_depth,
    )


def _random_fault(rng: random.Random, duration: float) -> List[Dict[str, Any]]:
    """One fault menu pick as flat :class:`FaultPlan` events."""
    kind = rng.choice(_FAULT_MENU)
    at = round(rng.uniform(2.0, max(3.0, duration - 5.0)), 3)
    if kind == "link-flap":
        target = rng.choice(("uplink-visited", "uplink-home"))
        return [{"time": at, "kind": "link-flap", "target": target,
                 "duration": round(rng.uniform(1.0, 8.0), 3)}]
    if kind == "loss-burst":
        target = rng.choice(("visited-lan", "home-lan"))
        return [{"time": at, "kind": "loss-burst", "target": target,
                 "duration": round(rng.uniform(1.0, 6.0), 3),
                 "loss_rate": round(rng.uniform(0.3, 1.0), 3)}]
    if kind == "filter-toggle":
        tighten = rng.random() < 0.5
        return [{"time": at, "kind": "filter-toggle", "target": "visited-gw",
                 "source_filtering": tighten, "forbid_transit": tighten}]
    if kind == "agent-restart":
        return [{"time": at, "kind": "agent-restart", "target": "ha",
                 "flush_bindings": rng.random() < 0.7}]
    # node-outage: a down always paired with a later up, so the run can
    # end in a recoverable state.
    target = rng.choice(("ha", "mh"))
    up_at = round(at + rng.uniform(2.0, 10.0), 3)
    return [
        {"time": at, "kind": "node-down", "target": target},
        {"time": up_at, "kind": "node-up", "target": target},
    ]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_case(
    spec: ExperimentSpec,
    cache: Optional[ResultCache] = None,
    flightrec_path: Optional[str] = None,
) -> RunResult:
    """Run one case through the shared :class:`Runner`.

    With a ``cache``, the spec digest is looked up first — the shrinker
    revisits near-identical worlds, and a hit skips the whole run.
    ``flightrec_path`` arms the flight recorder and forces a live run
    (a cache hit has no ring to dump).
    """
    if flightrec_path is not None:
        cache = None
    result = cache.lookup(spec) if cache is not None else None
    if result is None:
        result = Runner(flightrec_path=flightrec_path).run(spec)
        if cache is not None:
            cache.store(spec, result)
    return result


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _events(spec: ExperimentSpec) -> Tuple[list, list, list]:
    """The spec's traffic, fault and adversary event lists."""
    traffic = spec.traffic.events if spec.traffic is not None else []
    faults = spec.faults["events"] if spec.faults is not None else []
    return traffic, faults, spec.adversary


def _candidates(spec: ExperimentSpec) -> List[ExperimentSpec]:
    """Smaller variants, most-aggressive first."""
    traffic, faults, adversary = _events(spec)
    variants: List[ExperimentSpec] = []

    def with_traffic(events: List[Dict[str, Any]]) -> ExperimentSpec:
        return spec.replace(traffic=dict(spec.traffic.to_dict(), events=events))

    if len(traffic) > 1:
        half = len(traffic) // 2
        variants.append(with_traffic(traffic[:half]))
        variants.append(with_traffic(traffic[half:]))
    for index in range(len(faults)):
        rest = faults[:index] + faults[index + 1:]
        variants.append(spec.replace(faults={"events": rest} if rest else None))
    for index in range(len(adversary)):
        variants.append(spec.replace(
            adversary=adversary[:index] + adversary[index + 1:]))
    if len(traffic) <= 4:
        for index in range(len(traffic)):
            variants.append(with_traffic(traffic[:index] + traffic[index + 1:]))
    if spec.backbone_size > 2:
        variants.append(spec.replace(
            backbone_size=spec.backbone_size - 1,
            ch_attach=min(spec.ch_attach, spec.backbone_size - 2)))
    last_event = max(
        [e["at"] for e in traffic]
        + [e["time"] for e in faults]
        + [e["at"] for e in adversary]
        + [0.0]
    )
    if spec.duration > last_event + SETTLE_MARGIN + 1.0:
        variants.append(
            spec.replace(duration=round(last_event + SETTLE_MARGIN, 1)))
    return variants


def shrink_case(
    spec: ExperimentSpec,
    target_invariant: str,
    max_runs: int = 200,
    cache: Optional[ResultCache] = None,
) -> ExperimentSpec:
    """Greedy shrink to a fixpoint, preserving the target violation.

    The greedy loop regenerates candidate lists after every accepted
    shrink, so the same candidate world often comes up again; with a
    ``cache`` those repeats are digest hits instead of full runs.
    """
    current = spec
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in _candidates(current):
            runs += 1
            if runs >= max_runs:
                break
            result = run_case(candidate, cache=cache)
            if any(v["invariant"] == target_invariant
                   for v in result.violations):
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
    failing_case: Optional[ExperimentSpec] = None
    shrunk_case: Optional[ExperimentSpec] = None
    violations: List[Dict[str, Any]] = field(default_factory=list)
    repro_path: Optional[str] = None
    flightrec_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

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
            shrunk = self.shrunk_case
            event_count = sum(len(events) for events in _events(shrunk))
            lines.append(
                f"  shrunk to {event_count} events "
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

    ``out`` is where the repro JSON lands (only written on failure).
    Stops at the first failing case — fuzzing is a detector, not a
    census.

    ``flightrec_path`` keeps the campaign and shrinker unperturbed
    (the ring would defeat the shrinker's cache) and instead replays
    the **shrunken** case once with the flight recorder armed, so the
    dump on disk matches the repro JSON next to it.
    """
    master = random.Random(seed)
    report = FuzzReport(seed=seed, iterations=iterations)
    for _ in range(iterations):
        case = generate_case(master.randrange(1 << 31), max_tunnel_depth)
        result = run_case(case, cache=cache)
        report.cases_run += 1
        if result.ok:
            continue
        report.failed = True
        report.failing_case = case
        report.violations = result.violations
        report.shrunk_case = case
        if shrink:
            target = result.violations[0]["invariant"]
            report.shrunk_case = shrink_case(case, target, cache=cache)
        if out is not None:
            with open(out, "w") as handle:
                json.dump(
                    {
                        "spec": report.shrunk_case.to_dict(),
                        "original_spec": case.to_dict(),
                        "violations": report.violations,
                    },
                    handle, indent=2, sort_keys=True,
                )
                handle.write("\n")
            report.repro_path = out
        if flightrec_path is not None:
            # One extra run of the minimal world, ring armed: the
            # violation re-fires (shrinking preserved it) and the
            # Runner dumps the last moments to flightrec_path.
            replay = run_case(
                report.shrunk_case, flightrec_path=flightrec_path)
            if not replay.ok:
                report.flightrec_path = flightrec_path
        break
    return report
