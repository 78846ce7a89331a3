"""What one run produced, as plain data: :class:`RunResult`.

A result is JSON/pickle-clean, so it crosses process boundaries, lands
in the result cache and the sweep checkpoint, and loads back with
:meth:`RunResult.from_dict`, all without the simulator that made it.
:class:`~repro.experiment.runner.Runner` produces it, and
:mod:`repro.experiment.runner` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["RunResult"]


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
