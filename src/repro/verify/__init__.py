"""Runtime verification: invariants, adversaries, and fuzzing.

Three layers that together answer "is the simulation *right*, not just
running":

* :mod:`repro.verify.invariants` — an :class:`InvariantMonitor` riding
  the trace stream, checking properties that must hold in any correct
  execution (no forwarding loops, TTL monotonicity, fragment byte
  conservation, bounded tunnel nesting, guaranteed termination,
  binding consistency, filter soundness);
* :mod:`repro.verify.adversary` — a malicious node that spoofs and
  replays registrations and malforms tunnel packets, for hardening
  tests and fuzz schedules;
* :mod:`repro.verify.fuzz` — a seed-deterministic property-based
  harness that generates random topologies × traffic × faults ×
  adversaries, arms the monitor, and shrinks any violating case to a
  minimal JSON reproduction.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "adversary": ("Adversary",),
    "invariants": ("INVARIANTS", "InvariantMonitor", "Violation"),
})
