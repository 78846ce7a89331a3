"""The experiment layer: declarative runs, one lifecycle, parallel sweeps.

* :mod:`repro.experiment.spec` — :class:`ExperimentSpec`, a validated
  JSON-serializable description of one run (world knobs, traffic
  program, fault plan, adversary schedule, arming, seed);
* :mod:`repro.experiment.runner` — :class:`Runner`, the canonical
  build → arm → drive → collect sequence, returning a plain-data
  :class:`RunResult`;
* :mod:`repro.experiment.sweep` — :class:`SpecGrid` expansion and the
  :class:`SweepExecutor` that fans runs out across worker processes
  with byte-identical-to-serial per-run trace digests;
* :mod:`repro.experiment.supervise` — the fault-tolerant worker
  backend: :class:`WorkerSupervisor` (timeouts, crash requeue, retry,
  quarantine) and :class:`SweepCheckpoint` (crash-safe resume journal).

See docs/ARCHITECTURE.md §10 and §14.
"""

from .cache import CACHE_SALT, ResultCache, default_cache_dir, spec_digest
from .runner import Runner, RunResult
from .spec import (
    ADVERSARY_KINDS,
    ExperimentSpec,
    SpecError,
    TrafficProgram,
    canonical_traffic_spec,
)
from .supervise import (
    FAULT_ENV,
    CellFailedError,
    SweepCheckpoint,
    WorkerSupervisor,
    maybe_inject_fault,
)
from .sweep import (
    SpecGrid,
    SweepExecutor,
    SweepResult,
    demo_grid,
    failed_result,
)

__all__ = [
    "ADVERSARY_KINDS",
    "CACHE_SALT",
    "CellFailedError",
    "FAULT_ENV",
    "ExperimentSpec",
    "ResultCache",
    "Runner",
    "RunResult",
    "SpecError",
    "SpecGrid",
    "SweepCheckpoint",
    "SweepExecutor",
    "SweepResult",
    "TrafficProgram",
    "WorkerSupervisor",
    "canonical_traffic_spec",
    "default_cache_dir",
    "demo_grid",
    "failed_result",
    "maybe_inject_fault",
    "spec_digest",
]
