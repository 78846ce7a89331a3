"""The experiment layer: declarative runs, one lifecycle, parallel sweeps.

* :mod:`repro.experiment.spec` — :class:`ExperimentSpec`, a validated
  JSON-serializable description of one run (world knobs, traffic
  program, fault plan, adversary schedule, arming, seed);
* :mod:`repro.experiment.runner` — :class:`Runner`, the canonical
  build → arm → drive → collect sequence, returning a plain-data
  :class:`RunResult` (:mod:`repro.experiment.result`);
* :mod:`repro.experiment.sweep` — :class:`SpecGrid` expansion and the
  :class:`SweepExecutor` that fans runs out across worker processes
  with byte-identical-to-serial per-run trace digests;
* :mod:`repro.experiment.supervise` — the fault-tolerant worker
  backend: :class:`WorkerSupervisor` (timeouts, crash requeue, retry,
  quarantine) and :class:`SweepCheckpoint` (crash-safe resume journal).

See docs/ARCHITECTURE.md §10 and §14.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "cache": ("CACHE_SALT", "ResultCache", "default_cache_dir", "spec_digest"),
    "result": ("RunResult",),
    "runner": ("Runner",),
    "spec": (
        "ADVERSARY_KINDS", "ExperimentSpec", "SpecError", "TrafficProgram",
        "canonical_traffic_spec",
    ),
    "supervise": (
        "FAULT_ENV", "CellFailedError", "SweepCheckpoint", "WorkerSupervisor",
        "maybe_inject_fault",
    ),
    "sweep": (
        "SpecGrid", "SweepExecutor", "SweepResult", "demo_grid",
        "failed_result",
    ),
})
