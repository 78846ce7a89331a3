"""Parameter sweeps: expand a spec grid, fan runs out across processes.

The paper's central claim is that the *right* cell of the 4x4 grid
depends on network permissiveness, correspondent awareness, and what
you optimize — a cross-product of knobs.  :class:`SpecGrid` expands a
base :class:`~repro.experiment.spec.ExperimentSpec` against named axes
into a deterministic, ordered list of specs, and :class:`SweepExecutor`
runs them — inline for ``jobs=1``, or across spawn-safe supervised
worker processes for ``jobs>1``, merging results back in spec order.

Determinism is the contract: every run builds its own seeded
:class:`~repro.netsim.simulator.Simulator`, no state crosses runs
(trace digests already normalize away the only process-global
counters), so a parallel sweep produces **byte-identical per-run trace
digests** to the same specs run serially.  The executor only moves
plain dicts across the process boundary, which is also why specs and
results must be plain data.

Fault tolerance is supervised, not hoped for: ``jobs>1`` runs cells
through :class:`~repro.experiment.supervise.WorkerSupervisor`
(per-cell wall-clock timeouts, crash requeue + worker respawn), both
paths retry with backoff and quarantine poison cells under one ladder,
completed cells can be journaled to a
:class:`~repro.experiment.supervise.SweepCheckpoint` and skipped on
``--resume``, and SIGINT/SIGTERM drain gracefully instead of
tracebacking — the interrupted sweep still merges, records, and
reports everything that finished.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..obs.ledger import (
    RunLedger,
    run_record,
    spec_content_digest,
    sweep_end_record,
    sweep_start_record,
)
from .cache import ResultCache
from .result import RunResult
from .spec import ExperimentSpec, SpecError, TrafficProgram, drop_retired_fields
from .supervise import (
    CellFailedError,
    SweepCheckpoint,
    WorkerSupervisor,
    _Task,
    describe_exception,
    maybe_inject_fault,
)

__all__ = [
    "SpecGrid",
    "SweepResult",
    "SweepExecutor",
    "demo_grid",
    "failed_result",
]

# One per-cell completion event, delivered to SweepExecutor's progress
# callback as cells finish (in completion order, not spec order).
ProgressCallback = Callable[[Dict[str, Any]], None]


@dataclass
class SpecGrid:
    """A base spec plus axes to cross: ``{"base": {...}, "axes": {...}}``.

    Axis order (insertion order of ``axes``) fixes the expansion
    order: the last axis varies fastest, like nested for-loops.  Each
    expanded spec gets a ``label`` naming its coordinates unless the
    base already sets one.
    """

    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.base, dict):
            raise SpecError(f"grid base must be an object, got {self.base!r}")
        if not isinstance(self.axes, dict):
            raise SpecError(f"grid axes must be an object, got {self.axes!r}")
        self.base = drop_retired_fields(self.base, "grid base")
        valid = set(ExperimentSpec.__dataclass_fields__)
        for name, values in self.axes.items():
            if name not in valid:
                raise SpecError(
                    f"grid axis {name!r} is not an experiment-spec field")
            if not isinstance(values, list) or not values:
                raise SpecError(
                    f"grid axis {name!r} needs a non-empty list of values, "
                    f"got {values!r}")
        unknown = set(self.base) - valid
        if unknown:
            raise SpecError(
                f"grid base has unknown spec fields {sorted(unknown)}")

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def expand(self) -> List[ExperimentSpec]:
        """All axis combinations as validated specs, in grid order."""
        names = list(self.axes)
        specs: List[ExperimentSpec] = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            data = dict(self.base)
            data.update(zip(names, combo))
            data.setdefault(
                "label",
                ",".join(f"{n}={v}" for n, v in zip(names, combo)))
            specs.append(ExperimentSpec.from_dict(data))
        return specs

    def to_dict(self) -> Dict[str, Any]:
        return {"base": dict(self.base), "axes": dict(self.axes)}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpecGrid":
        if not isinstance(data, dict):
            raise SpecError(f"grid must be a JSON object, got {data!r}")
        unknown = set(data) - {"base", "axes"}
        if unknown:
            raise SpecError(f"grid has unknown fields {sorted(unknown)}")
        return cls(base=data.get("base", {}), axes=data.get("axes", {}))

    @classmethod
    def from_json(cls, text: str) -> "SpecGrid":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid grid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "SpecGrid":
        with open(path) as handle:
            return cls.from_json(handle.read())


@dataclass
class SweepResult:
    """Ordered results of one sweep, plus executor accounting."""

    results: List[RunResult]
    jobs: int
    elapsed: float
    # Cache counters for this sweep (None when no cache was wired).
    cache: Optional[Dict[str, int]] = None
    # True when the sweep drained early on SIGINT/SIGTERM: results
    # hold only the cells that completed before the stop.
    interrupted: bool = False
    # Cell retries (exceptions, and in workers timeouts and crashes),
    # whether the cell later succeeded or was quarantined.
    retries: int = 0

    @property
    def runs(self) -> int:
        return len(self.results)

    @property
    def runs_per_sec(self) -> float:
        # 0.0 (not inf) for a zero-elapsed sweep: float("inf") is not
        # valid JSON and would corrupt --json-out.
        return self.runs / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def violation_count(self) -> int:
        return sum(
            r.invariants.get("violation_count", 0) for r in self.results)

    @property
    def failures(self) -> List[RunResult]:
        """Quarantined cells (outcome ``failed``), in spec order."""
        return [r for r in self.results if r.failure is not None]

    @property
    def failed_count(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return (self.violation_count == 0 and not self.failures
                and not self.interrupted)

    def digests(self) -> List[str]:
        return [r.digest for r in self.results]

    def flightrec_dumps(self) -> List[str]:
        """Paths of flight-recorder dumps the sweep's live runs wrote."""
        paths = []
        for result in self.results:
            info = result.extras.get("flightrec")
            if info and info.get("dumped") and info.get("path"):
                paths.append(info["path"])
        return paths

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "runs": self.runs,
            "elapsed": self.elapsed,
            "runs_per_sec": self.runs_per_sec,
            "violation_count": self.violation_count,
            "failed": self.failed_count,
            "retries": self.retries,
            "interrupted": self.interrupted,
            "cache": self.cache,
            "flightrec_dumps": self.flightrec_dumps(),
            "failures": [
                {
                    "label": r.label,
                    "seed": r.seed,
                    **(r.failure or {}),
                }
                for r in self.failures
            ],
            "results": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        cache_note = ""
        if self.cache is not None:
            cache_note = (
                f", cache {self.cache['hits']} hit(s) / "
                f"{self.cache['misses']} miss(es)")
        failure_note = (
            f", {self.failed_count} quarantined" if self.failed_count else "")
        retry_note = f", {self.retries} retry(ies)" if self.retries else ""
        lines = [
            f"sweep: {self.runs} runs, jobs={self.jobs}, "
            f"{self.elapsed:.2f}s wall ({self.runs_per_sec:.2f} runs/s), "
            f"{self.violation_count} invariant violation(s)"
            f"{failure_note}{retry_note}{cache_note}",
            f"  {'label':<44} {'digest':<14} {'deliv':>6} {'drop':>5} "
            f"{'viol':>5}",
        ]
        for result in self.results:
            label = result.label or f"seed={result.seed}"
            deliverability = result.deliverability
            digest = result.digest[:12] if result.digest else "FAILED"
            lines.append(
                f"  {label[:44]:<44} {digest:<14} "
                f"{deliverability.get('delivered', '-'):>6} "
                f"{deliverability.get('dropped', '-'):>5} "
                f"{result.invariants.get('violation_count', 0) if result.invariants.get('armed') else '-':>5}"
            )
        for result in self.failures:
            failure = result.failure or {}
            lines.append(
                f"  quarantined: {result.label or result.seed} — "
                f"{failure.get('reason', '?')} after "
                f"{failure.get('attempts', '?')} attempt(s): "
                f"{failure.get('message', '')}")
        if self.interrupted:
            lines.append(
                "  interrupted: sweep drained early; results are partial")
        return "\n".join(lines)


def _execute_payload(payload: Dict[str, Any], attempt: int) -> Dict[str, Any]:
    """One attempt at one cell, in a worker or inline: spec payload in,
    result dict out, after any :data:`~repro.experiment.supervise.FAULT_ENV`
    directive for the cell has fired.

    Module-level so it pickles by reference under the ``spawn`` start
    method (workers re-import :mod:`repro.experiment.sweep`).  It
    imports the runner itself, so a sweep whose every cell comes from
    the cache or a checkpoint loads no simulator.  The runner, and with
    it the cell's world, is dropped inside the GC pause, so the first
    collection after the cell frees the world (see
    :func:`~repro.experiment.runner.gc_paused`).
    """
    from .runner import Runner, gc_paused

    spec = ExperimentSpec.from_dict(payload["spec"])
    maybe_inject_fault(spec.label or "", attempt)
    with gc_paused():
        result = Runner(flightrec_path=payload.get("flightrec_path")).run(spec)
    return result.to_dict()


def failed_result(spec: ExperimentSpec, failure: Dict[str, Any]) -> RunResult:
    """A ``failed``-outcome placeholder for a quarantined cell.

    The sweep's contract is one :class:`RunResult` per spec in spec
    order; a cell that exhausted its retries still occupies its slot,
    carrying the failure reason instead of a digest so ``--json-out``,
    the ledger, and ``report`` can surface it.
    """
    return RunResult(
        spec=spec.to_dict(),
        label=spec.label,
        seed=spec.seed,
        sim_time=0.0,
        digest="",
        trace_entries=0,
        deliverability={},
        overhead={},
        metrics={},
        invariants={"armed": False},
        registered=None,
        failure=dict(failure),
    )


class SweepExecutor:
    """Run a list of specs, optionally across supervised workers.

    ``jobs=1`` executes inline (no multiprocessing at all — the
    debugging and determinism baseline).  ``jobs>1`` runs cells
    through a :class:`~repro.experiment.supervise.WorkerSupervisor`:
    explicit ``spawn``-context workers pulling one cell at a time
    (spawn is the only start method that is safe everywhere — fork
    duplicates arbitrary parent state; the simulator holds nothing
    process-global that matters, but spawn proves it), exchanging only
    JSON-clean dicts.  Both paths retry and quarantine a cell under
    the same ladder and emit the same ``result``/``retry``/``failed``
    events, which :meth:`run` consumes in one loop; only timeouts and
    crashes need real workers.  Results always come back in spec order
    regardless of completion order.

    Fault-tolerance knobs:

    * ``cell_timeout`` — wall-clock seconds per cell; an overrunning
      cell's worker is SIGKILLed and the cell retried (workers only).
    * ``max_retries`` / ``retry_backoff`` — every cell failure
      (exception, crash, timeout) requeues the cell with exponential
      backoff until retries are spent; then the cell is quarantined as
      a ``failed`` :class:`RunResult` (see :func:`failed_result`) and
      the sweep continues.
    * ``strict_cells`` — restore fail-fast: ``max_retries=0``, and the
      first ``failed`` event raises
      :class:`~repro.experiment.supervise.CellFailedError`.
    * ``checkpoint`` — a
      :class:`~repro.experiment.supervise.SweepCheckpoint`; every
      completed (non-failed) cell is journaled as it lands, so a
      killed sweep can be resumed.
    * ``resume`` — a ``spec_content_digest → result dict`` map (from
      :meth:`SweepCheckpoint.load`); matching cells are absorbed with
      provenance ``"checkpoint"`` instead of re-running.  Composes
      with (but does not depend on) the salted result cache.
    * SIGINT/SIGTERM during :meth:`run` drain gracefully: dispatch
      stops, in-flight cells get a few seconds to finish, and the
      partial sweep returns with ``interrupted=True`` (the CLI maps
      that to exit 130).

    Telemetry hooks (all optional, all parent-side):

    * ``ledger`` — a :class:`~repro.obs.ledger.RunLedger`; the sweep
      appends a ``sweep-start`` record, one ``run`` record per cell
      **as it completes** (provenance ``"cache"``, ``"checkpoint"``,
      or ``"run"``; outcome ``"failed"`` for quarantined cells), and a
      ``sweep-end`` record flagged ``interrupted`` when the sweep
      drained early.  Because cells are recorded at completion and
      appends are atomic, a killed sweep leaves exactly the completed
      cells as valid JSONL.
    * ``progress`` — a callback receiving one dict per completed cell:
      completed/total, cells/sec, ETA, cache-hit rate, cumulative
      violations/failures/retries, plus the cell's label/digest (the
      CLI renders these to stderr behind ``--progress``).
    * ``flightrec_path`` — arm the per-run flight recorder in every
      worker; multi-cell sweeps write per-cell dumps next to the base
      path (``flightrec-007.json``).  Cache hits never re-dump: the
      postmortem belongs to the run that actually executed.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        ledger: Optional[RunLedger] = None,
        progress: Optional[ProgressCallback] = None,
        flightrec_path: Optional[str] = None,
        cell_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        strict_cells: bool = False,
        checkpoint: Optional[SweepCheckpoint] = None,
        resume: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.jobs = jobs
        self.cache = cache
        self.ledger = ledger
        self.progress = progress
        self.flightrec_path = flightrec_path
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.strict_cells = strict_cells
        self.checkpoint = checkpoint
        self.resume = resume
        self._stop_requested = False

    def _cell_flightrec_path(self, index: int, total: int) -> Optional[str]:
        if self.flightrec_path is None:
            return None
        if total <= 1:
            return self.flightrec_path
        root, ext = os.path.splitext(self.flightrec_path)
        return f"{root}-{index:03d}{ext or '.json'}"

    def run(self, specs: Sequence[ExperimentSpec]) -> SweepResult:
        start = time.perf_counter()
        cache = self.cache
        ledger = self.ledger
        progress = self.progress
        checkpoint = self.checkpoint
        resume_map = self.resume or {}
        total = len(specs)
        results: List[Optional[RunResult]] = [None] * total
        completed = 0
        cache_hits = 0
        violations_total = 0
        failed_total = 0
        retries_total = 0
        self._stop_requested = False
        supervisor: Optional[WorkerSupervisor] = None
        if ledger is not None:
            ledger.append(sweep_start_record(
                total=total, jobs=self.jobs, cache=cache is not None))

        def finish_cell(index: int, result: RunResult, provenance: str,
                        attempts: Optional[int] = None) -> None:
            # The single completion path: every cell — cached,
            # checkpointed, quarantined, inline, or from a worker —
            # lands here the moment it is known, so the checkpoint,
            # ledger, and progress stream see the sweep cell-by-cell
            # rather than at the final merge.
            nonlocal completed, cache_hits, violations_total, failed_total
            results[index] = result
            completed += 1
            cache_hits += 1 if provenance == "cache" else 0
            cell_violations = result.invariants.get("violation_count", 0)
            violations_total += cell_violations
            failed = result.failure is not None
            failed_total += 1 if failed else 0
            if (checkpoint is not None and not failed
                    and provenance != "checkpoint"):
                # Failed cells are never journaled: a resume should
                # retry them, not replay the failure.
                checkpoint.record(
                    spec_content_digest(specs[index].to_dict()),
                    result.to_dict())
            if ledger is not None:
                ledger.append(run_record(
                    result, provenance=provenance, attempts=attempts))
            if progress is not None:
                elapsed = time.perf_counter() - start
                rate = completed / elapsed if elapsed > 0 else 0.0
                progress({
                    "index": index,
                    "label": result.label,
                    "digest": result.digest,
                    "cache_hit": provenance == "cache",
                    "provenance": provenance,
                    "failed": failed,
                    "violations": cell_violations,
                    "completed": completed,
                    "total": total,
                    "elapsed": elapsed,
                    "cells_per_sec": rate,
                    "eta_sec": (total - completed) / rate if rate > 0
                    else 0.0,
                    "cache_hits": cache_hits,
                    "cache_hit_rate": cache_hits / completed,
                    "violations_total": violations_total,
                    "failures_total": failed_total,
                    "retries_total": retries_total,
                })

        def on_signal(_signum, _frame):
            # Async-signal-safe: set flags, let the run loop drain.
            self._stop_requested = True
            if supervisor is not None:
                supervisor.request_stop()

        installed: List[Any] = []
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                installed.append((signum, signal.signal(signum, on_signal)))
        except ValueError:
            # Not the main thread: run without drain-on-signal.
            pass

        try:
            # Parent-side checkpoint and cache lookups happen before
            # any worker dispatch, so a fully-warm grid never pays
            # spawn cost.  Absorbed cells flow through the same result
            # list, so invariant accounting sees them like live runs.
            pending: List[int] = []
            for index, spec in enumerate(specs):
                if resume_map:
                    hit = self._from_checkpoint(
                        resume_map.get(spec_content_digest(spec.to_dict())))
                    if hit is not None:
                        finish_cell(index, hit, "checkpoint")
                        continue
                if cache is not None:
                    cached = cache.lookup(spec)
                    if cached is not None:
                        finish_cell(index, cached, "cache")
                        continue
                pending.append(index)
            payloads = [
                {
                    "index": index,
                    "spec": specs[index].to_dict(),
                    "flightrec_path": self._cell_flightrec_path(index, total),
                }
                for index in pending
            ]

            max_retries = 0 if self.strict_cells else self.max_retries
            if self.jobs > 1 and len(payloads) > 1:
                supervisor = WorkerSupervisor(
                    jobs=self.jobs,
                    cell_timeout=self.cell_timeout,
                    max_retries=max_retries,
                    retry_backoff=self.retry_backoff,
                )
                if self._stop_requested:
                    supervisor.request_stop()
            # One event stream, whichever path runs the cells.
            for event in (supervisor.run(payloads) if supervisor is not None
                          else self._run_inline(payloads, max_retries)):
                index = event["index"]
                if event["kind"] == "result":
                    result = RunResult.from_dict(event["result"])
                    if cache is not None:
                        cache.store(specs[index], result)
                    finish_cell(index, result, "run",
                                attempts=event["attempts"])
                elif event["kind"] == "failed":
                    failure = event["failure"]
                    if self.strict_cells:
                        raise CellFailedError(specs[index].label, failure)
                    finish_cell(index, failed_result(specs[index], failure),
                                "run", attempts=failure["attempts"])
                else:
                    retries_total += 1
        finally:
            for signum, previous in installed:
                signal.signal(signum, previous)

        interrupted = self._stop_requested
        elapsed = time.perf_counter() - start
        if ledger is not None:
            ledger.append(sweep_end_record(
                completed=completed, total=total, elapsed=elapsed,
                violation_count=violations_total,
                cache=cache.stats() if cache is not None else None,
                interrupted=interrupted, failed=failed_total))
        return SweepResult(
            results=[r for r in results if r is not None],
            jobs=self.jobs,
            elapsed=elapsed,
            cache=cache.stats() if cache is not None else None,
            interrupted=interrupted,
            retries=retries_total,
        )

    @staticmethod
    def _from_checkpoint(data: Optional[Dict[str, Any]]) -> Optional[RunResult]:
        """Deserialize a checkpointed result; unusable payloads are a miss."""
        if data is None:
            return None
        try:
            result = RunResult.from_dict(data)
        except (TypeError, ValueError):
            return None
        if result.failure is not None:
            return None
        return result

    def _run_inline(
        self, payloads: List[Dict[str, Any]], max_retries: int
    ) -> Iterator[Dict[str, Any]]:
        """Run each cell in-process under a ``_Task``, yielding the
        supervisor's ``result``/``retry``/``failed`` events.

        Timeouts need a killable worker, so ``cell_timeout`` does not
        apply inline.  A stop request ends the stream before the next
        attempt, also one that lands mid-backoff.
        """
        for payload in payloads:
            task = _Task(payload)
            while True:
                if self._stop_requested:
                    return
                try:
                    result = _execute_payload(payload, task.attempt)
                except Exception as exc:  # noqa: BLE001 - the failure policy
                    event = task.fail("exception", describe_exception(exc),
                                      max_retries, self.retry_backoff)
                    yield event
                    if event["kind"] == "failed":
                        break
                    while (time.monotonic() < task.not_before
                           and not self._stop_requested):
                        time.sleep(0.02)
                else:
                    yield {"kind": "result", "index": task.index,
                           "result": result, "attempts": task.attempt + 1}
                    break


def demo_grid(
    seeds: Optional[List[int]] = None,
    datagrams: int = 60,
) -> SpecGrid:
    """The worked 4x4-coverage sweep (see README): awareness ×
    visited-domain posture × probe strategy, crossed with seeds.

    Sixteen-plus cells of world configuration around the canonical
    traffic workload — the cross-product the paper's Figure 10
    taxonomy lives in.  Every run arms the invariant monitor, so the
    sweep doubles as a correctness gate.
    """
    base = ExperimentSpec(
        duration=30.0,
        traffic=TrafficProgram(
            uniform={"datagrams": datagrams, "spacing": 0.25,
                     "size": 100, "direction": "both"},
        ),
        arm_invariants=True,
    ).to_dict()
    del base["label"]
    return SpecGrid(
        base=base,
        axes={
            "seed": list(seeds) if seeds else [1996, 2024],
            "awareness": ["conventional", "decap-capable", "mobile-aware"],
            "visited_filtering": [True, False],
            "strategy": ["rule-seeded", "conservative-first"],
        },
    )
