"""Streaming run ledger: one durable JSONL record per experiment run.

A sweep is grid-shaped measurement (the paper's own 4x4 methodology);
the ledger makes every grid cell a first-class, durable record instead
of state trapped inside a worker process.  Each record is one JSON
object on one line, stamped with :data:`LEDGER_SCHEMA`, carrying the
spec content digest, seed, outcome, per-phase wall timings from the
:class:`~repro.experiment.runner.Runner` profiler, cache provenance,
the final metrics snapshot, and any invariant violations.

Durability contract: every append is a **single** ``os.write`` of one
complete line on an ``O_APPEND`` file descriptor.  POSIX appends of
one small buffer land atomically enough that a SIGKILLed sweep leaves
the ledger as a valid prefix — every completed cell present and
parseable, at worst one torn trailing line, which :func:`read_ledger`
tolerates and counts.  There is no rewrite step and no index to
corrupt; resuming a killed sweep is the result cache's job, and the
ledger shows exactly which cells it can resume from.

That discipline lives here once, for every durable JSONL file in the
package: :class:`JsonlAppender` is the writer (the ledger and the
sweep checkpoint subclass it), :func:`read_jsonl` the torn-line-tolerant
reader, and :func:`replace_file` the write-then-rename for whole-file
artifacts (cache entries, flight-recorder dumps).

Record kinds:

* ``run`` — one Runner invocation (live or served from cache).
* ``sweep-start`` / ``sweep-end`` — sweep bracketing, with totals.

:func:`validate_record` checks any record against the published
per-kind schema; the ``repro-mobility report`` subcommand validates
every line and renders the summaries (slowest cells, phase breakdown,
cache efficacy, violation index).
"""

from __future__ import annotations

import hashlib
import json
import os
import time as _time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "LEDGER_SCHEMA",
    "JsonlAppender",
    "RunLedger",
    "read_jsonl",
    "replace_file",
    "run_record",
    "sweep_start_record",
    "sweep_end_record",
    "validate_record",
    "read_ledger",
    "summarize_ledger",
    "render_ledger_markdown",
    "spec_content_digest",
]

LEDGER_SCHEMA = "repro-mobility-ledger/v1"

_PHASES = ("build", "arm", "drive", "collect", "total")

# Published per-kind field requirements: name -> allowed types.  A
# tuple with ``type(None)`` marks a nullable field.  ``validate_record``
# is the single source of truth the CI schema-check step runs against.
_NUMBER = (int, float)
_REQUIRED: Dict[str, Dict[str, tuple]] = {
    "run": {
        "schema": (str,),
        "kind": (str,),
        "ts": _NUMBER,
        "label": (str,),
        "seed": (int,),
        "spec_sha256": (str,),
        "digest": (str,),
        "sim_time": _NUMBER,
        "trace_entries": (int,),
        "outcome": (str,),
        "invariants_armed": (bool,),
        "violation_count": (int,),
        "violations": (list,),
        "registered": (bool, type(None)),
        "provenance": (str,),
        "timings": (dict,),
        "deliverability": (dict,),
        "metrics": (dict,),
        "flightrec": (dict, type(None)),
    },
    "sweep-start": {
        "schema": (str,),
        "kind": (str,),
        "ts": _NUMBER,
        "total": (int,),
        "jobs": (int,),
        "cache": (bool,),
    },
    "sweep-end": {
        "schema": (str,),
        "kind": (str,),
        "ts": _NUMBER,
        "completed": (int,),
        "total": (int,),
        "elapsed": _NUMBER,
        "violation_count": (int,),
        "cache": (dict, type(None)),
    },
}

# Optional per-kind fields: validated when present, never required, so
# ledgers written before fault tolerance existed stay schema-valid.
_OPTIONAL: Dict[str, Dict[str, tuple]] = {
    "run": {
        # Quarantine detail for outcome "failed" cells.
        "failure": (dict, type(None)),
        # Dispatch attempts the supervisor spent on this cell (>= 1).
        "attempts": (int,),
        # Replay-engine counters, written by ledgers that predate the
        # engine's removal.
        "fast_forward": (dict, type(None)),
    },
    "sweep-end": {
        # True when the sweep drained early on SIGINT/SIGTERM.
        "interrupted": (bool,),
        # Count of quarantined (outcome "failed") cells.
        "failed": (int,),
    },
}

_OUTCOMES = ("ok", "violations", "failed")
_PROVENANCES = ("run", "cache", "checkpoint")


def spec_content_digest(spec: Dict[str, Any]) -> str:
    """SHA-256 of a spec dict's canonical JSON.

    Pure content — unlike the result cache's key, no code-version salt
    is folded in, so the same spec hashes identically across PRs and a
    ledger can be joined against old ones.
    """
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Record builders
# ----------------------------------------------------------------------
def run_record(
    result: Any,
    provenance: str = "run",
    ts: Optional[float] = None,
    attempts: Optional[int] = None,
) -> Dict[str, Any]:
    """Build a ``run`` record from a RunResult (duck-typed: no import
    of the experiment layer, so the obs package stays dependency-free).
    """
    invariants = result.invariants
    extras = result.extras
    outcome = getattr(result, "outcome", None)
    if outcome is None:
        outcome = "ok" if result.ok else "violations"
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": "run",
        "ts": _time.time() if ts is None else ts,
        "label": result.label,
        "seed": result.seed,
        "spec_sha256": spec_content_digest(result.spec),
        "digest": result.digest,
        "sim_time": result.sim_time,
        "trace_entries": result.trace_entries,
        "outcome": outcome,
        "invariants_armed": bool(invariants.get("armed")),
        "violation_count": invariants.get("violation_count", 0),
        "violations": list(invariants.get("violations", ())),
        "registered": result.registered,
        "provenance": provenance,
        "timings": dict(getattr(result, "timings", None) or {}),
        "deliverability": {
            key: result.deliverability.get(key)
            for key in ("sent", "delivered", "dropped", "lost",
                        "losses_by_reason")
        },
        "metrics": result.metrics,
        "flightrec": extras.get("flightrec"),
    }
    failure = getattr(result, "failure", None)
    if failure is not None:
        record["failure"] = failure
    if attempts is not None:
        record["attempts"] = attempts
    return record


def sweep_start_record(
    total: int, jobs: int, cache: bool, ts: Optional[float] = None
) -> Dict[str, Any]:
    return {
        "schema": LEDGER_SCHEMA,
        "kind": "sweep-start",
        "ts": _time.time() if ts is None else ts,
        "total": total,
        "jobs": jobs,
        "cache": cache,
    }


def sweep_end_record(
    completed: int,
    total: int,
    elapsed: float,
    violation_count: int,
    cache: Optional[Dict[str, int]],
    ts: Optional[float] = None,
    interrupted: bool = False,
    failed: int = 0,
) -> Dict[str, Any]:
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": "sweep-end",
        "ts": _time.time() if ts is None else ts,
        "completed": completed,
        "total": total,
        "elapsed": elapsed,
        "violation_count": violation_count,
        "cache": dict(cache) if cache is not None else None,
    }
    if interrupted:
        record["interrupted"] = True
    if failed:
        record["failed"] = failed
    return record


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def validate_record(record: Any) -> List[str]:
    """Errors for one record against the published schema ([] = valid)."""
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    errors: List[str] = []
    schema = record.get("schema")
    if schema != LEDGER_SCHEMA:
        errors.append(f"schema must be {LEDGER_SCHEMA!r}, got {schema!r}")
    kind = record.get("kind")
    required = _REQUIRED.get(kind)
    if required is None:
        errors.append(f"unknown record kind {kind!r}")
        return errors
    for name, types in required.items():
        if name not in record:
            errors.append(f"{kind}: missing field {name!r}")
        elif not isinstance(record[name], types) or (
                isinstance(record[name], bool) and bool not in types):
            errors.append(
                f"{kind}: field {name!r} has type "
                f"{type(record[name]).__name__}")
    for name, types in _OPTIONAL.get(kind, {}).items():
        if name not in record:
            continue
        if not isinstance(record[name], types) or (
                isinstance(record[name], bool) and bool not in types):
            errors.append(
                f"{kind}: field {name!r} has type "
                f"{type(record[name]).__name__}")
    if kind == "run":
        if record.get("outcome") not in _OUTCOMES:
            errors.append(f"run: outcome must be one of {_OUTCOMES}")
        if record.get("provenance") not in _PROVENANCES:
            errors.append(f"run: provenance must be one of {_PROVENANCES}")
    return errors


# ----------------------------------------------------------------------
# Durable files: the one JSONL writer, its reader, write-then-rename
# ----------------------------------------------------------------------
class JsonlAppender:
    """Append-only JSONL file with crash-durable single-write appends.

    The file and its parent directories are created on the first append.
    A file left ending in a torn line (a writer killed mid-append) gets
    that line terminated by the first append, so the record is kept.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self.appended = 0
        self._fd: Optional[int] = None

    def append(self, record: Any) -> None:
        """Append ``record`` as one compact, key-sorted JSON line."""
        data = (json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n").encode()
        if self._fd is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            size = os.fstat(self._fd).st_size
            if size and os.pread(self._fd, 1, size - 1) != b"\n":
                data = b"\n" + data
        # One os.write of one complete line: the atomic-append unit the
        # crash-durability test pins.  A short write (disk full, a
        # file-size limit) has torn the line, and the next append would
        # glue onto it mid-file, so it raises rather than counting.
        written = os.write(self._fd, data)
        if written != len(data):
            raise OSError(f"short write to {self.path}: "
                          f"{written} of {len(data)} bytes")
        self.appended += 1

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_jsonl(path: str) -> Tuple[List[Any], int]:
    """Every line of ``path`` that parses, plus the count that do not.

    A killed writer can leave at most one torn trailing line; readers
    skip (and count) anything that does not parse rather than failing.
    A missing file reads as empty.
    """
    records: List[Any] = []
    torn = 0
    try:
        handle = open(path)
    except FileNotFoundError:
        return records, torn
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                torn += 1
    return records, torn


def replace_file(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``,
    so a killed writer never leaves a torn file behind."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# The ledger itself
# ----------------------------------------------------------------------
class RunLedger(JsonlAppender):
    """The run ledger: schema-validated records on a :class:`JsonlAppender`."""

    def append(self, record: Dict[str, Any]) -> None:
        """Validate and append one record as one complete line."""
        errors = validate_record(record)
        if errors:
            raise ValueError(f"invalid ledger record: {'; '.join(errors)}")
        super().append(record)


def read_ledger(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """All parseable ledger records, plus the torn/invalid line count
    (:func:`read_jsonl`)."""
    return read_jsonl(path)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def summarize_ledger(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a ledger into the report subcommand's summary shape."""
    runs = [r for r in records if r.get("kind") == "run"]
    phase_totals = {phase: 0.0 for phase in _PHASES}
    timed = 0
    for record in runs:
        timings = record.get("timings") or {}
        if timings:
            timed += 1
            for phase in _PHASES:
                phase_totals[phase] += timings.get(phase, 0.0)
    slowest = sorted(
        (r for r in runs if (r.get("timings") or {}).get("total")),
        key=lambda r: r["timings"]["total"], reverse=True)[:5]
    cache_hits = sum(1 for r in runs if r.get("provenance") == "cache")
    checkpoint_hits = sum(
        1 for r in runs if r.get("provenance") == "checkpoint")
    failures = [
        {
            "label": r.get("label") or f"seed={r.get('seed')}",
            "seed": r.get("seed"),
            "reason": (r.get("failure") or {}).get("reason", "?"),
            "attempts": (r.get("failure") or {}).get("attempts"),
            "message": (r.get("failure") or {}).get("message", ""),
        }
        for r in runs if r.get("outcome") == "failed"
    ]
    retried = sum(1 for r in runs if (r.get("attempts") or 1) > 1)
    retries = sum(max(0, (r.get("attempts") or 1) - 1) for r in runs)
    violation_index: Dict[str, Dict[str, Any]] = {}
    for record in runs:
        for violation in record.get("violations", ()):
            name = violation.get("invariant", "?")
            entry = violation_index.setdefault(
                name, {"count": 0, "labels": []})
            entry["count"] += 1
            label = record.get("label") or f"seed={record.get('seed')}"
            if label not in entry["labels"] and len(entry["labels"]) < 10:
                entry["labels"].append(label)
    timestamps = [r["ts"] for r in records if isinstance(
        r.get("ts"), (int, float))]
    return {
        "records": len(records),
        "runs": len(runs),
        "sweeps": sum(1 for r in records if r.get("kind") == "sweep-start"),
        "outcomes": {
            "ok": sum(1 for r in runs if r.get("outcome") == "ok"),
            "violations": sum(
                1 for r in runs if r.get("outcome") == "violations"),
            "failed": len(failures),
        },
        "provenance": {
            "run": len(runs) - cache_hits - checkpoint_hits,
            "cache": cache_hits,
            "checkpoint": checkpoint_hits,
        },
        "cache_hit_rate": (cache_hits / len(runs)) if runs else 0.0,
        "failures": failures,
        "retried_runs": retried,
        "retries": retries,
        "interrupted_sweeps": sum(
            1 for r in records
            if r.get("kind") == "sweep-end" and r.get("interrupted")),
        "phase_totals": phase_totals,
        "phase_means": {
            phase: (total / timed if timed else 0.0)
            for phase, total in phase_totals.items()
        },
        "timed_runs": timed,
        "slowest": [
            {
                "label": r.get("label") or f"seed={r.get('seed')}",
                "seed": r.get("seed"),
                "timings": r.get("timings"),
                "provenance": r.get("provenance"),
            }
            for r in slowest
        ],
        "violation_index": violation_index,
        "wall": {
            "first_ts": min(timestamps) if timestamps else None,
            "last_ts": max(timestamps) if timestamps else None,
            "elapsed": (max(timestamps) - min(timestamps))
            if timestamps else 0.0,
        },
    }


def render_ledger_markdown(summary: Dict[str, Any]) -> str:
    """The ``repro-mobility report`` markdown rendering of a summary."""
    outcomes = summary["outcomes"]
    provenance = summary["provenance"]
    checkpoint_note = (
        f", {provenance.get('checkpoint', 0)} checkpoint"
        if provenance.get("checkpoint") else "")
    lines = [
        "# Run-ledger report",
        "",
        f"- records: {summary['records']} "
        f"({summary['runs']} runs, {summary['sweeps']} sweep(s))",
        f"- outcomes: {outcomes['ok']} ok, "
        f"{outcomes['violations']} with violations, "
        f"{outcomes.get('failed', 0)} failed",
        f"- provenance: {provenance['run']} live, {provenance['cache']} "
        f"cache hits ({summary['cache_hit_rate']:.0%} hit rate)"
        f"{checkpoint_note}",
        f"- wall clock: {summary['wall']['elapsed']:.2f}s across records",
    ]
    if summary.get("retries"):
        lines.append(
            f"- retries: {summary['retries']} re-dispatch(es) across "
            f"{summary['retried_runs']} cell(s)")
    if summary.get("interrupted_sweeps"):
        lines.append(
            f"- interrupted: {summary['interrupted_sweeps']} sweep(s) "
            f"drained early (partial results)")
    lines += [
        "",
        "## Phase-time breakdown",
        "",
        "| phase | total (s) | mean (s) |",
        "|---|---|---|",
    ]
    for phase in _PHASES:
        lines.append(
            f"| {phase} | {summary['phase_totals'][phase]:.4f} "
            f"| {summary['phase_means'][phase]:.4f} |")
    if summary["slowest"]:
        lines += ["", "## Slowest cells", "",
                  "| label | total (s) | drive (s) | provenance |",
                  "|---|---|---|---|"]
        for cell in summary["slowest"]:
            timings = cell["timings"] or {}
            lines.append(
                f"| {cell['label']} | {timings.get('total', 0.0):.4f} "
                f"| {timings.get('drive', 0.0):.4f} "
                f"| {cell['provenance']} |")
    lines += [
        "",
        "## Cache efficacy",
        "",
        f"- cache: {provenance['cache']}/{summary['runs']} runs served "
        f"from cache",
    ]
    if summary.get("failures"):
        lines += ["", "## Failed / quarantined cells", ""]
        for failure in summary["failures"]:
            attempts = failure.get("attempts")
            attempt_note = (
                f" after {attempts} attempt(s)" if attempts else "")
            lines.append(
                f"- `{failure['label']}`: {failure['reason']}"
                f"{attempt_note} — {failure['message']}")
    if summary["violation_index"]:
        lines += ["", "## Violation index", ""]
        for name, entry in sorted(summary["violation_index"].items()):
            labels = ", ".join(entry["labels"])
            lines.append(f"- `{name}`: {entry['count']} violation(s) "
                         f"in {labels}")
    else:
        lines += ["", "No invariant violations recorded."]
    return "\n".join(lines) + "\n"
