"""Supervised sweep workers: timeouts, retries, quarantine, checkpoints.

The anonymous ``multiprocessing.Pool`` the sweep executor started with
had production-hostile failure modes: one worker exception aborted the
whole sweep, a hung cell hung it forever, and an OOM-killed worker
raised ``BrokenProcessPool`` and discarded every in-flight result.
:class:`WorkerSupervisor` replaces it with explicit ``spawn``-context
worker processes that **pull** cells one at a time — an idle worker is
handed the next ready cell, so a long cell never serializes queued
work behind it — under a parent supervision loop that owns the failure
policy:

* **timeout** — a cell that exceeds ``cell_timeout`` wall-clock
  seconds gets its worker SIGKILLed; the worker is respawned and the
  cell is retried.
* **crash** — a worker that dies mid-cell (segfault, OOM kill, an
  injected ``os.kill``) is detected via its process sentinel; the
  in-flight cell is requeued and a replacement worker spawned.
* **exception** — a worker catches the cell's exception and reports it
  as data; the worker itself survives and pulls the next cell.
* **bounded retries** — every failure re-queues the cell with
  exponential backoff (``retry_backoff * 2**(attempt-1)`` seconds)
  until ``max_retries`` retries are spent.
* **quarantine** — a cell that is still failing after its last retry
  is emitted as a ``failed`` event carrying the reason and the full
  failure history, and the sweep *continues*.  ``--strict-cells``
  (``max_retries=0`` + raising on the first ``failed`` event) restores
  fail-fast.

Retries and quarantine are one ladder, :meth:`_Task.fail`, shared with
the executor's inline ``jobs=1`` path; only the timeout and the crash
need a worker.

Every worker has its own task and result pipes (single writer each),
so SIGKILLing one can never corrupt a lock another worker needs — the
shared-``Queue`` hazard that makes pools unkillable.

:class:`SweepCheckpoint` journals completed cells as JSONL keyed by
the **unsalted** spec content digest, through the ledger's durable
writer and reader (:class:`~repro.obs.ledger.JsonlAppender`,
:func:`~repro.obs.ledger.read_jsonl`), so ``repro-mobility sweep
--resume PATH`` can skip already-completed cells after a crash or
SIGKILL.  Unsalted is a deliberate trade: a checkpoint survives code
changes, so resume across versions replays old bytes — the salted
result cache is the layer that invalidates on code change, and the
two compose.

Fault injection for tests and drills rides the :data:`FAULT_ENV`
environment variable: ``kind:label[:times]`` directives (separated by
``;``) make the worker executing the named cell ``crash`` (SIGKILL
itself), ``hang`` (sleep until the timeout reaps it), or ``fail``
(raise :class:`InjectedFault`) while ``attempt < times`` — so
``crash:cell-a`` fails once then succeeds on retry, and
``fail:cell-b:99`` is a poison cell that quarantines.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..obs.ledger import JsonlAppender, read_jsonl

__all__ = [
    "CHECKPOINT_SCHEMA",
    "FAULT_ENV",
    "CellFailedError",
    "InjectedFault",
    "SweepCheckpoint",
    "WorkerSupervisor",
    "describe_exception",
    "maybe_inject_fault",
    "parse_fault_directives",
]

FAULT_ENV = "REPRO_SWEEP_FAULT"
CHECKPOINT_SCHEMA = "repro-mobility-checkpoint/v1"
_FAULT_KINDS = ("crash", "hang", "fail")
_HANG_SECONDS = 3600.0
#: Longest the supervision loop waits on worker pipes before it
#: re-checks timeouts, retry backoffs and a requested drain.
_TICK = 0.05
#: Seconds in-flight cells get to finish once SIGINT/SIGTERM starts a
#: drain; stragglers are then killed.
_DRAIN_GRACE = 5.0


class InjectedFault(RuntimeError):
    """Raised by a ``fail`` fault directive — a deterministic poison cell."""


class CellFailedError(RuntimeError):
    """A cell failed under ``--strict-cells`` (fail-fast) semantics."""

    def __init__(self, label: str, failure: Dict[str, Any]):
        self.label = label
        self.failure = dict(failure)
        super().__init__(
            f"cell {label!r} failed ({failure.get('reason')} after "
            f"{failure.get('attempts')} attempt(s)): "
            f"{failure.get('message')}")


# ----------------------------------------------------------------------
# Fault injection (test / drill hook)
# ----------------------------------------------------------------------
def parse_fault_directives(text: str) -> List[Any]:
    """Parse ``kind:label[:times]`` directives separated by ``;``.

    ``times`` (default 1) is how many *attempts* the fault applies to:
    the fault fires while ``attempt < times``, so the default injects
    exactly one failure and lets the retry succeed.  Labels may contain
    ``,`` and ``=`` (grid labels do); ``;`` and a trailing ``:<int>``
    are the only reserved shapes.
    """
    directives = []
    for part in (text or "").split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, rest = part.partition(":")
        kind = kind.strip()
        if kind not in _FAULT_KINDS or not rest:
            raise ValueError(
                f"bad fault directive {part!r}: expected "
                f"'{{{'|'.join(_FAULT_KINDS)}}}:label[:times]'")
        label, times = rest, 1
        head, sep, tail = rest.rpartition(":")
        if sep and tail.isdigit():
            label, times = head, int(tail)
        directives.append((kind, label, times))
    return directives


def maybe_inject_fault(
    label: str, attempt: int, env: Optional[str] = None
) -> None:
    """Apply any :data:`FAULT_ENV` directive matching ``label``.

    Called at the top of every cell execution (worker and inline).  A
    ``crash`` directive SIGKILLs the executing process, ``hang`` sleeps
    far past any sane cell timeout, ``fail`` raises
    :class:`InjectedFault`.  No directive, no cost beyond one getenv.
    """
    text = os.environ.get(FAULT_ENV) if env is None else env
    if not text:
        return
    for kind, fault_label, times in parse_fault_directives(text):
        if fault_label != (label or "") or attempt >= times:
            continue
        if kind == "fail":
            raise InjectedFault(
                f"injected failure for {label!r} (attempt {attempt})")
        if kind == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        if kind == "hang":
            time.sleep(_HANG_SECONDS)
            raise InjectedFault(
                f"injected hang for {label!r} outlived the supervisor")


def describe_exception(exc: BaseException) -> Dict[str, Any]:
    """A JSON-clean, bounded description of one exception."""
    formatted = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__))
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": formatted[-4000:],
    }


# ----------------------------------------------------------------------
# Sweep checkpoint: crash-safe journal of completed cells
# ----------------------------------------------------------------------
class SweepCheckpoint(JsonlAppender):
    """Append-only JSONL journal of completed cells, keyed by the
    unsalted spec content digest.

    A :class:`~repro.obs.ledger.JsonlAppender`, so a SIGKILLed sweep
    tears at most the trailing line and :meth:`load` recovers every
    completed cell before it.
    """

    def record(self, spec_sha256: str, result: Dict[str, Any]) -> None:
        """Journal one completed cell (its full result payload)."""
        self.append({
            "schema": CHECKPOINT_SCHEMA,
            "spec_sha256": spec_sha256,
            "result": result,
        })

    @staticmethod
    def load(path: str) -> Any:
        """``(completed, torn)``: digest → result payload, last wins.

        A missing or empty file is an empty checkpoint (a sweep that
        never got far enough to journal), and so is one unparseable
        line (a sweep killed during its first append).  Torn and
        foreign lines are skipped and counted — the ledger's reader,
        :func:`~repro.obs.ledger.read_jsonl`.  Any other file with no
        checkpoint record raises ``ValueError``, so a sweep never
        journals into a grid, report or ledger it was pointed at.
        """
        completed: Dict[str, Dict[str, Any]] = {}
        records, torn = read_jsonl(path)
        foreign = 0
        for record in records:
            if (not isinstance(record, dict)
                    or record.get("schema") != CHECKPOINT_SCHEMA
                    or not isinstance(record.get("spec_sha256"), str)
                    or not isinstance(record.get("result"), dict)):
                foreign += 1
                continue
            completed[record["spec_sha256"]] = record["result"]
        if not completed and (foreign or torn > 1):
            raise ValueError(
                f"{path} holds no sweep checkpoint record; refusing to "
                "resume from it or journal into it")
        return completed, torn + foreign


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(inbox: Any, outbox: Any) -> None:
    """One supervised worker: pull a cell, run it, report, repeat.

    Module-level so ``spawn`` pickles it by reference.  SIGINT is
    ignored — a Ctrl-C lands on the whole foreground process group, and
    the *parent* owns the drain policy; workers only die when told to
    (sentinel, SIGKILL) or by their own cell's misbehaviour.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    from .sweep import _execute_payload

    while True:
        try:
            task = inbox.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        message: Dict[str, Any] = {
            "index": task["index"],
            "dispatch_id": task["dispatch_id"],
        }
        try:
            message["result"] = _execute_payload(task["payload"],
                                                 task["attempt"])
            message["kind"] = "result"
        except BaseException as exc:  # noqa: BLE001 - reported as data
            message["kind"] = "error"
            message["error"] = describe_exception(exc)
        try:
            outbox.send(message)
        except (BrokenPipeError, OSError):  # parent went away
            break


@dataclass
class _Task:
    """One cell's attempts, in a worker or inline: the sweep's retry policy."""

    payload: Dict[str, Any]
    attempt: int = 0
    not_before: float = 0.0
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def index(self) -> int:
        return self.payload["index"]

    @property
    def label(self) -> str:
        return self.payload["spec"].get("label") or ""

    def fail(self, reason: str, detail: Dict[str, Any], max_retries: int,
             retry_backoff: float) -> Dict[str, Any]:
        """Record a failed attempt and return its event: ``failed`` once
        ``max_retries`` retries are spent, else ``retry``, with
        :attr:`not_before` set ``retry_backoff * 2**(attempt-1)``
        seconds out."""
        self.failures.append({"reason": reason, "attempt": self.attempt,
                              "detail": detail})
        if self.attempt >= max_retries:
            failure = {"reason": reason, "attempts": self.attempt + 1,
                       "message": detail["message"] or reason,
                       "history": list(self.failures)}
            return {"kind": "failed", "index": self.index,
                    "label": self.label, "failure": failure}
        self.attempt += 1
        delay = retry_backoff * (2 ** (self.attempt - 1))
        self.not_before = time.monotonic() + delay
        return {"kind": "retry", "index": self.index, "label": self.label,
                "reason": reason, "attempt": self.attempt, "delay": delay}


class _Worker:
    """Parent-side handle: process + its private task/result pipes."""

    def __init__(self, context: Any, worker_id: int):
        self.id = worker_id
        inbox_recv, inbox_send = context.Pipe(duplex=False)
        result_recv, result_send = context.Pipe(duplex=False)
        self.proc = context.Process(
            target=_worker_main,
            args=(inbox_recv, result_send),
            name=f"sweep-worker-{worker_id}",
            daemon=True,
        )
        self.proc.start()
        # Close the child's ends in the parent so a dead worker reads
        # as EOF instead of a silent forever-empty pipe.
        inbox_recv.close()
        result_send.close()
        self.inbox = inbox_send
        self.results = result_recv
        self.task: Optional[_Task] = None
        self.started_at = 0.0
        self.dispatch_id = -1

    def close(self) -> None:
        for conn in (self.inbox, self.results):
            try:
                conn.close()
            except OSError:
                pass

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self.close()


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class WorkerSupervisor:
    """Run payloads across supervised workers, yielding completion events.

    :meth:`run` is a generator of event dicts:

    * ``{"kind": "result", "index", "result", "attempts"}`` — a cell
      completed (possibly after retries).
    * ``{"kind": "retry", "index", "label", "reason", "attempt",
      "delay"}`` — a cell failed and was requeued with backoff.
    * ``{"kind": "failed", "index", "label", "failure"}`` — a cell
      exhausted its retries and is quarantined; ``failure`` carries
      ``reason`` (``exception`` / ``timeout`` / ``crash``),
      ``attempts``, ``message``, and the per-attempt ``history``.

    :meth:`request_stop` (async-signal-safe: it only sets a flag)
    starts a graceful drain: no new dispatch, in-flight cells get
    :data:`_DRAIN_GRACE` seconds to finish, stragglers are killed.
    Cells that never ran are silently skipped — they are
    *interrupted*, not failed, and a resumed sweep runs them.
    """

    def __init__(
        self,
        jobs: int,
        cell_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.jobs = jobs
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.stopped = False
        self._stop_requested = False
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._next_dispatch_id = 0
        self._outstanding = 0
        self._ready: deque = deque()
        self._waiting: List[_Task] = []
        self._ctx: Any = None

    # -- control -------------------------------------------------------
    def request_stop(self) -> None:
        """Begin a graceful drain (safe to call from a signal handler)."""
        self._stop_requested = True

    # -- worker lifecycle ----------------------------------------------
    def _spawn(self) -> _Worker:
        worker = _Worker(self._ctx, self._next_worker_id)
        self._next_worker_id += 1
        self._workers[worker.id] = worker
        return worker

    def _discard(self, worker: _Worker) -> None:
        worker.kill()
        self._workers.pop(worker.id, None)

    def _replenish(self) -> None:
        want = min(self.jobs, self._outstanding)
        while len(self._workers) < want:
            self._spawn()

    # -- failure policy ------------------------------------------------
    def _fail(
        self,
        task: _Task,
        reason: str,
        detail: Dict[str, Any],
        events: List[Dict[str, Any]],
    ) -> None:
        if self.stopped and task.attempt < self.max_retries:
            # Draining: a retry would never be dispatched.  The cell is
            # interrupted, not quarantined — a resume runs it afresh.
            self._outstanding -= 1
            return
        event = task.fail(reason, detail, self.max_retries, self.retry_backoff)
        if event["kind"] == "retry":
            self._waiting.append(task)
        else:
            self._outstanding -= 1
        events.append(event)

    # -- dispatch / collect --------------------------------------------
    def _dispatch(self, worker: _Worker, task: _Task) -> None:
        self._next_dispatch_id += 1
        worker.dispatch_id = self._next_dispatch_id
        try:
            worker.inbox.send({
                "index": task.index,
                "dispatch_id": worker.dispatch_id,
                "attempt": task.attempt,
                "payload": task.payload,
            })
        except (BrokenPipeError, OSError):
            # The worker died before taking the cell: the cell never
            # ran, so it goes back untouched; the worker is replaced.
            self._ready.appendleft(task)
            self._discard(worker)
            self._replenish()
            return
        worker.task = task
        worker.started_at = time.monotonic()

    def _drain_worker(
        self, worker: _Worker, events: List[Dict[str, Any]]
    ) -> None:
        while True:
            try:
                if not worker.results.poll():
                    return
                message = worker.results.recv()
            except (EOFError, OSError):
                # Torn pipe: the death sweep below owns the requeue.
                return
            task = worker.task
            if (task is None
                    or message.get("index") != task.index
                    or message.get("dispatch_id") != worker.dispatch_id):
                continue  # stale echo from a superseded dispatch
            worker.task = None
            if message["kind"] == "result":
                self._outstanding -= 1
                events.append({
                    "kind": "result",
                    "index": task.index,
                    "result": message["result"],
                    "attempts": task.attempt + 1,
                })
            else:
                self._fail(task, "exception", message["error"], events)

    def _sweep_dead(self, events: List[Dict[str, Any]]) -> None:
        for worker in list(self._workers.values()):
            if worker.proc.is_alive():
                continue
            # A finished result may still be sitting in the pipe (the
            # worker died *after* reporting); honour it before calling
            # the death a crash.
            self._drain_worker(worker, events)
            task = worker.task
            exitcode = worker.proc.exitcode
            self._discard(worker)
            if task is not None:
                worker.task = None
                self._fail(task, "crash", {
                    "exitcode": exitcode,
                    "signal": -exitcode if (exitcode or 0) < 0 else None,
                    "message": f"worker died mid-cell (exitcode {exitcode})",
                }, events)
            self._replenish()

    def _reap_timeouts(self, now: float, events: List[Dict[str, Any]]) -> None:
        if self.cell_timeout is None:
            return
        for worker in list(self._workers.values()):
            if worker.task is None:
                continue
            if now - worker.started_at < self.cell_timeout:
                continue
            # Last chance: accept a result that raced the deadline.
            self._drain_worker(worker, events)
            task = worker.task
            if task is None:
                continue
            worker.task = None
            self._discard(worker)
            self._fail(task, "timeout", {
                "timeout_sec": self.cell_timeout,
                "message": (f"cell exceeded {self.cell_timeout}s wall "
                            "clock; worker killed"),
            }, events)
            self._replenish()

    # -- the loop ------------------------------------------------------
    def run(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> Iterator[Dict[str, Any]]:
        # Imported here, where the only workers are spawned: a command
        # that never spawns one never loads multiprocessing, nor the
        # stdlib modules it pulls in.
        import multiprocessing
        from multiprocessing import connection as mp_connection

        self._ctx = multiprocessing.get_context("spawn")
        self._ready = deque(_Task(payload) for payload in payloads)
        self._waiting = []
        self._outstanding = len(self._ready)
        drain_deadline: Optional[float] = None
        try:
            while self._outstanding > 0:
                events: List[Dict[str, Any]] = []
                now = time.monotonic()
                if self._stop_requested and not self.stopped:
                    self.stopped = True
                    drain_deadline = now + _DRAIN_GRACE
                    self._outstanding -= len(self._ready) + len(self._waiting)
                    self._ready.clear()
                    self._waiting = []
                if self.stopped:
                    in_flight = [w for w in self._workers.values()
                                 if w.task is not None]
                    if not in_flight:
                        break
                    if drain_deadline is not None and now >= drain_deadline:
                        for worker in in_flight:
                            self._outstanding -= 1
                            worker.task = None
                            self._discard(worker)
                        break
                else:
                    if self._waiting:
                        due = [t for t in self._waiting if t.not_before <= now]
                        if due:
                            self._waiting = [
                                t for t in self._waiting if t.not_before > now]
                            self._ready.extend(
                                sorted(due, key=lambda t: t.index))
                    self._replenish()
                    for worker in self._workers.values():
                        if not self._ready:
                            break
                        if worker.task is None:
                            self._dispatch(worker, self._ready.popleft())
                waitables = [w.results for w in self._workers.values()]
                waitables += [w.proc.sentinel for w in self._workers.values()]
                if waitables:
                    mp_connection.wait(waitables, timeout=_TICK)
                else:
                    time.sleep(_TICK)
                for worker in list(self._workers.values()):
                    self._drain_worker(worker, events)
                self._sweep_dead(events)
                self._reap_timeouts(time.monotonic(), events)
                for event in events:
                    yield event
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Dismiss every worker: sentinel, short join, then the axe."""
        for worker in list(self._workers.values()):
            try:
                worker.inbox.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 1.0
        for worker in list(self._workers.values()):
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
            worker.close()
        self._workers.clear()
