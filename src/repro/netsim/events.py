"""Discrete-event engine.

A deterministic event queue drives the whole simulator: link
propagation, transmission serialization, transport retransmission
timers, registration lifetimes, and application think times are all
events.  Determinism matters — every benchmark and test must produce
identical traces run-to-run — so ties are broken by insertion order and
all randomness flows through a single seeded RNG owned by the
:class:`Simulator` (see :mod:`repro.netsim.simulator`).

The queue is one binary heap of ``(time, seq, event)`` tuples: sift
comparisons are C-level tuple comparisons, and ``seq`` settles every
tie before a comparison could reach the event.  :class:`Event` is a
``__slots__`` class, because one is allocated on every packet hop.

Cancellation is lazy.  :meth:`Event.cancel` only sets a flag; the entry
stays in the heap until :meth:`EventQueue.run` pops and discards it.
:attr:`EventQueue.pending` and :attr:`EventQueue.cancelled_backlog`
scan the heap when read, and :attr:`EventQueue.dispatched` derives
from three counts, so all three are exact at every moment, also from
inside an action.  Only tests and the observers (the engine sampler
and the flight recorder) read them, and the heap stays small: no
workload builds more than a few hundred entries or holds more than a
handful of cancelled ones at once.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = ["Event", "EventQueue", "SimClock"]


class Event:
    """A scheduled callback.

    The queue orders events by ``(time, seq)``; the callback and its
    arguments never take part in a comparison.  :meth:`cancel` is O(1)
    and idempotent, and cancelling an event that already ran is
    harmless: it is no longer in the heap, so nothing reads the flag.
    """

    __slots__ = ("time", "seq", "action", "args", "label", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[..., Any],
        args: tuple = (),
        label: str = "",
    ):
        self.time = time
        self.seq = seq
        self.action = action
        self.args = args
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        label = f" {self.label!r}" if self.label else ""
        return f"Event(t={self.time}, seq={self.seq}{label}{state})"


class SimClock:
    """Monotonic simulation clock, advanced only by the event queue."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now


class EventQueue:
    """A priority queue of events with deterministic tie-breaking."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        # Heap of (time, seq, event) tuples; seq breaks ties FIFO and
        # guarantees the comparison never reaches the event itself.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.processed = 0
        # Cancelled entries run() popped and dropped without running.
        self._discarded = 0

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``action(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, action, args, label)
        _heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``action(*args)`` at absolute simulation time.

        Scheduling in the past is a logic error (it used to be silently
        clamped to "now", hiding broken timer arithmetic) and raises
        ``ValueError``, matching :meth:`schedule`'s negative-delay check.
        """
        now = self.clock._now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < now {now}")
        return self.schedule(time - now, action, *args, label=label)

    @property
    def pending(self) -> int:
        """Events scheduled and neither cancelled nor run (a heap scan)."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    @property
    def heap_size(self) -> int:
        """Heap entries, cancelled ones included."""
        return len(self._heap)

    @property
    def cancelled_backlog(self) -> int:
        """Cancelled entries still in the heap (a heap scan)."""
        return sum(1 for entry in self._heap if entry[2].cancelled)

    @property
    def dispatched(self) -> int:
        """Events popped to run so far, the running one included.

        Every event ever scheduled is still in the heap, was discarded
        cancelled, or was dispatched.  Unlike :attr:`processed`, this is
        exact also inside an action.
        """
        return self._seq - len(self._heap) - self._discarded

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> float:
        """Drain the queue, optionally stopping at time ``until``.

        Returns the clock value when processing stopped.  With ``until``
        the clock ends at ``until`` even if the queue empties earlier;
        without it the queue is drained and the clock stays at the last
        event.  ``max_events`` guards against runaway feedback loops in
        misconfigured topologies (e.g. routing loops with no TTL).

        The body is the hottest loop in the simulator: one loop (no
        ``until`` is an infinite horizon) pops first and pushes back
        the at-most-one over-horizon event rather than peeking every
        iteration, advances the clock inline, and adds to ``processed``
        once, in a ``finally``: read from inside an action, it is the
        count as of this run's entry (:attr:`dispatched` is exact there).
        """
        heap = self._heap
        clock = self.clock
        pop = _heappop
        if until is not None:
            # The clock keeps float time whatever number type it is given.
            until = float(until)
        horizon = float("inf") if until is None else until
        processed = 0
        try:
            while processed < max_events:
                if not heap:
                    if until is not None and until > clock._now:
                        clock._now = until
                    return clock._now
                entry = pop(heap)
                event = entry[2]
                if event.cancelled:
                    self._discarded += 1
                    continue
                time = entry[0]
                if time > horizon:
                    _heappush(heap, entry)
                    if horizon > clock._now:
                        clock._now = horizon
                    return clock._now
                if time < clock._now:
                    raise RuntimeError(
                        f"time went backwards: {time} < {clock._now}")
                clock._now = time
                event.action(*event.args)
                processed += 1
            raise RuntimeError(f"event budget exhausted ({max_events} events)")
        finally:
            self.processed += processed
