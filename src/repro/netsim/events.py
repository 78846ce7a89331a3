"""Discrete-event engine.

A deterministic event queue drives the whole simulator: link
propagation, transmission serialization, transport retransmission
timers, registration lifetimes, and application think times are all
events.  Determinism matters — every benchmark and test must produce
identical traces run-to-run — so ties are broken by insertion order and
all randomness flows through a single seeded RNG owned by the
:class:`Simulator` (see :mod:`repro.netsim.simulator`).

Performance notes (this engine bounds the wall time of every figure
benchmark and of the end-to-end ``python -m benchmarks.e2e`` runs):

* The heap stores plain ``(time, seq, event)`` tuples, so sift
  comparisons are C-level tuple comparisons instead of dataclass
  ``__lt__`` calls building tuples per comparison.
* :class:`Event` is a ``__slots__`` class; events are allocated on
  every packet hop, so per-instance dict overhead matters.
* ``pending`` is O(1): the queue maintains a live-event counter
  decremented on :meth:`Event.cancel` and on pop.
* Cancelled entries are discarded lazily on pop, and the heap is
  compacted outright when cancelled corpses outnumber live events
  (timer-heavy transports cancel most of what they schedule).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = ["Event", "EventQueue", "SimClock"]

# Compact the heap when it holds more than this many cancelled entries
# AND they outnumber the live ones.  Small enough that a timer-heavy
# run never carries a mostly-dead heap, large enough that compaction
# cost is amortized over many cancellations.
_COMPACT_MIN_CANCELLED = 256


class Event:
    """A scheduled callback.

    Ordering is (time, sequence); the callback and its arguments do not
    participate in comparisons.  ``cancelled`` supports O(1) timer
    cancellation (the queue lazily discards cancelled events on pop).

    ``done`` marks an event that has already executed.  Cancelling a
    done event is a harmless no-op: callers that keep timer handles
    around (registration retries, refresh timers) would otherwise
    corrupt the queue's O(1) live/cancelled accounting by "cancelling"
    an event that is no longer in the heap.
    """

    __slots__ = ("time", "seq", "action", "args", "label", "cancelled", "done",
                 "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[..., Any],
        args: tuple = (),
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ):
        self.time = time
        self.seq = seq
        self.action = action
        self.args = args
        self.label = label
        self.cancelled = False
        self.done = False
        self._queue = queue

    def cancel(self) -> None:
        if not self.cancelled and not self.done:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        # Kept for API compatibility with the old dataclass(order=True)
        # Event; the queue itself orders tuples, not events.
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.seq) < (other.time, other.seq)

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

    def _advance(self, time: float) -> None:
        if time < self._now:
            raise RuntimeError(
                f"time went backwards: {time} < {self._now}"
            )
        self._now = time


class EventQueue:
    """A priority queue of events with deterministic tie-breaking."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        # Heap of (time, seq, event) tuples; seq breaks ties FIFO and
        # guarantees the comparison never reaches the event itself.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.processed = 0
        self._live = 0        # scheduled and not yet cancelled or run
        self._cancelled = 0   # cancelled entries still sitting in the heap

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
        event = Event(time, seq, action, args, label, self)
        _heappush(self._heap, (time, seq, event))
        self._live += 1
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
        """Live (scheduled, not cancelled, not yet run) event count. O(1)."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Raw heap entries, live plus cancelled corpses. O(1)."""
        return len(self._heap)

    @property
    def cancelled_backlog(self) -> int:
        """Cancelled entries still awaiting lazy removal. O(1)."""
        return self._cancelled

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel`: maintain counters, compact."""
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > _COMPACT_MIN_CANCELLED and self._cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        In place (slice assignment), because ``run()`` holds a local
        reference to the heap list while actions — which may cancel
        timers and trigger compaction — execute.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        heap = self._heap
        clock = self.clock
        while heap:
            time, _seq, event = _heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._live -= 1
            if time < clock._now:
                raise RuntimeError(f"time went backwards: {time} < {clock._now}")
            clock._now = time
            event.done = True
            event.action(*event.args)
            self.processed += 1
            return True
        return False

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
        iteration, advances the clock inline instead of through
        ``SimClock._advance``, and batches the ``processed``/live
        counter updates into a ``finally`` (so mid-run actions that
        cancel timers still interleave correctly, but code polling
        ``pending``/``processed`` *from inside an action* sees values
        as of run() entry — no simulator code does).
        """
        heap = self._heap
        clock = self.clock
        pop = _heappop
        horizon = float("inf") if until is None else until
        processed = 0
        live_popped = 0
        try:
            while processed < max_events:
                if not heap:
                    if until is not None and until > clock._now:
                        clock._now = until
                    return clock._now
                entry = pop(heap)
                event = entry[2]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    _heappush(heap, entry)
                    if horizon > clock._now:
                        clock._now = horizon
                    return clock._now
                live_popped += 1
                if time < clock._now:
                    raise RuntimeError(
                        f"time went backwards: {time} < {clock._now}")
                clock._now = time
                event.done = True
                event.action(*event.args)
                processed += 1
            raise RuntimeError(f"event budget exhausted ({max_events} events)")
        finally:
            self.processed += processed
            self._live -= live_popped
