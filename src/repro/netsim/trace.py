"""Packet tracing and evidence collection.

Every claim in the paper is ultimately about what happens to packets:
where they travel (Figures 1, 3, 4, 5), where they are dropped
(Figure 2), and how big they are (§3.3).  The :class:`TraceLog`
collects a global record of packet fates that the analysis layer and
the figure benchmarks query.

Nodes call :meth:`TraceLog.note` as packets pass through them; each
call appends one :class:`TraceEntry`.  The log keeps incremental
cross-packet aggregates: action counts, drop and loss reasons, and
byte accounting per link.  Per-datagram facts (path, fate, bytes) are
read after the run by folding the entries
(:func:`repro.obs.spans.datagrams`).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, NamedTuple

from .packet import Packet

__all__ = ["Subscriber", "TraceEntry", "TraceLog"]


class TraceEntry(NamedTuple):
    """A globally-logged packet event: one tuple, fields by name."""

    time: float
    node: str
    action: str          # send | forward | deliver | drop | encapsulate | ...
    proto: str           # outer header's IPProto name
    trace_id: int
    src: str
    dst: str
    wire_size: int
    detail: str = ""


# A live-stream observer: called with each event's entry and the packet
# it describes (for state the entry does not freeze, such as TTL).
Subscriber = Callable[[TraceEntry, Packet], None]


class TraceLog:
    """Global record of packet events for one simulation run.

    Every :meth:`note` appends one :class:`TraceEntry` to
    :attr:`entries` and updates the aggregate counters.  Observers of
    the live event stream (invariant monitor, flight recorder)
    :meth:`subscribe` a callable taking ``(entry, packet)``; each
    event's entry is built once and handed to every subscriber in
    subscription order.  A subscriber stays for the life of the log.
    """

    def __init__(self) -> None:
        self.entries: List[TraceEntry] = []
        self.bytes_by_link: Counter = Counter()
        self.action_counts: Counter = Counter()
        self.drops_by_reason: Counter = Counter()
        # ``lost`` events (link loss, interface/segment down, queue
        # overflow) keyed by detail — the loss-side twin of
        # ``drops_by_reason``, so congestion drops are queryable without
        # scanning entries.
        self.losses_by_reason: Counter = Counter()
        self.subscribers: List[Subscriber] = []

    # ------------------------------------------------------------------
    # Subscribers
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> None:
        """Deliver every later event to ``subscriber(entry, packet)``."""
        self.subscribers.append(subscriber)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def note(
        self,
        time: float,
        node: str,
        action: str,
        packet: Packet,
        detail: str = "",
    ) -> None:
        """Record one event and hand its entry to every subscriber."""
        self.action_counts[action] += 1
        if action == "drop":
            self.drops_by_reason[detail] += 1
        elif action == "lost":
            self.losses_by_reason[detail] += 1
        # TraceEntry(...) would add a Python-level frame per event, and
        # str(address) one per address: ``_str`` is the same text.
        entry = tuple.__new__(TraceEntry, (
            time, node, action, packet.proto._name_, packet.trace_id,
            packet.src._str, packet.dst._str, packet.wire_size, detail,
        ))
        self.entries.append(entry)
        for subscriber in self.subscribers:
            subscriber(entry, packet)

    def note_link_bytes(self, link_name: str, size: int) -> None:
        self.bytes_by_link[link_name] += size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_drops(self) -> int:
        return self.action_counts["drop"]

    @property
    def total_deliveries(self) -> int:
        return self.action_counts["deliver"]

    def summary(self) -> str:
        """A human-readable one-run summary (used by examples)."""
        lines = [
            f"events: {sum(self.action_counts.values())}",
            f"delivered: {self.total_deliveries}  dropped: {self.total_drops}",
        ]
        for reason, count in self.drops_by_reason.most_common():
            lines.append(f"  drop[{reason}]: {count}")
        return "\n".join(lines)
