"""Packet tracing and evidence collection.

Every claim in the paper is ultimately about what happens to packets:
where they travel (Figures 1, 3, 4, 5), where they are dropped
(Figure 2), and how big they are (§3.3).  The :class:`TraceLog`
collects a global record of packet fates that the analysis layer and
the figure benchmarks query.

Nodes call :meth:`TraceLog.note` as packets pass through them; each
call appends one :class:`TraceEntry`.  The log answers per-datagram
queries (path, delivered, dropped) by trace id, and keeps incremental
cross-packet aggregates: action counts, drop and loss reasons, and
byte accounting per link.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

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
    the live event stream (span recorder, invariant monitor, flight
    recorder) :meth:`subscribe` a callable taking ``(entry, packet)``;
    each event's entry is built once and handed to every subscriber in
    subscription order.
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

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Stop delivering to ``subscriber``; a no-op if not subscribed."""
        if subscriber in self.subscribers:
            self.subscribers.remove(subscriber)

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
    def entries_for(self, trace_id: int) -> List[TraceEntry]:
        return [entry for entry in self.entries if entry.trace_id == trace_id]

    def path_of(self, trace_id: int) -> Tuple[str, ...]:
        """Node names that forwarded/delivered the logical datagram."""
        return tuple(
            entry.node
            for entry in self.entries_for(trace_id)
            if entry.action in ("forward", "deliver")
        )

    def delivered(self, trace_id: int) -> bool:
        return any(
            entry.action == "deliver" for entry in self.entries_for(trace_id)
        )

    def dropped(self, trace_id: int) -> bool:
        return any(entry.action == "drop" for entry in self.entries_for(trace_id))

    def drop_detail(self, trace_id: int) -> Optional[str]:
        for entry in self.entries_for(trace_id):
            if entry.action == "drop":
                return entry.detail
        return None

    @property
    def total_drops(self) -> int:
        return self.action_counts["drop"]

    @property
    def total_deliveries(self) -> int:
        return self.action_counts["deliver"]

    def delivery_ratio(self, trace_ids: Iterable[int]) -> float:
        """Fraction of the given logical datagrams that were delivered."""
        ids = list(trace_ids)
        if not ids:
            return 0.0
        return sum(1 for tid in ids if self.delivered(tid)) / len(ids)

    def hop_counts(self) -> Dict[int, int]:
        """trace_id -> number of forwarding hops."""
        counts: Dict[int, int] = defaultdict(int)
        for entry in self.entries:
            if entry.action == "forward":
                counts[entry.trace_id] += 1
        return dict(counts)

    def summary(self) -> str:
        """A human-readable one-run summary (used by examples)."""
        lines = [
            f"events: {sum(self.action_counts.values())}",
            f"delivered: {self.total_deliveries}  dropped: {self.total_drops}",
        ]
        for reason, count in self.drops_by_reason.most_common():
            lines.append(f"  drop[{reason}]: {count}")
        return "\n".join(lines)
