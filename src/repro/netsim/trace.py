"""Packet tracing and evidence collection.

Every claim in the paper is ultimately about what happens to packets:
where they travel (Figures 1, 3, 4, 5), where they are dropped
(Figure 2), and how big they are (§3.3).  The :class:`TraceLog`
collects a global record of packet fates that the analysis layer and
the figure benchmarks query.

Nodes call :meth:`TraceLog.note` as packets pass through them; the
per-packet hop list (see :class:`repro.netsim.packet.HopRecord`) holds
the same information packet-locally.  The global log adds cross-packet
queries: delivery ratios, per-destination drop summaries, and byte
accounting per link.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .packet import Packet

__all__ = ["Subscriber", "TraceEntry", "TraceLog"]


@dataclass(frozen=True)
class TraceEntry:
    """A globally-logged packet event."""

    time: float
    node: str
    action: str          # send | forward | deliver | drop | encapsulate | ...
    packet_repr: str
    trace_id: int
    src: str
    dst: str
    wire_size: int
    detail: str = ""


# A live-stream observer: called with each event's entry and the packet
# it describes (for state the entry does not freeze, such as TTL).
Subscriber = Callable[[TraceEntry, Packet], None]


def _snapshot(
    time: float, node: str, action: str, packet: Packet, detail: str
) -> TraceEntry:
    """One event's entry, every field frozen now (packets mutate in place).

    Built via __new__ + __dict__: the dataclass __init__ routes every
    field through object.__setattr__, which dominates the hot path.
    Field values are identical to the constructor call.
    """
    entry = TraceEntry.__new__(TraceEntry)
    entry.__dict__.update(
        time=time,
        node=node,
        action=action,
        packet_repr=repr(packet),
        trace_id=packet.trace_id,
        src=str(packet.src),
        dst=str(packet.dst),
        wire_size=packet.wire_size,
        detail=detail,
    )
    return entry


class TraceLog:
    """Global record of packet events for one simulation run.

    Three levels of tracing, cheapest first:

    * ``TraceLog(enabled=False, aggregates=False)`` — a true no-op:
      :meth:`note` is rebound to a do-nothing method, so large
      throughput runs pay only one call per event (no hop records, no
      counter updates, no entry construction).
    * ``TraceLog(enabled=False)`` — keeps the per-packet hop records
      and the incremental aggregates (action counts, drop reasons)
      but skips per-event :class:`TraceEntry` construction.
    * ``TraceLog()`` — full tracing; every event becomes an entry.

    Observers of the live event stream (span recorder, invariant
    monitor, flight recorder) :meth:`subscribe` a callable taking
    ``(entry, packet)``.  Each event's :class:`TraceEntry` is built
    once and handed to every subscriber in subscription order, at any
    level — the fully disabled one included, where only subscribers
    see the event.  With no subscribers the levels above cost exactly
    what they always did.
    """

    def __init__(self, enabled: bool = True, aggregates: bool = True):
        self.enabled = enabled
        self.aggregates = aggregates or enabled
        self.entries: List[TraceEntry] = []
        # trace_id -> indices into ``entries``, maintained incrementally
        # by note() so the per-datagram queries (entries_for, delivered,
        # dropped, delivery_ratio) are O(per-datagram events) instead of
        # a full O(n) scan per call.
        self._entries_by_id: Dict[int, List[int]] = defaultdict(list)
        # Aggregates maintained incrementally so benches stay cheap even
        # with tracing of individual entries disabled.
        self.bytes_by_link: Counter = Counter()
        self.action_counts: Counter = Counter()
        self.drops_by_reason: Counter = Counter()
        # ``lost`` events (link loss, interface/segment down, queue
        # overflow) keyed by detail — the loss-side twin of
        # ``drops_by_reason``, so congestion drops are queryable without
        # scanning entries.
        self.losses_by_reason: Counter = Counter()
        self.subscribers: List[Subscriber] = []
        if not self.aggregates:
            # Rebinding on the instance makes the disabled path a plain
            # no-op call — no flag checks on the hot path.
            self.note = self._note_disabled  # type: ignore[method-assign]
            self.note_link_bytes = (  # type: ignore[method-assign]
                self._note_link_bytes_disabled
            )

    # ------------------------------------------------------------------
    # Subscribers
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> None:
        """Deliver every later event to ``subscriber(entry, packet)``."""
        self.subscribers.append(subscriber)
        if not self.aggregates:
            self.note = self._publish  # type: ignore[method-assign]

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Stop delivering to ``subscriber``; a no-op if not subscribed."""
        if subscriber in self.subscribers:
            self.subscribers.remove(subscriber)
        if not self.aggregates and not self.subscribers:
            self.note = self._note_disabled  # type: ignore[method-assign]

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
        """Record an event both globally and on the packet itself."""
        packet.record(time, node, action, detail)
        self.action_counts[action] += 1
        if action == "drop":
            self.drops_by_reason[detail] += 1
        elif action == "lost":
            self.losses_by_reason[detail] += 1
        subscribers = self.subscribers
        if not (self.enabled or subscribers):
            return
        entry = _snapshot(time, node, action, packet, detail)
        if self.enabled:
            entries = self.entries
            self._entries_by_id[packet.trace_id].append(len(entries))
            entries.append(entry)
        for subscriber in subscribers:
            subscriber(entry, packet)

    def _publish(
        self,
        time: float,
        node: str,
        action: str,
        packet: Packet,
        detail: str = "",
    ) -> None:
        """:meth:`note` at the disabled level while subscribers listen."""
        entry = _snapshot(time, node, action, packet, detail)
        for subscriber in self.subscribers:
            subscriber(entry, packet)

    def _note_disabled(
        self,
        time: float,
        node: str,
        action: str,
        packet: Packet,
        detail: str = "",
    ) -> None:
        """No-op :meth:`note` used when tracing is fully off."""

    def note_link_bytes(self, link_name: str, size: int) -> None:
        self.bytes_by_link[link_name] += size

    def _note_link_bytes_disabled(self, link_name: str, size: int) -> None:
        """No-op byte accounting for the fully-disabled level."""

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def entries_for(self, trace_id: int) -> List[TraceEntry]:
        entries = self.entries
        return [entries[index] for index in self._entries_by_id.get(trace_id, ())]

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

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(self, path, chunk_lines: int = 4096) -> int:
        """Write every recorded entry as one JSON object per line.

        The poor man's pcap: external tooling (jq, pandas, a notebook)
        can reconstruct paths, timings, and drop reasons from the file.
        Lines are batched through a buffer and flushed ``chunk_lines``
        at a time instead of one ``write`` per entry, which matters at
        the hundreds-of-thousands-of-events scale the soak scenarios
        produce.  Returns the number of entries written.
        """
        import json

        dumps = json.dumps
        buffer: List[str] = []
        with open(path, "w") as handle:
            for entry in self.entries:
                buffer.append(dumps({
                    "time": entry.time,
                    "node": entry.node,
                    "action": entry.action,
                    "trace_id": entry.trace_id,
                    "src": entry.src,
                    "dst": entry.dst,
                    "wire_size": entry.wire_size,
                    "detail": entry.detail,
                    "packet": entry.packet_repr,
                }))
                if len(buffer) >= chunk_lines:
                    handle.write("\n".join(buffer) + "\n")
                    buffer.clear()
            if buffer:
                handle.write("\n".join(buffer) + "\n")
        return len(self.entries)

    @classmethod
    def import_jsonl(cls, path) -> "TraceLog":
        """Rebuild a :class:`TraceLog` from an :meth:`export_jsonl` file.

        Entries, the per-datagram index, and the derivable aggregates
        (action counts, drop reasons) are all reconstructed, so the
        query API works identically on an imported log.  Per-link byte
        counters are *not* round-tripped: they are recorded through
        :meth:`note_link_bytes`, not as entries, and do not appear in
        the export.
        """
        import json

        log = cls(enabled=True)
        entries = log.entries
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                entry = TraceEntry(
                    time=obj["time"],
                    node=obj["node"],
                    action=obj["action"],
                    packet_repr=obj.get("packet", ""),
                    trace_id=obj["trace_id"],
                    src=obj["src"],
                    dst=obj["dst"],
                    wire_size=obj["wire_size"],
                    detail=obj.get("detail", ""),
                )
                log._entries_by_id[entry.trace_id].append(len(entries))
                entries.append(entry)
                log.action_counts[entry.action] += 1
                if entry.action == "drop":
                    log.drops_by_reason[entry.detail] += 1
                elif entry.action == "lost":
                    log.losses_by_reason[entry.detail] += 1
        return log
