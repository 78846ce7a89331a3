"""Violation flight recorder: the last N trace events plus engine state.

When a sweep cell, chaos run, or fuzz case ends in an invariant
violation, the full trace is usually buried (a 260-second chaos run
produces tens of thousands of entries).  The :class:`FlightRecorder`
keeps a bounded ring buffer of the most recent trace events — a
:meth:`~repro.netsim.trace.TraceLog.subscribe` subscriber like the
invariant monitor, so an unarmed run pays nothing at all — and, on
request, dumps the ring plus a snapshot of live engine state
(event-queue depth, clock, per-node reassembly backlog, mobility
bindings, segment health) to a ``flightrec.json`` for postmortem.

Digest neutrality is by construction: a subscriber only *reads* the
event, so the trace stream, RNG, and event order are untouched.

Per event the ring holds the :class:`~repro.netsim.trace.TraceEntry`
the trace log built, the packet itself, and the packet's
:meth:`~repro.netsim.packet.Packet.headers` — the only fields that
forwarding rewrites after an event (TTLs, a filled-in source, a
source-routed destination).  The packet text is rendered from those at
dump time, so an armed run pays no per-event ``repr``; the ring keeps
at most ``limit`` packets alive.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..netsim.packet import format_packet
from .ledger import replace_file

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.packet import Packet
    from ..netsim.simulator import Simulator
    from ..netsim.trace import TraceEntry, TraceLog

__all__ = ["FlightRecorder", "DEFAULT_FLIGHT_LIMIT", "FLIGHTREC_SCHEMA"]

FLIGHTREC_SCHEMA = "repro-mobility-flightrec/v1"
DEFAULT_FLIGHT_LIMIT = 256


class FlightRecorder:
    """Bounded ring of recent trace events, dumpable with engine state."""

    def __init__(self, sim: "Simulator", limit: int = DEFAULT_FLIGHT_LIMIT):
        if limit < 1:
            raise ValueError(f"flight-recorder limit must be >= 1, got {limit}")
        self.sim = sim
        self.limit = limit
        self.ring: deque = deque(maxlen=limit)
        self.recorded = 0
        self.dumps = 0
        self._trace: Optional["TraceLog"] = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, trace: "TraceLog") -> None:
        """Subscribe the ring to ``trace``'s live event stream."""
        if self._trace is not None:
            raise RuntimeError("flight recorder is already attached")
        self._trace = trace
        trace.subscribe(self._record)

    def _record(self, entry: "TraceEntry", packet: "Packet") -> None:
        self.ring.append((entry, packet, packet.headers()))
        self.recorded += 1

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """The ring's contents, oldest first, as JSON-clean dicts."""
        return [
            {
                "time": entry.time, "node": entry.node,
                "action": entry.action, "trace_id": entry.trace_id,
                "src": entry.src, "dst": entry.dst,
                "wire_size": entry.wire_size, "detail": entry.detail,
                "packet": format_packet(packet, headers),
            }
            for entry, packet, headers in self.ring
        ]

    def engine_state(self) -> Dict[str, Any]:
        """Live engine internals at dump time (queue, nodes, segments)."""
        sim = self.sim
        events = sim.events
        nodes: Dict[str, Any] = {}
        for name, node in sim.nodes.items():
            info: Dict[str, Any] = {
                "reassembly_pending": node.reassembler.pending,
                "packets_sent": node.packets_sent,
                "packets_received": node.packets_received,
                "up": getattr(node, "up", True),
            }
            bindings = getattr(node, "bindings", None)
            snapshot = getattr(bindings, "snapshot", None)
            if snapshot is not None:
                info["bindings"] = snapshot(sim.now)
            nodes[name] = info
        segments = {
            name: {
                "up": segment.up,
                "loss_rate": segment.loss_rate,
                "bytes_carried": segment.bytes_carried,
            }
            for name, segment in sim.segments.items()
        }
        return {
            "clock": sim.now,
            "events": {
                "heap": events.heap_size,
                "cancelled": events.cancelled_backlog,
                "pending_live": events.pending,
                "processed": events.processed,
            },
            "nodes": nodes,
            "segments": segments,
        }

    # ------------------------------------------------------------------
    # Dump
    # ------------------------------------------------------------------
    def dump(
        self,
        path: str,
        reason: str,
        violations: Optional[List[Dict[str, Any]]] = None,
    ) -> str:
        """Write the postmortem JSON atomically; returns ``path``."""
        payload = {
            "schema": FLIGHTREC_SCHEMA,
            "reason": reason,
            "limit": self.limit,
            "recorded": self.recorded,
            "entries": self.entries(),
            "engine": self.engine_state(),
            "violations": list(violations or []),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        replace_file(path, text.encode())
        self.dumps += 1
        return path
