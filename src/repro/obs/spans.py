"""Packet-lifecycle spans.

Every logical datagram in the simulator keeps one ``trace_id`` across
encapsulation, tunneling, fragmentation, and reassembly (see
:mod:`repro.netsim.packet`).  :func:`datagrams` folds a run's trace
entries, after the run, into a **span tree** per datagram:

* a root span opens at the first ``send`` and closes at final delivery
  (or drop);
* each ``encapsulate`` opens a child *tunnel* span under the current
  innermost open span, closed by the matching ``decapsulate``;
* each ``fragment`` opens a child *fragmentation* span, closed when the
  reassembled datagram is delivered.

Parent/child links therefore mirror the encapsulation stack, which is
exactly the structure the paper's byte-overhead arguments (§3.3) are
about: the cost of a mode is the extra spans its packets travel inside.

The fold reads only the :class:`~repro.netsim.trace.TraceEntry` tuples
the trace log keeps anyway, never a packet, so it runs when a report
asks for it and a run pays nothing for spans while it runs.

Spans export as Chrome ``trace_event`` JSON (load the file at
``chrome://tracing`` or https://ui.perfetto.dev) and summarize into
per-mode latency/overhead histograms.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from ..netsim.packet import IPProto
from ..netsim.trace import TraceEntry
from .metrics import LATENCY_BUCKETS, SIZE_BUCKETS, Histogram

__all__ = ["Span", "datagrams", "chrome_trace", "export_chrome_trace",
           "summarize"]

# Outer-header protocol names (``TraceEntry.proto``) of a tunnel leg.
_TUNNEL_PROTOS = frozenset(
    proto.name for proto in (IPProto.IPIP, IPProto.GRE, IPProto.MINENC))


class Span:
    """One interval in a datagram's life, with a parent link."""

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "cat",
                 "node", "start", "end", "args")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        trace_id: int,
        name: str,
        cat: str,
        node: str,
        start: float,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.cat = cat
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.args: Dict[str, Any] = {}

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(#{self.span_id} {self.name} trace={self.trace_id} "
                f"[{self.start}..{self.end}])")


def _close(span: Span, time: float, node: str) -> None:
    span.end = time
    span.args.setdefault("end_node", node)


def datagrams(entries: Iterable[TraceEntry], end: float) -> List[Span]:
    """Fold trace entries into one span tree per datagram.

    Spans come out in the order they open, with ids 1..n.  Entries of a
    trace id after its final ``deliver`` or its ``drop`` are ignored; a
    datagram still in flight closes at ``end``, marked ``incomplete``.
    """
    spans: List[Span] = []
    # trace id -> its open spans, root first; empty once it has ended.
    stacks: Dict[int, List[Span]] = {}

    def open_span(parent_id, trace_id, name, cat, node, time) -> Span:
        span = Span(len(spans) + 1, parent_id, trace_id, name, cat, node, time)
        spans.append(span)
        return span

    for time, node, action, proto, trace_id, src, dst, wire_size, detail in entries:
        stack = stacks.get(trace_id)
        if stack is None:
            root = open_span(None, trace_id, f"datagram-{trace_id}",
                             "packet", node, time)
            root.args["src"] = src
            root.args["dst"] = dst
            root.args["base_bytes"] = wire_size
            root.args["max_bytes"] = wire_size
            stack = stacks[trace_id] = [root]
            if action == "send":
                continue
        elif not stack:
            continue  # after its final delivery or its drop
        root = stack[0]
        if wire_size > root.args["max_bytes"]:
            root.args["max_bytes"] = wire_size

        if action == "mode-select":
            root.args["mode"] = detail
        elif action == "encapsulate":
            span = open_span(stack[-1].span_id, trace_id, "tunnel", "encap",
                             node, time)
            span.args["detail"] = detail
            stack.append(span)
        elif action == "decapsulate":
            for index in range(len(stack) - 1, 0, -1):
                if stack[index].name == "tunnel":
                    _close(stack.pop(index), time, node)
                    break
        elif action == "fragment":
            span = open_span(stack[-1].span_id, trace_id, "fragmentation",
                             "frag", node, time)
            span.args["detail"] = detail
            stack.append(span)
            root.args["fragmented"] = True
        elif action == "forward":
            root.args["hops"] = root.args.get("hops", 0) + 1
        elif action == "send":
            root.args["resends"] = root.args.get("resends", 0) + 1
        elif action == "deliver":
            if stack[-1].name == "fragmentation":
                # Reassembly completed at the delivering node.
                _close(stack.pop(), time, node)
            if proto in _TUNNEL_PROTOS:
                continue  # outer delivery; the tunnel span closes at decapsulate
            root.args["delivered"] = True
            while stack:
                _close(stack.pop(), time, node)
        elif action == "drop":
            root.args["dropped"] = detail or "unknown"
            while stack:
                _close(stack.pop(), time, node)

    for stack in stacks.values():
        if stack:
            stack[0].args["incomplete"] = True
        while stack:
            span = stack.pop()
            _close(span, end, span.node)
    return spans


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def chrome_trace(spans: List[Span]) -> Dict[str, Any]:
    """The span set as a ``chrome://tracing``-loadable object.

    Every span becomes a complete ("ph": "X") event; timestamps are
    microseconds of simulation time; the datagram's trace id is the
    thread id so one datagram's spans share a row; parent links ride
    in ``args`` (span_id/parent_id).
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": "repro-mobility simulation"},
    }]
    for span in spans:
        events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": 1,
            "tid": span.trace_id,
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "node": span.node,
                **span.args,
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(spans: List[Span], path) -> int:
    """Write the Chrome trace JSON; returns the event count."""
    trace = chrome_trace(spans)
    with open(path, "w") as handle:
        handle.write(json.dumps(trace) + "\n")
    return len(trace["traceEvents"])


# ----------------------------------------------------------------------
# Per-mode summaries
# ----------------------------------------------------------------------
def summarize(spans: List[Span]) -> Dict[str, Any]:
    """Per-mode latency/overhead histograms over the root spans.

    The mode is the engine's ``mode-select`` choice for outgoing
    datagrams; datagrams that never passed the mobility override
    (conventional senders, control traffic) group under
    ``"conventional"``.
    """
    per_mode: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        if span.parent_id is not None:
            continue
        mode = span.args.get("mode", "conventional")
        bucket = per_mode.get(mode)
        if bucket is None:
            bucket = per_mode[mode] = {
                "count": 0, "delivered": 0, "dropped": 0, "fragmented": 0,
                "latency": Histogram("span.latency", {"mode": mode},
                                     LATENCY_BUCKETS),
                "overhead_bytes": Histogram("span.overhead", {"mode": mode},
                                            SIZE_BUCKETS),
            }
        bucket["count"] += 1
        if span.args.get("fragmented"):
            bucket["fragmented"] += 1
        if span.args.get("dropped"):
            bucket["dropped"] += 1
        elif span.args.get("delivered"):
            bucket["delivered"] += 1
            bucket["latency"].observe(span.end - span.start)
        bucket["overhead_bytes"].observe(
            span.args["max_bytes"] - span.args["base_bytes"]
        )
    return {
        mode: {
            "count": data["count"],
            "delivered": data["delivered"],
            "dropped": data["dropped"],
            "fragmented": data["fragmented"],
            "latency": data["latency"].snapshot(),
            "overhead_bytes": data["overhead_bytes"].snapshot(),
        }
        for mode, data in sorted(per_mode.items())
    }
