"""Runtime invariant monitoring over the trace-event stream.

The simulator's :class:`~repro.netsim.trace.TraceLog` already sees
every packet event in a run.  The :class:`InvariantMonitor` rides that
stream — as a :meth:`~repro.netsim.trace.TraceLog.subscribe`
subscriber, so a run without it pays nothing — and checks a set of
properties that must hold in *any* correct execution, whatever the
topology, traffic mix, fault schedule, or adversary:

``no-loop``
    A datagram never revisits a forwarding node within one delivery
    attempt at the same tunnel phase (paper §3: conventional routers
    forward strictly by destination, so a stable routing table admits
    no cycles; revisits across encapsulation/decapsulation or source
    routing are legitimate and tracked as separate *phases*).
``ttl-decreases``
    TTL strictly decreases across consecutive forwards of one packet
    within one phase, and never goes negative (RFC 791; the mechanism
    that makes the paper's routing loops self-limiting).
``fragment-conservation``
    Every ``fragment`` event's pieces cover the original datagram's
    bytes exactly — no gap, no overlap, no invention — verified by
    round-tripping the pieces through a real
    :class:`~repro.netsim.fragmentation.ReassemblyBuffer` (§3.3's
    "doubling the packet count" must not change the byte count).
``tunnel-depth``
    Encapsulation nesting stays below a configured bound (§3.3's
    overhead argument assumes a small constant number of headers;
    unbounded nesting means a tunnel-routing loop).
``termination``
    Every unicast datagram ends in a ``deliver``, a classified
    ``drop``, or a traced ``lost`` — nothing silently disappears.
    Datagrams legitimately parked in ARP pending queues or reassembly
    buffers, or still in flight inside the grace window at the end of
    the run, are accounted for by :meth:`InvariantMonitor.finish`.
``binding-consistency``
    A node holding a :class:`~repro.mobileip.binding.BindingTable`
    (home agent, mobile-aware correspondent) only encapsulates toward
    the care-of address of a currently-valid binding for the inner
    destination (§2: tunneling to a stale care-of address strands the
    packet at an address the mobile host has left).
``filter-soundness``
    A boundary filter verdict is only ever produced by a boundary
    router whose posture has that filter enabled — a fully permissive
    network never drops on §3.1 policy.

Violations are recorded (not raised): the simulation run completes and
the caller inspects ``monitor.violations`` — which is what the fuzz
harness (:mod:`repro.verify.fuzz`) needs to shrink a failing case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..mobileip.binding import BindingTable
from ..netsim.fragmentation import ReassemblyBuffer, fragment
from ..netsim.packet import Packet
from ..netsim.trace import TraceEntry, TraceLog

__all__ = ["Violation", "InvariantMonitor", "INVARIANTS"]

INVARIANTS = (
    "no-loop",
    "ttl-decreases",
    "fragment-conservation",
    "tunnel-depth",
    "termination",
    "binding-consistency",
    "filter-soundness",
)

_TERMINAL_ACTIONS = frozenset(("deliver", "drop", "lost"))
# Trace actions that begin a new *phase* of a datagram's journey: a
# fresh (re)transmission, entering or leaving a tunnel, or a source
# route's re-submission.  Forwarding-node revisits and TTL resets
# across a phase boundary are legitimate; within a phase they are not.
_PHASE_ACTIONS = frozenset(("send", "encapsulate", "decapsulate", "source-route"))

_FILTER_SOURCE_PREFIX = "source-address-filter"
_FILTER_TRANSIT = "transit-traffic-forbidden"

DEFAULT_MAX_TUNNEL_DEPTH = 4
DEFAULT_GRACE = 2.0
MAX_RECORDED_VIOLATIONS = 200


def _tunnel_depth(packet: Packet) -> int:
    """Encapsulation nesting depth, counting minimal-encap layers too.

    ``Packet.encapsulation_depth`` only walks nested :class:`Packet`
    payloads; minimal encapsulation stashes the inner packet inside a
    ``_MinimalHeader`` shim, which this walker follows as well.
    """
    depth = 0
    current = packet
    while True:
        payload = getattr(current, "payload", None)
        if isinstance(payload, Packet):
            inner = payload
        else:
            original = getattr(payload, "original", None)
            inner = original if isinstance(original, Packet) else None
        if inner is None:
            return depth
        depth += 1
        current = inner


def _first_inner(packet: Packet) -> Optional[Packet]:
    """The immediately-nested packet, or None when not encapsulated."""
    payload = getattr(packet, "payload", None)
    if isinstance(payload, Packet):
        return payload
    original = getattr(payload, "original", None)
    return original if isinstance(original, Packet) else None


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with enough context to debug it."""

    invariant: str
    time: float
    node: str
    trace_id: int
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "node": self.node,
            "trace_id": self.trace_id,
            "message": self.message,
        }

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"[{self.invariant}] t={self.time:.6f} node={self.node} "
                f"trace={self.trace_id}: {self.message}")


@dataclass
class _TraceState:
    """Per-datagram bookkeeping."""

    phase: int = 0
    last_time: float = 0.0
    last_action: str = ""
    exempt: bool = False
    # (phase, frag_offset, node) of every forward seen
    visited: Set[Tuple[int, int, str]] = field(default_factory=set)
    # (phase, frag_offset) -> last TTL seen at a forward
    ttl: Dict[Tuple[int, int], int] = field(default_factory=dict)


class InvariantMonitor:
    """Checks run-wide invariants against the live trace stream."""

    def __init__(
        self,
        simulator=None,
        max_tunnel_depth: int = DEFAULT_MAX_TUNNEL_DEPTH,
        grace: float = DEFAULT_GRACE,
    ):
        """``grace`` is how close to the end of the run a datagram's
        last event may be for "still in flight" to excuse a missing
        terminal event at :meth:`finish`."""
        self._sim = simulator
        self.max_tunnel_depth = max_tunnel_depth
        self.grace = grace
        self.violations: List[Violation] = []
        self.violation_count = 0
        self.checks: Dict[str, int] = {name: 0 for name in INVARIANTS}
        self._states: Dict[int, _TraceState] = {}
        self._trace: Optional[TraceLog] = None
        self._finished = False
        if simulator is not None:
            metrics = simulator.metrics
            metrics.counter(
                "invariant.violations", read=lambda: self.violation_count)
            metrics.counter(
                "invariant.checks", read=lambda: sum(self.checks.values()))
            metrics.family(
                "invariant.checks_by_name", lambda: dict(self.checks))

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, trace: TraceLog) -> None:
        """Subscribe to ``trace``'s live event stream."""
        if self._trace is not None:
            raise RuntimeError("invariant monitor is already attached")
        self._trace = trace
        trace.subscribe(self.on_event)

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def on_event(self, entry: TraceEntry, packet: Packet) -> None:
        time = entry.time
        node = entry.node
        action = entry.action
        trace_id = entry.trace_id
        state = self._states.get(trace_id)
        if state is None:
            state = self._states[trace_id] = _TraceState()
        state.last_time = time
        state.last_action = action
        if packet.dst.value >> 28 == 0xE or packet.dst.value == 0xFFFFFFFF:  # multicast/broadcast
            state.exempt = True

        if action in _PHASE_ACTIONS:
            state.phase += 1
            if action == "encapsulate":
                self._check_tunnel_depth(time, node, packet)
                self._check_binding(time, node, packet)
        elif action == "forward":
            self._check_forward(time, node, packet, state)
        elif action == "fragment":
            self._check_fragmentation(time, node, packet, entry.detail)
        elif action == "drop":
            self._check_filter(time, node, packet, entry.detail)

    # ------------------------------------------------------------------
    # Individual checks
    # ------------------------------------------------------------------
    def _violate(
        self, invariant: str, time: float, node: str, trace_id: int, message: str
    ) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_RECORDED_VIOLATIONS:
            self.violations.append(
                Violation(invariant, time, node, trace_id, message)
            )

    def _check_forward(
        self, time: float, node: str, packet: Packet, state: _TraceState
    ) -> None:
        key = (state.phase, packet.frag_offset)

        self.checks["no-loop"] += 1
        visit = (state.phase, packet.frag_offset, node)
        if visit in state.visited:
            self._violate(
                "no-loop", time, node, packet.trace_id,
                f"revisited forwarding node {node} in phase {state.phase} "
                f"(offset {packet.frag_offset})",
            )
        state.visited.add(visit)

        self.checks["ttl-decreases"] += 1
        ttl = packet.ttl
        last = state.ttl.get(key)
        if ttl < 0:
            self._violate(
                "ttl-decreases", time, node, packet.trace_id,
                f"negative TTL {ttl} after forward",
            )
        elif last is not None and ttl >= last:
            self._violate(
                "ttl-decreases", time, node, packet.trace_id,
                f"TTL did not decrease across forwards ({last} -> {ttl})",
            )
        state.ttl[key] = ttl

    def _check_fragmentation(
        self, time: float, node: str, packet: Packet, detail: str
    ) -> None:
        self.checks["fragment-conservation"] += 1
        # The trace detail is "into N pieces (mtu M)"; parse both and
        # re-run the pure fragmentation to audit the split in situ.
        try:
            words = detail.split()
            count = int(words[1])
            mtu = int(words[-1].rstrip(")"))
        except (IndexError, ValueError):
            self._violate(
                "fragment-conservation", time, node, packet.trace_id,
                f"unparseable fragment detail {detail!r}",
            )
            return
        try:
            pieces = fragment(packet, mtu)
        except Exception as exc:  # noqa: BLE001 - audit must not raise
            self._violate(
                "fragment-conservation", time, node, packet.trace_id,
                f"re-fragmentation raised {exc!r}",
            )
            return
        if len(pieces) != count:
            self._violate(
                "fragment-conservation", time, node, packet.trace_id,
                f"fragment count mismatch: traced {count}, got {len(pieces)}",
            )
            return
        if packet.frag_offset != 0 or packet.more_fragments:
            return  # refragmented piece: coverage is checked at the whole
        buffer = ReassemblyBuffer(first_seen=0.0)
        for piece in pieces:
            rejection = buffer.add(piece)
            if rejection is not None:
                self._violate(
                    "fragment-conservation", time, node, packet.trace_id,
                    f"fragment pieces self-{rejection} at offset "
                    f"{piece.frag_offset}",
                )
                return
        if not buffer.complete():
            self._violate(
                "fragment-conservation", time, node, packet.trace_id,
                "fragment pieces do not cover the datagram",
            )
            return
        if buffer.total_size != packet.inner_size:
            self._violate(
                "fragment-conservation", time, node, packet.trace_id,
                f"fragment bytes not conserved: {buffer.total_size} "
                f"!= {packet.inner_size}",
            )

    def _check_tunnel_depth(self, time: float, node: str, packet: Packet) -> None:
        self.checks["tunnel-depth"] += 1
        depth = _tunnel_depth(packet)
        if depth > self.max_tunnel_depth:
            self._violate(
                "tunnel-depth", time, node, packet.trace_id,
                f"encapsulation depth {depth} exceeds bound "
                f"{self.max_tunnel_depth}",
            )

    def _check_binding(self, time: float, node: str, packet: Packet) -> None:
        if self._sim is None:
            return
        node_obj = self._sim.nodes.get(node)
        bindings = getattr(node_obj, "bindings", None)
        if not isinstance(bindings, BindingTable):
            return
        inner = _first_inner(packet)
        if inner is None:
            return
        self.checks["binding-consistency"] += 1
        binding = bindings.peek(inner.dst)
        if binding is None:
            # Not a binding-driven tunnel (e.g. an Out-IE reverse tunnel
            # whose inner dst is an arbitrary correspondent).  Only flag
            # when the node *claims* a binding it no longer has — i.e.
            # never, from peek alone; nothing to check.
            return
        if binding.care_of_address != packet.dst:
            # Encapsulating toward something other than the bound
            # care-of address while a binding exists is only legitimate
            # when the target is the binding's own home address (never
            # happens) — flag it.
            self._violate(
                "binding-consistency", time, node, packet.trace_id,
                f"tunneled {inner.dst} to {packet.dst}, but the binding "
                f"says care-of {binding.care_of_address}",
            )
            return
        if not binding.valid_at(time):
            self._violate(
                "binding-consistency", time, node, packet.trace_id,
                f"tunneled {inner.dst} via a binding expired at "
                f"{binding.expires_at:.6f} (now {time:.6f})",
            )

    def _check_filter(
        self, time: float, node: str, packet: Packet, detail: str
    ) -> None:
        is_source = detail.startswith(_FILTER_SOURCE_PREFIX)
        is_transit = detail == _FILTER_TRANSIT
        if not (is_source or is_transit):
            return
        self.checks["filter-soundness"] += 1
        if self._sim is None:
            return
        node_obj = self._sim.nodes.get(node)
        if node_obj is None:
            return
        if is_source and not getattr(node_obj, "source_filtering", True):
            self._violate(
                "filter-soundness", time, node, packet.trace_id,
                f"source filter fired ({detail}) with source_filtering off",
            )
        if is_transit and not getattr(node_obj, "forbid_transit", True):
            self._violate(
                "filter-soundness", time, node, packet.trace_id,
                "transit filter fired with forbid_transit off",
            )

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------
    def finish(self, now: Optional[float] = None) -> List[Violation]:
        """Run the termination check and return all violations.

        A datagram with no terminal event is excused when its bytes are
        demonstrably parked somewhere legitimate: an ARP pending queue,
        a reassembly buffer, or simply still in flight (last event
        within ``grace`` of the end of the run).  Idempotent.
        """
        if self._finished:
            return self.violations
        self._finished = True
        if now is None:
            now = self._sim.now if self._sim is not None else 0.0
        parked = self._parked_trace_ids()
        for trace_id, state in self._states.items():
            if state.exempt:
                continue
            self.checks["termination"] += 1
            if state.last_action in _TERMINAL_ACTIONS:
                continue
            if trace_id in parked:
                continue
            if now - state.last_time <= self.grace:
                continue  # still in flight at the cutoff
            self._violate(
                "termination", state.last_time, "-", trace_id,
                f"datagram vanished after {state.last_action!r} at "
                f"t={state.last_time:.6f} (run ended {now:.6f})",
            )
        return self.violations

    def _parked_trace_ids(self) -> Set[int]:
        parked: Set[int] = set()
        if self._sim is None:
            return parked
        for node in self._sim.nodes.values():
            arp = getattr(node, "arp", None)
            for queue in getattr(arp, "_pending", {}).values():
                for pending in queue:
                    parked.add(pending.trace_id)
            reassembler = getattr(node, "reassembler", None)
            for buffer in getattr(reassembler, "_buffers", {}).values():
                for frag in buffer.fragments.values():
                    parked.add(frag.trace_id)
        return parked

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def summary(self) -> Dict[str, Any]:
        by_invariant: Dict[str, int] = {}
        for violation in self.violations:
            by_invariant[violation.invariant] = (
                by_invariant.get(violation.invariant, 0) + 1
            )
        return {
            "checks": dict(self.checks),
            "violations": self.violation_count,
            "violations_by_invariant": by_invariant,
        }
