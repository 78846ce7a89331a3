"""Deterministic fault injection: the hostile network, scripted.

The paper's recovery machinery — the delivery-method cache's probe
ladder (§7.1.2), the retransmission-feedback detector, registration
retries — exists precisely because real networks fail under a mobile
host: filters appear mid-conversation, tunnels die with the home agent,
access links flap.  This module makes those failures *schedulable*: a
:class:`FaultPlan` is an ordered script of :class:`FaultEvent`\\ s that a
:class:`FaultInjector` turns into ordinary engine events, so the
substrate's determinism contract (same seed ⇒ identical trace) extends
unchanged to chaos runs — a fault plan is just more events in the same
deterministic queue.

Event vocabulary (``FaultKind``):

* ``link-down`` / ``link-up`` / ``link-flap`` — take a whole segment
  down (every frame silently discarded, no RNG consumed) and bring it
  back; a flap is both with a ``duration``.
* ``loss-burst`` — raise a segment's ``loss_rate`` (up to 1.0, a total
  blackout) for a ``duration``, then restore the previous rate.
* ``queue-shrink`` — shrink a segment's transmit queue to
  ``queue_capacity`` frames (tail-dropping any excess already queued as
  traced ``queue-overflow`` losses — bufferbloat relief, or a buffer
  going bad); with a ``duration``, the previous capacity is restored
  afterwards.
* ``filter-toggle`` — flip a boundary router's §3.1 posture
  (``source_filtering`` / ``forbid_transit``) mid-run, the scenario
  where a working Out-DH path dies under new administration.
* ``node-down`` / ``node-up`` — unplug every interface of a node
  (home-agent outage, correspondent crash).
* ``agent-restart`` — restart a node that supports it (the home agent:
  interfaces back up, soft binding state optionally lost).
* ``move`` — force the mobile host to a named domain (or home), the
  §2 movement event under script control.

Targets are plain names resolved against the simulator's registries at
*apply* time (segments by ``Simulator.segments``, nodes by
``Simulator.nodes``), so a plan is serializable JSON and independent of
object identity.  Times are relative to the moment of injection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator
    from .topology import Internet

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "FaultError", "FaultInjector"]


class FaultError(ValueError):
    """A malformed fault plan or an unresolvable fault target."""


class FaultKind(Enum):
    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    LINK_FLAP = "link-flap"
    LOSS_BURST = "loss-burst"
    QUEUE_SHRINK = "queue-shrink"
    FILTER_TOGGLE = "filter-toggle"
    NODE_DOWN = "node-down"
    NODE_UP = "node-up"
    AGENT_RESTART = "agent-restart"
    MOVE = "move"


# kind -> (required params, optional params); validated at plan build
# time so a typo fails before the run starts, not 40 simulated seconds
# into it.
_PARAM_SPEC: Dict[FaultKind, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    FaultKind.LINK_DOWN: ((), ()),
    FaultKind.LINK_UP: ((), ()),
    FaultKind.LINK_FLAP: (("duration",), ()),
    FaultKind.LOSS_BURST: (("duration", "loss_rate"), ()),
    FaultKind.QUEUE_SHRINK: (("queue_capacity",), ("duration",)),
    FaultKind.FILTER_TOGGLE: ((), ("source_filtering", "forbid_transit")),
    FaultKind.NODE_DOWN: ((), ()),
    FaultKind.NODE_UP: ((), ()),
    FaultKind.AGENT_RESTART: ((), ("flush_bindings",)),
    FaultKind.MOVE: ((), ("domain", "home")),
}

_SEGMENT_KINDS = frozenset({
    FaultKind.LINK_DOWN, FaultKind.LINK_UP, FaultKind.LINK_FLAP,
    FaultKind.LOSS_BURST, FaultKind.QUEUE_SHRINK,
})


@dataclass
class FaultEvent:
    """One scheduled fault: what happens, to which name, and when."""

    time: float
    kind: FaultKind
    target: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            try:
                self.kind = FaultKind(self.kind)
            except ValueError:
                valid = ", ".join(sorted(k.value for k in FaultKind))
                raise FaultError(
                    f"unknown fault kind {self.kind!r} (valid: {valid})"
                ) from None
        if self.time < 0:
            raise FaultError(f"fault time must be >= 0, got {self.time}")
        if not self.target:
            raise FaultError(f"fault {self.kind.value} needs a target name")
        required, optional = _PARAM_SPEC[self.kind]
        allowed = set(required) | set(optional)
        for name in required:
            if name not in self.params:
                raise FaultError(
                    f"fault {self.kind.value} requires param {name!r}"
                )
        for name in self.params:
            if name not in allowed:
                raise FaultError(
                    f"fault {self.kind.value} does not take param {name!r}"
                )
        duration = self.params.get("duration")
        if duration is not None and not duration > 0:
            raise FaultError(
                f"fault {self.kind.value} duration must be > 0, got {duration}"
            )
        loss = self.params.get("loss_rate")
        if loss is not None and not 0.0 <= loss <= 1.0:
            raise FaultError(
                f"fault {self.kind.value} loss_rate must be in [0, 1], got {loss}"
            )
        capacity = self.params.get("queue_capacity")
        if capacity is not None and not (
                isinstance(capacity, int) and not isinstance(capacity, bool)
                and capacity >= 0):
            raise FaultError(
                f"fault {self.kind.value} queue_capacity must be an "
                f"int >= 0, got {capacity!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "time": self.time, "kind": self.kind.value, "target": self.target,
        }
        out.update(self.params)
        return out

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "FaultEvent":
        obj = dict(obj)
        try:
            time = obj.pop("time")
            kind = obj.pop("kind")
            target = obj.pop("target")
        except KeyError as missing:
            raise FaultError(
                f"fault event needs 'time', 'kind' and 'target': missing {missing}"
            ) from None
        return cls(time=float(time), kind=kind, target=str(target), params=obj)


@dataclass
class FaultPlan:
    """An ordered, serializable script of faults.

    Times are seconds relative to :meth:`FaultInjector.inject`; events
    are kept sorted by time (ties stay in authoring order, matching the
    engine's FIFO tie-break) so a plan reads like the timeline it is.
    """

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda event: event.time)

    def add(self, time: float, kind: FaultKind, target: str, **params: Any) -> "FaultPlan":
        """Append one event (kept sorted); returns self for chaining."""
        event = FaultEvent(time=time, kind=kind, target=target, params=params)
        self.events.append(event)
        self.events.sort(key=lambda entry: entry.time)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterable[FaultEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "FaultPlan":
        events = obj.get("events")
        if not isinstance(events, list):
            raise FaultError("fault plan must be an object with an 'events' list")
        return cls(events=[FaultEvent.from_dict(entry) for entry in events])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultError(f"fault plan is not valid JSON: {error}") from None
        return cls.from_dict(obj)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())


class FaultInjector:
    """Schedules a :class:`FaultPlan` onto a simulator's event queue.

    All mutations happen inside ordinary engine events, in timestamp
    order, interleaved deterministically with the traffic they disturb.
    ``net`` (an :class:`~repro.netsim.topology.Internet`) is only
    needed for ``move`` events.

    The injector registers pull metrics with the run's registry:
    ``fault.total`` plus a ``fault.events`` family keyed by kind, and a
    ``fault.links_down`` gauge counting currently-downed segments.
    """

    def __init__(self, sim: "Simulator", net: Optional["Internet"] = None):
        self.sim = sim
        self.net = net
        self.applied: Dict[str, int] = {}
        self._total = 0
        metrics = sim.metrics
        metrics.counter("fault.total", read=lambda: self._total)
        metrics.family("fault.events", lambda: dict(self.applied))
        metrics.gauge(
            "fault.links_down",
            read=lambda: sum(
                1 for seg in self.sim.segments.values() if not seg.up
            ),
        )

    # ------------------------------------------------------------------
    def inject(self, plan: FaultPlan) -> int:
        """Schedule every event of ``plan`` relative to now.

        Targets are validated eagerly — a plan naming a segment or node
        that does not exist fails here, not mid-run.  Returns the
        number of events scheduled.
        """
        for event in plan.events:
            self._resolve(event)  # raises FaultError on a bad target
        for event in plan.events:
            self.sim.events.schedule(
                event.time, self._apply, event,
                label=f"fault:{event.kind.value}:{event.target}",
            )
        return len(plan.events)

    # ------------------------------------------------------------------
    def _resolve(self, event: FaultEvent) -> Any:
        if event.kind in _SEGMENT_KINDS:
            segment = self.sim.segments.get(event.target)
            if segment is None:
                raise FaultError(
                    f"fault {event.kind.value}: no segment named "
                    f"{event.target!r} (have: {sorted(self.sim.segments)})"
                )
            return segment
        node = self.sim.nodes.get(event.target)
        if node is None and self.net is not None:
            population = getattr(self.net, "population", None)
            if population is not None:
                # A fault targeting a pooled flyweight host promotes it
                # to a full node (repro.netsim.population); promotion
                # writes no trace, so eager validation-time promotion
                # is as digest-safe as doing it at fault time.
                node = population.promote_name(event.target)
        if node is None:
            raise FaultError(
                f"fault {event.kind.value}: no node named {event.target!r}"
            )
        if event.kind is FaultKind.FILTER_TOGGLE and not hasattr(node, "set_posture"):
            raise FaultError(
                f"fault filter-toggle: node {event.target!r} is not a boundary router"
            )
        if event.kind is FaultKind.AGENT_RESTART and not hasattr(node, "restart"):
            raise FaultError(
                f"fault agent-restart: node {event.target!r} has no restart()"
            )
        if event.kind is FaultKind.MOVE:
            if not hasattr(node, "move_to"):
                raise FaultError(
                    f"fault move: node {event.target!r} is not a mobile host"
                )
            if self.net is None:
                raise FaultError(
                    "fault move: injector was built without an Internet (net=...)"
                )
        return node

    def _note(self, event: FaultEvent) -> None:
        kind = event.kind.value
        self._total += 1
        self.applied[kind] = self.applied.get(kind, 0) + 1

    def _apply(self, event: FaultEvent) -> None:
        target = self._resolve(event)
        kind = event.kind
        self._note(event)
        if kind is FaultKind.LINK_DOWN:
            target.up = False
        elif kind is FaultKind.LINK_UP:
            target.up = True
        elif kind is FaultKind.LINK_FLAP:
            target.up = False
            self.sim.events.schedule(
                event.params["duration"], self._restore_link, target,
                label=f"fault:restore:{event.target}",
            )
        elif kind is FaultKind.LOSS_BURST:
            previous = target.loss_rate
            target.loss_rate = event.params["loss_rate"]
            self.sim.events.schedule(
                event.params["duration"], self._restore_loss, target, previous,
                label=f"fault:restore:{event.target}",
            )
        elif kind is FaultKind.QUEUE_SHRINK:
            previous = target.queue_capacity
            target.set_queue_capacity(event.params["queue_capacity"])
            duration = event.params.get("duration")
            if duration is not None:
                self.sim.events.schedule(
                    duration, self._restore_queue, target, previous,
                    label=f"fault:restore:{event.target}",
                )
        elif kind is FaultKind.FILTER_TOGGLE:
            target.set_posture(
                source_filtering=event.params.get("source_filtering"),
                forbid_transit=event.params.get("forbid_transit"),
            )
        elif kind is FaultKind.NODE_DOWN:
            for iface in target.interfaces.values():
                iface.up = False
        elif kind is FaultKind.NODE_UP:
            for iface in target.interfaces.values():
                iface.up = True
        elif kind is FaultKind.AGENT_RESTART:
            target.restart(flush_bindings=event.params.get("flush_bindings", True))
        elif kind is FaultKind.MOVE:
            if event.params.get("home"):
                target.return_home(self.net, event.params.get("domain", "home"))
            else:
                target.move_to(self.net, event.params["domain"])

    def _restore_link(self, segment: Any) -> None:
        segment.up = True

    def _restore_loss(self, segment: Any, previous: float) -> None:
        segment.loss_rate = previous

    def _restore_queue(self, segment: Any, previous: Any) -> None:
        segment.set_queue_capacity(previous)
