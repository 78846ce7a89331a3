"""The simulator: clock, event queue, trace log, node registry, RNG.

One :class:`Simulator` instance owns everything mutable in a run, so
tests and benchmarks can build as many independent scenarios as they
like without global state leaking between them.  All randomness used
anywhere in a run must come from :attr:`Simulator.rng`, which is seeded
at construction — identical seeds give identical traces.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Dict, Optional

from ..obs.metrics import MetricsRegistry
from .events import EventQueue, SimClock
from .link import Segment
from .trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.flightrec import FlightRecorder
    from ..obs.observability import Observability
    from ..verify.invariants import InvariantMonitor
    from .node import Node

__all__ = ["Simulator"]


class Simulator:
    """Container for one simulation run."""

    def __init__(self, seed: int = 1996):
        self.clock = SimClock()
        self.events = EventQueue(self.clock)
        self.trace = TraceLog()
        self.rng = random.Random(seed)
        self.nodes: Dict[str, "Node"] = {}
        self.segments: Dict[str, Segment] = {}
        self._tokens = itertools.count(1)
        # Every run owns a metrics registry; components register pull
        # metrics into it at construction, so there is no per-event
        # cost (see repro.obs.metrics).  The span fold and engine
        # sampler stay off until enable_observability().
        self.metrics = MetricsRegistry()
        self.obs: Optional["Observability"] = None
        self.invariants: Optional["InvariantMonitor"] = None
        self.flightrec: Optional["FlightRecorder"] = None
        # Attached by repro.netsim.population when the run carries a
        # flyweight host population (pool + timer wheel).
        self.population = None
        trace = self.trace
        self.metrics.counter(
            "trace.events", read=lambda: sum(trace.action_counts.values()))
        self.metrics.counter(
            "trace.delivered", read=lambda: trace.action_counts["deliver"])
        self.metrics.counter(
            "trace.dropped", read=lambda: trace.action_counts["drop"])
        self.metrics.family(
            "trace.drops_by_reason", lambda: dict(trace.drops_by_reason))
        self.metrics.family(
            "trace.losses_by_reason", lambda: dict(trace.losses_by_reason))
        self.metrics.family(
            "trace.bytes_by_link", lambda: dict(trace.bytes_by_link))

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    def node(self, name: str) -> "Node":
        return self.nodes[name]

    def segment(
        self,
        name: str,
        latency: float = 0.001,
        bandwidth: float = 10e6,
        mtu: int = 1500,
        loss_rate: float = 0.0,
        queue_capacity: Optional[int] = None,
    ) -> Segment:
        """Create (and register) a named segment."""
        if name in self.segments:
            raise ValueError(f"duplicate segment name {name!r}")
        seg = Segment(name, self, latency=latency, bandwidth=bandwidth,
                      mtu=mtu, loss_rate=loss_rate,
                      queue_capacity=queue_capacity)
        self.segments[name] = seg
        return seg

    def next_token(self) -> int:
        """Monotonic token source for echo requests, idents, etc."""
        return next(self._tokens)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def enable_observability(
        self, engine_cadence: Optional[float] = 0.5
    ) -> "Observability":
        """Turn on the span fold and engine sampler for this run.

        The metrics registry is always live (it is pull-based and
        free); this switch marks where the run's spans start in the
        trace and adds the periodic engine gauges.  Returns the
        :class:`Observability` handle, also kept on ``self.obs``.
        """
        if self.obs is not None:
            raise RuntimeError("observability is already enabled for this run")
        from ..obs.observability import Observability

        self.obs = Observability(self, engine_cadence=engine_cadence).enable()
        return self.obs

    def enable_invariants(self, **kwargs) -> "InvariantMonitor":
        """Arm the runtime invariant monitor for this run.

        Attaches an :class:`~repro.verify.invariants.InvariantMonitor`
        to the trace stream (keyword arguments pass through to its
        constructor).  Returns the monitor, also kept on
        ``self.invariants``; call ``monitor.finish()`` after the run
        for the end-of-run termination accounting.
        """
        if self.invariants is not None:
            raise RuntimeError("invariants are already enabled for this run")
        from ..verify.invariants import InvariantMonitor

        monitor = InvariantMonitor(self, **kwargs)
        monitor.attach(self.trace)
        self.invariants = monitor
        return monitor

    def enable_flight_recorder(self, limit: Optional[int] = None) -> "FlightRecorder":
        """Arm the postmortem flight recorder for this run.

        Attaches a :class:`~repro.obs.flightrec.FlightRecorder` ring
        buffer to the trace stream (``limit`` entries; see that module
        for the digest-neutrality argument).  Returns the recorder,
        also kept on ``self.flightrec``.
        """
        if self.flightrec is not None:
            raise RuntimeError(
                "flight recorder is already enabled for this run")
        from ..obs.flightrec import DEFAULT_FLIGHT_LIMIT, FlightRecorder

        recorder = FlightRecorder(
            self, limit=DEFAULT_FLIGHT_LIMIT if limit is None else limit)
        recorder.attach(self.trace)
        self.flightrec = recorder
        return recorder

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> float:
        """Run events (optionally up to an absolute time)."""
        return self.events.run(until=until, max_events=max_events)

    def run_for(self, duration: float, max_events: int = 1_000_000) -> float:
        """Run events for a relative duration from the current time."""
        return self.run(until=self.clock.now + duration, max_events=max_events)

    @property
    def now(self) -> float:
        return self.clock.now
