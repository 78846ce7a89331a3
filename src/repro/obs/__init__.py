"""First-class observability for the simulation substrate.

Three layers, each usable on its own:

* :mod:`repro.obs.metrics` — a pull-first metrics registry (counters,
  gauges, fixed-bucket histograms).  Nodes, links, tunnels, and agents
  register their counters at construction; the analysis layer and the
  ``repro-mobility obs`` CLI query the registry instead of scraping
  attributes.  Every :class:`~repro.netsim.simulator.Simulator` owns a
  registry unconditionally — registration is one-time and reads are
  pull, so the hot path pays nothing.
* :mod:`repro.obs.spans` — packet-lifecycle span trees following each
  logical datagram through encapsulation, fragmentation, and
  reassembly, folded from the trace entries after the run and
  exportable as Chrome ``trace_event`` JSON.
* :mod:`repro.obs.engine` — sampled engine gauges: event-loop depth,
  heap size, cancelled-entry ratio, reassembly queue depths, per-link
  utilization.

:class:`Observability` bundles spans + sampler behind one switch.  It
is **opt-in**: nothing here runs unless
:meth:`~repro.netsim.simulator.Simulator.enable_observability` is
called.  Arming it subscribes nothing to the trace: it notes where in
``TraceLog.entries`` the run's spans start and folds them when a
report asks, so turning it on never moves a trace digest
(``tests/experiment/test_runner.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .engine import DEFAULT_CADENCE, EngineSampler
from .flightrec import DEFAULT_FLIGHT_LIMIT, FlightRecorder
from .ledger import RunLedger
from .metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import Span, datagrams, export_chrome_trace, summarize

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.simulator import Simulator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "Span",
    "datagrams",
    "EngineSampler",
    "FlightRecorder",
    "DEFAULT_FLIGHT_LIMIT",
    "RunLedger",
    "Observability",
]


class Observability:
    """Everything enabled: registry + spans + engine sampler."""

    def __init__(
        self,
        sim: "Simulator",
        engine_cadence: Optional[float] = DEFAULT_CADENCE,
    ):
        self.sim = sim
        self.registry = sim.metrics
        self.sampler: Optional[EngineSampler] = (
            EngineSampler(sim, cadence=engine_cadence)
            if engine_cadence is not None else None
        )
        self._start = 0

    # ------------------------------------------------------------------
    def enable(self) -> "Observability":
        """Start the spans at the next trace entry, and the sampler."""
        self._start = len(self.sim.trace.entries)
        if self.sampler is not None:
            self.sampler.start()
        return self

    def finish(self) -> None:
        """Stop sampling (idempotent)."""
        if self.sampler is not None:
            self.sampler.stop()

    def spans(self) -> List[Span]:
        """The span trees of every datagram noted since :meth:`enable`;
        datagrams still in flight close at the current time."""
        return datagrams(self.sim.trace.entries[self._start:], self.sim.now)

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The combined observability report (JSON-serializable)."""
        out: Dict[str, Any] = {
            "sim_time": self.sim.now,
            "events_processed": self.sim.events.processed,
            "metrics": self.registry.collect(),
        }
        spans = self.spans()
        # ``open`` stays in the report's format: every span is closed.
        out["spans"] = {"count": len(spans), "open": 0,
                        "per_mode": summarize(spans)}
        if self.sampler is not None:
            out["engine"] = {
                "cadence": self.sampler.cadence,
                "summary": self.sampler.summary(),
                "samples": self.sampler.samples,
            }
        return out

    def export_chrome_trace(self, path) -> int:
        """Write the spans as Chrome ``trace_event`` JSON; returns the
        event count."""
        return export_chrome_trace(self.spans(), path)
