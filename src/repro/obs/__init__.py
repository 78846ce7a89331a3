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
  reassembly, exportable as Chrome ``trace_event`` JSON.
* :mod:`repro.obs.engine` — sampled engine gauges: event-loop depth,
  heap size, cancelled-entry ratio, reassembly queue depths, per-link
  utilization.

:class:`Observability` bundles spans + sampler behind one switch.  It
is **opt-in**: nothing here runs unless
:meth:`~repro.netsim.simulator.Simulator.enable_observability` is
called, and the disabled path is identical to the pre-observability
simulator (the span recorder is a ``TraceLog.subscribe`` subscriber,
and an empty subscriber list costs nothing).  Turning it on never
moves a trace digest (``tests/experiment/test_runner.py``).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Optional

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
from .spans import Span, SpanRecorder

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
    "SpanRecorder",
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
        spans: bool = True,
        engine_cadence: Optional[float] = DEFAULT_CADENCE,
    ):
        self.sim = sim
        self.registry = sim.metrics
        self.spans: Optional[SpanRecorder] = SpanRecorder() if spans else None
        self.sampler: Optional[EngineSampler] = (
            EngineSampler(sim, cadence=engine_cadence)
            if engine_cadence is not None else None
        )
        self.enabled = False

    # ------------------------------------------------------------------
    def enable(self) -> "Observability":
        if self.enabled:
            return self
        if self.spans is not None:
            self.spans.attach(self.sim.trace)
        if self.sampler is not None:
            self.sampler.start()
        self.enabled = True
        return self

    def finish(self) -> None:
        """Stop sampling and close in-flight spans (idempotent)."""
        if self.sampler is not None:
            self.sampler.stop()
        if self.spans is not None:
            self.spans.finish(self.sim.now)

    def disable(self) -> None:
        self.finish()
        if self.spans is not None:
            self.spans.detach()
        self.enabled = False

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The combined observability report (JSON-serializable)."""
        out: Dict[str, Any] = {
            "sim_time": self.sim.now,
            "events_processed": self.sim.events.processed,
            "metrics": self.registry.collect(),
        }
        if self.spans is not None:
            out["spans"] = {
                "count": len(self.spans.spans),
                "open": self.spans.open_count,
                "per_mode": self.spans.summarize(),
            }
        if self.sampler is not None:
            out["engine"] = {
                "cadence": self.sampler.cadence,
                "summary": self.sampler.summary(),
                "samples": self.sampler.samples,
            }
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.report(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def export_chrome_trace(self, path) -> int:
        if self.spans is None:
            raise RuntimeError("span recording is not enabled")
        return self.spans.export_chrome_trace(path)
