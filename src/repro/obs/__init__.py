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

:class:`~repro.obs.observability.Observability` bundles spans +
sampler behind one switch.  It is **opt-in**: nothing here runs unless
:meth:`~repro.netsim.simulator.Simulator.enable_observability` is
called.  Arming it subscribes nothing to the trace: it notes where in
``TraceLog.entries`` the run's spans start and folds them when a
report asks, so turning it on never moves a trace digest
(``tests/experiment/test_runner.py``).
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "engine": ("EngineSampler",),
    "flightrec": ("DEFAULT_FLIGHT_LIMIT", "FlightRecorder"),
    "ledger": ("RunLedger",),
    "metrics": (
        "LATENCY_BUCKETS", "SIZE_BUCKETS", "Counter", "Gauge", "Histogram",
        "MetricsRegistry",
    ),
    "observability": ("Observability",),
    "spans": ("Span", "datagrams"),
})
