"""The observability bundle: the span fold and the engine sampler
behind one switch, for one :class:`~repro.netsim.simulator.Simulator`.

It is opt-in: nothing here runs unless
:meth:`~repro.netsim.simulator.Simulator.enable_observability` is
called.  See :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .engine import DEFAULT_CADENCE, EngineSampler
from .spans import Span, datagrams, export_chrome_trace, summarize

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.simulator import Simulator

__all__ = ["Observability"]


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
        out["spans"] = {"count": len(spans), "per_mode": summarize(spans)}
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
