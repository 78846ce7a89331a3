"""Engine instrumentation: sampled gauges of the simulator's internals.

PR 1 made the event engine fast; this module makes it legible.  An
:class:`EngineSampler` rides the event queue itself, waking on a
configurable cadence of *simulation* time and recording:

* event-loop depth (live ``pending`` events) and raw heap size;
* the cancelled-entry ratio (how much of the heap is cancelled
  entries awaiting their lazy removal on pop);
* per-node queue depths (reassembly buffers awaiting fragments);
* per-link utilization (line-busy bits accumulated in the last
  interval over the link's bandwidth budget), transmit-queue depth,
  and queue-overflow drops.

The summary's ``peak_queue_depth`` is not sampled: it reads each
segment's exact transmit-queue high-water mark (``Segment.queue_peak``).

Samples are plain dicts so they serialize straight into the ``obs``
report.  The sampler caps itself at ``max_samples`` so an unbounded
``run()`` cannot be kept alive forever by its own instrumentation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.simulator import Simulator

__all__ = ["EngineSampler"]

DEFAULT_CADENCE = 0.5
DEFAULT_MAX_SAMPLES = 4096


class EngineSampler:
    """Periodic sampler of engine, node, and link health."""

    def __init__(
        self,
        sim: "Simulator",
        cadence: float = DEFAULT_CADENCE,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ):
        if cadence <= 0:
            raise ValueError(f"cadence must be positive, got {cadence}")
        self.sim = sim
        self.cadence = cadence
        self.max_samples = max_samples
        self.samples: List[Dict[str, Any]] = []
        self._last_busy_bits: Dict[str, int] = {}
        self._timer = None
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # Prime the utilization deltas so the first sample measures the
        # first interval, not all traffic since t=0.
        for name, segment in self.sim.segments.items():
            self._last_busy_bits[name] = segment.busy_bits
        self._timer = self.sim.events.schedule(
            self.cadence, self._tick, label="obs:engine-sample"
        )

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self._timer = None
        if not self._running:
            return
        self.samples.append(self.sample())
        if len(self.samples) >= self.max_samples:
            self._running = False
            return
        self._timer = self.sim.events.schedule(
            self.cadence, self._tick, label="obs:engine-sample"
        )

    # ------------------------------------------------------------------
    def sample(self) -> Dict[str, Any]:
        """One instantaneous reading (also usable without the timer)."""
        events = self.sim.events
        heap = events.heap_size
        cancelled = events.cancelled_backlog
        nodes = {}
        for name, node in self.sim.nodes.items():
            nodes[name] = {
                "reassembly_pending": node.reassembler.pending,
                "packets_sent": node.packets_sent,
                "packets_received": node.packets_received,
            }
        links = {}
        for name, segment in self.sim.segments.items():
            carried = segment.bytes_carried
            # Utilization comes from the line-occupancy accumulator, not
            # the byte counter: with bounded-queue links the line serializes
            # exactly busy_bits over the interval, and on the legacy
            # infinite-capacity path busy_bits == bytes * 8, so this is
            # numerically identical to the old bytes-based reading.
            busy = segment.busy_bits
            delta_bits = busy - self._last_busy_bits.get(name, 0)
            self._last_busy_bits[name] = busy
            links[name] = {
                "bytes_carried": carried,
                "utilization": (delta_bits / segment.bandwidth) / self.cadence,
                "queue_depth": segment.queue_depth,
                "queue_dropped": segment.queue_dropped,
            }
        sample = {
            "time": self.sim.now,
            "pending": events.pending,
            "heap": heap,
            "cancelled": cancelled,
            "cancelled_ratio": (cancelled / heap) if heap else 0.0,
            # Exact also from the sampler's own timer, whose tick counts.
            "processed": events.dispatched,
            "nodes": nodes,
            "links": links,
        }
        # Worlds carrying a flyweight population (see
        # repro.netsim.population) get a compact gauge block: pooled
        # hosts never appear in ``nodes`` above, so without this the
        # sampler would report a million-host world as a dozen nodes.
        population = getattr(self.sim, "population", None)
        if population is not None:
            pool = population.pool
            sample["population"] = {
                "hosts": pool.size,
                "live": pool.live,
                "promoted": pool.promoted_count,
                "refreshes": pool.refreshes,
                "wheel_depth": population.wheel.depth,
            }
        return sample

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Aggregate the sample series into headline numbers."""
        if not self.samples:
            return {"samples": 0}
        peak_links: Dict[str, float] = {}
        for sample in self.samples:
            for name, link in sample["links"].items():
                if link["utilization"] > peak_links.get(name, 0.0):
                    peak_links[name] = link["utilization"]
        count = len(self.samples)
        out = {
            "samples": count,
            "peak_pending": max(s["pending"] for s in self.samples),
            "peak_heap": max(s["heap"] for s in self.samples),
            "mean_cancelled_ratio": (
                sum(s["cancelled_ratio"] for s in self.samples) / count
            ),
            "peak_reassembly_pending": max(
                (node["reassembly_pending"]
                 for s in self.samples for node in s["nodes"].values()),
                default=0,
            ),
            "peak_link_utilization": dict(sorted(peak_links.items())),
            "peak_queue_depth": {
                name: segment.queue_peak
                for name, segment in sorted(self.sim.segments.items())
                if segment.queue_peak
            },
        }
        last_population = next(
            (s["population"] for s in reversed(self.samples)
             if "population" in s), None)
        if last_population is not None:
            out["population"] = dict(last_population)
        return out
