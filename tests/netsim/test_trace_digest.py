"""The streamed trace digest: equal to a per-line reference, bounded memory.

``trace_digest`` hashes its lines ``DIGEST_CHUNK`` at a time and reuses
the previous line's timestamp text while the stamp repeats.  The
reference below is the digest's definition: one ``sha256.update`` per
entry, every timestamp rendered afresh.
"""

import hashlib
import tracemalloc

import pytest

import repro.experiment.runner as runner_module
from repro.analysis.chaos import run_chaos
from repro.bench.golden import DIGEST_CHUNK, trace_digest
from repro.experiment import Runner, canonical_traffic_spec
from repro.netsim.addressing import IPAddress
from repro.netsim.packet import IPProto, Packet
from repro.netsim.trace import TraceLog

GOLDEN_ENTRIES = 3618
CHAOS_ENTRIES = 10756
# The digest's own allocations on the chaos trace; a second copy of the
# trace's text would be about 3 MiB.
DIGEST_TRANSIENT_BUDGET = 512 * 1024


def reference_digest(trace):
    sha = hashlib.sha256()
    for e in trace.entries:
        sha.update(f"{e.time!r}|{e.node}|{e.action}|{e.src}|{e.dst}|"
                   f"{e.wire_size}|{e.detail}\n".encode())
    return sha.hexdigest(), len(trace.entries)


def _packet():
    return Packet(src=IPAddress("10.3.0.10"), dst=IPAddress("10.1.0.10"),
                  proto=IPProto.UDP, payload_size=100)


def _log(stamps):
    trace = TraceLog()
    packet = _packet()
    for index, stamp in enumerate(stamps):
        trace.note(stamp, f"n{index % 5}", "forward", packet, str(index))
    return trace


@pytest.fixture(scope="module")
def chaos_trace():
    """The default chaos run's trace, taken where the runner digests it."""
    traces = []

    def capture(trace):
        traces.append(trace)
        return trace_digest(trace)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner_module, "trace_digest", capture)
        report = run_chaos()
    assert report.registered
    (trace,) = traces
    return trace


class TestMatchesPerLineReference:
    def test_golden_workload(self):
        runner = Runner()
        runner.run(canonical_traffic_spec())
        trace = runner.scenario.sim.trace
        assert len(trace.entries) == GOLDEN_ENTRIES > 2 * DIGEST_CHUNK
        assert trace_digest(trace) == reference_digest(trace)

    def test_chaos_run(self, chaos_trace):
        assert len(chaos_trace.entries) == CHAOS_ENTRIES
        assert trace_digest(chaos_trace) == reference_digest(chaos_trace)

    def test_empty_log(self):
        trace = TraceLog()
        assert trace_digest(trace) == reference_digest(trace) == (
            hashlib.sha256().hexdigest(), 0)

    @pytest.mark.parametrize("count", [
        DIGEST_CHUNK - 1, DIGEST_CHUNK, DIGEST_CHUNK + 1])
    def test_around_the_chunk_size(self, count):
        # Three lines per stamp, so runs of equal stamps straddle the
        # chunk boundary.
        trace = _log([index // 3 * 0.25 for index in range(count)])
        assert trace_digest(trace) == reference_digest(trace)
        assert trace_digest(trace)[1] == count

    @pytest.mark.parametrize("stamps", [
        (0.0, -0.0), (-0.0, 0.0), (5, 5.0), (5.0, 5)])
    def test_equal_stamps_with_different_text(self, stamps):
        # 0.0 == -0.0 and 5 == 5.0, but their reprs differ.
        trace = _log(stamps)
        assert trace_digest(trace) == reference_digest(trace)
        assert trace_digest(trace) != trace_digest(_log(stamps[:1] * 2))


class TestMemoryShape:
    def test_digest_transient_is_bounded(self, chaos_trace):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trace_digest(chaos_trace)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < DIGEST_TRANSIENT_BUDGET, peak
