"""Golden-trace digest: proof that optimization preserved determinism.

The substrate's contract is *identical seeds give identical traces*.
Performance work on the event heap, address interning, or size caching
must not perturb a single hop, timestamp, or byte count.  This module
runs the canonical scenario-traffic workload with a fixed seed and
digests the full global trace, normalized to exclude the only
process-global state in the simulator (packet/trace id counters, which
guarantee uniqueness, not absolute values — see ARCHITECTURE.md).

The digest is pinned in ``tests/netsim/test_golden_trace.py``; it was
captured on the pre-optimization engine and must never change unless
the *semantics* of the simulation change deliberately.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.trace import TraceLog

__all__ = ["trace_digest", "golden_trace_digest", "GOLDEN_SEED", "GOLDEN_DATAGRAMS"]

GOLDEN_SEED = 1401
GOLDEN_DATAGRAMS = 200


def trace_digest(trace: "TraceLog") -> Tuple[str, int]:
    """Digest a trace log: (sha256 hex, entry count).

    Every ``TraceLog.note`` call contributes one normalized line.
    Timestamps use exact float ``repr`` so even a single ULP of drift
    in event scheduling arithmetic changes the digest.  Normalization
    excludes only the process-global packet/trace id counters.  The
    chaos determinism tests reuse this over fault-injected runs: same
    plan + same seed must reproduce the digest exactly.
    """
    # Timestamps and suffixes are built in two C-speed passes and
    # interleaved by one join + one update — byte-identical to per-line
    # updates (UTF-8 of a concatenation is the concatenation of UTF-8).
    ds = list(map(vars, trace.entries))
    suffixes = [
        f"|{d['node']}|{d['action']}|{d['src']}|"
        f"{d['dst']}|{d['wire_size']}|{d['detail']}\n"
        for d in ds
    ]
    times = list(map(repr, [d["time"] for d in ds]))
    digest = hashlib.sha256(
        "".join(chain.from_iterable(zip(times, suffixes))).encode())
    return digest.hexdigest(), len(ds)


def golden_trace_digest(
    seed: int = GOLDEN_SEED, datagrams: int = GOLDEN_DATAGRAMS
) -> Tuple[str, int]:
    """Run the canonical traffic workload; return (sha256, entry count).

    Every ``TraceLog.note`` call — sends, forwards, tunnel entry/exit,
    deliveries, drops — contributes one normalized line.  Timestamps
    use exact float ``repr`` so even a single ULP of drift in event
    scheduling arithmetic changes the digest.

    The workload itself is the canonical traffic spec executed by the
    experiment runner — the same lifecycle every sweep cell runs — so
    the pinned digest also guards the runner's build/arm/drive order.
    """
    # Imported lazily: the runner imports trace_digest from this module.
    from repro.experiment import Runner, canonical_traffic_spec

    result = Runner().run(canonical_traffic_spec(seed=seed, datagrams=datagrams))
    return result.digest, result.trace_entries
