"""Golden-trace digest: proof that optimization preserved determinism.

The substrate's contract is *identical seeds give identical traces*.
Performance work on the event heap, address interning, or size caching
must not perturb a single hop, timestamp, or byte count.  This module
runs the canonical scenario-traffic workload with a fixed seed and
digests the full global trace, less each entry's ``proto`` and its
``trace_id``: the packet/trace id counters are the only process-global
state in the simulator, and guarantee uniqueness, not absolute values
(see ARCHITECTURE.md).

The digest is pinned in ``tests/netsim/test_golden_trace.py``; it was
captured on the pre-optimization engine and must never change unless
the *semantics* of the simulation change deliberately.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.trace import TraceLog

__all__ = ["trace_digest", "golden_trace_digest", "GOLDEN_SEED", "GOLDEN_DATAGRAMS"]

GOLDEN_SEED = 1401
GOLDEN_DATAGRAMS = 200
#: Lines hashed per ``sha256.update`` in :func:`trace_digest`.
DIGEST_CHUNK = 1024


def trace_digest(trace: "TraceLog") -> Tuple[str, int]:
    """Digest a trace log: (sha256 hex, entry count).

    Every ``TraceLog.note`` call contributes one normalized line,
    ``time|node|action|src|dst|wire_size|detail``: the entry less its
    ``proto`` and its process-global ``trace_id``.  Timestamps use exact
    float ``repr`` so even a single ULP of drift in event scheduling
    arithmetic changes the digest.  The chaos determinism tests reuse
    this over fault-injected runs: same plan + same seed must reproduce
    the digest exactly.  Lines are hashed ``DIGEST_CHUNK`` at a time,
    which equals one ``update`` per line in bounded memory.
    """
    sha = hashlib.sha256()
    lines: List[str] = []
    last = stamp = None
    for time, node, action, _, _, src, dst, size, detail in trace.entries:
        # Clock order puts equal stamps side by side.  0.0 and -0.0, or
        # 5 and 5.0, are equal with different reprs: never reused.
        if time != last or not time or time.__class__ is not last.__class__:
            stamp = repr(time)
            last = time
        lines.append(f"{stamp}|{node}|{action}|{src}|{dst}|{size}|{detail}\n")
        if len(lines) == DIGEST_CHUNK:
            sha.update("".join(lines).encode())
            lines.clear()
    sha.update("".join(lines).encode())
    return sha.hexdigest(), len(trace.entries)


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
