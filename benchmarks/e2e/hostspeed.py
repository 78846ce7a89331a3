"""A fixed pure-Python loop timed next to every measurement, to cancel host drift.

On a shared host the CPU speed a process gets drifts, by far more than
the bounds this benchmark gates on.  On the 2-vCPU host the benchmark
was defined on, a fixed loop ranged from 30 to 58 ms within 90 s, and
the median `chaos` invocation from 0.18 to 0.25 s between runs.  The
speed also differs between processes, with the vCPU a process lands on.

So each timed invocation is paired with one run of the reference loop
in the same process, just before it.  The invocation is then reported
in nominal seconds, ``seconds * NOMINAL_S / reference``: its time at
the host speed where the loop takes NOMINAL_S.

The loop looks up every key of a table, a few times over.  The table
is built once, before the program is imported, so timing the loop
allocates nothing.  It cannot fragment the program's heap or add to
its peak RSS beyond the table's fixed size (about 2 MiB).  It read
2.65-2.66 ms (medians over four interleaved cycles) in children that
had run `chaos` (35 MiB), `mega` (54 MiB) or `congestion`, so the
program's heap does not move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List

#: The loop's median time in a workload child on the host the
#: benchmark was defined on (2-vCPU Xeon at 2.1 GHz, Python 3.11).
NOMINAL_S = 0.0026
#: Reference runs paired with a measurement that cannot be interleaved
#: (set-up, a cold-start process): their median is used.
BURST = 5
_KEYS = 20000
_PASSES = 4


class Reference:
    """The reference loop and the table it reads."""

    def __init__(self) -> None:
        self._keys: List[int] = list(range(_KEYS))
        self._table: Dict[int, int] = {key: key for key in self._keys}

    def seconds(self) -> float:
        keys, table = self._keys, self._table
        total = 0
        start = perf_counter()
        for _ in range(_PASSES):
            for key in keys:
                # Results stay below 256: cached ints, no allocation.
                total ^= table[key] & 0xFF
        return perf_counter() - start

    def burst(self) -> float:
        """The median of BURST runs."""
        return statistics.median(self.seconds() for _ in range(BURST))


def nominal(seconds: float, reference: float) -> float:
    """``seconds`` measured next to ``reference``, in nominal seconds."""
    return seconds * NOMINAL_S / reference
