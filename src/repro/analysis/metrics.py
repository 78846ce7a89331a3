"""Metrics: the quantities the paper argues about.

§3 names the three optimization axes — deliverability, latency (path
length through the Internet), and packet size.  This module holds the
measurement the figures share:

* **path stretch** — the ratio of the path a packet actually took to
  the best direct path (Figure 4's triangle-routing penalty).
"""

from __future__ import annotations

__all__ = ["path_stretch"]


def path_stretch(actual: float, direct: float) -> float:
    """How much longer the actual path is than the direct one.

    1.0 means optimal; Figure 4's nearby-correspondent scenario makes
    this large for In-IE and small for In-DE/In-DH.
    """
    if direct <= 0:
        raise ValueError("direct path measure must be positive")
    return actual / direct
