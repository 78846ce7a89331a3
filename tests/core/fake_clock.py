"""The §7.1 machinery as every mobile host runs it, on a fake clock.

Every :class:`~repro.core.selection.DeliveryMethodCache` and
:class:`~repro.core.decision.MobilityEngine` ages its failure verdicts
against a clock.  The core unit tests build theirs here, on a
:class:`FakeClock` that stands still until a test advances it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.decision import MobilityEngine
from repro.core.selection import DeliveryMethodCache, ProbeStrategy
from repro.netsim import IPAddress

HOME = IPAddress("10.1.0.10")
COA = IPAddress("10.2.0.2")


class FakeClock:
    """A clock that reads ``now`` seconds; tests set or advance it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_cache(
    strategy: ProbeStrategy = ProbeStrategy.RULE_SEEDED,
    clock: Optional[FakeClock] = None,
    **kwargs,
) -> DeliveryMethodCache:
    """A cache on ``clock``, or on a fresh clock that never moves."""
    return DeliveryMethodCache(
        clock if clock is not None else FakeClock(), strategy, **kwargs)


def make_engine(**kwargs) -> MobilityEngine:
    """An engine for :data:`HOME` on a fresh clock, at home."""
    return MobilityEngine(HOME, FakeClock(), **kwargs)


def away_engine(**kwargs) -> MobilityEngine:
    """An engine configured as a host visiting a foreign network."""
    engine = make_engine(**kwargs)
    engine.care_of_address = lambda: COA
    engine.at_home_test = lambda: False
    return engine
