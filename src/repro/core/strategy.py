"""The three §7.1.2 probe strategies.

A leaf module, so a spec can name a strategy without loading the
simulator; :mod:`repro.core.selection` describes each strategy and
re-exports :class:`ProbeStrategy`.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["ProbeStrategy"]


class ProbeStrategy(Enum):
    CONSERVATIVE_FIRST = "conservative-first"
    AGGRESSIVE_FIRST = "aggressive-first"
    RULE_SEEDED = "rule-seeded"
