"""The three correspondent awareness levels of Figure 10's rows.

A leaf module, so a spec can name a level without loading the
simulator; :mod:`repro.mobileip.correspondent` describes each level
and re-exports :class:`Awareness`.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["Awareness"]


class Awareness(Enum):
    CONVENTIONAL = "conventional"
    DECAP_CAPABLE = "decap-capable"
    MOBILE_AWARE = "mobile-aware"
