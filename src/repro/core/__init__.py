"""The paper's primary contribution: the 4x4 grid and its machinery.

* :mod:`repro.core.modes`      — the eight delivery modes and their
  address tables (Figures 6-9).
* :mod:`repro.core.grid`       — Figure 10: cell classification,
  requirements, and the best-cell chooser.
* :mod:`repro.core.policy`     — the address-and-mask mobility policy
  table (§7, §7.1.2).
* :mod:`repro.core.selection`  — the per-correspondent delivery-method
  cache and the three probe strategies (§7.1.2).
* :mod:`repro.core.heuristics` — the port heuristics (§7.1.1), plus
  the multicast bypass (§6.4).
* :mod:`repro.core.feedback`   — the retransmission-signal failure
  detector the paper proposes (§7.1.2).
* :mod:`repro.core.decision`   — :class:`MobilityEngine`, gluing all of
  the above into the two decisions a mobile host makes.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "decision": ("CorrespondentKnowledge", "MobilityEngine"),
    "feedback": ("RemoteHealth", "RetransmissionDetector"),
    "grid": ("GRID", "CellClass", "FourByFourGrid", "GridCell", "Requirement"),
    "heuristics": ("AddressChoice", "PortHeuristics"),
    "modes": (
        "AddressPlan", "InMode", "ModeError", "OutMode",
        "build_incoming_direct", "build_outgoing", "classify_incoming",
        "classify_outgoing",
    ),
    "policy": ("Disposition", "MobilityPolicyTable", "PolicyRule"),
    "selection": ("CorrespondentRecord", "DeliveryMethodCache"),
    "strategy": ("ProbeStrategy",),
})
