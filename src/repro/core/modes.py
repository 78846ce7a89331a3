"""The eight delivery modes: four outgoing (§4) and four incoming (§5).

Naming follows the paper exactly:

==========  =============================================  ==============
Mode        Meaning                                        Paper section
==========  =============================================  ==============
Out-IE      Outgoing, Indirect, Encapsulated               §4 (conservative)
Out-DE      Outgoing, Direct, Encapsulated                 §4
Out-DH      Outgoing, Direct, Home address                 §4
Out-DT      Outgoing, Direct, Temporary address            §4 (no Mobile IP)
In-IE       Incoming, Indirect, Encapsulated               §5
In-DE       Incoming, Direct, Encapsulated                 §5
In-DH       Incoming, Direct, Home address (same segment)  §5
In-DT       Incoming, Direct, Temporary address            §5 (no Mobile IP)
==========  =============================================  ==============

Each mode is *defined* by the addresses it puts in the inner and outer
IP headers (the paper's S/D/s/d tables, Figures 6-9).  This module
provides both directions of that mapping:

* ``build_outgoing`` / ``build_incoming`` construct correctly-addressed
  (and, where required, encapsulated) packets for a mode;
* ``classify_outgoing`` / ``classify_incoming`` recover the mode from a
  packet on the wire, given the addresses involved — this is what lets
  tests assert that a whole end-to-end scenario used the mode it was
  supposed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..netsim.addressing import IPAddress
from ..netsim.encap import EncapScheme, encapsulate
from ..netsim.packet import Packet

__all__ = [
    "OutMode",
    "InMode",
    "AddressPlan",
    "ModeError",
    "build_outgoing",
    "build_incoming_direct",
    "classify_outgoing",
    "classify_incoming",
]


class ModeError(Exception):
    """Raised when a packet cannot be built or classified for a mode."""


class OutMode(Enum):
    """How the mobile host sends packets to a correspondent (§4)."""

    OUT_IE = "Out-IE"   # tunnel via home agent (conservative)
    OUT_DE = "Out-DE"   # tunnel directly to a decap-capable CH
    OUT_DH = "Out-DH"   # plain packet, home source (needs permissive net)
    OUT_DT = "Out-DT"   # plain packet, temporary source (no Mobile IP)

    @property
    def encapsulated(self) -> bool:
        return self in (OutMode.OUT_IE, OutMode.OUT_DE)

    @property
    def indirect(self) -> bool:
        return self is OutMode.OUT_IE

    @property
    def uses_home_address(self) -> bool:
        """Whether the correspondent sees the permanent home address."""
        return self is not OutMode.OUT_DT


class InMode(Enum):
    """How a correspondent's packets reach the mobile host (§5)."""

    IN_IE = "In-IE"     # via the home agent's tunnel
    IN_DE = "In-DE"     # CH encapsulates directly to the care-of address
    IN_DH = "In-DH"     # link-layer direct on the same segment
    IN_DT = "In-DT"     # plain packet to the temporary address

    @property
    def encapsulated(self) -> bool:
        return self in (InMode.IN_IE, InMode.IN_DE)

    @property
    def indirect(self) -> bool:
        return self is InMode.IN_IE

    @property
    def uses_home_address(self) -> bool:
        return self is not InMode.IN_DT

    @property
    def ch_requirement(self) -> str:
        """What the correspondent must be capable of (Figure 10 rows)."""
        return {
            InMode.IN_IE: "conventional correspondent host",
            InMode.IN_DE: "mobile-aware correspondent host",
            InMode.IN_DH: "both hosts on same network segment",
            InMode.IN_DT: "forgoing mobility support",
        }[self]


@dataclass(frozen=True)
class AddressPlan:
    """The cast of addresses in one mobile conversation.

    ``home`` — the mobile host's permanent home address (MH);
    ``care_of`` — its temporary care-of address (COA);
    ``home_agent`` — the home agent's address (HA);
    ``correspondent`` — the correspondent host's address (CH).
    """

    home: IPAddress
    care_of: IPAddress
    home_agent: IPAddress
    correspondent: IPAddress


# ----------------------------------------------------------------------
# Outgoing construction (Figures 6 and 7)
# ----------------------------------------------------------------------

def build_outgoing(
    mode: OutMode,
    plan: AddressPlan,
    payload: object = None,
    payload_size: int = 0,
    proto=None,
    scheme: EncapScheme = EncapScheme.IPIP,
) -> Packet:
    """Build an outgoing packet per the mode's address table.

    The inner/only packet carries the transport payload.  For the
    encapsulated modes the outer packet is returned (its payload is the
    inner packet).
    """
    from ..netsim.packet import IPProto

    proto = proto if proto is not None else IPProto.UDP

    if mode is OutMode.OUT_DT:
        # S = temporary care-of address, D = correspondent (Figure 6).
        return Packet(
            src=plan.care_of, dst=plan.correspondent, proto=proto,
            payload=payload, payload_size=payload_size,
        )
    inner = Packet(
        # S = permanent home address, D = correspondent.
        src=plan.home, dst=plan.correspondent, proto=proto,
        payload=payload, payload_size=payload_size,
    )
    if mode is OutMode.OUT_DH:
        return inner
    # Encapsulated modes: s = care-of, d = HA (Out-IE) or CH (Out-DE)
    # (Figure 7).
    outer_dst = plan.home_agent if mode is OutMode.OUT_IE else plan.correspondent
    return encapsulate(inner, plan.care_of, outer_dst, scheme=scheme)


def classify_outgoing(packet: Packet, plan: AddressPlan) -> OutMode:
    """Recover the outgoing mode from a wire packet (Figures 6/7)."""
    if packet.is_encapsulated or packet.proto.name in ("IPIP", "GRE", "MINENC"):
        if packet.src != plan.care_of:
            raise ModeError(
                f"encapsulated outgoing packet with outer src {packet.src}, "
                f"expected care-of {plan.care_of}"
            )
        if packet.dst == plan.home_agent:
            return OutMode.OUT_IE
        if packet.dst == plan.correspondent:
            return OutMode.OUT_DE
        raise ModeError(f"outer destination {packet.dst} is neither HA nor CH")
    if packet.dst != plan.correspondent:
        raise ModeError(f"outgoing packet not addressed to CH: {packet.dst}")
    if packet.src == plan.home:
        return OutMode.OUT_DH
    if packet.src == plan.care_of:
        return OutMode.OUT_DT
    raise ModeError(f"outgoing source {packet.src} is neither home nor care-of")


# ----------------------------------------------------------------------
# Incoming construction (Figures 8 and 9)
# ----------------------------------------------------------------------

def build_incoming_direct(
    mode: InMode,
    plan: AddressPlan,
    payload: object = None,
    payload_size: int = 0,
    proto=None,
    scheme: EncapScheme = EncapScheme.IPIP,
) -> Packet:
    """Build the packet a correspondent (or, for In-IE, the home agent)
    emits toward the mobile host.

    For In-IE this returns what the *home agent* sends after capture
    (outer s = HA); the original CH packet is the inner one.  For In-DE
    the CH itself encapsulates (outer s = CH).  In-DH and In-DT are
    plain packets differing only in destination address.
    """
    from ..netsim.packet import IPProto

    proto = proto if proto is not None else IPProto.UDP

    if mode is InMode.IN_DT:
        # S = CH, D = temporary care-of address (Figure 8).
        return Packet(
            src=plan.correspondent, dst=plan.care_of, proto=proto,
            payload=payload, payload_size=payload_size,
        )
    inner = Packet(
        # S = CH, D = permanent home address.
        src=plan.correspondent, dst=plan.home, proto=proto,
        payload=payload, payload_size=payload_size,
    )
    if mode is InMode.IN_DH:
        return inner
    # Encapsulated: d = care-of; s = HA (In-IE) or CH (In-DE) (Figure 9).
    outer_src = plan.home_agent if mode is InMode.IN_IE else plan.correspondent
    return encapsulate(inner, outer_src, plan.care_of, scheme=scheme)


def classify_incoming(packet: Packet, plan: AddressPlan) -> InMode:
    """Recover the incoming mode from the packet as the MH receives it."""
    if packet.is_encapsulated or packet.proto.name in ("IPIP", "GRE", "MINENC"):
        if packet.dst != plan.care_of:
            raise ModeError(
                f"encapsulated incoming packet with outer dst {packet.dst}, "
                f"expected care-of {plan.care_of}"
            )
        if packet.src == plan.home_agent:
            return InMode.IN_IE
        if packet.src == plan.correspondent:
            return InMode.IN_DE
        raise ModeError(f"outer source {packet.src} is neither HA nor CH")
    if packet.src != plan.correspondent:
        raise ModeError(f"incoming packet not from CH: {packet.src}")
    if packet.dst == plan.home:
        return InMode.IN_DH
    if packet.dst == plan.care_of:
        return InMode.IN_DT
    raise ModeError(f"incoming destination {packet.dst} is neither home nor care-of")
