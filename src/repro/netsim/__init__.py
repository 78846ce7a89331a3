"""Packet-level network simulator substrate.

This package stands in for the real 1996 Internet of the paper: IPv4
addressing, shared link segments with latency/bandwidth/MTU, ARP (with
the proxy ARP the home agent needs), static longest-prefix routing,
boundary routers with source-address filtering and transit policy,
IP fragmentation/reassembly, ICMP, and three tunneling schemes.

Everything above it — Mobile IP (:mod:`repro.mobileip`), transport
(:mod:`repro.transport`) and the 4x4 decision machinery
(:mod:`repro.core`) — talks to this substrate only through
:class:`Node`'s IP send/receive interface and route-override hook.
"""

from .addressing import AddressAllocator, AddressError, IPAddress, Network
from .encap import EncapScheme, decapsulate, encap_overhead, encapsulate
from .events import Event, EventQueue, SimClock
from .faults import FaultError, FaultEvent, FaultInjector, FaultKind, FaultPlan
from .filters import (
    Direction,
    FilterEngine,
    FilterRule,
    Verdict,
    egress_source_filter,
    ingress_spoof_filter,
    transit_traffic_filter,
)
from .fragmentation import FragmentationNeeded, Reassembler, fragment
from .icmp import CareOfAdvisory, EchoData, IcmpMessage, IcmpType, make_icmp_packet
from .link import ETHERNET_MTU, Frame, Interface, LinkAddress, Segment
from .node import Node, PhysicalRoute, RouteTarget, VirtualRoute
from .packet import DEFAULT_TTL, IPV4_HEADER_SIZE, IPProto, Packet
from .router import BoundaryRouter, Router
from .routing import Route, RoutingTable
from .simulator import Simulator
from .tools import TracerouteResult, render_topology, traceroute
from .topology import Domain, Internet
from .trace import TraceEntry, TraceLog

__all__ = [
    "AddressAllocator",
    "AddressError",
    "IPAddress",
    "Network",
    "EncapScheme",
    "decapsulate",
    "encap_overhead",
    "encapsulate",
    "Event",
    "EventQueue",
    "SimClock",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "Direction",
    "FilterEngine",
    "FilterRule",
    "Verdict",
    "egress_source_filter",
    "ingress_spoof_filter",
    "transit_traffic_filter",
    "FragmentationNeeded",
    "Reassembler",
    "fragment",
    "CareOfAdvisory",
    "EchoData",
    "IcmpMessage",
    "IcmpType",
    "make_icmp_packet",
    "ETHERNET_MTU",
    "Frame",
    "Interface",
    "LinkAddress",
    "Segment",
    "Node",
    "PhysicalRoute",
    "RouteTarget",
    "VirtualRoute",
    "DEFAULT_TTL",
    "IPV4_HEADER_SIZE",
    "IPProto",
    "Packet",
    "BoundaryRouter",
    "Router",
    "Route",
    "RoutingTable",
    "Simulator",
    "TracerouteResult",
    "render_topology",
    "traceroute",
    "Domain",
    "Internet",
    "TraceEntry",
    "TraceLog",
]
