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

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "addressing": ("AddressAllocator", "AddressError", "IPAddress", "Network"),
    "encap": ("EncapScheme", "decapsulate", "encap_overhead", "encapsulate"),
    "events": ("Event", "EventQueue", "SimClock"),
    "faults": (
        "FaultError", "FaultEvent", "FaultInjector", "FaultKind", "FaultPlan",
    ),
    "filters": (
        "Direction", "FilterEngine", "FilterRule", "Verdict",
        "egress_source_filter", "ingress_spoof_filter",
        "transit_traffic_filter",
    ),
    "fragmentation": ("FragmentationNeeded", "Reassembler", "fragment"),
    "icmp": (
        "CareOfAdvisory", "EchoData", "IcmpMessage", "IcmpType",
        "make_icmp_packet",
    ),
    "link": ("ETHERNET_MTU", "Frame", "Interface", "LinkAddress", "Segment"),
    "node": ("Node", "PhysicalRoute", "RouteTarget", "VirtualRoute"),
    "packet": ("DEFAULT_TTL", "IPV4_HEADER_SIZE", "IPProto", "Packet"),
    "router": ("BoundaryRouter", "Router"),
    "routing": ("Route", "RoutingTable"),
    "simulator": ("Simulator",),
    "tools": ("TracerouteResult", "render_topology", "traceroute"),
    "topology": ("Domain", "Internet"),
    "trace": ("TraceEntry", "TraceLog"),
})
