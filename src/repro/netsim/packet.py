"""IP packet model.

Packets are the central currency of the simulator.  A packet carries an
IP header (source, destination, protocol, TTL, identification,
fragmentation fields), a payload, and a trace id that lets the analysis
layer follow one logical datagram through :mod:`repro.netsim.trace`.

Encapsulation — the heart of the paper — is modelled by letting the
payload of a packet be *another packet*.  ``Packet.wire_size`` then
reports the full on-the-wire size including every nested header, which
is what the size-overhead benchmarks (paper §3.3) measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Any, List, Optional, Sequence, Tuple

from .addressing import IPAddress

__all__ = [
    "IPProto",
    "IPV4_HEADER_SIZE",
    "Packet",
    "DEFAULT_TTL",
    "format_packet",
]

IPV4_HEADER_SIZE = 20
DEFAULT_TTL = 64

_packet_ids = itertools.count(1)
_trace_ids = itertools.count(1)


class IPProto(IntEnum):
    """IP protocol numbers used by the simulator (real IANA values)."""

    ICMP = 1
    IPIP = 4        # IP-in-IP encapsulation (RFC 2003)
    TCP = 6
    UDP = 17
    GRE = 47        # Generic Routing Encapsulation (RFC 1702)
    MINENC = 55     # Minimal Encapsulation (Per95)


# One IP header's (src, dst, ttl): the fields forwarding rewrites on a
# packet already traced — a router's TTL decrement, the sender's
# source-address fill-in, a loose source route's re-addressing.
Header = Tuple[IPAddress, IPAddress, int]


@dataclass
class Packet:
    """A simulated IP packet.

    ``payload`` may be:

    * a transport segment object (from :mod:`repro.transport`),
    * another :class:`Packet` (encapsulation), or
    * any opaque application object.

    ``payload_size`` is the size in bytes of the payload *excluding*
    nested IP headers when the payload is itself a packet — nested
    header bytes are accounted for by :attr:`wire_size` walking the
    encapsulation stack.  ``encap_overhead`` is the size of the
    encapsulating header mechanism in use for *this* layer (0 for a
    plain packet, 20 for IP-in-IP's inner header is counted by the
    nested packet itself, while GRE/minimal-encapsulation shim bytes
    are recorded here by :mod:`repro.netsim.encap`).
    """

    src: IPAddress
    dst: IPAddress
    proto: IPProto
    payload: Any = None
    payload_size: int = 0
    ttl: int = DEFAULT_TTL
    ident: int = field(default_factory=lambda: next(_packet_ids))
    # Fragmentation state (paper §3.3: encapsulation may force fragmentation)
    frag_offset: int = 0
    more_fragments: bool = False
    dont_fragment: bool = False
    # Shim bytes added by non-IPIP encapsulation schemes at this layer.
    shim_size: int = 0
    # Loose source routing (the §4 alternative to encapsulation): the
    # remaining intermediate hops.  ``route_pointer`` counts how many
    # have been consumed.  Routers forward option-bearing packets on a
    # slow path (see Router.option_processing_delay), which is §4's
    # "current IP routers typically handle packets with options much
    # more slowly".
    source_route: Tuple[IPAddress, ...] = ()
    route_pointer: int = 0
    # Analysis bookkeeping.  trace_id survives encapsulation/decapsulation
    # and fragmentation so a logical datagram can be followed end to end.
    trace_id: int = field(default_factory=lambda: next(_trace_ids))
    # Cached inner_size.  The encapsulation stack is effectively
    # immutable after construction; the few sites that do mutate
    # size-relevant fields (fragmentation, reassembly) must call
    # invalidate_size_cache().  init=False keeps the cache out of
    # dataclasses.replace(), so copies start cold.
    _inner_size_cache: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.src = IPAddress(self.src)
        self.dst = IPAddress(self.dst)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def is_fragment(self) -> bool:
        return self.more_fragments or self.frag_offset != 0

    @property
    def inner_size(self) -> int:
        """Size of everything behind this packet's own IP header.

        A fragment always reports its literal byte count
        (``payload_size``), even when it still carries a structured
        payload object for delivery purposes — otherwise the first
        fragment of an encapsulated packet would claim the whole inner
        packet's size and be re-fragmented at every hop.
        """
        cached = self._inner_size_cache
        if cached is not None:
            return cached
        if self.is_fragment:
            size = self.payload_size
        elif isinstance(self.payload, Packet):
            size = self.shim_size + self.payload.wire_size
        else:
            size = self.shim_size + self.payload_size
        self._inner_size_cache = size
        return size

    def invalidate_size_cache(self) -> None:
        """Drop the cached size after mutating size-relevant fields.

        Must be called by any code that changes ``payload``,
        ``payload_size``, ``shim_size``, or the fragmentation flags
        after construction (see :mod:`repro.netsim.fragmentation`).
        Encapsulating packets cache the *nested* packet's size too, so
        mutate-then-encapsulate, never the reverse.
        """
        self._inner_size_cache = None

    @property
    def options_size(self) -> int:
        """IP options bytes: an LSRR option is 3 bytes plus 4 per hop,
        padded to a 4-byte boundary (RFC 791)."""
        if not self.source_route:
            return 0
        raw = 3 + 4 * len(self.source_route)
        return (raw + 3) // 4 * 4

    @property
    def has_options(self) -> bool:
        return bool(self.source_route)

    @property
    def wire_size(self) -> int:
        """Total on-the-wire size of this packet in bytes."""
        # Fast path: size cache warm and no options (the overwhelmingly
        # common case on forwarding paths, where this is called per hop).
        cached = self._inner_size_cache
        if cached is not None and not self.source_route:
            return IPV4_HEADER_SIZE + cached
        return IPV4_HEADER_SIZE + self.options_size + self.inner_size

    # ------------------------------------------------------------------
    # Encapsulation helpers
    # ------------------------------------------------------------------
    @property
    def is_encapsulated(self) -> bool:
        return isinstance(self.payload, Packet)

    @property
    def innermost(self) -> "Packet":
        """Follow the encapsulation stack to the innermost packet."""
        packet = self
        while isinstance(packet.payload, Packet):
            packet = packet.payload
        return packet

    @property
    def encapsulation_depth(self) -> int:
        depth = 0
        packet = self
        while isinstance(packet.payload, Packet):
            depth += 1
            packet = packet.payload
        return depth

    def headers(self) -> List[Header]:
        """``(src, dst, ttl)`` of this packet and of each packet nested
        in it, outermost first."""
        headers = [(self.src, self.dst, self.ttl)]
        packet = self.payload
        while isinstance(packet, Packet):
            headers.append((packet.src, packet.dst, packet.ttl))
            packet = packet.payload
        return headers

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def copy_for_fragment(self, offset: int, size: int, more: bool) -> "Packet":
        """Build a fragment sharing identification and trace id."""
        fragment = replace(
            self,
            payload=None,
            payload_size=size,
            frag_offset=offset,
            more_fragments=more,
        )
        # First fragment keeps the payload object so delivery still works
        # after reassembly; continuation fragments carry only bytes.
        if offset == 0:
            fragment.payload = self.payload
            fragment.invalidate_size_cache()
        return fragment

    def __repr__(self) -> str:
        return format_packet(self, self.headers())


def format_packet(packet: Packet, headers: Sequence[Header]) -> str:
    """``repr`` text of ``packet`` with each layer's src, dst and TTL
    taken from ``headers`` (as :meth:`Packet.headers` lists them).

    The flight recorder renders a packet long after its trace event by
    passing the headers it froze at the event; every other field in
    the text is fixed once the packet has been traced.
    """
    src, dst, ttl = headers[0]
    payload = packet.payload
    inner = (f" [{format_packet(payload, headers[1:])}]"
             if isinstance(payload, Packet) else "")
    frag = ""
    if packet.frag_offset or packet.more_fragments:
        frag = f" frag(off={packet.frag_offset},mf={packet.more_fragments})"
    # ``_name_`` is the enum's stored name — same string as ``.name``
    # without the DynamicClassAttribute descriptor overhead.
    return (
        f"Packet({src!s}->{dst!s} {packet.proto._name_}"
        f" {packet.wire_size}B ttl={ttl}{frag}{inner})"
    )
