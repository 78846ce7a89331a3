"""Encapsulation (tunneling) schemes.

The paper (§2, §3.3) discusses three concrete ways to put one IP packet
inside another and notes their byte costs:

* **IP-in-IP** (RFC 2003 / [Per96c]): a full outer IPv4 header is
  prepended — +20 bytes.
* **Minimal Encapsulation** ([Per95]): the inner header is compressed
  into an 8- or 12-byte forwarding header (12 when the original source
  address must be preserved, as in reverse tunneling) — +8/+12 bytes.
* **GRE** (RFC 1702): outer IPv4 header plus a 4-byte GRE shim (plus
  optional key/sequence fields) — +24 bytes in the basic form.

All three are modelled precisely enough that :attr:`Packet.wire_size`
reports the correct on-the-wire size, which the §3.3 size benchmarks
rely on.  Decapsulation restores the original inner packet unchanged
(its trace id included).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .addressing import IPAddress
from .packet import IPV4_HEADER_SIZE, IPProto, Packet

__all__ = [
    "EncapScheme",
    "EncapError",
    "encapsulate",
    "decapsulate",
    "encap_overhead",
    "MIN_ENC_BASE_SIZE",
    "MIN_ENC_WITH_SOURCE_SIZE",
    "GRE_SHIM_SIZE",
]

# Shim sizes (bytes added beyond the payload) for each scheme.
MIN_ENC_BASE_SIZE = 8
MIN_ENC_WITH_SOURCE_SIZE = 12
GRE_SHIM_SIZE = 4


class EncapError(Exception):
    """Raised on invalid encapsulation/decapsulation operations."""


class EncapScheme(Enum):
    """The tunneling mechanisms of the paper."""

    IPIP = "ipip"          # RFC 2003-style IP-in-IP
    MINIMAL = "minimal"    # Per95 minimal encapsulation
    GRE = "gre"            # RFC 1702 generic routing encapsulation

    @property
    def proto(self) -> IPProto:
        return {
            EncapScheme.IPIP: IPProto.IPIP,
            EncapScheme.MINIMAL: IPProto.MINENC,
            EncapScheme.GRE: IPProto.GRE,
        }[self]


def encap_overhead(scheme: EncapScheme, preserve_source: bool = True) -> int:
    """Bytes added to a packet by ``scheme``.

    For IP-in-IP and GRE the full outer IPv4 header (20 B) is added plus
    any shim.  Minimal encapsulation *replaces* the inner IP header with
    a compressed forwarding header inside a new outer header, so its net
    cost over the original packet is 8 B (12 B when the original source
    is carried, needed for reverse tunnels where outer-src != inner-src).
    """
    if scheme is EncapScheme.IPIP:
        return IPV4_HEADER_SIZE
    if scheme is EncapScheme.GRE:
        return IPV4_HEADER_SIZE + GRE_SHIM_SIZE
    if scheme is EncapScheme.MINIMAL:
        return MIN_ENC_WITH_SOURCE_SIZE if preserve_source else MIN_ENC_BASE_SIZE
    raise EncapError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class _MinimalHeader:
    """Bookkeeping for minimal encapsulation.

    Minimal encapsulation compresses the inner IP header away; to be
    able to reconstruct the inner packet exactly on decapsulation we
    stash it here.  ``carries_source`` records whether the 12-byte form
    (with original source address) was used.
    """

    original: Packet
    carries_source: bool


def encapsulate(
    inner: Packet,
    outer_src: IPAddress,
    outer_dst: IPAddress,
    scheme: EncapScheme = EncapScheme.IPIP,
    ttl: int = 64,
) -> Packet:
    """Wrap ``inner`` in an outer packet addressed ``outer_src -> outer_dst``.

    The returned outer packet shares the inner packet's ``trace_id`` so
    the trace log can follow the logical datagram through the tunnel.
    Minimal encapsulation refuses to nest (the real mechanism cannot
    carry a tunnel packet of any scheme, since it has no inner IP
    header to compress).
    """
    if inner.more_fragments or inner.frag_offset:
        raise EncapError("cannot encapsulate an IP fragment")
    outer_src = IPAddress(outer_src)
    outer_dst = IPAddress(outer_dst)

    if scheme is EncapScheme.MINIMAL:
        if scheme_of(inner) is not None:
            raise EncapError("minimal encapsulation cannot nest tunnels")
        carries_source = outer_src != inner.src
        shim = (
            MIN_ENC_WITH_SOURCE_SIZE if carries_source else MIN_ENC_BASE_SIZE
        )
        outer = Packet(
            src=outer_src,
            dst=outer_dst,
            proto=IPProto.MINENC,
            payload=_MinimalHeader(inner, carries_source),
            # Inner IP header is elided; only its payload plus the
            # compressed forwarding header travel behind the outer header.
            payload_size=inner.inner_size + shim,
            ttl=ttl,
            trace_id=inner.trace_id,
        )
        return outer

    shim = GRE_SHIM_SIZE if scheme is EncapScheme.GRE else 0
    outer = Packet(
        src=outer_src,
        dst=outer_dst,
        proto=scheme.proto,
        payload=inner,
        shim_size=shim,
        ttl=ttl,
        trace_id=inner.trace_id,
    )
    return outer


def decapsulate(outer: Packet) -> Packet:
    """Extract and return the inner packet of a tunnel packet.

    Raises :class:`EncapError` when the packet is not encapsulated or
    the protocol field does not match a known scheme.
    """
    if outer.proto is IPProto.MINENC:
        header = outer.payload
        if not isinstance(header, _MinimalHeader):
            raise EncapError("minimal-encapsulation packet with bad payload")
        return header.original
    if outer.proto in (IPProto.IPIP, IPProto.GRE):
        if not isinstance(outer.payload, Packet):
            raise EncapError(f"{outer.proto.name} packet without inner packet")
        return outer.payload
    raise EncapError(f"packet protocol {outer.proto.name} is not a tunnel")


def scheme_of(packet: Packet) -> Optional[EncapScheme]:
    """The encapsulation scheme of ``packet``, or None if untunneled."""
    return {
        IPProto.IPIP: EncapScheme.IPIP,
        IPProto.MINENC: EncapScheme.MINIMAL,
        IPProto.GRE: EncapScheme.GRE,
    }.get(packet.proto)
