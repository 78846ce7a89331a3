"""ARP: address resolution, gratuitous ARP, and proxy ARP.

The home agent of the paper captures packets addressed to an absent
mobile host by *gratuitous proxy ARP* (RFC 1027, cited in §2): it
answers (and pre-announces) ARP for the mobile host's home address with
its own link-layer address, so the home network's router hands it every
packet destined for the mobile host.

The ARP layer here implements:

* request/reply resolution with a per-interface cache,
* a pending-packet queue while resolution is in flight,
* gratuitous ARP announcements (used by the HA when a mobile host
  leaves and by the MH itself when it returns home),
* a proxy table consulted when answering requests for *other* hosts'
  addresses.

RFC 826's stale-cache problem, which §7.1.2 of the paper quotes, is
modelled too: cache entries have a lifetime, and gratuitous ARP
overwrites existing entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .addressing import IPAddress
from .link import BROADCAST_LINK_ADDR, Frame, Interface, LinkAddress
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["ArpMessage", "ArpEntry", "ArpService"]

ARP_CACHE_LIFETIME = 600.0   # seconds, generous: tests control time explicitly
ARP_MAX_PENDING = 16         # packets queued per unresolved address


@dataclass(frozen=True)
class ArpMessage:
    """An ARP request or reply."""

    op: str                      # "request" | "reply"
    sender_ip: IPAddress
    sender_link: LinkAddress
    target_ip: IPAddress
    target_link: Optional[LinkAddress] = None


@dataclass
class ArpEntry:
    link_address: LinkAddress
    learned_at: float

    def fresh(self, now: float) -> bool:
        return (now - self.learned_at) < ARP_CACHE_LIFETIME


class ArpService:
    """Per-node ARP state machine.

    One instance per node; caches are per-interface because the same IP
    address may legitimately map to different link addresses on
    different segments (e.g. a router's two sides).
    """

    def __init__(self, node: "Node"):
        self.node = node
        # Per interface name: the integer value of an address -> entry.
        self._caches: Dict[str, Dict[int, ArpEntry]] = {}
        self._pending: Dict[Tuple[str, IPAddress], List[Packet]] = {}
        # Addresses this node answers ARP for on behalf of others
        # (the home agent's proxy entries), per interface name.
        self._proxy_for: Dict[str, set[IPAddress]] = {}
        # Contiguous address ranges proxied wholesale, per interface
        # name: (base, count) pairs.  A home agent fronting a pooled
        # block of a million absent hosts answers for the whole range
        # from one entry instead of a million set members.
        self._proxy_ranges: Dict[str, List[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    # Cache access
    # ------------------------------------------------------------------
    def lookup(self, iface: Interface, ip: IPAddress) -> Optional[LinkAddress]:
        entry = self._caches.get(iface.name, {}).get(ip.value)
        if entry is not None and entry.fresh(self.node.now):
            return entry.link_address
        return None

    def learn(self, iface: Interface, ip: IPAddress, link: LinkAddress) -> None:
        cache = self._caches.setdefault(iface.name, {})
        cache[ip.value] = ArpEntry(link, self.node.now)
        self._flush_pending(iface, ip, link)

    def flush(self) -> None:
        """Drop all cached entries (used when a host changes segments)."""
        self._caches.clear()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Proxy ARP (RFC 1027) — the home agent's capture mechanism
    # ------------------------------------------------------------------
    def add_proxy(self, iface: Interface, ip: IPAddress) -> None:
        """Start answering ARP requests for ``ip`` on ``iface``."""
        self._proxy_for.setdefault(iface.name, set()).add(IPAddress(ip))

    def remove_proxy(self, iface: Interface, ip: IPAddress) -> None:
        self._proxy_for.get(iface.name, set()).discard(IPAddress(ip))

    def add_proxy_range(self, iface: Interface, base: int, count: int) -> None:
        """Answer ARP for every address in ``[base, base + count)``.

        The range is stored as two integers, never expanded: this is
        the capture mechanism for pooled host blocks, where per-address
        proxy entries would cost more than the hosts themselves.
        """
        if count <= 0:
            raise ValueError(f"proxy range count must be positive, got {count}")
        self._proxy_ranges.setdefault(iface.name, []).append((int(base), count))

    def remove_proxy_range(self, iface: Interface, base: int, count: int) -> None:
        ranges = self._proxy_ranges.get(iface.name)
        if ranges is not None:
            try:
                ranges.remove((int(base), count))
            except ValueError:
                pass

    def proxies_on(self, iface: Interface) -> frozenset[IPAddress]:
        return frozenset(self._proxy_for.get(iface.name, set()))

    def proxy_ranges_on(self, iface: Interface) -> Tuple[Tuple[int, int], ...]:
        return tuple(self._proxy_ranges.get(iface.name, ()))

    def _proxied(self, iface_name: str, target: IPAddress) -> bool:
        if target in self._proxy_for.get(iface_name, ()):
            return True
        value = target.value
        return any(
            base <= value < base + count
            for base, count in self._proxy_ranges.get(iface_name, ())
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_and_send(self, iface: Interface, next_hop: IPAddress, packet: Packet) -> None:
        """Send ``packet`` to ``next_hop`` on ``iface``, resolving first.

        If the link address is unknown, the packet is queued and an ARP
        request is broadcast; the queue drains when the reply arrives.
        """
        # :meth:`lookup`, inline: this runs once per unicast frame.
        cache = self._caches.get(iface.name)
        if cache is not None:
            entry = cache.get(next_hop.value)
            if entry is not None and (
                self.node.simulator.clock._now - entry.learned_at
                < ARP_CACHE_LIFETIME
            ):
                iface.transmit(
                    Frame(iface.link_address, entry.link_address, packet, "ip"))
                return
        key = (iface.name, next_hop)
        queue = self._pending.setdefault(key, [])
        if len(queue) >= ARP_MAX_PENDING:
            self.node.simulator.trace.note(
                self.node.now, self.node.name, "drop", packet,
                detail="arp-queue-overflow",
            )
            return
        queue.append(packet)
        # Request on every queued packet, not just the first: if the
        # initial request got no answer (target down, frame lost), the
        # sender's own retransmissions double as ARP retries.
        self._send_request(iface, next_hop)

    def _send_request(self, iface: Interface, target_ip: IPAddress) -> None:
        # Prefer the primary address; a host operating via a foreign
        # agent has only its home address (a secondary) on the visited
        # interface, and must still be able to ARP for the agent.
        sender_ip = iface.ip
        if sender_ip is None:
            addresses = iface.addresses
            if not addresses:
                return
            sender_ip = addresses[0]
        message = ArpMessage(
            op="request",
            sender_ip=sender_ip,
            sender_link=iface.link_address,
            target_ip=target_ip,
        )
        iface.transmit(
            Frame(iface.link_address, BROADCAST_LINK_ADDR, message, kind="arp")
        )

    def announce(self, iface: Interface, ip: IPAddress) -> None:
        """Gratuitous ARP: broadcast that ``ip`` is at this interface.

        Receivers overwrite any existing cache entry, which is how the
        home agent redirects the home network's traffic when the mobile
        host departs, and how the mobile host reclaims its address when
        it returns home.
        """
        message = ArpMessage(
            op="reply",
            sender_ip=IPAddress(ip),
            sender_link=iface.link_address,
            target_ip=IPAddress(ip),
            target_link=iface.link_address,
        )
        iface.transmit(
            Frame(iface.link_address, BROADCAST_LINK_ADDR, message, kind="arp")
        )

    # ------------------------------------------------------------------
    # Inbound ARP handling
    # ------------------------------------------------------------------
    def handle(self, iface: Interface, message: ArpMessage) -> None:
        # Learn opportunistically from every ARP message seen (RFC 826).
        self.learn(iface, message.sender_ip, message.sender_link)
        if message.op == "request":
            answers = iface.owns(message.target_ip) or self._proxied(
                iface.name, message.target_ip
            )
            if answers:
                reply = ArpMessage(
                    op="reply",
                    sender_ip=message.target_ip,
                    sender_link=iface.link_address,
                    target_ip=message.sender_ip,
                    target_link=message.sender_link,
                )
                iface.transmit(
                    Frame(iface.link_address, message.sender_link, reply, kind="arp")
                )

    def _flush_pending(self, iface: Interface, ip: IPAddress, link: LinkAddress) -> None:
        queue = self._pending.pop((iface.name, ip), [])
        for packet in queue:
            iface.transmit(Frame(iface.link_address, link, packet, kind="ip"))
