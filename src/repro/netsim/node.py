"""Nodes: the base class for hosts, routers, and agents.

A :class:`Node` owns interfaces, an ARP service, a conventional routing
table, per-protocol receive handlers, and — crucially for the paper —
the **route-override hook**.  §7 of the paper:

    "We override the IP route lookup routine and replace it with a
    routine that consults a mobility policy table before the usual
    route table. ... If the packet is to be encapsulated, then the
    routine directs IP to send the packet to our virtual interface,
    which encapsulates the packet and resubmits it to IP."

``route_overrides`` is exactly that: an ordered list of callables
consulted on every originated packet *before* the normal routing table.
An override may return a :class:`PhysicalRoute` (send out a specific
interface), a :class:`VirtualRoute` (hand the packet to a virtual
interface such as the Mobile IP encapsulator, which will re-submit),
or ``None`` to decline.  The base IP machinery below the hook is
completely conventional, which is the point of the paper's design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from .addressing import IPAddress
from .arp import ArpMessage, ArpService
from .fragmentation import (
    FragmentationNeeded,
    Reassembler,
    fragment,
)
from .icmp import (
    EchoData,
    IcmpMessage,
    IcmpType,
    UnreachableCode,
    UnreachableData,
    make_icmp_packet,
    unreachable_for,
)
from .link import BROADCAST_LINK_ADDR, Frame, Interface, Segment
from .packet import IPProto, Packet
from .routing import RoutingTable

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["PhysicalRoute", "VirtualRoute", "RouteTarget", "Node"]


@dataclass(frozen=True)
class PhysicalRoute:
    """Send out a named interface, optionally via a gateway, optionally
    forcing the source address (mobility decides source addresses)."""

    interface: str
    next_hop: Optional[IPAddress] = None
    src_override: Optional[IPAddress] = None


@dataclass(frozen=True)
class VirtualRoute:
    """Hand the packet to a virtual interface (e.g. the Mobile IP
    encapsulating interface), which consumes it and may resubmit."""

    handler: Callable[[Packet], None]
    name: str = "virtual"


RouteTarget = Union[PhysicalRoute, VirtualRoute]
RouteOverride = Callable[[Packet], Optional[RouteTarget]]
ProtoHandler = Callable[[Packet], None]
IcmpHook = Callable[[Packet, IcmpMessage], None]


class Node:
    """A host attached to one or more segments."""

    forwarding = False  # routers override this

    def __init__(self, name: str, simulator: "Simulator"):
        self.name = name
        self.simulator = simulator
        self.interfaces: Dict[str, Interface] = {}
        self.arp = ArpService(self)
        self.routes = RoutingTable()
        self.route_overrides: List[RouteOverride] = []
        self.proto_handlers: Dict[IPProto, ProtoHandler] = {}
        self.icmp_hooks: List[IcmpHook] = []
        self.reassembler = Reassembler()
        self.reassembler.on_expire = self._reassembly_expired
        self.multicast_groups: set[IPAddress] = set()
        self._echo_waiters: Dict[int, Callable[[Packet], None]] = {}
        self.packets_sent = 0
        self.packets_received = 0
        simulator.register(self)
        # Pull metrics: the registry reads these attributes on demand,
        # so the per-packet increments above stay bare integers.
        metrics = simulator.metrics
        metrics.counter("node.packets_sent",
                        read=lambda: self.packets_sent, node=name)
        metrics.counter("node.packets_received",
                        read=lambda: self.packets_received, node=name)
        metrics.gauge("node.reassembly_pending",
                      read=lambda: self.reassembler.pending, node=name)
        metrics.counter("node.fragment_duplicates",
                        read=lambda: self.reassembler.duplicates, node=name)
        metrics.counter("node.fragment_overlaps",
                        read=lambda: self.reassembler.overlaps, node=name)
        metrics.counter("node.reassembly_timeouts",
                        read=lambda: self.reassembler.timeouts, node=name)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.simulator.clock._now

    @property
    def trace(self):
        return self.simulator.trace

    def add_interface(self, name: str, segment: Optional[Segment] = None) -> Interface:
        if name in self.interfaces:
            raise ValueError(f"{self.name} already has interface {name}")
        iface = Interface(name, self)
        self.interfaces[name] = iface
        if segment is not None:
            iface.attach(segment)
        return iface

    def interface(self, name: str) -> Interface:
        return self.interfaces[name]

    def owns_address(self, ip: IPAddress) -> bool:
        """True if any interface holds ``ip``, as primary or secondary."""
        value = ip.value
        for iface in self.interfaces.values():
            own = iface.ip
            if own is not None and own.value == value:
                return True
            for secondary in iface.secondary_ips:
                if secondary.value == value:
                    return True
        return False

    @property
    def addresses(self) -> List[IPAddress]:
        out: List[IPAddress] = []
        for iface in self.interfaces.values():
            out.extend(iface.addresses)
        return out

    def register_proto_handler(self, proto: IPProto, handler: ProtoHandler) -> None:
        self.proto_handlers[proto] = handler

    def join_multicast(self, group: IPAddress) -> None:
        if not IPAddress(group).is_multicast:
            raise ValueError(f"{group} is not a multicast address")
        self.multicast_groups.add(IPAddress(group))

    def leave_multicast(self, group: IPAddress) -> None:
        self.multicast_groups.discard(IPAddress(group))

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def ip_send(self, packet: Packet, bypass_overrides: bool = False) -> None:
        """Originate (or re-submit) an IP packet.

        Consults the route-override chain first (unless the caller is a
        virtual interface re-submitting, which sets
        ``bypass_overrides`` to avoid an encapsulation loop), then the
        normal routing table.
        """
        self.packets_sent += 1
        trace = self.simulator.trace
        now = self.simulator.clock._now
        trace.note(now, self.name, "send", packet)

        if not bypass_overrides:
            for override in self.route_overrides:
                target = override(packet)
                if target is None:
                    continue
                if isinstance(target, VirtualRoute):
                    trace.note(
                        now, self.name, "virtual-route", packet,
                        detail=target.name,
                    )
                    target.handler(packet)
                    return
                self._transmit_via(
                    packet, self.interfaces.get(target.interface),
                    target.next_hop, target.src_override,
                )
                return

        # Local delivery short-circuit (loopback semantics).
        if self.owns_address(packet.dst):
            self.simulator.events.schedule(
                0.0, self._local_deliver, packet, label=f"{self.name}:loopback"
            )
            return

        # Multicast/broadcast need no route: transmit on the first live
        # interface (hosts here have one; §6.4's point is precisely that
        # the mobile host should use its *current physical* interface).
        value = packet.dst.value
        if value >> 28 == 0xE or value == 0xFFFFFFFF:  # multicast, broadcast
            for iface in self.interfaces.values():
                if iface.up and iface.segment is not None:
                    self._link_send(iface, packet, None)
                    return
            trace.note(now, self.name, "drop", packet, detail="no-interface")
            return

        route = self.routes.lookup(packet.dst)
        if route is None:
            trace.note(now, self.name, "drop", packet, detail="no-route")
            return
        self._transmit_via(
            packet, self.interfaces.get(route.interface), route.gateway
        )

    def _transmit_via(
        self,
        packet: Packet,
        iface: Optional[Interface],
        next_hop: Optional[IPAddress],
        src_override: Optional[IPAddress] = None,
    ) -> None:
        """Send ``packet`` out ``iface`` (``None`` when the route named
        an interface this node lacks), fragmenting to its MTU."""
        segment = None if iface is None else iface.segment
        if segment is None:
            self.trace.note(
                self.now, self.name, "drop", packet, detail="interface-down"
            )
            return
        if src_override is not None:
            packet.src = IPAddress(src_override)
        if packet.src.value == 0 and iface.ip is not None:  # 0.0.0.0
            packet.src = iface.ip

        mtu = segment.mtu
        if packet.wire_size <= mtu:
            self._link_send(iface, packet, next_hop)
            return
        try:
            pieces = fragment(packet, mtu)
        except FragmentationNeeded:
            self.trace.note(
                self.now, self.name, "drop", packet, detail="df-mtu-exceeded"
            )
            self._send_frag_needed(packet, mtu)
            return
        if len(pieces) > 1:
            self.trace.note(
                self.now, self.name, "fragment", packet,
                detail=f"into {len(pieces)} pieces (mtu {mtu})",
            )
        for piece in pieces:
            self._link_send(iface, piece, next_hop)

    def _link_send(
        self, iface: Interface, packet: Packet, next_hop: Optional[IPAddress]
    ) -> None:
        value = packet.dst.value
        network = iface.network
        # Multicast, limited broadcast, or this subnet's directed
        # broadcast (RFC 1812 §5.3.5.2): a link-layer broadcast, no ARP.
        if (value >> 28 == 0xE or value == 0xFFFFFFFF
                or (network is not None and value == network._broadcast)):
            iface.transmit(Frame(iface.link_address, BROADCAST_LINK_ADDR, packet))
            return
        hop = next_hop if next_hop is not None else packet.dst
        self.arp.resolve_and_send(iface, hop, packet)

    def link_send_direct(self, iface_name: str, packet: Packet, neighbor_ip: IPAddress) -> None:
        """Deliver a packet in a single link-layer hop to a neighbor.

        This is the In-DH mechanism (paper §5): the IP destination may
        not "belong" on this segment at all; only the frame's link
        destination is the neighbor.  ARP resolves the *neighbor's*
        address, not the packet's IP destination.
        """
        iface = self.interfaces[iface_name]
        self.packets_sent += 1
        self.trace.note(
            self.now, self.name, "send", packet, detail=f"link-direct via {neighbor_ip}"
        )
        self.arp.resolve_and_send(iface, IPAddress(neighbor_ip), packet)

    def _send_frag_needed(self, offending: Packet, mtu: int) -> None:
        src = self._preferred_source()
        if src is None:
            return
        message = IcmpMessage(
            IcmpType.DEST_UNREACHABLE,
            # mtu advertised for path-MTU discovery
            UnreachableData(
                UnreachableCode.FRAGMENTATION_NEEDED, offending.src, offending.dst, mtu
            ),
        )
        self.ip_send(make_icmp_packet(src, offending.src, message))

    def _preferred_source(self) -> Optional[IPAddress]:
        for iface in self.interfaces.values():
            if iface.ip is not None:
                return iface.ip
        return None

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def frame_received(self, iface: Interface, frame: Frame) -> None:
        if frame.kind == "arp":
            assert isinstance(frame.payload, ArpMessage)
            self.arp.handle(iface, frame.payload)
            return
        packet = frame.payload
        assert isinstance(packet, Packet)
        self.ip_input(iface, packet)

    def ip_input(self, iface: Interface, packet: Packet) -> None:
        # Integer tests on the destination: multicast (224/4), then the
        # limited or this subnet's directed broadcast.
        dst = packet.dst
        value = dst.value
        if value >> 28 == 0xE:
            if dst in self.multicast_groups:
                self._local_deliver(packet)
            # Otherwise ignored, by routers too: no multicast routing.
            return
        network = iface.network
        if value == 0xFFFFFFFF or (
            network is not None and value == network._broadcast
        ):
            self._local_deliver(packet)
            return
        if self.owns_address(dst):
            self._local_deliver(packet)
            return
        if self.forwarding:
            self.forward(iface, packet)
            return
        # A host received a frame for an IP address it does not own —
        # possible after stale ARP; silently discard like real stacks.
        self.trace.note(self.now, self.name, "drop", packet, detail="not-mine")

    def forward(self, in_iface: Interface, packet: Packet) -> None:
        """Hosts do not forward; routers override."""
        self.trace.note(self.now, self.name, "drop", packet, detail="not-a-router")

    def _reassembly_expired(self, buffer) -> None:
        """Trace an expired reassembly buffer as a classified drop.

        Without this, a datagram whose fragments never all arrived would
        end its trace on ``fragment-held`` — a silent disappearance the
        invariant monitor (repro.verify) would have to special-case.
        """
        fragments = buffer.fragments
        if not fragments:
            return
        first = fragments[min(fragments)]
        self.trace.note(
            self.now, self.name, "drop", first, detail="reassembly-timeout"
        )

    def _local_deliver(self, packet: Packet) -> None:
        trace = self.simulator.trace
        now = self.simulator.clock._now
        whole = self.reassembler.accept(packet, now)
        if whole is None:
            trace.note(
                now, self.name, "fragment-held", packet, detail="awaiting more"
            )
            return
        # Loose source routing (RFC 791 / paper §4): a packet addressed
        # to us with remaining route entries is re-addressed to the
        # next listed hop and re-submitted instead of delivered.
        # Note the source address is never rewritten — which is exactly
        # why LSR cannot evade source-address filtering the way the
        # encapsulating header does (§4).
        if whole.route_pointer < len(whole.source_route):
            next_hop = whole.source_route[whole.route_pointer]
            whole.route_pointer += 1
            whole.dst = next_hop
            trace.note(
                now, self.name, "source-route", whole,
                detail=f"next hop {next_hop}",
            )
            self.ip_send(whole, bypass_overrides=True)
            return
        self.packets_received += 1
        trace.note(now, self.name, "deliver", whole)
        handler = self.proto_handlers.get(whole.proto)
        if handler is not None:
            handler(whole)
        elif whole.proto is IPProto.ICMP:
            self._icmp_input(whole)
        else:
            self._send_proto_unreachable(whole)

    # ------------------------------------------------------------------
    # ICMP
    # ------------------------------------------------------------------
    def _icmp_input(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, IcmpMessage):
            return
        if message.icmp_type is IcmpType.ECHO_REQUEST:
            assert isinstance(message.data, EchoData)
            src = self._source_for_reply(packet)
            if src is not None:
                reply = make_icmp_packet(
                    src, packet.src, IcmpMessage(IcmpType.ECHO_REPLY, message.data)
                )
                self.ip_send(reply)
            return
        if message.icmp_type is IcmpType.ECHO_REPLY:
            assert isinstance(message.data, EchoData)
            waiter = self._echo_waiters.pop(message.data.token, None)
            if waiter is not None:
                waiter(packet)
        for hook in self.icmp_hooks:
            hook(packet, message)

    def ping(
        self,
        dst: IPAddress,
        on_reply: Callable[[Packet], None],
        src: Optional[IPAddress] = None,
        size: int = 56,
        token: Optional[int] = None,
    ) -> int:
        """Send an echo request; ``on_reply`` fires if the reply returns."""
        token = token if token is not None else self.simulator.next_token()
        self._echo_waiters[token] = on_reply
        source = src or self._preferred_source()
        if source is None:
            raise RuntimeError(f"{self.name} has no configured address to ping from")
        request = make_icmp_packet(
            source, IPAddress(dst),
            IcmpMessage(IcmpType.ECHO_REQUEST, EchoData(token, size)),
        )
        self.ip_send(request)
        return token

    def _source_for_reply(self, packet: Packet) -> Optional[IPAddress]:
        # Reply from the address the request was sent to when we own it,
        # else from any configured address.
        if self.owns_address(packet.dst):
            return packet.dst
        return self._preferred_source()

    def _send_proto_unreachable(self, packet: Packet) -> None:
        src = self._source_for_reply(packet)
        if src is None:
            return
        reply = unreachable_for(src, packet, UnreachableCode.PROTO_UNREACHABLE)
        if reply is not None:
            self.ip_send(reply)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"
