"""The home agent (§2).

    "The home agent is a machine on the mobile host's home network that
    acts as a proxy on behalf of the mobile host for the duration of
    its absence.  The home agent uses gratuitous proxy ARP to capture
    all IP packets addressed to the mobile host.  When packets
    addressed to the mobile host arrive on its home network, the home
    agent intercepts them and uses encapsulation ... to forward them to
    the mobile host's current location."

Implemented behaviours:

* registration service on UDP 434 (accept/refresh/deregister bindings);
* gratuitous proxy ARP capture on the home LAN;
* In-IE forwarding: encapsulate captured packets to the care-of address;
* reverse-tunnel endpoint for Out-IE: decapsulate and re-send the inner
  packet "on behalf of the mobile host" (Figure 3);
* optional ICMP care-of advisories to correspondents (§3.2), rate-
  limited per correspondent so a packet flood does not become an
  advisory flood;
* mobile-to-mobile support: if a decapsulated inner packet is itself
  addressed to another registered mobile host, it is re-encapsulated
  toward that host's care-of address.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..netsim.addressing import IPAddress, Network
from ..netsim.encap import EncapError, EncapScheme
from ..netsim.icmp import CareOfAdvisory, IcmpMessage, IcmpType, make_icmp_packet
from ..netsim.link import Interface
from ..netsim.node import Node
from ..netsim.packet import Packet
from ..transport.sockets import TransportStack
from .binding import BindingTable, PoolBlock
from .registration import (
    MOBILE_IP_PORT,
    RegistrationReply,
    RegistrationRequest,
    ReplyCode,
)
from .tunnel import TunnelEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.simulator import Simulator

__all__ = ["HomeAgent"]

ADVISORY_MIN_INTERVAL = 10.0   # seconds between advisories per correspondent


class HomeAgent(Node):
    """A home agent serving mobile hosts of one home network."""

    def __init__(
        self,
        name: str,
        simulator: "Simulator",
        home_network: Network,
        scheme: EncapScheme = EncapScheme.IPIP,
        notify_correspondents: bool = False,
        max_bindings: int = 1024,
        advisory_lifetime: float = 60.0,
        auth_key: Optional[str] = None,
    ):
        super().__init__(name, simulator)
        self.home_network = home_network
        self.bindings = BindingTable()
        self.notify_correspondents = notify_correspondents
        self.max_bindings = max_bindings
        self.advisory_lifetime = advisory_lifetime
        # With a key configured every registration must carry a valid
        # authenticator AND a fresh (strictly increasing) ident; without
        # one the agent is as trusting as the paper's original design.
        self.auth_key = auth_key
        self._last_ident: Dict[IPAddress, int] = {}
        # Aggregate-expansion hook (see repro.netsim.population): called
        # with a captured destination before tunneling so a pooled host
        # can be promoted to a full node in time to receive the packet.
        self.promoter: Optional[Callable[[IPAddress], None]] = None
        self.tunnel = TunnelEndpoint(self, scheme=scheme, on_inner=self._reverse_inner)
        # Locally-originated traffic to a bound home address must be
        # captured too (ip_input only sees *arriving* packets).
        self.route_overrides.append(self._local_capture)
        self.stack = TransportStack(self)
        self._reg_socket = self.stack.udp_socket(MOBILE_IP_PORT)
        self._reg_socket.on_receive(self._registration_input)
        self._last_advisory: Dict[IPAddress, float] = {}
        self.packets_tunneled = 0
        self.packets_reverse_forwarded = 0
        self.advisories_sent = 0
        self.restarts = 0
        self.auth_failures = 0
        self.replays_rejected = 0
        self.encap_failures = 0
        metrics = simulator.metrics
        metrics.counter("ha.auth_failures",
                        read=lambda: self.auth_failures, node=name)
        metrics.counter("ha.replays_rejected",
                        read=lambda: self.replays_rejected, node=name)
        metrics.counter("ha.encap_failures",
                        read=lambda: self.encap_failures, node=name)
        metrics.counter("ha.restarts", read=lambda: self.restarts, node=name)
        metrics.counter("ha.packets_tunneled",
                        read=lambda: self.packets_tunneled, node=name)
        metrics.counter("ha.reverse_forwarded",
                        read=lambda: self.packets_reverse_forwarded, node=name)
        metrics.counter("ha.advisories_sent",
                        read=lambda: self.advisories_sent, node=name)
        metrics.gauge("ha.bindings", read=lambda: len(self.bindings), node=name)

    # ------------------------------------------------------------------
    # Registration service
    # ------------------------------------------------------------------
    def _registration_input(
        self, data: object, size: int, src_ip: IPAddress, src_port: int
    ) -> None:
        if not isinstance(data, RegistrationRequest):
            return
        reply = self._process_registration(data)
        self._reg_socket.sendto(reply, reply.size, src_ip, src_port)

    def _process_registration(self, request: RegistrationRequest) -> RegistrationReply:
        if not self.home_network.contains(request.home_address):
            return RegistrationReply(
                ReplyCode.DENIED_UNKNOWN_HOME_ADDRESS,
                request.home_address, 0.0, request.ident,
            )
        if self.auth_key is not None:
            if request.auth is None or not request.authentic(self.auth_key):
                self.auth_failures += 1
                return RegistrationReply(
                    ReplyCode.DENIED_FAILED_AUTHENTICATION,
                    request.home_address, 0.0, request.ident,
                )
            # Replay protection: idents are drawn from a monotonic
            # source, so a genuine request always advances past the last
            # accepted ident for its home address; a replayed capture
            # cannot.
            if request.ident <= self._last_ident.get(request.home_address, -1):
                self.replays_rejected += 1
                return RegistrationReply(
                    ReplyCode.DENIED_IDENT_MISMATCH,
                    request.home_address, 0.0, request.ident,
                )
            self._last_ident[request.home_address] = request.ident
        if request.is_deregistration:
            self._remove_binding(request.home_address)
            return RegistrationReply(
                ReplyCode.ACCEPTED, request.home_address, 0.0, request.ident
            )
        if (
            len(self.bindings) >= self.max_bindings
            and request.home_address not in self.bindings
        ):
            return RegistrationReply(
                ReplyCode.DENIED_TOO_MANY_BINDINGS,
                request.home_address, 0.0, request.ident,
            )
        self.bindings.register(
            request.home_address, request.care_of_address, self.now, request.lifetime
        )
        self._install_capture(request.home_address)
        return RegistrationReply(
            ReplyCode.ACCEPTED, request.home_address, request.lifetime, request.ident
        )

    def _home_iface(self) -> Interface:
        for iface in self.interfaces.values():
            if iface.network is not None and iface.network.overlaps(self.home_network):
                return iface
        raise RuntimeError(f"{self.name} has no interface on {self.home_network}")

    def _install_capture(self, home_address: IPAddress) -> None:
        """Gratuitous proxy ARP: claim the absent host's address."""
        iface = self._home_iface()
        self.arp.add_proxy(iface, home_address)
        self.arp.announce(iface, home_address)

    # ------------------------------------------------------------------
    # Bulk (pooled) registration — the SoA-backed path
    # ------------------------------------------------------------------
    def register_many(self, pool) -> PoolBlock:
        """Administratively install bindings for a whole host pool.

        ``pool`` is a :class:`~repro.netsim.population.HostPool`.  Its
        ``registered_at`` and ``alive`` columns are adopted by reference
        into one :class:`~repro.mobileip.binding.PoolBlock` — a million
        bindings without a million ``Binding`` objects, dying in the
        pool when they die here — and the whole home-address block is
        captured with a single proxy-ARP range entry.

        Silent by design: no registration packets, no trace entries, no
        gratuitous announces.  Both the pooled and the eagerly
        materialized build modes install registrations this way with
        identical timestamps, which is half of the digest-neutrality
        argument (the other half is that promotion writes no trace).
        """
        block = self.bindings.register_many(
            pool.home_base, pool.size, pool.care_of, pool.registered_at,
            pool.lifetime, pool.alive,
        )
        iface = self._home_iface()
        self.arp.add_proxy_range(iface, pool.home_base, pool.size)
        return block

    def _remove_binding(self, home_address: IPAddress) -> None:
        self.bindings.deregister(home_address)
        iface = self._home_iface()
        self.arp.remove_proxy(iface, home_address)

    # ------------------------------------------------------------------
    # Crash / restart (fault injection)
    # ------------------------------------------------------------------
    def restart(self, flush_bindings: bool = True) -> None:
        """Come back from a crash.

        With ``flush_bindings`` (the realistic default for an agent
        keeping soft state in memory) every binding — and its proxy-ARP
        capture — is lost; absent mobile hosts are unreachable at their
        home addresses until their registration retries get through
        again.  ``flush_bindings=False`` models an agent with stable
        storage: bindings survive, only the outage window is lost.
        All interfaces come back up either way.
        """
        if flush_bindings:
            iface = self._home_iface()
            for binding in list(self.bindings.active(self.now)):
                self.arp.remove_proxy(iface, binding.home_address)
            for base, count in self.arp.proxy_ranges_on(iface):
                self.arp.remove_proxy_range(iface, base, count)
            self.bindings.flush()
            self._last_advisory.clear()
        for iface in self.interfaces.values():
            iface.up = True
        self.restarts += 1

    # ------------------------------------------------------------------
    # Packet capture and In-IE forwarding
    # ------------------------------------------------------------------
    def ip_input(self, iface: Interface, packet: Packet) -> None:
        # Captured-by-proxy-ARP packets arrive addressed to a mobile
        # host's home address; intercept before normal processing.
        if not self.owns_address(packet.dst):
            binding = self.bindings.lookup(packet.dst, self.now)
            if binding is not None:
                if self.promoter is not None:
                    # Aggregate expansion: the destination may be a
                    # pooled flyweight — materialize it before the
                    # tunneled packet needs it on the visited LAN.
                    self.promoter(packet.dst)
                if packet.more_fragments or packet.frag_offset:
                    # A fragment cannot be encapsulated (the tunnel
                    # header describes a whole datagram); reassemble at
                    # the proxy, then tunnel the restored original.
                    whole = self.reassembler.accept(packet, self.now)
                    if whole is None:
                        self.trace.note(
                            self.now, self.name, "fragment-held", packet,
                            detail="awaiting more",
                        )
                        return
                    packet = whole
                self._forward_to_mobile(packet, binding.care_of_address)
                return
        super().ip_input(iface, packet)

    def _local_capture(self, packet: Packet):
        from ..netsim.node import VirtualRoute

        if packet.is_encapsulated:
            return None
        binding = self.bindings.lookup(packet.dst, self.now)
        if binding is None:
            return None
        if self.promoter is not None:
            self.promoter(packet.dst)
        care_of = binding.care_of_address
        return VirtualRoute(
            handler=lambda p: self._forward_to_mobile(p, care_of),
            name="ha-local-capture",
        )

    def _forward_to_mobile(self, packet: Packet, care_of: IPAddress) -> None:
        source = self._preferred_source()
        assert source is not None
        try:
            self.tunnel.send_encapsulated(packet, source, care_of)
        except EncapError as exc:
            # A packet the configured scheme cannot carry (e.g. nesting
            # under minimal encapsulation) dies as a classified drop,
            # never as an exception unwinding the event engine.
            self.encap_failures += 1
            self.trace.note(
                self.now, self.name, "drop", packet,
                detail=f"encap-failed:{exc}",
            )
            return
        self.packets_tunneled += 1
        if self.notify_correspondents and not packet.is_encapsulated:
            self._maybe_send_advisory(packet.src, packet.dst, care_of)

    def _maybe_send_advisory(
        self, correspondent: IPAddress, home: IPAddress, care_of: IPAddress
    ) -> None:
        """§3.2's binding notification, rate-limited per correspondent."""
        if self.home_network.contains(correspondent):
            return  # a local peer should discover the MH itself
        last = self._last_advisory.get(correspondent)
        if last is not None and (self.now - last) < ADVISORY_MIN_INTERVAL:
            return
        self._last_advisory[correspondent] = self.now
        source = self._preferred_source()
        assert source is not None
        advisory = make_icmp_packet(
            source,
            correspondent,
            IcmpMessage(
                IcmpType.MOBILE_CARE_OF_ADVISORY,
                CareOfAdvisory(home, care_of, self.advisory_lifetime),
            ),
        )
        self.advisories_sent += 1
        self.ip_send(advisory)

    # ------------------------------------------------------------------
    # Reverse tunneling (Out-IE, Figure 3)
    # ------------------------------------------------------------------
    def _reverse_inner(self, inner: Packet, outer: Packet) -> None:
        """A mobile host tunneled a packet to us; act on its behalf."""
        if self.owns_address(inner.dst):
            self._local_deliver(inner)
            return
        next_binding = self.bindings.lookup(inner.dst, self.now)
        if next_binding is not None:
            # Mobile-to-mobile: re-tunnel toward the destination MH.
            if self.promoter is not None:
                self.promoter(inner.dst)
            self._forward_to_mobile(inner, next_binding.care_of_address)
            return
        self.packets_reverse_forwarded += 1
        self.trace.note(
            self.now, self.name, "reverse-forward", inner,
            detail=f"on behalf of {inner.src}",
        )
        self.ip_send(inner)
