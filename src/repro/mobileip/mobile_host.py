"""The mobile host: self-sufficient Mobile IP per the paper.

    "Our implementation of the protocol emphasizes self-sufficiency for
    mobile hosts.  They connect directly to the Internet and operate
    independently without requiring a foreign agent."

A :class:`MobileHost` is a :class:`~repro.netsim.node.Node` carrying:

* a permanent **home address** that never changes (§2);
* a :class:`~repro.core.decision.MobilityEngine` making the §7.1
  decisions, installed as the transport stack's source selector and
  observer;
* the §7 **route override**: every originated packet passes the
  mobility policy check before the normal routing table; home-address
  packets are dispatched per the engine's chosen
  :class:`~repro.core.modes.OutMode` (the encapsulating modes go
  through the virtual-interface tunnel endpoint, which "encapsulates
  the packet and resubmits it to IP");
* a registration client (UDP 434, retries with backoff) that sends its
  requests from the care-of address — the §6.4 bootstrap case;
* decapsulation of In-IE/In-DE arrivals and direct reception of In-DH
  (its interface keeps the home address configured as a secondary
  while away, so link-layer-direct frames addressed to the home
  address are accepted);
* movement: DHCP-style care-of acquisition when attaching to a visited
  domain, IETF foreign-agent attachment as an alternative, and
  returning home (gratuitous ARP to reclaim the home address).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from ..core.decision import MobilityEngine
from ..core.modes import OutMode
from ..core.policy import MobilityPolicyTable
from ..core.selection import ProbeStrategy
from ..netsim.addressing import IPAddress, Network
from ..netsim.encap import EncapScheme
from ..netsim.node import Node, RouteTarget, VirtualRoute
from ..netsim.packet import Packet
from ..transport.sockets import TransportStack
from .registration import (
    MOBILE_IP_PORT,
    RegistrationReply,
    RegistrationRequest,
    compute_authenticator,
)
from .tunnel import TunnelEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.simulator import Simulator
    from ..netsim.topology import Internet
    from .foreign_agent import ForeignAgent

__all__ = ["MobileHost"]

REGISTRATION_RETRY_INTERVAL = 1.0   # base (first) retry delay
REGISTRATION_RETRY_CAP = 16.0       # backoff ceiling
REGISTRATION_RETRY_JITTER = 0.1     # up to +10% random spread per retry
REGISTRATION_MAX_RETRIES = 4
REREGISTER_AFTER_GIVEUP = 30.0      # keep trying (slowly) after give-up
DEFAULT_REG_LIFETIME = 300.0


class MobileHost(Node):
    """A self-sufficient Mobile IP host."""

    def __init__(
        self,
        name: str,
        simulator: "Simulator",
        home_address: IPAddress,
        home_network: Network,
        home_agent_address: IPAddress,
        strategy: ProbeStrategy = ProbeStrategy.RULE_SEEDED,
        policy: Optional[MobilityPolicyTable] = None,
        scheme: EncapScheme = EncapScheme.IPIP,
        privacy: bool = False,
        reg_lifetime: float = DEFAULT_REG_LIFETIME,
        auto_reregister: bool = True,
        auth_key: Optional[str] = None,
    ):
        """``auto_reregister`` keeps the home-agent binding alive by
        re-registering at 80% of the lifetime, the way a real client
        must (a silent host falls out of the binding table and becomes
        unreachable at its home address)."""
        super().__init__(name, simulator)
        self.home_address = IPAddress(home_address)
        self.home_network = home_network
        self.home_agent_address = IPAddress(home_agent_address)
        self.reg_lifetime = reg_lifetime
        # Shared registration key; when set, every request carries the
        # keyed authenticator the home agent demands (see
        # repro.mobileip.registration).
        self.auth_key = auth_key

        self.engine = MobilityEngine(
            self.home_address,
            clock=lambda: simulator.clock.now,
            strategy=strategy,
            policy=policy,
            privacy=privacy,
        )
        self.engine.care_of_address = lambda: self.care_of
        self.engine.same_segment_test = self._same_segment
        self.engine.at_home_test = lambda: self.at_home
        self.engine.control_address = self.home_agent_address

        self.stack = TransportStack(self)
        self.stack.source_selector = self.engine.select_source
        self.stack.observers.append(self.engine)

        self.tunnel = TunnelEndpoint(self, scheme=scheme, on_inner=self._tunnel_inner)
        self.route_overrides.append(self._mobility_route_override)

        self._reg_socket = self.stack.udp_socket(MOBILE_IP_PORT)
        self._reg_socket.on_receive(self._registration_reply_input)
        self.icmp_hooks.append(self._icmp_hook)

        # Attachment state.
        self.at_home = True
        self.care_of: Optional[IPAddress] = None
        self.registered = False
        self.via_foreign_agent: Optional["ForeignAgent"] = None
        self.current_domain: Optional[str] = None
        self._current_allocation: Optional[Tuple[str, IPAddress]] = None
        self._iface_name = "eth0"

        # Registration client state.
        self._pending_ident: Optional[int] = None
        self._pending_retry = None
        self._pending_retries = 0
        self._giveup_retry = None
        self.registration_failures = 0
        self.on_registered: Optional[Callable[[RegistrationReply], None]] = None
        self.on_registration_failed: Optional[Callable[[str], None]] = None
        # Agent discovery: advertisements heard on the current LAN.
        self.discovered_agents: dict = {}
        self.on_agent_discovered: Optional[Callable] = None
        # Binding keep-alive.
        self.auto_reregister = auto_reregister
        self._refresh_timer = None
        self.registration_attempts = 0
        self.moves = 0
        metrics = simulator.metrics
        metrics.counter("mh.moves", read=lambda: self.moves, node=name)
        metrics.counter("mh.registration_attempts",
                        read=lambda: self.registration_attempts, node=name)
        metrics.counter("mh.registration_failures",
                        read=lambda: self.registration_failures, node=name)
        metrics.counter("mh.engine_decisions",
                        read=lambda: self.engine.decisions_made, node=name)
        metrics.counter("mh.mode_changes",
                        read=lambda: self.engine.cache.total_mode_changes(),
                        node=name)
        metrics.gauge("mh.registered",
                      read=lambda: 1 if self.registered else 0, node=name)

    # ------------------------------------------------------------------
    # Attachment and movement
    # ------------------------------------------------------------------
    def attach_home(self, internet: "Internet", domain_name: str) -> None:
        """Initial placement on the home network with the home address."""
        internet.add_host(domain_name, self, address=self.home_address)
        self._iface_name = self._newest_iface_name()
        self.at_home = True
        self.care_of = None
        self.current_domain = domain_name

    def move_to(
        self,
        internet: "Internet",
        domain_name: str,
        register: bool = True,
        lifetime: Optional[float] = None,
    ) -> IPAddress:
        """Move to a visited domain, acquiring a care-of address by the
        DHCP-style allocator ("having an address assigned automatically
        by DHCP", §2), and register the new location with the home
        agent.  Returns the new care-of address."""
        self._detach_current(internet)
        care_of = internet.add_host(domain_name, self)
        self._iface_name = self._newest_iface_name()
        iface = self.interfaces[self._iface_name]
        # Keep the home address configured so In-DH frames and
        # decapsulated inner packets addressed to it are accepted.
        iface.add_secondary(self.home_address)
        self._current_allocation = (domain_name, care_of)
        self.care_of = care_of
        self.at_home = False
        self.via_foreign_agent = None
        self.current_domain = domain_name
        self.registered = False
        self.moves += 1
        self.engine.on_moved()
        if register:
            self.register_with_home_agent(
                lifetime if lifetime is not None else self.reg_lifetime
            )
        return care_of

    def move_to_foreign_agent(
        self,
        internet: "Internet",
        domain_name: str,
        agent: "ForeignAgent",
        register: bool = True,
        lifetime: Optional[float] = None,
    ) -> None:
        """IETF foreign-agent attachment: no address of our own; the
        FA's address is the care-of address and the FA relays the
        registration and delivers the final hop (§2, §5 In-DH)."""
        self._detach_current(internet)
        domain = internet.domains[domain_name]
        lan = internet.sim.segments[domain.lan_segment_name]
        iface = self.add_interface(f"eth{len(self.interfaces)}", lan)
        iface.add_secondary(self.home_address)
        self._iface_name = iface.name
        self.care_of = agent.care_of_address
        self.at_home = False
        self.via_foreign_agent = agent
        self.current_domain = domain_name
        self.registered = False
        self.moves += 1
        self.engine.on_moved()
        # All traffic leaves at the link layer via the agent.
        self.routes.clear()
        self.routes.add(domain.prefix, iface.name)
        self.routes.add_default(iface.name, agent.advertised_address)
        if register:
            request = self._build_request(
                agent.care_of_address,
                lifetime if lifetime is not None else self.reg_lifetime,
            )
            # The FA relays; arm the reply matcher so the relayed reply
            # is recognized (the FA hands it to our registration input).
            self._pending_ident = request.ident
            self._pending_retries = 0
            self.registration_attempts += 1
            agent.relay_registration_from(self, request)

    def return_home(self, internet: "Internet", home_domain: str) -> None:
        """Come home: deregister, reclaim the home address with
        gratuitous ARP, and resume life as "a normal non-mobile
        Internet host" (§2)."""
        self._detach_current(internet)
        internet.add_host(home_domain, self, address=self.home_address, claim=False)
        self._iface_name = self._newest_iface_name()
        self.at_home = True
        self.care_of = None
        self.via_foreign_agent = None
        self.current_domain = home_domain
        self.moves += 1
        self.engine.on_moved()
        # Reclaim the address from the home agent's proxy ARP.
        iface = self.interfaces[self._iface_name]
        self.arp.announce(iface, self.home_address)
        self._send_deregistration()

    def _detach_current(self, internet: "Internet") -> None:
        for iface_name in list(self.interfaces):
            internet.detach_host(self, iface_name)
            del self.interfaces[iface_name]
        if self._current_allocation is not None:
            domain_name, address = self._current_allocation
            internet.domains[domain_name].allocator.release(address)
            self._current_allocation = None
        self._cancel_pending_registration()
        self._cancel_refresh()

    def _newest_iface_name(self) -> str:
        return sorted(self.interfaces)[-1]

    # ------------------------------------------------------------------
    # Registration client
    # ------------------------------------------------------------------
    def register_with_home_agent(self, lifetime: Optional[float] = None) -> None:
        if self.care_of is None:
            raise RuntimeError("cannot register without a care-of address")
        request = self._build_request(
            self.care_of,
            lifetime if lifetime is not None else self.reg_lifetime,
        )
        self._send_registration(request)

    def _build_request(
        self, care_of: IPAddress, lifetime: float
    ) -> RegistrationRequest:
        ident = self.simulator.next_token()
        auth = (
            compute_authenticator(
                self.auth_key, self.home_address, care_of, lifetime, ident
            )
            if self.auth_key is not None
            else None
        )
        return RegistrationRequest(
            home_address=self.home_address,
            care_of_address=care_of,
            lifetime=lifetime,
            ident=ident,
            auth=auth,
        )

    def _send_registration(self, request: RegistrationRequest) -> None:
        self._cancel_pending_registration()
        self._pending_ident = request.ident
        self._pending_retries = 0
        self.registration_attempts += 1
        self._emit_registration(request)
        self._arm_registration_retry(request)

    def _emit_registration(self, request: RegistrationRequest) -> None:
        # §6.4: registration itself uses the temporary address (Out-DT)
        # — "until it has registered with the home agent the other
        # Mobile IP delivery services are not available."
        self._reg_socket.sendto(
            request,
            request.size,
            self.home_agent_address,
            MOBILE_IP_PORT,
            src_override=self.care_of if not self.at_home else self.home_address,
            is_retransmission=self._pending_retries > 0,
        )

    def _retry_delay(self) -> float:
        """Exponential backoff with jitter for registration retries.

        The first arm (no retries yet) uses the exact base interval and
        draws no randomness — the common, healthy case where the reply
        arrives long before the timer fires must not perturb the seeded
        RNG stream.  Actual retries back off exponentially up to a cap
        and add up to +10% jitter so a fleet of hosts knocked offline by
        the same outage does not re-register in lockstep.
        """
        delay = min(
            REGISTRATION_RETRY_INTERVAL * (2 ** self._pending_retries),
            REGISTRATION_RETRY_CAP,
        )
        if self._pending_retries:
            delay *= 1.0 + REGISTRATION_RETRY_JITTER * self.simulator.rng.random()
        return delay

    def _arm_registration_retry(self, request: RegistrationRequest) -> None:
        def retry() -> None:
            if self._pending_ident != request.ident:
                return
            if self._pending_retries >= REGISTRATION_MAX_RETRIES:
                # Give up on this cycle — but a mobile host away from
                # home cannot simply stop: its binding is expiring (or
                # gone), so it keeps trying on a slow cadence until the
                # home agent answers again.
                self._pending_retry = None
                self._pending_ident = None
                self.registered = False
                self.registration_failures += 1
                if self.on_registration_failed is not None:
                    self.on_registration_failed("registration-timeout")
                self._arm_reregister_after_giveup()
                return
            self._pending_retries += 1
            self.registration_attempts += 1
            self._emit_registration(request)
            self._pending_retry = self.simulator.events.schedule(
                self._retry_delay(), retry, label=f"{self.name}:reg-retry"
            )

        self._pending_retry = self.simulator.events.schedule(
            self._retry_delay(), retry, label=f"{self.name}:reg-retry"
        )

    def _arm_reregister_after_giveup(self) -> None:
        if self.at_home or self.care_of is None or self.via_foreign_agent:
            return

        def reregister() -> None:
            self._giveup_retry = None
            if self.at_home or self.care_of is None or self.via_foreign_agent:
                return
            self.register_with_home_agent(self.reg_lifetime)

        self._giveup_retry = self.simulator.events.schedule(
            REREGISTER_AFTER_GIVEUP, reregister, label=f"{self.name}:reg-giveup-retry"
        )

    def _cancel_pending_registration(self) -> None:
        if self._pending_retry is not None:
            self._pending_retry.cancel()
            self._pending_retry = None
        if self._giveup_retry is not None:
            self._giveup_retry.cancel()
            self._giveup_retry = None
        self._pending_ident = None

    def _registration_reply_input(
        self, data: object, size: int, src_ip: IPAddress, src_port: int
    ) -> None:
        from .registration import AgentAdvertisement

        if isinstance(data, AgentAdvertisement):
            # Agent discovery: a foreign agent announced itself on our
            # current LAN (§2: connection "may be obtained via
            # communication with an IETF 'foreign agent'").
            self.discovered_agents[data.agent_address] = data
            if self.on_agent_discovered is not None:
                self.on_agent_discovered(data)
            return
        if not isinstance(data, RegistrationReply):
            return
        if data.ident != self._pending_ident:
            return  # stale or duplicate reply
        self._cancel_pending_registration()
        if data.accepted and data.lifetime > 0:
            self.registered = True
            if self.auto_reregister:
                self._arm_refresh(data.lifetime)
        if self.on_registered is not None:
            self.on_registered(data)

    def _arm_refresh(self, lifetime: float) -> None:
        """Re-register at 80% of the granted lifetime."""
        self._cancel_refresh()

        def refresh() -> None:
            self._refresh_timer = None
            if self.at_home or self.care_of is None or self.via_foreign_agent:
                return
            self.register_with_home_agent(self.reg_lifetime)

        self._refresh_timer = self.simulator.events.schedule(
            lifetime * 0.8, refresh, label=f"{self.name}:reg-refresh"
        )

    def _cancel_refresh(self) -> None:
        if self._refresh_timer is not None:
            self._refresh_timer.cancel()
            self._refresh_timer = None

    def _send_deregistration(self) -> None:
        request = self._build_request(self.home_address, 0.0)
        self.registered = False
        self._send_registration(request)

    # ------------------------------------------------------------------
    # Agent solicitation
    # ------------------------------------------------------------------
    def solicit_agents(self) -> None:
        """Broadcast an agent solicitation on the current LAN.

        A foreign agent that hears it answers with an advertisement
        (delivered to the registration socket and surfaced through
        ``on_agent_discovered``) — the active half of §2's discovery,
        for a host that does not want to wait for the periodic beacon.
        """
        from ..netsim.addressing import LIMITED_BROADCAST
        from .registration import AgentSolicitation

        sender = self.care_of if self.care_of is not None else self.home_address
        solicitation = AgentSolicitation(sender=sender)
        self._reg_socket.sendto(
            solicitation, solicitation.size, LIMITED_BROADCAST, MOBILE_IP_PORT,
            src_override=sender,
        )

    # ------------------------------------------------------------------
    # DNS temporary-address registration (§3.2)
    # ------------------------------------------------------------------
    def update_dns(
        self,
        name: str,
        dns_server: IPAddress,
        lifetime: float = 60.0,
        withdraw: bool = False,
    ) -> None:
        """Register (or withdraw) the care-of address with the extended
        DNS service (§3.2) — a host "not currently changing location
        frequently" advertises where smart correspondents can reach it.

        The update travels as an ordinary UDP datagram to port 53, so
        the §7.1.1 heuristics naturally send it Out-DT.
        """
        from .dns import DNS_PORT, DNSUpdate

        if not withdraw and self.care_of is None:
            raise RuntimeError("no care-of address to register with DNS")
        update = DNSUpdate(
            name=name,
            ident=self.simulator.next_token(),
            care_of=None if withdraw else self.care_of,
            lifetime=lifetime,
        )
        socket = self.stack.udp_socket()
        socket.on_receive(lambda *args: socket.close())
        socket.sendto(update, update.size, IPAddress(dns_server), DNS_PORT)

    # ------------------------------------------------------------------
    # The §7 route override
    # ------------------------------------------------------------------
    def _mobility_route_override(self, packet: Packet) -> Optional[RouteTarget]:
        if self.at_home or self.care_of is None:
            return None  # at home: completely conventional operation
        if packet.dst.is_multicast or packet.dst.is_broadcast:
            return None  # §6.4: multicast uses the real local interface
        if self.via_foreign_agent is not None:
            return None  # FA mode restricts us to plain sends (see §2)
        if packet.src != self.home_address:
            return None  # Out-DT or infrastructure traffic: normal path
        if packet.dst == self.home_agent_address:
            return None  # registration/control traffic to the HA itself

        mode = self.engine.out_mode_for(packet.dst)
        self.trace.note(
            self.now, self.name, "mode-select", packet, detail=mode.value
        )
        if mode is OutMode.OUT_IE:
            return VirtualRoute(
                handler=lambda p: self.tunnel.send_encapsulated(
                    p, self.care_of, self.home_agent_address
                ),
                name="Out-IE",
            )
        if mode is OutMode.OUT_DE:
            return VirtualRoute(
                handler=lambda p: self.tunnel.send_encapsulated(
                    p, self.care_of, p.dst
                ),
                name="Out-DE",
            )
        # Out-DH: a plain packet.  On the same segment deliver it in one
        # link-layer hop (Row C); otherwise let the normal table route it.
        if self._same_segment(packet.dst):
            return VirtualRoute(
                handler=lambda p: self.link_send_direct(
                    self._iface_name, p, p.dst
                ),
                name="Out-DH-link-direct",
            )
        return None

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def _tunnel_inner(self, inner: Packet, outer: Packet) -> None:
        if outer.src != self.home_agent_address and outer.src == inner.src:
            # In-DE: the correspondent encapsulated this itself, so it
            # is demonstrably mobile-aware (§5).
            self.engine.learn(outer.src, mobile_aware=True)
        if self.owns_address(inner.dst) or (
            inner.dst.is_multicast and inner.dst in self.multicast_groups
        ):
            # The multicast case is §6.4's home-tunnel path: the home
            # network relays a joined group's stream through the tunnel.
            self._local_deliver(inner)
        else:
            self.trace.note(
                self.now, self.name, "drop", inner,
                detail="decapsulated-inner-not-mine",
            )

    def _icmp_hook(self, packet: Packet, message) -> None:
        """Use ICMP errors as an extra knowledge source (extension).

        A protocol-unreachable from a correspondent means it cannot
        decapsulate — Out-DE can be skipped for it from now on instead
        of being rediscovered by retransmission timeouts each time.
        """
        from ..netsim.icmp import IcmpType, UnreachableCode, UnreachableData

        if message.icmp_type is not IcmpType.DEST_UNREACHABLE:
            return
        data = message.data
        if not isinstance(data, UnreachableData):
            return
        if data.code is UnreachableCode.PROTO_UNREACHABLE:
            self.engine.learn(packet.src, decap_capable=False)
            self.engine._on_suspect(packet.src, "icmp-proto-unreachable")

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def _same_segment(self, dst: IPAddress) -> bool:
        for iface in self.interfaces.values():
            if iface.segment is None or not iface.up:
                continue
            if iface.network is not None and iface.network.contains(dst):
                return dst != iface.ip
        return False
