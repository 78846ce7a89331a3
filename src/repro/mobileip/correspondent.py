"""Correspondent hosts at the three awareness levels of the paper.

Figure 10's rows correspond to what the correspondent can do:

* **CONVENTIONAL** — "today's correspondent hosts run conventional IP
  networking software that is unaware of mobility issues" (§5).  Sends
  plain packets to the home address (which the Internet routes to the
  home agent: In-IE) and cannot decapsulate.
* **DECAP_CAPABLE** — "some operating systems, such as recent versions
  of Linux, have this capability built-in" (§6.1).  Still sends In-IE,
  but can *receive* Out-DE tunnels.  The paper's caution about
  automatic decapsulation weakening firewall protection is modelled by
  the ``require_known_peer`` knob.
* **MOBILE_AWARE** — keeps a binding cache learned from the home
  agent's ICMP care-of advisory (§3.2) or from a DNS temporary-address
  lookup, and uses it: encapsulates directly to the care-of address
  (In-DE, Figure 5), or — when the care-of address is on its own
  segment — delivers in one link-layer hop (In-DH, §7.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..netsim.addressing import IPAddress
from ..netsim.encap import EncapScheme
from ..netsim.icmp import CareOfAdvisory, IcmpMessage, IcmpType
from ..netsim.node import Node, RouteTarget, VirtualRoute
from ..netsim.packet import Packet
from ..transport.sockets import TransportStack
from .awareness import Awareness
from .binding import BindingTable
from .tunnel import TunnelEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.simulator import Simulator

__all__ = ["Awareness", "CorrespondentHost"]


class CorrespondentHost(Node):
    """A correspondent host with a configurable mobility-awareness level."""

    def __init__(
        self,
        name: str,
        simulator: "Simulator",
        awareness: Awareness = Awareness.CONVENTIONAL,
        scheme: EncapScheme = EncapScheme.IPIP,
        require_known_peer: bool = False,
    ):
        super().__init__(name, simulator)
        self.awareness = awareness
        self.require_known_peer = require_known_peer
        self.stack = TransportStack(self)
        self.bindings = BindingTable()
        self.tunnel: Optional[TunnelEndpoint] = None
        self.decap_refused = 0
        self.direct_tunneled = 0
        self.link_directed = 0
        if awareness is not Awareness.CONVENTIONAL:
            self.tunnel = TunnelEndpoint(self, scheme=scheme, on_inner=self._tunnel_inner)
        if awareness is Awareness.MOBILE_AWARE:
            self.icmp_hooks.append(self._icmp_hook)
            self.route_overrides.append(self._binding_route_override)

    # ------------------------------------------------------------------
    # Receiving tunnels (DECAP_CAPABLE and MOBILE_AWARE)
    # ------------------------------------------------------------------
    def _tunnel_inner(self, inner: Packet, outer: Packet) -> None:
        if self.require_known_peer and outer.src not in self._known_peers():
            # §6.1: "automatic decapsulation should only be done on
            # hosts that use strong authentication" — this host insists
            # on a peer it has a binding for.
            self.decap_refused += 1
            self.trace.note(
                self.now, self.name, "drop", inner,
                detail="decapsulation-refused-unknown-peer",
            )
            return
        if self.owns_address(inner.dst):
            self._local_deliver(inner)
        else:
            self.trace.note(
                self.now, self.name, "drop", inner,
                detail="decapsulated-inner-not-mine",
            )

    def _known_peers(self) -> set[IPAddress]:
        peers = set()
        for binding in self.bindings.active(self.now):
            peers.add(binding.care_of_address)
            peers.add(binding.home_address)
        return peers

    # ------------------------------------------------------------------
    # Learning bindings (MOBILE_AWARE)
    # ------------------------------------------------------------------
    def _icmp_hook(self, packet: Packet, message: IcmpMessage) -> None:
        if message.icmp_type is not IcmpType.MOBILE_CARE_OF_ADVISORY:
            return
        advisory = message.data
        if not isinstance(advisory, CareOfAdvisory):
            return
        self.learn_binding(
            advisory.home_address, advisory.care_of_address, advisory.lifetime
        )

    def learn_binding(
        self, home: IPAddress, care_of: IPAddress, lifetime: float = 60.0
    ) -> None:
        """Install a binding (from ICMP advisory, DNS lookup, or manual
        configuration).  Only mobile-aware hosts act on bindings."""
        self.bindings.register(home, care_of, self.now, lifetime)

    def forget_binding(self, home: IPAddress) -> None:
        self.bindings.deregister(home)

    # ------------------------------------------------------------------
    # Sending with bindings (MOBILE_AWARE): In-DE / In-DH
    # ------------------------------------------------------------------
    def _binding_route_override(self, packet: Packet) -> Optional[RouteTarget]:
        if packet.is_encapsulated:
            return None  # already a tunnel packet: send normally
        binding = self.bindings.lookup(packet.dst, self.now)
        if binding is None:
            return None  # no binding: plain In-IE behaviour
        care_of = binding.care_of_address
        if self._on_my_segment(care_of):
            # §7.2: "If the correspondent host knows that the mobile
            # host is on the same Ethernet segment then it should also
            # reply directly, using the In-DH method."
            iface_name = self._segment_iface(care_of)
            self.link_directed += 1
            return VirtualRoute(
                handler=lambda p: self.link_send_direct(iface_name, p, care_of),
                name="In-DH",
            )
        source = self._preferred_source()
        if source is None or self.tunnel is None:
            return None
        self.direct_tunneled += 1
        return VirtualRoute(
            handler=lambda p: self.tunnel.send_encapsulated(p, source, care_of),
            name="In-DE",
        )

    def _on_my_segment(self, address: IPAddress) -> bool:
        return self._segment_iface(address) is not None

    def _segment_iface(self, address: IPAddress) -> Optional[str]:
        for iface in self.interfaces.values():
            if iface.up and iface.network is not None and iface.network.contains(address):
                if address != iface.ip:
                    return iface.name
        return None
