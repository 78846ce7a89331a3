"""Address-choice heuristics (§7.1.1).

Two mechanisms decide whether a conversation uses the permanent home
address (and therefore Mobile IP) or the temporary care-of address
(Out-DT, "no Mobile IP"):

1. **Explicit binding**: "If the application binds its socket to the
   source address of (any of) the machine's physical interface(s),
   then the packets sent through that socket are sent ... using
   Out-DT, honoring the application's desired source address."
   Binding to the permanent home address (or not binding) signals a
   mobility-unaware application and hands the decision to heuristics.

2. **Port heuristics**: "connections to port 80 are likely to be HTTP
   requests and can safely use Out-DT.  Similarly, UDP packets
   addressed to UDP port 53 are likely to be DNS requests and can also
   safely use Out-DT."

3. **Multicast bypass** (§6.4): multicast sends should "join the
   multicast group through its real physical interface on the current
   local network" — i.e. use the temporary address, not the home
   tunnel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from ..netsim.addressing import IPAddress
from ..netsim.packet import IPProto

__all__ = ["AddressChoice", "BindIntent", "PortHeuristics"]


class AddressChoice:
    """What the §7.1.1 decision yields for a conversation."""

    HOME = "home"            # use Mobile IP (one of the home-address modes)
    TEMPORARY = "temporary"  # Out-DT / In-DT, no Mobile IP


class BindIntent:
    """Interpretation of a socket's bound address (§7.1.1).

    ``interpret`` returns the forced choice, or None when the binding
    expresses no preference and heuristics should decide.
    """

    def __init__(self, home_address: IPAddress):
        self.home_address = IPAddress(home_address)

    def interpret(
        self,
        bound: Optional[IPAddress],
        physical_addresses: Set[IPAddress],
    ) -> Optional[str]:
        if bound is None or bound.is_unspecified:
            return None  # unbound: not mobile-aware, use heuristics
        bound = IPAddress(bound)
        if bound == self.home_address:
            return None  # home binding: treated as not mobile-aware (§7.1.1)
        if bound in physical_addresses:
            return AddressChoice.TEMPORARY  # explicit care-of bind: Out-DT
        # Bound to an address we no longer hold (a stale care-of after a
        # move): honor the application's intent but it will fail — the
        # paper's Out-DT disadvantage.
        return AddressChoice.TEMPORARY


@dataclass
class PortHeuristics:
    """Port-number rules for unaware applications (§7.1.1).

    The defaults are the two examples from the paper; applications and
    tests may add more (e.g. a mail-retrieval port, the
    client-originated pattern that §2 cites as the trend these
    heuristics ride on).
    """

    tcp_temporary_ports: Set[int] = field(default_factory=lambda: {80})
    udp_temporary_ports: Set[int] = field(default_factory=lambda: {53})

    def add_rule(self, proto: IPProto, port: int) -> None:
        self._ports_for(proto).add(port)

    def remove_rule(self, proto: IPProto, port: int) -> None:
        self._ports_for(proto).discard(port)

    def _ports_for(self, proto: IPProto) -> Set[int]:
        if proto is IPProto.TCP:
            return self.tcp_temporary_ports
        if proto is IPProto.UDP:
            return self.udp_temporary_ports
        raise ValueError(f"no port heuristics for {proto.name}")

    def choose(
        self,
        destination: IPAddress,
        dst_port: int,
        proto: IPProto,
    ) -> str:
        """The heuristic decision for an unbound/home-bound socket."""
        if destination.is_multicast:
            return AddressChoice.TEMPORARY  # §6.4 multicast bypass
        if proto in (IPProto.TCP, IPProto.UDP) and dst_port in self._ports_for(proto):
            return AddressChoice.TEMPORARY
        return AddressChoice.HOME
