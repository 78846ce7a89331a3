"""Address-choice heuristics (§7.1.1).

A mobile host decides per conversation whether to use the permanent
home address (and therefore Mobile IP) or the temporary care-of
address (Out-DT, "no Mobile IP").  An explicit socket binding decides
first (see :meth:`repro.core.decision.MobilityEngine.choose_address_kind`);
an unbound or home-bound socket marks a mobility-unaware application,
and these heuristics decide for it:

1. **Port heuristics**: "connections to port 80 are likely to be HTTP
   requests and can safely use Out-DT.  Similarly, UDP packets
   addressed to UDP port 53 are likely to be DNS requests and can also
   safely use Out-DT."

2. **Multicast bypass** (§6.4): multicast sends should "join the
   multicast group through its real physical interface on the current
   local network" — i.e. use the temporary address, not the home
   tunnel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set

from ..netsim.addressing import IPAddress
from ..netsim.packet import IPProto

__all__ = ["AddressChoice", "PortHeuristics"]


class AddressChoice:
    """What the §7.1.1 decision yields for a conversation."""

    HOME = "home"            # use Mobile IP (one of the home-address modes)
    TEMPORARY = "temporary"  # Out-DT / In-DT, no Mobile IP


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
