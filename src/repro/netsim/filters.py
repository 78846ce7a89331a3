"""Packet filtering: the security-conscious boundary routers of §3.1.

The paper identifies two router policies that break naive Mobile IP:

1. **Ingress source-address filtering** — a boundary router drops
   packets arriving *from outside* whose source address claims to be
   *inside* the protected network (spoof protection), and, in the
   stricter egress direction, packets *leaving* with a source address
   that does not belong to the site (the "invalid source address"
   check that kills Out-DH from a visited network).
2. **Transit-traffic policy** — tail-circuit networks drop packets with
   source addresses foreign to the site that are not addressed to the
   site either.

Firewalls (§3.1 last paragraph) impose stricter, rule-based policies
and may additionally act as the home agent.  The :class:`FilterEngine`
expresses all of these as an ordered rule list, evaluated per packet
with its arrival direction; routers attach one engine per boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Sequence

from .addressing import IPAddress, Network
from .packet import IPProto, Packet

__all__ = [
    "Direction",
    "Verdict",
    "FilterRule",
    "FilterEngine",
    "ingress_spoof_filter",
    "egress_source_filter",
    "transit_traffic_filter",
]


class Direction(Enum):
    """Which way a packet crosses the boundary this engine guards."""

    INBOUND = "inbound"      # from the outside world into the site
    OUTBOUND = "outbound"    # from the site toward the outside world


class Verdict(Enum):
    ACCEPT = "accept"
    DROP = "drop"


@dataclass
class FilterRule:
    """One ordered rule: a predicate plus a verdict and a reason tag.

    ``reason`` appears verbatim in drop traces, making benchmark
    assertions ("dropped by source-address filter") precise.
    """

    name: str
    predicate: Callable[[Packet, Direction], bool]
    verdict: Verdict
    reason: str = ""

    def matches(self, packet: Packet, direction: Direction) -> bool:
        return self.predicate(packet, direction)


class FilterEngine:
    """Ordered first-match rule evaluation with a default verdict."""

    def __init__(
        self,
        rules: Sequence[FilterRule] = (),
        default: Verdict = Verdict.ACCEPT,
        name: str = "filter",
    ):
        self.rules: List[FilterRule] = list(rules)
        self.default = default
        self.name = name
        self.hits: dict[str, int] = {}

    def evaluate(self, packet: Packet, direction: Direction) -> tuple[Verdict, str]:
        """Return (verdict, reason) for a packet crossing in ``direction``."""
        for rule in self.rules:
            if rule.matches(packet, direction):
                self.hits[rule.name] = self.hits.get(rule.name, 0) + 1
                return rule.verdict, rule.reason or rule.name
        return self.default, "default"


# ----------------------------------------------------------------------
# The three canonical policies of §3.1, as rule constructors.
# ----------------------------------------------------------------------

def ingress_spoof_filter(inside: Network) -> FilterRule:
    """Drop inbound packets claiming an inside source address.

    Figure 2's scenario: "the boundary router will see a packet coming
    from outside the home network, with a source address claiming that
    the packet originates from a machine inside the home network."
    Only the *outer* (visible) header is examined — encapsulated inner
    packets are protected from scrutiny, which is exactly why
    bi-directional tunneling (Figure 3) works.
    """

    def predicate(packet: Packet, direction: Direction) -> bool:
        return direction is Direction.INBOUND and inside.contains(packet.src)

    return FilterRule(
        name=f"ingress-spoof[{inside}]",
        predicate=predicate,
        verdict=Verdict.DROP,
        reason="source-address-filter:inside-source-from-outside",
    )


def egress_source_filter(inside: Network) -> FilterRule:
    """Drop outbound packets whose source address is not the site's.

    This is the check that discards a visiting mobile host's Out-DH
    packets: they leave the visited site with a source address
    "belonging to a foreign network", which "normally indicates some
    inappropriate use of the network" (§3.1).
    """

    def predicate(packet: Packet, direction: Direction) -> bool:
        return direction is Direction.OUTBOUND and not inside.contains(packet.src)

    return FilterRule(
        name=f"egress-source[{inside}]",
        predicate=predicate,
        verdict=Verdict.DROP,
        reason="source-address-filter:foreign-source-leaving-site",
    )


def transit_traffic_filter(inside: Network) -> FilterRule:
    """Drop packets that neither originate from nor are destined to the site.

    "Most end-user networks have a policy forbidding transit traffic"
    (§3.1).  A packet seen at the boundary whose source *and*
    destination are both foreign is transit traffic.
    """

    def predicate(packet: Packet, direction: Direction) -> bool:
        return not inside.contains(packet.src) and not inside.contains(packet.dst)

    return FilterRule(
        name=f"no-transit[{inside}]",
        predicate=predicate,
        verdict=Verdict.DROP,
        reason="transit-traffic-forbidden",
    )


def firewall_allow_only(
    inside: Network,
    allowed_protos: Sequence[IPProto],
    allowed_hosts: Sequence[IPAddress] = (),
) -> List[FilterRule]:
    """A strict firewall: inbound traffic only for listed protocols/hosts.

    Models §3.1's note that "firewall routers usually impose much
    stricter restrictions"; the allowed-hosts list is how a site lets
    its firewall-resident home agent receive tunnel traffic.
    """
    allowed_hosts = [IPAddress(h) for h in allowed_hosts]
    allowed = set(allowed_protos)

    def predicate(packet: Packet, direction: Direction) -> bool:
        if direction is not Direction.INBOUND:
            return False
        if packet.dst in allowed_hosts:
            return False
        return packet.proto not in allowed

    return [
        ingress_spoof_filter(inside),
        FilterRule(
            name=f"firewall-default-deny[{inside}]",
            predicate=predicate,
            verdict=Verdict.DROP,
            reason="firewall-policy",
        ),
    ]
