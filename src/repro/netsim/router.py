"""Routers, including the security-conscious boundary routers of §3.1.

Two classes:

* :class:`Router` — a plain interior router: longest-prefix-match
  forwarding, TTL decrement, ICMP errors.  Per the paper's constraint
  (§3), routers have **no** Mobile IP awareness whatsoever.
* :class:`BoundaryRouter` — a router standing between one
  administrative domain ("inside") and the rest of the Internet.
  It applies a :class:`~repro.netsim.filters.FilterEngine` to packets
  crossing the boundary in either direction.  This is the machine that
  makes Figure 2 happen (and whose checks bi-directional tunneling in
  Figure 3 evades, because "the inner packets are protected from
  scrutiny by routers").

Interfaces of a boundary router are marked inside/outside; a packet is
checked only when it *crosses* (inside->outside = OUTBOUND,
outside->inside = INBOUND).  Traffic between two outside interfaces is
transit and is checked by whatever transit rule is installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .addressing import Network
from .filters import (
    Direction,
    FilterEngine,
    FilterRule,
    Verdict,
    egress_source_filter,
    ingress_spoof_filter,
    transit_traffic_filter,
)
from .icmp import (
    IcmpMessage,
    IcmpType,
    UnreachableCode,
    UnreachableData,
    make_icmp_packet,
    unreachable_for,
)
from .link import Interface
from .node import Node
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["Router", "BoundaryRouter"]


class Router(Node):
    """A conventional IP router."""

    forwarding = True

    # §4: "Current IP routers typically handle packets with options
    # much more slowly than they handle normal unadorned IP packets."
    # Option-bearing packets (loose source routes) take the slow path.
    option_processing_delay = 0.002

    # Sabotage hook for the invariant monitor's own tests: a broken
    # router build that forgets to decrement TTL (set to 0) must be
    # caught by the ttl-decreases invariant.  Never change in real runs.
    ttl_decrement = 1

    def __init__(self, name: str, simulator: "Simulator"):
        super().__init__(name, simulator)
        self.packets_forwarded = 0
        self.send_icmp_errors = True

    # Plain routers accept everything, so :meth:`forward` calls the
    # policy hooks only on a class that overrides one of them.
    _has_policy = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._has_policy = (cls.check_policy is not Router.check_policy
                           or cls.check_egress is not Router.check_egress)

    def forward(self, in_iface: Interface, packet: Packet) -> None:
        # One hop is one instant: read the clock and the trace once.
        sim = self.simulator
        trace = sim.trace
        now = sim.clock._now
        if packet.ttl <= 1:
            trace.note(now, self.name, "drop", packet, detail="ttl-exceeded")
            if self.send_icmp_errors:
                self._send_time_exceeded(packet)
            return
        has_policy = self._has_policy
        if has_policy:
            verdict, reason = self.check_policy(in_iface, packet)
            if verdict is Verdict.DROP:
                trace.note(now, self.name, "drop", packet, detail=reason)
                return
        route = self.routes.lookup(packet.dst)
        if route is None:
            trace.note(now, self.name, "drop", packet, detail="no-route")
            if self.send_icmp_errors:
                self._send_unreachable(packet)
            return
        out_iface = self.interfaces.get(route.interface)
        if out_iface is None:
            trace.note(now, self.name, "drop", packet, detail="bad-route")
            return
        if has_policy:
            verdict, reason = self.check_egress(in_iface, out_iface, packet)
            if verdict is Verdict.DROP:
                trace.note(now, self.name, "drop", packet, detail=reason)
                return
        packet.ttl -= self.ttl_decrement
        self.packets_forwarded += 1
        trace.note(now, self.name, "forward", packet)
        if packet.source_route and self.option_processing_delay > 0:
            # Slow path for option-bearing packets (§4).
            sim.events.schedule(
                self.option_processing_delay, self._transmit_via, packet,
                out_iface, route.gateway, label=f"{self.name}:slow-path",
            )
        else:
            self._transmit_via(packet, out_iface, route.gateway)

    # Policy hooks — plain routers accept everything.
    def check_policy(
        self, in_iface: Interface, packet: Packet
    ) -> tuple[Verdict, str]:
        return Verdict.ACCEPT, ""

    def check_egress(
        self, in_iface: Interface, out_iface: Interface, packet: Packet
    ) -> tuple[Verdict, str]:
        return Verdict.ACCEPT, ""

    def _send_unreachable(self, packet: Packet) -> None:
        src = self._preferred_source()
        if src is None:
            return
        reply = unreachable_for(src, packet, UnreachableCode.HOST_UNREACHABLE)
        if reply is not None:
            self.ip_send(reply)

    def _send_time_exceeded(self, packet: Packet) -> None:
        """ICMP time-exceeded — what traceroute listens for."""
        src = self._preferred_source()
        if src is None or packet.dst.is_multicast or packet.dst.is_broadcast:
            return
        if packet.frag_offset != 0:
            return
        message = IcmpMessage(
            IcmpType.TIME_EXCEEDED,
            UnreachableData(
                UnreachableCode.NET_UNREACHABLE, packet.src, packet.dst
            ),
        )
        self.ip_send(make_icmp_packet(src, packet.src, message))


class BoundaryRouter(Router):
    """A router at the edge of an administrative domain.

    ``site`` is the domain's prefix.  The security posture is
    configurable per the paper's spectrum:

    * ``source_filtering`` — enable the §3.1 spoof/egress checks (the
      common case: "most network administrators, concerned about
      security, will configure boundary routers to drop such packets").
    * ``forbid_transit`` — enforce the no-transit policy of tail
      circuits.
    * ``extra_rules`` — additional firewall rules (see
      :func:`repro.netsim.filters.firewall_allow_only`).
    """

    def __init__(
        self,
        name: str,
        simulator: "Simulator",
        site: Network,
        source_filtering: bool = True,
        forbid_transit: bool = True,
        extra_rules: Sequence[FilterRule] = (),
    ):
        super().__init__(name, simulator)
        self.site = site
        self.source_filtering = source_filtering
        self.forbid_transit = forbid_transit
        self._extra_rules = list(extra_rules)
        self._inside_ifaces: set[str] = set()
        self.engine = FilterEngine(name=f"{name}-boundary")
        self.posture_changes = 0
        self._install_rules()

    def _install_rules(self) -> None:
        """(Re)build the rule list from the current posture knobs.

        Rules are rewritten in place so the engine object — and its
        accumulated per-rule hit counters — survives a mid-run posture
        change (see :meth:`set_posture`).
        """
        rules = []
        if self.source_filtering:
            rules.append(ingress_spoof_filter(self.site))
            rules.append(egress_source_filter(self.site))
        if self.forbid_transit:
            rules.append(transit_traffic_filter(self.site))
        rules.extend(self._extra_rules)
        self.engine.rules[:] = rules

    def set_posture(
        self,
        source_filtering: Optional[bool] = None,
        forbid_transit: Optional[bool] = None,
    ) -> None:
        """Change the security posture mid-run.

        Real sites do this: an administrator tightens egress filtering,
        or a tail circuit starts enforcing its no-transit policy, and a
        visiting mobile host's working Out-DH path dies under it.  The
        fault-injection layer (:mod:`repro.netsim.faults`) drives this
        from scheduled events.  Passing ``None`` leaves a knob as is.
        """
        if source_filtering is not None:
            self.source_filtering = source_filtering
        if forbid_transit is not None:
            self.forbid_transit = forbid_transit
        self.posture_changes += 1
        self._install_rules()

    def mark_inside(self, iface_name: str) -> None:
        """Declare an interface as facing the protected domain."""
        if iface_name not in self.interfaces:
            raise ValueError(f"no interface {iface_name} on {self.name}")
        self._inside_ifaces.add(iface_name)

    def _crossing(
        self, in_iface: Interface, out_iface: Optional[Interface]
    ) -> Optional[Direction]:
        """Direction of boundary crossing, or None when not crossing."""
        inside = self._inside_ifaces
        arriving_inside = in_iface.name in inside
        if out_iface is None:
            # Ingress check happens before the route lookup; classify by
            # the arrival side only.
            return Direction.OUTBOUND if arriving_inside else Direction.INBOUND
        if arriving_inside == (out_iface.name in inside):
            return None  # stays on one side: no boundary crossing
        return Direction.OUTBOUND if arriving_inside else Direction.INBOUND

    def check_policy(
        self, in_iface: Interface, packet: Packet
    ) -> tuple[Verdict, str]:
        direction = self._crossing(in_iface, None)
        if direction is None:
            return Verdict.ACCEPT, ""
        return self.engine.evaluate(packet, direction)

    def check_egress(
        self, in_iface: Interface, out_iface: Interface, packet: Packet
    ) -> tuple[Verdict, str]:
        direction = self._crossing(in_iface, out_iface)
        if direction is None:
            return Verdict.ACCEPT, ""
        return self.engine.evaluate(packet, direction)
