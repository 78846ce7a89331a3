"""IP routing tables with longest-prefix matching.

Routers and hosts both own a :class:`RoutingTable`.  The table is
ordinary and static — the paper explicitly assumes "no special support
from routers, except for normal IP routing" (§3) — so there is no
routing protocol here; topology builders install routes directly, the
way a 1996 network administrator would have.

The mobility framework of the paper does **not** modify this table.
Instead (§7) it *overrides the route lookup routine*: a mobility policy
table is consulted before the normal table.  That hook lives on
:class:`repro.netsim.node.Node` as ``route_overrides``; this module is
only the conventional layer underneath it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from .addressing import IPAddress, Network

__all__ = ["Route", "RoutingTable", "RoutingError"]


class RoutingError(Exception):
    """Raised when no route exists for a destination."""


@dataclass(frozen=True)
class Route:
    """One forwarding entry.

    ``gateway`` is None for directly-attached prefixes (deliver by ARP
    on the segment); otherwise the packet is forwarded to the gateway's
    IP on ``interface``.  Lower ``metric`` wins among equal-length
    prefixes.
    """

    prefix: Network
    interface: str
    gateway: Optional[IPAddress] = None
    metric: int = 0

    def __str__(self) -> str:
        via = f"via {self.gateway}" if self.gateway else "direct"
        return f"{self.prefix} dev {self.interface} {via} metric {self.metric}"


def _lookup_rank(route: Route) -> tuple:
    return (-route.prefix.prefix_len, route.metric)


class RoutingTable:
    """A longest-prefix-match routing table.

    The table is kept in lookup order: longest prefix first, then
    lowest metric, then the order routes were added.  :meth:`lookup`
    therefore returns the first route whose prefix contains the
    destination, with one mask test per route and no ranking.
    """

    def __init__(self, routes: Iterable[Route] = ()):
        self._routes: List[Route] = []
        for route in routes:
            self._insert(route)

    def _insert(self, route: Route) -> None:
        # After every route that ranks the same or better, so among
        # equal routes the first added stays first.
        key = _lookup_rank(route)
        routes = self._routes
        index = len(routes)
        while index and _lookup_rank(routes[index - 1]) > key:
            index -= 1
        routes.insert(index, route)

    def add(
        self,
        prefix: Network,
        interface: str,
        gateway: Optional[IPAddress] = None,
        metric: int = 0,
    ) -> Route:
        route = Route(Network(prefix) if not isinstance(prefix, Network) else prefix,
                      interface, gateway, metric)
        self._insert(route)
        return route

    def add_default(self, interface: str, gateway: IPAddress) -> Route:
        return self.add(Network("0.0.0.0/0"), interface, gateway)

    def remove_prefix(self, prefix: Network) -> int:
        """Remove all routes for an exact prefix; returns removal count."""
        before = len(self._routes)
        self._routes = [r for r in self._routes if r.prefix != prefix]
        return before - len(self._routes)

    def clear(self) -> None:
        self._routes.clear()

    def lookup(self, destination: IPAddress) -> Optional[Route]:
        """Longest-prefix match; ties broken by lowest metric, then by
        the route added first."""
        value = destination.value
        for route in self._routes:
            prefix = route.prefix
            if value & prefix._mask == prefix.prefix:
                return route
        return None

    def lookup_or_raise(self, destination: IPAddress) -> Route:
        route = self.lookup(destination)
        if route is None:
            raise RoutingError(f"no route to {destination}")
        return route

    @property
    def routes(self) -> List[Route]:
        """Every route, in lookup order."""
        return list(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def __str__(self) -> str:
        return "\n".join(str(route) for route in self._routes) or "(empty table)"
