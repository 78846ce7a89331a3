"""Topology builders: administrative domains joined by a backbone.

Every figure of the paper plays out on the same kind of stage: a home
domain (containing the home agent), a visited domain (where the mobile
host currently sits), zero or more correspondent domains, and "the
Internet" between them.  :class:`Internet` builds that stage:

* a **backbone** of interior routers in a chain, with configurable
  per-link latency — the chain position of each domain determines the
  "distance" between sites, which is what makes Figure 4's
  nearby-correspondent scenario measurably different from Figure 1's
  distant one;
* **domains**, each a LAN behind a :class:`BoundaryRouter` whose
  security posture (source filtering, transit policy) is set per
  domain — the permissiveness knob of the paper;
* static routes everywhere, computed over the backbone graph —
  "no special support from routers, except for normal IP routing" (§3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .addressing import AddressAllocator, IPAddress, Network
from .filters import FilterRule
from .node import Node
from .router import BoundaryRouter, Router
from .simulator import Simulator

__all__ = ["Domain", "Internet"]

INFRA_SUPERNET = Network("172.16.0.0/12")


@dataclass
class Domain:
    """One administrative domain: a LAN behind a boundary router."""

    name: str
    prefix: Network
    boundary: BoundaryRouter
    lan_segment_name: str
    allocator: AddressAllocator
    attach_index: int
    hosts: List[Node] = field(default_factory=list)
    # Flyweight host pool riding this domain's LAN (see
    # repro.netsim.population): ``pool_size`` care-of addresses are
    # reserved as one contiguous block starting at ``pool_base``.
    pool_size: int = 0
    pool_base: Optional[int] = None

    @property
    def gateway_ip(self) -> IPAddress:
        """The boundary router's inside address (the LAN default gateway)."""
        iface = self.boundary.interfaces["inside"]
        assert iface.ip is not None
        return iface.ip


class Internet:
    """Builder and container for a multi-domain topology."""

    def __init__(self, sim: Simulator, backbone_size: int = 1,
                 backbone_latency: float = 0.010, backbone_bandwidth: float = 45e6):
        """Create a backbone chain of ``backbone_size`` routers.

        ``backbone_latency`` is the one-way delay of each backbone link;
        with a chain, the delay between two domains grows linearly with
        how far apart their attachment points are.
        """
        if backbone_size < 1:
            raise ValueError("backbone needs at least one router")
        self.sim = sim
        self.domains: Dict[str, Domain] = {}
        self.backbone: List[Router] = []
        self._infra_subnets = self._subnet_source()
        self._adjacency: Dict[str, List[Tuple[str, str, IPAddress]]] = {}
        # (router -> list of (neighbor, out_iface, neighbor_ip))
        # Host attachment bookkeeping: node name -> (domain name, index
        # into domain.hosts), kept so detach_host is O(1) instead of a
        # scan over every domain's host list.
        self._host_slots: Dict[str, Tuple[str, int]] = {}
        # Attached by repro.netsim.population when the world carries a
        # flyweight host population.
        self.population = None

        previous: Optional[Router] = None
        for index in range(backbone_size):
            router = Router(f"bb{index}", sim)
            self.backbone.append(router)
            self._adjacency[router.name] = []
            if previous is not None:
                self._connect_backbone(
                    previous, router, backbone_latency, backbone_bandwidth
                )
            previous = router

    # ------------------------------------------------------------------
    # Infrastructure plumbing
    # ------------------------------------------------------------------
    def _subnet_source(self):
        """Yield successive /30 subnets for point-to-point infra links."""
        base = INFRA_SUPERNET.prefix
        index = 0
        while True:
            yield Network(IPAddress(base + index * 4), 30)
            index += 1

    def _connect_backbone(
        self, a: Router, b: Router, latency: float, bandwidth: float
    ) -> None:
        subnet = next(self._infra_subnets)
        hosts = list(subnet.hosts())
        ip_a, ip_b = hosts[0], hosts[1]
        seg = self.sim.segment(
            f"p2p-{a.name}-{b.name}", latency=latency, bandwidth=bandwidth
        )
        iface_a = a.add_interface(f"to-{b.name}", seg)
        iface_a.configure(ip_a, subnet)
        iface_b = b.add_interface(f"to-{a.name}", seg)
        iface_b.configure(ip_b, subnet)
        a.routes.add(subnet, iface_a.name)
        b.routes.add(subnet, iface_b.name)
        self._adjacency[a.name].append((b.name, iface_a.name, ip_b))
        self._adjacency[b.name].append((a.name, iface_b.name, ip_a))

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------
    def add_domain(
        self,
        name: str,
        prefix: str | Network,
        attach_at: int = 0,
        source_filtering: bool = True,
        forbid_transit: bool = True,
        lan_latency: float = 0.0005,
        lan_bandwidth: float = 10e6,
        lan_mtu: int = 1500,
        extra_rules: Sequence[FilterRule] = (),
        pool_size: int = 0,
    ) -> Domain:
        """Create a domain LAN behind a boundary router.

        ``attach_at`` picks the backbone router; distance between two
        domains is the chain distance between their attachment points.
        ``source_filtering``/``forbid_transit`` set the §3.1 posture.
        ``pool_size`` reserves that many contiguous care-of addresses
        for a flyweight host pool (see :mod:`repro.netsim.population`);
        the block base lands on ``Domain.pool_base``.
        """
        if name in self.domains:
            raise ValueError(f"duplicate domain {name!r}")
        prefix = Network(prefix) if not isinstance(prefix, Network) else prefix
        for existing in self.domains.values():
            if existing.prefix.overlaps(prefix):
                raise ValueError(
                    f"{prefix} overlaps existing domain {existing.name} "
                    f"({existing.prefix})"
                )
        attach_router = self.backbone[attach_at]

        boundary = BoundaryRouter(
            f"{name}-gw",
            self.sim,
            site=prefix,
            source_filtering=source_filtering,
            forbid_transit=forbid_transit,
            extra_rules=extra_rules,
        )

        # Inside: the domain LAN.
        lan_name = f"{name}-lan"
        lan = self.sim.segment(
            lan_name, latency=lan_latency, bandwidth=lan_bandwidth, mtu=lan_mtu
        )
        allocator = AddressAllocator(prefix, reserve=0)
        inside = boundary.add_interface("inside", lan)
        inside.configure(allocator.allocate(), prefix)
        boundary.mark_inside("inside")
        boundary.routes.add(prefix, "inside")

        # Outside: a p2p link to the attachment backbone router.
        subnet = next(self._infra_subnets)
        hosts = list(subnet.hosts())
        gw_ip, bb_ip = hosts[0], hosts[1]
        uplink = self.sim.segment(f"uplink-{name}", latency=0.002, bandwidth=45e6)
        outside = boundary.add_interface("outside", uplink)
        outside.configure(gw_ip, subnet)
        bb_iface = attach_router.add_interface(f"to-{name}", uplink)
        bb_iface.configure(bb_ip, subnet)
        boundary.routes.add(subnet, "outside")
        boundary.routes.add_default("outside", bb_ip)
        attach_router.routes.add(subnet, bb_iface.name)
        attach_router.routes.add(prefix, bb_iface.name, gateway=gw_ip)

        domain = Domain(
            name=name,
            prefix=prefix,
            boundary=boundary,
            lan_segment_name=lan_name,
            allocator=allocator,
            attach_index=attach_at,
        )
        if pool_size:
            domain.pool_size = pool_size
            domain.pool_base = allocator.reserve_block(pool_size)
        self.domains[name] = domain
        self._install_backbone_routes(domain)
        return domain

    def _install_backbone_routes(self, domain: Domain) -> None:
        """Propagate the new domain's prefix through the backbone chain.

        BFS from the attachment router over the backbone adjacency;
        every other backbone router gets a route pointing one hop back
        toward the attachment point.
        """
        start = self.backbone[domain.attach_index].name
        visited = {start}
        queue: deque[str] = deque([start])
        while queue:
            current = queue.popleft()
            for neighbor, _out_iface, _neighbor_ip in self._adjacency[current]:
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                # The neighbor reaches the domain via `current`.
                for nbr2, out_iface, nbr_ip in self._adjacency[neighbor]:
                    if nbr2 == current:
                        self.sim.nodes[neighbor].routes.add(
                            domain.prefix, out_iface, gateway=nbr_ip
                        )
                        break
                queue.append(neighbor)

    # ------------------------------------------------------------------
    # Hosts
    # ------------------------------------------------------------------
    def add_host(
        self,
        domain_name: str,
        host: Node,
        address: Optional[IPAddress] = None,
        claim: bool = True,
    ) -> IPAddress:
        """Attach an existing node to a domain LAN and configure it.

        Returns the assigned address.  The node gets an ``eth0``
        interface (or ``eth1``, ... if already present), a direct route
        for the LAN prefix, and a default route via the boundary router.
        ``claim=False`` configures a specific ``address`` without
        allocator bookkeeping — used by a mobile host re-attaching with
        an address it permanently owns.
        """
        domain = self.domains[domain_name]
        lan = self.sim.segments[domain.lan_segment_name]
        iface_name = f"eth{len(host.interfaces)}"
        iface = host.add_interface(iface_name, lan)
        if address is not None and not claim:
            ip = IPAddress(address)
        elif address is not None:
            ip = domain.allocator.claim(address)
        else:
            ip = domain.allocator.allocate()
        iface.configure(ip, domain.prefix)
        host.routes.add(domain.prefix, iface_name)
        host.routes.add_default(iface_name, domain.gateway_ip)
        self._host_slots[host.name] = (domain.name, len(domain.hosts))
        domain.hosts.append(host)
        return ip

    def detach_host(self, host: Node, iface_name: str = "eth0") -> None:
        """Unplug a host (it keeps its node identity; routes are cleared).

        O(1): the owning domain and list position were recorded on
        attach, and removal swaps the last host into the vacated slot
        instead of scanning every domain.
        """
        iface = host.interfaces.get(iface_name)
        if iface is None:
            return
        iface.detach()
        iface.deconfigure()
        host.routes.clear()
        host.arp.flush()
        slot = self._host_slots.pop(host.name, None)
        if slot is not None:
            domain_name, index = slot
            hosts = self.domains[domain_name].hosts
            last = hosts.pop()
            if last is not host:
                hosts[index] = last
                self._host_slots[last.name] = (domain_name, index)
