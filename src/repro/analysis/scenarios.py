"""Canonical scenario builders for the paper's figures.

Every figure plays out on a variant of the same stage.  These builders
construct it once, consistently, for tests, examples, and benchmarks:

* ``home`` domain at one end of the backbone, holding the home agent
  (and the mobile host's permanent address 10.1.0.10);
* ``visited`` domain at the far end, where the mobile host goes;
* ``chdom``, the correspondent's domain, whose backbone attachment
  point is the *distance knob* for Figure 4's nearby-correspondent
  experiment (attach it near ``visited`` and the triangle gets bad);
* security posture knobs per domain (§3.1).

``Scenario`` bundles every actor so call sites stay readable.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.policy import MobilityPolicyTable
from ..core.selection import ProbeStrategy
from ..mobileip.correspondent import Awareness, CorrespondentHost
from ..mobileip.dns import DNSServer
from ..mobileip.foreign_agent import ForeignAgent
from ..mobileip.home_agent import HomeAgent
from ..mobileip.mobile_host import MobileHost
from ..netsim.addressing import IPAddress
from ..netsim.encap import EncapScheme
from ..netsim.simulator import Simulator
from ..netsim.topology import Domain, Internet

__all__ = ["Scenario", "build_scenario", "MH_HOME_ADDRESS", "SCENARIO_KNOBS"]

MH_HOME_ADDRESS = IPAddress("10.1.0.10")

HOME_PREFIX = "10.1.0.0/16"
VISITED_PREFIX = "10.2.0.0/16"
CH_PREFIX = "10.3.0.0/16"


@dataclass
class Scenario:
    """One assembled stage: simulator, topology, and actors."""

    sim: Simulator
    net: Internet
    home: Domain
    visited: Domain
    chdom: Optional[Domain]
    ha: HomeAgent
    ha_ip: IPAddress
    mh: MobileHost
    ch: Optional[CorrespondentHost]
    ch_ip: Optional[IPAddress]
    dns: Optional[DNSServer] = None
    dns_ip: Optional[IPAddress] = None
    fa: Optional[ForeignAgent] = None
    # The flyweight host population riding this world, when built with
    # the ``population`` knob (see repro.netsim.population).
    population: Optional[Any] = None

    def settle(self, duration: float = 5.0) -> None:
        """Run the simulator long enough for registrations to finish."""
        self.sim.run(until=self.sim.now + duration)

    def backbone_distance(self, a: str, b: str) -> int:
        return self.net.domain_distance(a, b)


def build_scenario(
    seed: int = 1996,
    backbone_size: int = 5,
    home_attach: int = 0,
    visited_attach: Optional[int] = None,
    ch_attach: int = 2,
    ch_awareness: Optional[Awareness] = Awareness.CONVENTIONAL,
    ch_in_visited_lan: bool = False,
    home_filtering: bool = True,
    visited_filtering: bool = True,
    ch_filtering: bool = False,
    strategy: ProbeStrategy = ProbeStrategy.RULE_SEEDED,
    policy: Optional[MobilityPolicyTable] = None,
    scheme: EncapScheme = EncapScheme.IPIP,
    privacy: bool = False,
    notify_correspondents: bool = False,
    with_dns: bool = False,
    with_foreign_agent: bool = False,
    mobile_starts_away: bool = True,
    backbone_latency: float = 0.010,
    auth_key: Optional[str] = None,
    queue_capacity: Optional[int] = None,
    queue_capacities: Optional[Dict[str, int]] = None,
    link_bandwidths: Optional[Dict[str, float]] = None,
    population: Optional[Dict[str, Any]] = None,
) -> Scenario:
    """Build the standard stage.

    ``ch_awareness=None`` builds no correspondent at all (some
    experiments bring their own).  ``ch_in_visited_lan`` puts the
    correspondent on the mobile host's current segment (Row C).
    ``visited_attach`` defaults to the far end of the backbone.

    The link knobs shape contention (see
    :class:`repro.netsim.link.Segment`): ``queue_capacity`` puts every
    segment on the bounded-queue transmission-line model with that
    buffer depth (``None``, the default, keeps the historical
    no-contention links — digest-neutral); ``queue_capacities`` maps
    segment names to per-segment depths, overriding the global value;
    ``link_bandwidths`` maps segment names to bits/second overrides —
    the throttle that makes the canonical workload actually contend.
    Unknown segment names in either mapping raise ``ValueError``
    (segment names: ``{domain}-lan``, ``uplink-{domain}``,
    ``p2p-bb{i}-bb{j}``).  Applied before the mobile host first moves,
    so registration traffic crosses the shaped links too.

    ``population`` grows a flyweight host population onto the stage
    (see :func:`repro.netsim.population.install_population`): a dict
    with ``hosts`` (required), and optional ``domains``, ``mode``
    (``"pooled"``/``"materialized"``), ``lifetime``, ``wheel_buckets``.
    ``None`` — the default — builds exactly the historical world,
    digest-identical to before the knob existed.
    """
    sim = Simulator(seed=seed)
    net = Internet(sim, backbone_size=backbone_size, backbone_latency=backbone_latency)
    if visited_attach is None:
        visited_attach = backbone_size - 1

    home = net.add_domain(
        "home", HOME_PREFIX, attach_at=home_attach, source_filtering=home_filtering
    )
    # A "permissive" domain disables both §3.1 policies: the egress
    # source check and the transit rule both kill foreign-source
    # packets leaving the site, so they travel together.
    visited = net.add_domain(
        "visited",
        VISITED_PREFIX,
        attach_at=visited_attach,
        source_filtering=visited_filtering,
        forbid_transit=visited_filtering,
    )
    chdom: Optional[Domain] = None
    if ch_awareness is not None and not ch_in_visited_lan:
        chdom = net.add_domain(
            "chdom", CH_PREFIX, attach_at=ch_attach,
            source_filtering=ch_filtering, forbid_transit=ch_filtering,
        )

    ha = HomeAgent(
        "ha",
        sim,
        home_network=home.prefix,
        scheme=scheme,
        notify_correspondents=notify_correspondents,
        auth_key=auth_key,
    )
    ha_ip = net.add_host("home", ha)

    mh = MobileHost(
        "mh",
        sim,
        home_address=MH_HOME_ADDRESS,
        home_network=home.prefix,
        home_agent_address=ha_ip,
        strategy=strategy,
        policy=policy,
        scheme=scheme,
        privacy=privacy,
        auth_key=auth_key,
    )
    mh.attach_home(net, "home")

    ch: Optional[CorrespondentHost] = None
    ch_ip: Optional[IPAddress] = None
    if ch_awareness is not None:
        ch = CorrespondentHost("ch", sim, awareness=ch_awareness, scheme=scheme)
        ch_ip = net.add_host(
            "visited" if ch_in_visited_lan else "chdom", ch
        )

    dns_server: Optional[DNSServer] = None
    dns_ip: Optional[IPAddress] = None
    if with_dns:
        dns_server = DNSServer("dns", sim)
        dns_ip = net.add_host("home", dns_server)
        dns_server.add_record("mh.home.example", MH_HOME_ADDRESS)

    fa: Optional[ForeignAgent] = None
    if with_foreign_agent:
        fa = ForeignAgent("fa", sim, scheme=scheme)
        net.add_host("visited", fa)

    population_layer = None
    if population is not None:
        from ..netsim.population import install_population

        population_layer = install_population(sim, net, population)

    _shape_links(sim, queue_capacity, queue_capacities, link_bandwidths)

    scenario = Scenario(
        sim=sim,
        net=net,
        home=home,
        visited=visited,
        chdom=chdom,
        ha=ha,
        ha_ip=ha_ip,
        mh=mh,
        ch=ch,
        ch_ip=ch_ip,
        dns=dns_server,
        dns_ip=dns_ip,
        fa=fa,
        population=population_layer,
    )
    if mobile_starts_away:
        if with_foreign_agent and fa is not None:
            mh.move_to_foreign_agent(net, "visited", fa)
        else:
            mh.move_to(net, "visited")
        scenario.settle()
    return scenario


def _shape_links(
    sim: Simulator,
    queue_capacity: Optional[int],
    queue_capacities: Optional[Dict[str, int]],
    link_bandwidths: Optional[Dict[str, float]],
) -> None:
    """Apply the per-segment contention knobs to a built topology."""
    for mapping, what in ((queue_capacities, "queue_capacities"),
                          (link_bandwidths, "link_bandwidths")):
        if mapping:
            unknown = sorted(set(mapping) - set(sim.segments))
            if unknown:
                raise ValueError(
                    f"{what} names unknown segment(s) {unknown} "
                    f"(have: {sorted(sim.segments)})")
    if link_bandwidths:
        for name, bandwidth in link_bandwidths.items():
            if bandwidth <= 0:
                raise ValueError(
                    f"link_bandwidths[{name!r}] must be positive, "
                    f"got {bandwidth}")
            sim.segments[name].bandwidth = bandwidth
    if queue_capacity is not None:
        for segment in sim.segments.values():
            segment.queue_capacity = queue_capacity
    if queue_capacities:
        for name, capacity in queue_capacities.items():
            sim.segments[name].set_queue_capacity(capacity)


# The builder's real keyword surface, derived from the signature so it
# cannot drift.  repro.experiment.spec validates against this: an
# ExperimentSpec may only produce kwargs named here.
SCENARIO_KNOBS = frozenset(
    inspect.signature(build_scenario).parameters)
