"""Million-host worlds: flyweight host pools and aggregate expansion.

The ROADMAP's north star is "millions of users", but a full
:class:`~repro.netsim.node.Node` carries interfaces, an ARP cache, a
routing table, a transport stack — kilobytes of state and a private
registration-refresh timer on the engine heap.  Worlds built that way
top out three orders of magnitude short.  The population layer closes
the gap the way large mobility simulations do it: *state aggregation*.

Two tiers of host:

* **full nodes** — anything traffic actually touches keeps the complete
  machinery (unchanged);
* **pooled hosts** — the long tail of hosts that merely *exist* (a home
  address, a care-of address, a registration that must stay fresh) live
  in a :class:`HostPool`: struct-of-arrays storage (`array` module)
  costing 10 bytes per host, with their home-agent bindings held
  in a shared :class:`~repro.mobileip.binding.PoolBlock` rather than a
  million ``Binding`` objects.

Registration refresh moves off the per-host engine heap onto a single
bucketed :class:`TimerWheel` event per pool: one engine event per tick
services thousands of hosts with one C-level slice write.  Wheel ticks
emit no trace entries, send no packets, and draw no randomness, so a
pooled world is **digest-neutral**: its packet trace is byte-identical
to the same world without the pool.

Aggregate nodes expand lazily.  When a traffic program or a fault
targets a pooled host, :meth:`Population.promote` materializes it in
place as a full :class:`~repro.mobileip.mobile_host.MobileHost` with
identical addresses and an identical (shared, administratively
refreshed) binding.  Promotion itself is digest-invisible — building a
node writes no trace — so promoting before any packet flows reproduces
the non-pooled trace exactly; the eager ``"materialized"`` mode pins
that equality in tests by promoting every host at build time through
the very same code path.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .addressing import IPAddress, Network
from .node import Node

if TYPE_CHECKING:  # pragma: no cover
    from ..mobileip.binding import PoolBlock
    from ..mobileip.home_agent import HomeAgent
    from .simulator import Simulator
    from .topology import Domain, Internet

__all__ = [
    "HostPool",
    "TimerWheel",
    "Population",
    "install_population",
    "POPULATION_KNOBS",
    "DEFAULT_POOL_LIFETIME",
    "REFRESH_FRACTION",
    "DEFAULT_WHEEL_BUCKETS",
    "MEGA_HOME_PREFIX",
]

DEFAULT_POOL_LIFETIME = 300.0
# Pooled registrations refresh at the same fraction of the lifetime a
# real client uses (see MobileHost._arm_refresh), so the aggregate
# behaves like the hosts it stands in for.
REFRESH_FRACTION = 0.8
DEFAULT_WHEEL_BUCKETS = 64

# The mega world's address plan: pooled home addresses come from one
# wide home prefix (a /16 holds only 65k hosts), care-of blocks are
# carved per visited domain out of the 12/8 space.  Both are disjoint
# from the canonical 10.x scenario prefixes and the 172.16/12 infra
# supernet.
MEGA_HOME_PREFIX = "11.0.0.0/8"
_MEGA_VISITED_BASE = IPAddress("12.0.0.0").value
_MEGA_VISITED_SPAN = 24  # bits available under 12/8 for carving

POPULATION_KNOBS = frozenset(
    {"hosts", "domains", "mode", "lifetime", "wheel_buckets"})
_POPULATION_MODES = ("pooled", "materialized")


class HostPool:
    """Struct-of-arrays storage for pooled hosts.

    Only ``registered_at[i]`` and the ``alive[i]``/``promoted[i]``
    status bytes are stored per slot — 10 bytes per host.  The first
    two are *shared by reference* with the home agent's
    :class:`~repro.mobileip.binding.PoolBlock`, so a wheel refresh
    updates both in one write and a binding that dies there is dead
    here.  The rest is derived: ``lifetime`` is one float, the home
    address is ``home_base + i``, and care-of address and domain come
    from the segment table, since care-of addresses are contiguous per
    segment and never rewritten per slot (a re-registering promoted
    host lands in the binding table's dict tier, which shadows it).
    """

    __slots__ = (
        "name", "home_base", "size", "lifetime", "built_at",
        "registered_at", "alive", "promoted",
        "domain_names", "segments", "_starts", "refreshes",
    )

    def __init__(self, name: str, home_base: int, size: int,
                 lifetime: float, registered_at: float):
        self.name = name
        self.home_base = int(home_base)
        self.size = size
        self.lifetime = float(lifetime)
        self.built_at = registered_at
        self.registered_at = array("d", [registered_at]) * size
        self.alive = bytearray(b"\x01") * size
        self.promoted = bytearray(size)
        self.domain_names: List[str] = []
        # {domain, start, stop, care_base}, in slot order
        self.segments: List[Dict[str, Any]] = []
        self._starts: List[int] = []  # bisect key over segments
        self.refreshes = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_segment(self, domain_name: str, care_base: int,
                    count: int) -> None:
        """Place the next ``count`` pool slots in a visited domain, with
        contiguous care-of addresses from ``care_base``."""
        start = self.segments[-1]["stop"] if self.segments else 0
        if start + count > self.size:
            raise ValueError("pool segment exceeds pool size")
        self.domain_names.append(domain_name)
        self._starts.append(start)
        self.segments.append({"domain": domain_name, "start": start,
                              "stop": start + count, "care_base": care_base})

    # ------------------------------------------------------------------
    # Wheel service
    # ------------------------------------------------------------------
    def refresh_slice(self, lo: int, hi: int, now: float) -> int:
        """Re-stamp registrations for slots ``[lo, hi)``; returns the
        number of live registrations refreshed.

        One C-level slice assignment covers the whole bucket; dead
        slots get a meaningless timestamp too, but every read is gated
        on ``alive`` so they stay dead.
        """
        if lo >= hi:
            return 0
        refreshed = (hi - lo) - self.alive.count(0, lo, hi)
        if refreshed:
            self.registered_at[lo:hi] = array("d", [now]) * (hi - lo)
            self.refreshes += refreshed
        return refreshed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live(self) -> int:
        return self.size - self.alive.count(0)

    @property
    def promoted_count(self) -> int:
        return self.size - self.promoted.count(0)

    def host_name(self, index: int) -> str:
        return f"{self.name}-h{index}"

    def home_of(self, index: int) -> int:
        return self.home_base + index

    def care_of(self, index: int) -> int:
        segment = self.segments[bisect_right(self._starts, index) - 1]
        return segment["care_base"] + index - segment["start"]

    def domain_of(self, index: int) -> str:
        return self.domain_names[bisect_right(self._starts, index) - 1]

    def index_of_name(self, name: str) -> Optional[int]:
        prefix = f"{self.name}-h"
        if not name.startswith(prefix):
            return None
        try:
            index = int(name[len(prefix):])
        except ValueError:
            return None
        return index if 0 <= index < self.size else None

    def index_of_address(self, address: IPAddress) -> Optional[int]:
        index = int(address) - self.home_base
        return index if 0 <= index < self.size else None

    def state_bytes(self) -> int:
        """Bytes of per-slot state held for the whole pool."""
        return (self.registered_at.itemsize * len(self.registered_at)
                + len(self.alive) + len(self.promoted))


class TimerWheel:
    """A bucketed refresh wheel: one pending engine event per pool.

    The pool's slots are split into ``buckets`` contiguous slices; the
    wheel keeps exactly one event on the engine heap and services one
    bucket per tick, completing a full rotation every ``period``
    simulated seconds (80% of the pool lifetime, like a real client's
    refresh timer).  A tick re-stamps its bucket's registrations,
    prunes the binding table (a guarded no-op in steady state), and —
    on completing a rotation — advances the binding block's
    conservative expiry floor.

    Ticks touch arrays only: no trace entries, no packets, no RNG.
    They are digest-invisible by construction.
    """

    def __init__(self, sim: "Simulator", pool: HostPool,
                 block: "PoolBlock", buckets: int = DEFAULT_WHEEL_BUCKETS):
        if buckets < 1:
            raise ValueError("timer wheel needs at least one bucket")
        self.sim = sim
        self.pool = pool
        self.block = block
        self.buckets = min(buckets, max(1, pool.size))
        self.period = REFRESH_FRACTION * pool.lifetime
        self.tick_interval = self.period / self.buckets
        self._stride = math.ceil(pool.size / self.buckets) if pool.size else 0
        self._cursor = 0
        self._cycle_start: Optional[float] = None
        self.ticks = 0
        self.last_serviced = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.events.schedule(
            self.tick_interval, self._tick, label=f"{self.pool.name}-wheel")

    def _tick(self) -> None:
        now = self.sim.now
        bucket = self._cursor
        if bucket == 0:
            if self._cycle_start is not None:
                # Every live entry was re-stamped during the completed
                # rotation, so nothing can expire before the rotation's
                # start plus the lifetime.
                self.block.expiry_floor = (
                    self._cycle_start + self.block.lifetime)
            self._cycle_start = now
        lo = bucket * self._stride
        hi = min(lo + self._stride, self.pool.size)
        self.last_serviced = self.pool.refresh_slice(lo, hi, now)
        self.ticks += 1
        self._cursor = (bucket + 1) % self.buckets
        self.sim.events.schedule(
            self.tick_interval, self._tick, label=f"{self.pool.name}-wheel")

    @property
    def depth(self) -> int:
        """Live registrations serviced per full rotation bucket."""
        return math.ceil(self.pool.live / self.buckets) if self.buckets else 0


class Population:
    """A world's pooled-host layer: pool, wheel, and promotion.

    Built by :func:`install_population`; reachable from the simulator
    (``sim.population``) and the topology (``net.population``) so the
    runner, the fault injector, and the engine sampler can find it.
    """

    def __init__(
        self,
        sim: "Simulator",
        net: "Internet",
        pool: HostPool,
        ha: "HomeAgent",
        ha_ip: IPAddress,
        home_domain: "Domain",
        block: "PoolBlock",
        wheel: TimerWheel,
        mode: str,
    ):
        self.sim = sim
        self.net = net
        self.pool = pool
        self.ha = ha
        self.ha_ip = ha_ip
        self.home_domain = home_domain
        self.block = block
        self.wheel = wheel
        self.mode = mode
        self.promotions = 0
        sim.population = self
        net.population = self
        ha.promoter = self.ensure_promoted
        metrics = sim.metrics
        metrics.gauge("population.hosts", read=lambda: self.pool.size)
        metrics.gauge(
            "population.flyweight",
            read=lambda: self.pool.size - self.pool.promoted_count)
        metrics.counter("population.promotions", read=lambda: self.promotions)
        metrics.counter("population.refreshes",
                        read=lambda: self.pool.refreshes)
        metrics.gauge("population.wheel_depth", read=lambda: self.wheel.depth)
        metrics.gauge("population.state_bytes",
                      read=lambda: self.state_bytes())

    # ------------------------------------------------------------------
    # Aggregate expansion
    # ------------------------------------------------------------------
    def promote(self, index: int) -> Node:
        """Materialize pool slot ``index`` as a full mobile host.

        Idempotent.  The promoted host reproduces exactly the state a
        :meth:`~repro.mobileip.mobile_host.MobileHost.move_to` call
        would have left: attached on its visited LAN with its care-of
        address, home address as a secondary, registered
        administratively (the shared pool binding keeps serving it, and
        the wheel keeps it fresh).  No trace entries, packets, or RNG —
        promotion is digest-invisible, so promoting before a packet
        flows reproduces the non-pooled trace byte for byte.
        """
        pool = self.pool
        if not 0 <= index < pool.size:
            raise IndexError(f"pool index {index} out of range 0..{pool.size - 1}")
        name = pool.host_name(index)
        if pool.promoted[index]:
            return self.sim.nodes[name]
        from ..mobileip.mobile_host import MobileHost

        domain_name = pool.domain_of(index)
        home_address = IPAddress(pool.home_of(index))
        care_of = IPAddress(pool.care_of(index))
        host = MobileHost(
            name,
            self.sim,
            home_address=home_address,
            home_network=self.home_domain.prefix,
            home_agent_address=self.ha_ip,
            reg_lifetime=pool.lifetime,
            auto_reregister=False,
        )
        self.net.add_host(domain_name, host, address=care_of, claim=False)
        iface = host.interfaces["eth0"]
        iface.add_secondary(home_address)
        host.at_home = False
        host.care_of = care_of
        host.current_domain = domain_name
        host.registered = bool(pool.alive[index])
        pool.promoted[index] = 1
        self.promotions += 1
        return host

    def promote_name(self, name: str) -> Optional[Node]:
        """Promote (or fetch) the pooled host called ``name``; ``None``
        if the name does not belong to this pool."""
        index = self.pool.index_of_name(name)
        return None if index is None else self.promote(index)

    def promote_address(self, address: IPAddress) -> Optional[Node]:
        index = self.pool.index_of_address(address)
        return None if index is None else self.promote(index)

    def ensure_promoted(self, address: IPAddress) -> None:
        """Home-agent hook: a captured packet is about to be tunneled
        to ``address`` — make sure the destination machine exists."""
        index = self.pool.index_of_address(address)
        if index is not None and not self.pool.promoted[index]:
            self.promote(index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state_bytes(self) -> int:
        """Pool-layer state bytes (the binding block adds none)."""
        return self.pool.state_bytes()

    def stats(self) -> Dict[str, Any]:
        pool = self.pool
        return {
            "mode": self.mode,
            "hosts": pool.size,
            "live": pool.live,
            "promoted": pool.promoted_count,
            "promotions": self.promotions,
            "refreshes": pool.refreshes,
            "domains": len(pool.domain_names),
            "wheel": {
                "buckets": self.wheel.buckets,
                "tick_interval": self.wheel.tick_interval,
                "period": self.wheel.period,
                "ticks": self.wheel.ticks,
                "depth": self.wheel.depth,
                "last_serviced": self.wheel.last_serviced,
            },
            "state_bytes": self.state_bytes(),
            "bindings_live": self.block.live,
        }


def validate_population(config: Dict[str, Any]) -> None:
    """Validate a ``population`` knob dict; raises ``ValueError``."""
    if not isinstance(config, dict):
        raise ValueError(f"population must be an object, got {config!r}")
    unknown = set(config) - POPULATION_KNOBS
    if unknown:
        raise ValueError(
            f"population has unknown fields {sorted(unknown)} "
            f"(valid: {sorted(POPULATION_KNOBS)})")
    hosts = config.get("hosts")
    if not isinstance(hosts, int) or isinstance(hosts, bool) or hosts < 1:
        raise ValueError(
            f"population needs a positive int 'hosts', got {hosts!r}")
    domains = config.get("domains")
    if domains is not None and (
        not isinstance(domains, int) or isinstance(domains, bool)
        or domains < 1
    ):
        raise ValueError(
            f"population domains must be a positive int, got {domains!r}")
    mode = config.get("mode", "pooled")
    if mode not in _POPULATION_MODES:
        raise ValueError(
            f"population mode must be one of {_POPULATION_MODES}, "
            f"got {mode!r}")
    lifetime = config.get("lifetime", DEFAULT_POOL_LIFETIME)
    if not isinstance(lifetime, (int, float)) or isinstance(lifetime, bool) \
            or lifetime <= 0:
        raise ValueError(
            f"population lifetime must be > 0, got {lifetime!r}")
    buckets = config.get("wheel_buckets", DEFAULT_WHEEL_BUCKETS)
    if not isinstance(buckets, int) or isinstance(buckets, bool) \
            or buckets < 1:
        raise ValueError(
            f"population wheel_buckets must be a positive int, "
            f"got {buckets!r}")


def _default_domains(hosts: int) -> int:
    # Keep each visited domain comfortably inside a /16 LAN.
    return max(1, math.ceil(hosts / 60000))


def install_population(
    sim: "Simulator", net: "Internet", config: Dict[str, Any]
) -> Population:
    """Grow a hierarchical pooled population onto a built topology.

    Adds one wide ``mega-home`` domain holding a dedicated home agent,
    ``domains`` visited domains attached round-robin along the
    backbone, and one :class:`HostPool` whose hosts are spread across
    them.  Every pooled host is registered with the home agent
    administratively (silently — no registration packets, identical
    timestamps), the home block is captured by one proxy-ARP range
    entry, and a :class:`TimerWheel` keeps the registrations fresh.

    ``mode="materialized"`` then promotes every host eagerly through
    the same code path lazy promotion uses — the construction that
    makes pooled-vs-materialized digest equality hold by design.
    """
    validate_population(config)
    hosts = config["hosts"]
    domains = config.get("domains") or _default_domains(hosts)
    mode = config.get("mode", "pooled")
    lifetime = float(config.get("lifetime", DEFAULT_POOL_LIFETIME))
    buckets = config.get("wheel_buckets", DEFAULT_WHEEL_BUCKETS)

    per_domain = math.ceil(hosts / domains)
    bits = max(3, (per_domain + 16).bit_length())
    if bits > _MEGA_VISITED_SPAN or domains * (1 << bits) > (
        1 << _MEGA_VISITED_SPAN
    ):
        raise ValueError(
            f"population of {hosts} hosts across {domains} domains does "
            f"not fit the 12/8 visited space; use more domains")
    plen = 32 - bits

    from ..mobileip.home_agent import HomeAgent

    backbone = len(net.backbone)
    home_domain = net.add_domain("mega-home", MEGA_HOME_PREFIX, attach_at=0)
    ha = HomeAgent(
        "mega-ha", sim,
        home_network=home_domain.prefix,
        max_bindings=hosts + 16,
    )
    ha_ip = net.add_host("mega-home", ha)
    home_base = home_domain.allocator.reserve_block(hosts)

    now = sim.now
    pool = HostPool("mega", home_base, hosts,
                    lifetime=lifetime, registered_at=now)
    start = 0
    for d in range(domains):
        count = min(per_domain, hosts - start)
        if count <= 0:
            break
        prefix = Network(IPAddress(_MEGA_VISITED_BASE + (d << bits)), plen)
        domain = net.add_domain(
            f"mega-v{d}", prefix,
            attach_at=d % backbone,
            pool_size=count,
        )
        assert domain.pool_base is not None
        pool.add_segment(domain.name, domain.pool_base, count)
        start += count

    block = ha.register_many(pool)
    wheel = TimerWheel(sim, pool, block, buckets=buckets)
    wheel.start()
    population = Population(
        sim, net, pool, ha, ha_ip, home_domain, block, wheel, mode)
    if mode == "materialized":
        for index in range(hosts):
            population.promote(index)
    return population
