"""IPv4 addressing primitives for the network simulator.

The simulator models the 1996 Internet of the paper: IPv4 unicast
addresses, CIDR-style network prefixes, and per-network address
allocation.  Addresses are small immutable value objects so they can be
used freely as dictionary keys (routing tables, ARP caches, binding
caches) and compared for equality across the whole code base.

The paper's mechanisms turn entirely on *which* addresses appear in
*which* header fields, so the addressing layer is deliberately strict:
malformed dotted quads and out-of-range prefixes raise ``AddressError``
rather than being silently coerced.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Optional, Union

__all__ = [
    "AddressError",
    "IPAddress",
    "Network",
    "AddressAllocator",
    "MULTICAST_NET",
    "LIMITED_BROADCAST",
    "UNSPECIFIED",
]


class AddressError(ValueError):
    """Raised for malformed addresses, prefixes, or exhausted allocators."""


_DOTTED_QUAD_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def _parse_dotted_quad(text: str) -> int:
    match = _DOTTED_QUAD_RE.match(text)
    if match is None:
        raise AddressError(f"malformed IPv4 address: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise AddressError(f"octet out of range in address: {text!r}")
        value = (value << 8) | octet
    return value


# Bounded intern cache: raw constructor input (str or int) -> instance.
# Routing tables, binding caches and header rewrites rebuild addresses
# from a small working set of dotted quads on every packet, so interning
# turns the per-packet regex parse into a dict hit.  The bound guards
# against pathological workloads (e.g. allocator sweeps over /8 space);
# on overflow the cache is simply cleared — correctness never depends
# on a hit.
_INTERN_CACHE: Dict[Union[str, int], "IPAddress"] = {}
_INTERN_CACHE_MAX = 4096


class IPAddress:
    """An immutable, interned IPv4 address.

    Construct from a dotted quad string or a 32-bit integer::

        >>> IPAddress("10.0.0.1")
        IPAddress('10.0.0.1')
        >>> int(IPAddress("10.0.0.1"))
        167772161

    Instances are value objects: equality, ordering, and hashing follow
    the 32-bit integer value exactly as the original frozen-dataclass
    implementation did.  Construction from a previously seen string or
    int returns a cached instance (the hash and the dotted quad are
    computed once, at construction), which makes dictionary-heavy code —
    routing tables, ARP caches, binding caches — and tracing cheap.
    """

    __slots__ = ("value", "_hash", "_str")

    value: int

    def __new__(cls, address: Union[str, int, "IPAddress"]):
        if type(address) is cls:
            # Copy-construction is a no-op: instances are immutable.
            return address
        try:
            cached = _INTERN_CACHE.get(address)
        except TypeError:
            cached = None  # unhashable input; rejected below
        if cached is not None:
            return cached
        if isinstance(address, IPAddress):
            value = address.value
        elif isinstance(address, str):
            value = _parse_dotted_quad(address)
        elif isinstance(address, int):
            value = address
        else:
            raise AddressError(f"cannot build IPAddress from {type(address).__name__}")
        if not 0 <= value <= 0xFFFFFFFF:
            raise AddressError(f"address out of 32-bit range: {value}")
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(value))
        object.__setattr__(self, "_str", f"{value >> 24}.{(value >> 16) & 0xFF}"
                                         f".{(value >> 8) & 0xFF}.{value & 0xFF}")
        if type(address) in (str, int):
            if len(_INTERN_CACHE) >= _INTERN_CACHE_MAX:
                _INTERN_CACHE.clear()
            _INTERN_CACHE[address] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"IPAddress is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"IPAddress is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPAddress):
            return self.value == other.value
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, IPAddress):
            return self.value != other.value
        return NotImplemented

    def __lt__(self, other: "IPAddress") -> bool:
        if isinstance(other, IPAddress):
            return self.value < other.value
        return NotImplemented

    def __le__(self, other: "IPAddress") -> bool:
        if isinstance(other, IPAddress):
            return self.value <= other.value
        return NotImplemented

    def __gt__(self, other: "IPAddress") -> bool:
        if isinstance(other, IPAddress):
            return self.value > other.value
        return NotImplemented

    def __ge__(self, other: "IPAddress") -> bool:
        if isinstance(other, IPAddress):
            return self.value >= other.value
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (IPAddress, (self.value,))

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        # The dotted quad is built once, at construction: the trace
        # records it on every packet event and reads ``_str`` directly.
        return self._str

    def __repr__(self) -> str:
        return f"IPAddress('{self!s}')"

    @property
    def is_multicast(self) -> bool:
        """True for class-D (224.0.0.0/4) addresses."""
        return (self.value >> 28) == 0xE

    @property
    def is_broadcast(self) -> bool:
        """True for the limited broadcast address 255.255.255.255."""
        return self.value == 0xFFFFFFFF

    @property
    def is_unspecified(self) -> bool:
        """True for 0.0.0.0, used as 'bind to any' in the socket layer."""
        return self.value == 0

    def in_network(self, network: "Network") -> bool:
        """Convenience mirror of ``network.contains(self)``."""
        return network.contains(self)


UNSPECIFIED = IPAddress(0)
LIMITED_BROADCAST = IPAddress(0xFFFFFFFF)


class Network:
    """An immutable CIDR network prefix, e.g. ``Network("10.1.0.0/16")``.

    The host bits of the supplied address must be zero; this catches the
    most common configuration mistakes in topology definitions early.

    Like :class:`IPAddress` this is a ``__slots__`` value class with
    dataclass-style ``(prefix, prefix_len)`` equality, ordering, and
    hashing.  The mask and the directed-broadcast value are integers
    fixed at construction, so the per-packet tests (route lookup, a
    subnet-directed broadcast) are one integer comparison each.
    """

    __slots__ = ("prefix", "prefix_len", "_mask", "_broadcast")

    prefix: int
    prefix_len: int

    def __init__(self, spec: Union[str, "Network"], prefix_len: Optional[int] = None):
        if isinstance(spec, Network):
            prefix, length = spec.prefix, spec.prefix_len
        elif isinstance(spec, str) and "/" in spec:
            address_text, _, length_text = spec.partition("/")
            try:
                length = int(length_text)
            except ValueError:
                raise AddressError(f"malformed prefix length: {spec!r}") from None
            prefix = _parse_dotted_quad(address_text)
        elif prefix_len is not None:
            prefix = int(IPAddress(spec))
            length = prefix_len
        else:
            raise AddressError(f"network spec needs a prefix length: {spec!r}")
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        mask = self._mask_for(length)
        if prefix & ~mask & 0xFFFFFFFF:
            raise AddressError(
                f"host bits set in network spec {IPAddress(prefix)}/{length}"
            )
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "prefix_len", length)
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "_broadcast", prefix | (~mask & 0xFFFFFFFF))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Network is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Network is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Network):
            return (self.prefix, self.prefix_len) == (other.prefix, other.prefix_len)
        return NotImplemented

    def __lt__(self, other: "Network") -> bool:
        if isinstance(other, Network):
            return (self.prefix, self.prefix_len) < (other.prefix, other.prefix_len)
        return NotImplemented

    def __le__(self, other: "Network") -> bool:
        if isinstance(other, Network):
            return (self.prefix, self.prefix_len) <= (other.prefix, other.prefix_len)
        return NotImplemented

    def __gt__(self, other: "Network") -> bool:
        if isinstance(other, Network):
            return (self.prefix, self.prefix_len) > (other.prefix, other.prefix_len)
        return NotImplemented

    def __ge__(self, other: "Network") -> bool:
        if isinstance(other, Network):
            return (self.prefix, self.prefix_len) >= (other.prefix, other.prefix_len)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.prefix, self.prefix_len))

    def __reduce__(self):
        return (Network, (str(self),))

    @staticmethod
    def _mask_for(length: int) -> int:
        return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0

    @property
    def netmask(self) -> IPAddress:
        return IPAddress(self._mask)

    @property
    def network_address(self) -> IPAddress:
        return IPAddress(self.prefix)

    @property
    def broadcast_address(self) -> IPAddress:
        return IPAddress(self._broadcast)

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.prefix_len)

    def contains(self, address: Union[IPAddress, "Network"]) -> bool:
        """True if ``address`` (or the whole sub-``Network``) lies inside."""
        mask = self._mask
        if isinstance(address, Network):
            return (
                address.prefix_len >= self.prefix_len
                and (address.prefix & mask) == self.prefix
            )
        return (address.value & mask) == self.prefix

    def overlaps(self, other: "Network") -> bool:
        """True if the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    def hosts(self) -> Iterator[IPAddress]:
        """Iterate over usable host addresses (skips network & broadcast)."""
        first = self.prefix + 1
        last = self._broadcast - 1
        if self.prefix_len >= 31:  # point-to-point: use all addresses
            first, last = self.prefix, self._broadcast
        for value in range(first, last + 1):
            yield IPAddress(value)

    def __str__(self) -> str:
        return f"{self.network_address}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"Network('{self}')"


MULTICAST_NET = Network("224.0.0.0/4")


class AddressAllocator:
    """Sequential allocator of host addresses within a network.

    Used by topology builders (a friendly network administrator) and by
    the DHCP-style care-of acquisition in :mod:`repro.mobileip`.
    Released addresses are recycled in FIFO order, which models address
    reuse after a visiting host departs.
    """

    def __init__(self, network: Network, reserve: int = 1):
        """``reserve`` low host addresses are skipped (routers, servers)."""
        self.network = network
        first = network.prefix + 1
        last = int(network.broadcast_address) - 1
        if network.prefix_len >= 31:  # point-to-point: use all addresses
            first, last = network.prefix, int(network.broadcast_address)
        # Integer cursor over the usable host range.  Allocation order is
        # identical to the generator this replaced (low to high, skipping
        # claimed addresses), but the cursor can also hand out contiguous
        # *blocks* — million-address reservations for host pools — without
        # materializing a million IPAddress objects.
        self._cursor = first + reserve
        self._last = last
        self._released: list[IPAddress] = []
        self._allocated: set[IPAddress] = set()
        self._blocks: list[tuple[int, int]] = []  # (base, count) ranges

    def _in_block(self, value: int) -> bool:
        return any(base <= value < base + count for base, count in self._blocks)

    def allocate(self) -> IPAddress:
        """Return a fresh (or recycled) address; raises when exhausted."""
        if self._released:
            address = self._released.pop(0)
        else:
            # Skip over addresses that were claim()ed statically or
            # swallowed by a block reservation — the sequential cursor
            # does not know about them.
            value = self._cursor
            while value <= self._last and (
                self._in_block(value) or IPAddress(value) in self._allocated
            ):
                value += 1
            if value > self._last:
                raise AddressError(f"address pool exhausted in {self.network}")
            self._cursor = value + 1
            address = IPAddress(value)
        self._allocated.add(address)
        return address

    def reserve_block(self, count: int) -> int:
        """Reserve ``count`` contiguous addresses; returns the base value.

        The block is returned (and tracked) as a plain integer base, not
        as ``count`` ``IPAddress`` objects: a million-host pool must not
        thrash the intern cache or allocate per-address bookkeeping.
        Subsequent :meth:`allocate`/:meth:`claim` calls skip the block.
        """
        if count <= 0:
            raise AddressError(f"block size must be positive, got {count}")
        base = self._cursor
        moved = True
        while moved:  # slide past anything already taken in the range
            moved = False
            for block_base, block_count in self._blocks:
                if block_base < base + count and base < block_base + block_count:
                    base = block_base + block_count
                    moved = True
            for address in self._allocated:
                if base <= address.value < base + count:
                    base = address.value + 1
                    moved = True
        if base + count - 1 > self._last:
            raise AddressError(
                f"no room for a {count}-address block in {self.network}"
            )
        self._blocks.append((base, count))
        self._cursor = max(self._cursor, base + count)
        return base

    def claim(self, address: IPAddress) -> IPAddress:
        """Mark a specific address as allocated (static assignment)."""
        if not self.network.contains(address):
            raise AddressError(f"{address} is not inside {self.network}")
        if address in self._allocated or self._in_block(address.value):
            raise AddressError(f"{address} already allocated")
        self._allocated.add(address)
        return address

    def release(self, address: IPAddress) -> None:
        """Return an address to the pool for later reuse."""
        if address not in self._allocated:
            raise AddressError(f"{address} was not allocated from this pool")
        self._allocated.discard(address)
        self._released.append(address)

    @property
    def in_use(self) -> frozenset[IPAddress]:
        return frozenset(self._allocated)
