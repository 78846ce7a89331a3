"""Mobility bindings: home address -> care-of address, with lifetimes.

Used in three places, mirroring the paper:

* the **home agent's** registration table (§2): where to tunnel packets
  captured for each absent mobile host;
* a **mobile-aware correspondent's** binding cache (§3.2, Figure 5):
  learned from the home agent's ICMP advisory or from a DNS
  temporary-address lookup, enabling In-DE;
* a **foreign agent's** visitor list.

Every entry expires: registrations carry lifetimes, and a correspondent
must not tunnel to a care-of address the mobile host may have left.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..netsim.addressing import IPAddress

__all__ = ["Binding", "BindingTable", "PoolBlock"]

DEFAULT_LIFETIME = 300.0


@dataclass(frozen=True)
class Binding:
    """One mobility binding."""

    home_address: IPAddress
    care_of_address: IPAddress
    registered_at: float
    lifetime: float = DEFAULT_LIFETIME

    @property
    def expires_at(self) -> float:
        return self.registered_at + self.lifetime

    def valid_at(self, now: float) -> bool:
        return now < self.expires_at


class PoolBlock:
    """A flyweight slab of bindings for contiguous home addresses.

    Struct-of-arrays storage for pooled hosts: home address ``base + i``
    maps to ``care_of(i)`` with ``registered_at[i]`` and the block's
    one ``lifetime``.  ``registered_at`` and ``alive`` are *shared by
    reference* with the :class:`~repro.netsim.population.HostPool`
    that built them, so a wheel refresh updates pool and binding table
    in one write and a million bindings never allocate a million
    :class:`Binding` objects (one is materialized lazily, on a hit).

    ``alive[i]`` gates every read: a dead slot (deregistered, expired,
    pruned, flushed) stays dead even though its timestamps keep being
    touched by the wheel's bulk slice refresh.
    """

    __slots__ = (
        "base", "count", "care_of", "registered_at", "lifetime",
        "alive", "live", "expiry_floor",
    )

    def __init__(
        self,
        base: int,
        count: int,
        care_of: Callable[[int], int],
        registered_at: "array",
        lifetime: float,
        alive: bytearray,
        now: float,
    ):
        if not len(registered_at) == len(alive) == count:
            raise ValueError("pool block columns must all have length count")
        self.base = int(base)
        self.count = count
        self.care_of = care_of
        self.registered_at = registered_at
        self.lifetime = lifetime
        self.alive = alive
        self.live = count - alive.count(0)
        # A conservative lower bound on the earliest expiry of any live
        # entry (no entry was registered before ``now``).  Refreshes
        # only push expiries later, so a stale floor errs small — the
        # safe direction for the prune guard.  The timer wheel advances
        # it after each full refresh cycle.
        self.expiry_floor = now + lifetime if count else float("inf")

    def index_of(self, value: int) -> int:
        """Array index of a *live* entry for address ``value``, or -1."""
        index = value - self.base
        if 0 <= index < self.count and self.alive[index]:
            return index
        return -1

    def expires_at(self, index: int) -> float:
        return self.registered_at[index] + self.lifetime

    def kill(self, index: int) -> None:
        if self.alive[index]:
            self.alive[index] = 0
            self.live -= 1

    def prune(self, now: float) -> int:
        """Mark every expired live entry dead; returns how many.

        Guarded by :attr:`expiry_floor`: in steady state the wheel
        refreshes every entry before it can expire, the floor stays
        ahead of the clock, and the scan is skipped entirely.
        """
        if now < self.expiry_floor or not self.live:
            return 0
        dead = 0
        registered_at, lifetime, alive = (
            self.registered_at, self.lifetime, self.alive)
        floor = float("inf")
        for index in range(self.count):
            if not alive[index]:
                continue
            expires = registered_at[index] + lifetime
            if now >= expires:
                alive[index] = 0
                dead += 1
            elif expires < floor:
                floor = expires
        self.live -= dead
        self.expiry_floor = floor
        return dead

    def state_bytes(self) -> int:
        """Actual bytes of per-slot state held for this block."""
        return (self.registered_at.itemsize * len(self.registered_at)
                + len(self.alive))


class BindingTable:
    """home address -> current binding, with lazy expiry.

    Two storage tiers: a dict of full :class:`Binding` objects for
    individually registered hosts, and :class:`PoolBlock` slabs for
    pooled host populations.  The dict shadows the blocks — an explicit
    :meth:`register` for an address inside a block supersedes (and
    retires) the flyweight slot.
    """

    def __init__(self) -> None:
        self._bindings: Dict[IPAddress, Binding] = {}
        self._blocks: List[PoolBlock] = []
        self.registrations = 0
        self.deregistrations = 0
        self.expirations = 0

    def register(
        self,
        home_address: IPAddress,
        care_of_address: IPAddress,
        now: float,
        lifetime: float = DEFAULT_LIFETIME,
    ) -> Binding:
        """Install or refresh a binding (a new registration replaces any
        previous care-of address — the mobile host moved)."""
        binding = Binding(
            IPAddress(home_address), IPAddress(care_of_address), now, lifetime
        )
        self._bindings[binding.home_address] = binding
        # An explicit registration supersedes a flyweight slot for the
        # same address (a promoted host re-registering): retire the
        # slot silently — it is a replacement, not a deregistration.
        if self._blocks:
            self._block_discard(binding.home_address.value)
        self.registrations += 1
        return binding

    def register_many(
        self,
        home_base: int,
        count: int,
        care_of: Callable[[int], int],
        registered_at: "array",
        lifetime: float,
        now: float,
        alive: bytearray,
    ) -> PoolBlock:
        """Install ``count`` bindings for home addresses ``home_base +
        i`` as one struct-of-arrays :class:`PoolBlock`.

        No entry was registered before ``now``.  The columns are
        adopted by reference (the caller — a
        :class:`~repro.netsim.population.HostPool` — keeps writing to
        them), so this is O(1) in bindings: no per-host objects, no
        per-host dict entries, no IPAddress interning traffic.
        """
        for existing in self._blocks:
            if existing.base < home_base + count and home_base < (
                existing.base + existing.count
            ):
                raise ValueError(
                    f"pool block [{home_base}, {home_base + count}) overlaps "
                    f"existing block [{existing.base}, "
                    f"{existing.base + existing.count})"
                )
        block = PoolBlock(home_base, count, care_of, registered_at,
                          lifetime, alive, now)
        self._blocks.append(block)
        self.registrations += count
        return block

    @property
    def blocks(self) -> Tuple[PoolBlock, ...]:
        return tuple(self._blocks)

    def _block_entry(self, value: int) -> Optional[Tuple[PoolBlock, int]]:
        for block in self._blocks:
            index = block.index_of(value)
            if index >= 0:
                return block, index
        return None

    def _block_discard(self, value: int) -> None:
        entry = self._block_entry(value)
        if entry is not None:
            block, index = entry
            block.kill(index)

    def _materialize(self, home_address: IPAddress,
                     block: PoolBlock, index: int) -> Binding:
        return Binding(
            home_address,
            IPAddress(block.care_of(index)),
            block.registered_at[index],
            block.lifetime,
        )

    def deregister(self, home_address: IPAddress) -> Optional[Binding]:
        """Remove a binding (lifetime-zero registration: the host is home)."""
        home_address = IPAddress(home_address)
        binding = self._bindings.pop(home_address, None)
        if binding is not None:
            self.deregistrations += 1
            return binding
        entry = self._block_entry(home_address.value) if self._blocks else None
        if entry is not None:
            block, index = entry
            binding = self._materialize(home_address, block, index)
            block.kill(index)
            self.deregistrations += 1
            return binding
        return None

    def lookup(self, home_address: IPAddress, now: float) -> Optional[Binding]:
        """The valid binding for an address, expiring stale entries."""
        home_address = IPAddress(home_address)
        binding = self._bindings.get(home_address)
        if binding is not None:
            if not binding.valid_at(now):
                del self._bindings[binding.home_address]
                self.expirations += 1
                return None
            return binding
        entry = self._block_entry(home_address.value) if self._blocks else None
        if entry is None:
            return None
        block, index = entry
        if now >= block.expires_at(index):
            block.kill(index)
            self.expirations += 1
            return None
        return self._materialize(home_address, block, index)

    def peek(self, home_address: IPAddress) -> Optional[Binding]:
        """The stored binding for an address, valid or not, untouched.

        Unlike :meth:`lookup` this never mutates the table (no lazy
        expiry), which is what an outside observer — the invariant
        monitor — needs: checking a run must not change it.
        """
        home_address = IPAddress(home_address)
        binding = self._bindings.get(home_address)
        if binding is not None:
            return binding
        entry = self._block_entry(home_address.value) if self._blocks else None
        if entry is None:
            return None
        block, index = entry
        return self._materialize(home_address, block, index)

    def snapshot(self, now: float) -> Dict[str, Dict[str, object]]:
        """Non-mutating JSON-clean export of every stored binding.

        Like :meth:`peek`, this never triggers lazy expiry — it is for
        outside observers (the flight recorder's engine-state dump),
        and observing a run must not change it.  Entries past their
        lifetime are included with ``valid: false``.
        """
        return {
            str(home): {
                "care_of": str(binding.care_of_address),
                "registered_at": binding.registered_at,
                "expires_at": binding.expires_at,
                "valid": binding.valid_at(now),
            }
            for home, binding in self._bindings.items()
        }

    def prune(self, now: float) -> int:
        """Evict every expired entry; returns how many were dropped.

        Unlike the lazy expiry in :meth:`lookup`, this sweeps the whole
        table — at pool scale dead bindings must not accumulate waiting
        for a lookup that never comes.  The dict sweep collects first
        and deletes after, so a prune fired from inside an iteration
        over a snapshot (or from the timer wheel, mid-run) is safe.
        The block sweep is guarded by each block's ``expiry_floor`` and
        is a no-op in wheel-refreshed steady state.
        """
        dead = [
            home for home, binding in self._bindings.items()
            if not binding.valid_at(now)
        ]
        for home in dead:
            del self._bindings[home]
        pruned = len(dead)
        for block in self._blocks:
            pruned += block.prune(now)
        self.expirations += pruned
        return pruned

    def flush(self) -> int:
        """Drop every binding without counting deregistrations.

        This is crash semantics, not protocol semantics: a restarting
        home agent that kept its table only in memory comes back empty,
        and the mobile hosts must re-register to be reachable again
        (see :meth:`repro.mobileip.home_agent.HomeAgent.restart`).
        Pooled blocks are lost too, their shared ``alive`` zeroed.
        Returns the number of bindings lost.
        """
        lost = len(self._bindings) + sum(b.live for b in self._blocks)
        for block in self._blocks:
            block.alive[:] = bytes(block.count)
            block.live = 0
        self._bindings.clear()
        self._blocks.clear()
        return lost

    def active(self, now: float) -> List[Binding]:
        """Valid dict-tier bindings (pooled blocks are excluded — at
        pool scale materializing a million Bindings is the wrong
        interface; see :meth:`pool_stats`)."""
        return [
            binding
            for binding in list(self._bindings.values())
            if self.lookup(binding.home_address, now) is not None
        ]

    def pool_stats(self) -> Dict[str, int]:
        """Aggregate block-tier counters for observers."""
        return {
            "blocks": len(self._blocks),
            "pooled": sum(block.count for block in self._blocks),
            "live": sum(block.live for block in self._blocks),
            "state_bytes": sum(block.state_bytes() for block in self._blocks),
        }

    def __len__(self) -> int:
        return len(self._bindings) + sum(b.live for b in self._blocks)

    def __contains__(self, home_address: IPAddress) -> bool:
        home_address = IPAddress(home_address)
        if home_address in self._bindings:
            return True
        return bool(self._blocks) and (
            self._block_entry(home_address.value) is not None
        )
