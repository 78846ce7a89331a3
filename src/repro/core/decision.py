"""The mobility engine: everything §7.1 wires together.

One :class:`MobilityEngine` lives on each mobile host and makes the two
decisions of §7.1 for it:

1. **Temporary address or home address?** (§7.1.1) — via explicit
   socket bindings and port heuristics
   (:class:`~repro.core.heuristics.PortHeuristics`).
   This runs at the transport decision point: the engine is installed
   as the stack's source selector, so it fires exactly when "TCP
   decides what address to use as the endpoint identifier".
2. **Which home-address method?** (§7.1.2) — via the per-correspondent
   :class:`~repro.core.selection.DeliveryMethodCache`, seeded by the
   :class:`~repro.core.policy.MobilityPolicyTable` and driven by the
   :class:`~repro.core.feedback.RetransmissionDetector`.

The engine is deliberately mechanism-free: it never touches packets.
The mobile host (:mod:`repro.mobileip.mobile_host`) asks it for
decisions and performs the sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..netsim.addressing import IPAddress
from ..netsim.packet import IPProto
from ..transport.sockets import TransportObserver
from .feedback import RetransmissionDetector
from .heuristics import AddressChoice, PortHeuristics
from .modes import OutMode
from .policy import Disposition, MobilityPolicyTable
from .selection import DeliveryMethodCache, ProbeStrategy

__all__ = ["CorrespondentKnowledge", "MobilityEngine"]


@dataclass
class CorrespondentKnowledge:
    """What the mobile host knows about one correspondent.

    Tri-state fields: None = unknown, True/False = established fact
    (from configuration, from a DNS temporary-address lookup, from a
    received In-DE packet, or from probing).
    """

    decap_capable: Optional[bool] = None
    mobile_aware: Optional[bool] = None


class MobilityEngine(TransportObserver):
    """Decision-making brain of a mobile host."""

    def __init__(
        self,
        home_address: IPAddress,
        clock: Callable[[], float],
        strategy: ProbeStrategy = ProbeStrategy.RULE_SEEDED,
        policy: Optional[MobilityPolicyTable] = None,
        privacy: bool = False,
    ):
        """``clock`` reads the current time, against which the delivery
        cache ages failure verdicts."""
        self.home_address = IPAddress(home_address)
        self.policy = policy if policy is not None else MobilityPolicyTable()
        self.cache = DeliveryMethodCache(clock, strategy, self.policy)
        self.heuristics = PortHeuristics()
        self.detector = RetransmissionDetector(self._on_suspect)
        self.privacy = privacy
        self.knowledge: Dict[IPAddress, CorrespondentKnowledge] = {}
        # Host-provided callables (wired by MobileHost):
        self.care_of_address: Callable[[], Optional[IPAddress]] = lambda: None
        self.same_segment_test: Callable[[IPAddress], bool] = lambda dst: False
        self.at_home_test: Callable[[], bool] = lambda: True
        # The Mobile IP control peer (the home agent): its traffic never
        # uses the mode ladder, so feedback about it is not tracked.
        self.control_address: Optional[IPAddress] = None
        # Observers of mode changes (for logging/benchmarks).
        self.on_mode_change: Optional[Callable[[IPAddress, OutMode, str], None]] = None
        self.decisions_made = 0

    # ------------------------------------------------------------------
    # Knowledge management
    # ------------------------------------------------------------------
    def knowledge_for(self, dst: IPAddress) -> CorrespondentKnowledge:
        dst = IPAddress(dst)
        entry = self.knowledge.get(dst)
        if entry is None:
            entry = self.knowledge[dst] = CorrespondentKnowledge()
        return entry

    def learn(
        self,
        dst: IPAddress,
        decap_capable: Optional[bool] = None,
        mobile_aware: Optional[bool] = None,
    ) -> None:
        entry = self.knowledge_for(dst)
        if decap_capable is not None:
            entry.decap_capable = decap_capable
        if mobile_aware is not None:
            entry.mobile_aware = mobile_aware
            if mobile_aware:
                entry.decap_capable = True  # awareness implies decapsulation

    # ------------------------------------------------------------------
    # Decision 1 (§7.1.1): temporary or home address?
    # ------------------------------------------------------------------
    def select_source(
        self,
        remote_ip: IPAddress,
        remote_port: int,
        proto: IPProto,
        explicit_bind: Optional[IPAddress],
    ) -> IPAddress:
        """TransportStack source-selector hook."""
        self.decisions_made += 1
        care_of = self.care_of_address()
        if self.at_home_test() or care_of is None:
            # At home the host "functions like a normal non-mobile
            # Internet host" (§2): always the home address.
            return self.home_address
        choice = self.choose_address_kind(remote_ip, remote_port, proto, explicit_bind)
        if choice == AddressChoice.TEMPORARY:
            return care_of
        return self.home_address

    def choose_address_kind(
        self,
        remote_ip: IPAddress,
        remote_port: int,
        proto: IPProto,
        explicit_bind: Optional[IPAddress],
    ) -> str:
        # An explicit bind wins over everything — including privacy:
        # binding is a deliberate act, and the Mobile IP control software
        # itself must register from the care-of address ("it has no
        # choice", §6.4).  No bind, or a home bind, defers to heuristics
        # (§7.1.1).  Any other address is Out-DT, even a stale care-of
        # after a move: the application's intent is honored, and it
        # fails — the paper's Out-DT disadvantage.
        if explicit_bind is not None and not explicit_bind.is_unspecified \
                and explicit_bind != self.home_address:
            return AddressChoice.TEMPORARY
        if self.privacy:
            # Privacy users never reveal the care-of address (§4 Out-IE
            # motivation), so every conversation uses the home address.
            return AddressChoice.HOME
        if self.policy.lookup(IPAddress(remote_ip)) is Disposition.NO_MOBILE_IP:
            return AddressChoice.TEMPORARY
        return self.heuristics.choose(IPAddress(remote_ip), remote_port, proto)

    # ------------------------------------------------------------------
    # Decision 2 (§7.1.2): which home-address method?
    # ------------------------------------------------------------------
    def out_mode_for(self, dst: IPAddress) -> OutMode:
        """The mode for one home-address packet toward ``dst``."""
        dst = IPAddress(dst)
        if self.privacy:
            return OutMode.OUT_IE
        if self.same_segment_test(dst):
            # Row C: a one-hop peer needs no routers at all.
            return OutMode.OUT_DH
        return self._constrain(dst, self.cache.mode_for(dst))

    def _constrain(self, dst: IPAddress, mode: OutMode) -> OutMode:
        """Skip modes known-impossible without burning real probes."""
        if mode is OutMode.OUT_DE and self.knowledge_for(dst).decap_capable is False:
            # A demotion from Out-DE always lands on Out-IE.
            self.cache.on_suspect(dst, "known-not-decap-capable")
            return OutMode.OUT_IE
        return mode

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _on_suspect(self, remote: IPAddress, reason: str) -> None:
        new_mode = self.cache.on_suspect(remote, reason)
        if new_mode is not None and self.on_mode_change is not None:
            self.on_mode_change(remote, new_mode, f"demoted: {reason}")

    # TransportObserver interface: feed the detector, and count original
    # receives as forward progress for the upgrade logic.
    def on_send(self, remote: IPAddress, retransmission: bool) -> None:
        if remote == self.control_address:
            return
        self.detector.on_send(remote, retransmission)

    def on_receive(self, remote: IPAddress, retransmission: bool) -> None:
        if remote == self.control_address:
            return
        self.detector.on_receive(remote, retransmission)
        if not retransmission:
            new_mode = self.cache.on_progress(remote)
            if new_mode is not None and self.on_mode_change is not None:
                self.on_mode_change(remote, new_mode, "tentative upgrade")

    def on_moved(self) -> None:
        """The host changed attachment: history no longer describes the
        current paths, so start over (and forget health counters)."""
        self.cache.reset_all()
        self.detector.reset_all()
