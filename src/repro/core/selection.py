"""Per-correspondent delivery-method selection (§7.1.2).

    "The mobile host keeps a cache of the currently selected delivery
    method associated with each target IP address.  This saves it from
    having to make the decision afresh for every packet and allows it
    to build up a history, for each correspondent host, of which
    communication methods have proven to be successful and which have
    not."

Three probe strategies, exactly the ones the paper weighs.  They differ
only in where a correspondent's record starts on the Out-DH > Out-DE >
Out-IE ladder:

* **CONSERVATIVE_FIRST** — start at Out-IE.
* **AGGRESSIVE_FIRST** — start at Out-DH.
* **RULE_SEEDED** — the paper's proposed resolution: consult the
  address-and-mask :class:`~repro.core.policy.MobilityPolicyTable` to
  decide *per destination* whether to begin optimistically (Out-DH) or
  pessimistically (Out-IE), or to pin Out-IE for privacy/firewall
  reasons.

From there every record moves the same way.  A failure demotes the
current mode and records a verdict against it; a run of successes
tentatively tries the next more aggressive mode without a verdict,
"at each stage being prepared to return to the conservative method if
the more aggressive method fails" [Fox96].  Verdicts age: one expires
``FAILED_MODE_TTL`` seconds after it was recorded, and ``FORGIVE_AFTER``
consecutive successes at one mode clear them all, so any record climbs
back up the ladder once the network has changed.

Failure signals come from the §7.1.2 retransmission detector
(:mod:`repro.core.feedback`); success signals are original packets
received from the correspondent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..netsim.addressing import IPAddress
from .modes import OutMode
from .policy import Disposition, MobilityPolicyTable
from .strategy import ProbeStrategy

__all__ = ["ProbeStrategy", "CorrespondentRecord", "DeliveryMethodCache"]

# The home-address mode ladder, most aggressive first (§7.1.2).
LADDER_AGGRESSIVE_FIRST: List[OutMode] = [
    OutMode.OUT_DH,
    OutMode.OUT_DE,
    OutMode.OUT_IE,
]
DEFAULT_UPGRADE_AFTER = 4   # consecutive successes before a tentative upgrade
FAILED_MODE_TTL = 30.0      # seconds before a failure verdict expires
FORGIVE_AFTER = 8           # consecutive successes that clear every verdict


@dataclass
class CorrespondentRecord:
    """History for one correspondent host."""

    current: OutMode
    pinned: bool = False                 # HOME_ONLY privacy pinning
    failed: Set[OutMode] = field(default_factory=set)
    failed_at: Dict[OutMode, float] = field(default_factory=dict)
    successes_at_current: int = 0
    packets_sent: int = 0
    mode_changes: int = 0
    suspicions: int = 0
    forgiveness: int = 0                 # failed-set clears (aging/forgiving)


class DeliveryMethodCache:
    """The per-correspondent mode cache with probe-strategy logic."""

    def __init__(
        self,
        clock: Callable[[], float],
        strategy: ProbeStrategy = ProbeStrategy.RULE_SEEDED,
        policy: Optional[MobilityPolicyTable] = None,
        upgrade_after: int = DEFAULT_UPGRADE_AFTER,
    ):
        """``clock`` reads the current time, against which failure
        verdicts age; ``upgrade_after`` is the success run before each
        tentative upgrade."""
        if strategy is ProbeStrategy.RULE_SEEDED and policy is None:
            policy = MobilityPolicyTable()
        self.strategy = strategy
        self.policy = policy
        self.upgrade_after = upgrade_after
        self._clock = clock
        self._records: Dict[IPAddress, CorrespondentRecord] = {}

    # ------------------------------------------------------------------
    # Record lifecycle
    # ------------------------------------------------------------------
    def record_for(self, dst: IPAddress) -> CorrespondentRecord:
        dst = IPAddress(dst)
        record = self._records.get(dst)
        if record is None:
            record = self._records[dst] = self._fresh_record(dst)
        return record

    def _fresh_record(self, dst: IPAddress) -> CorrespondentRecord:
        if self.strategy is ProbeStrategy.AGGRESSIVE_FIRST:
            return CorrespondentRecord(current=OutMode.OUT_DH)
        if self.strategy is ProbeStrategy.CONSERVATIVE_FIRST:
            return CorrespondentRecord(current=OutMode.OUT_IE)
        # RULE_SEEDED: the policy table decides the starting point.
        assert self.policy is not None
        disposition = self.policy.lookup(dst)
        if disposition is Disposition.OPTIMISTIC:
            return CorrespondentRecord(current=OutMode.OUT_DH)
        if disposition is Disposition.HOME_ONLY:
            return CorrespondentRecord(current=OutMode.OUT_IE, pinned=True)
        # PESSIMISTIC and NO_MOBILE_IP (the latter is normally handled
        # before the cache, at the home/temporary decision) both start
        # conservative.
        return CorrespondentRecord(current=OutMode.OUT_IE)

    def forget(self, dst: IPAddress) -> None:
        self._records.pop(IPAddress(dst), None)

    def reset_all(self) -> None:
        """Drop every record — called when the mobile host moves, since
        path properties (filters, distances) may all have changed."""
        self._records.clear()

    # ------------------------------------------------------------------
    # The per-packet query
    # ------------------------------------------------------------------
    def mode_for(self, dst: IPAddress) -> OutMode:
        record = self.record_for(dst)
        record.packets_sent += 1
        return record.current

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def on_suspect(self, dst: IPAddress, reason: str = "") -> Optional[OutMode]:
        """The current mode appears to be failing: demote.

        Returns the new mode, or None if already at the most
        conservative (Out-IE is "the only method that can be relied
        upon to work in all situations" — there is nowhere left to go,
        and the failure is presumably not mode-related).
        """
        record = self.record_for(dst)
        self._expire_failed(record)
        record.suspicions += 1
        record.failed.add(record.current)
        record.failed_at[record.current] = self._clock()
        record.successes_at_current = 0
        if record.current is OutMode.OUT_IE:
            return None
        index = LADDER_AGGRESSIVE_FIRST.index(record.current)
        for candidate in LADDER_AGGRESSIVE_FIRST[index + 1:]:
            if candidate not in record.failed:
                self._switch(record, candidate)
                return candidate
        self._switch(record, OutMode.OUT_IE)
        return OutMode.OUT_IE

    def on_progress(self, dst: IPAddress) -> Optional[OutMode]:
        """Forward progress at the current mode.  May tentatively
        upgrade once the success run is long enough.  Returns the new
        mode if an upgrade happened."""
        record = self.record_for(dst)
        self._expire_failed(record)
        record.successes_at_current += 1
        if record.failed and record.successes_at_current >= FORGIVE_AFTER:
            # Sustained success at this mode: the network has changed
            # enough that the old failure verdicts are stale.  Forgive,
            # so the upgrade logic below may re-probe up the ladder.
            record.failed.clear()
            record.failed_at.clear()
            record.forgiveness += 1
        if record.pinned or record.successes_at_current < self.upgrade_after:
            return None
        candidate = self._next_more_aggressive(record)
        if candidate is None:
            return None
        self._switch(record, candidate)
        return candidate

    # ------------------------------------------------------------------
    def _expire_failed(self, record: CorrespondentRecord) -> None:
        """Lazily drop failure verdicts at least ``FAILED_MODE_TTL`` old."""
        if not record.failed_at:
            return
        now = self._clock()
        expired = [
            mode for mode, when in record.failed_at.items()
            if now - when >= FAILED_MODE_TTL
        ]
        for mode in expired:
            record.failed_at.pop(mode, None)
            record.failed.discard(mode)
        if expired:
            record.forgiveness += 1

    def _next_more_aggressive(
        self, record: CorrespondentRecord
    ) -> Optional[OutMode]:
        index = LADDER_AGGRESSIVE_FIRST.index(record.current)
        for candidate in reversed(LADDER_AGGRESSIVE_FIRST[:index]):
            if candidate not in record.failed:
                return candidate
        return None

    def _switch(self, record: CorrespondentRecord, mode: OutMode) -> None:
        record.current = mode
        record.successes_at_current = 0
        record.mode_changes += 1

    # ------------------------------------------------------------------
    @property
    def records(self) -> Dict[IPAddress, CorrespondentRecord]:
        return dict(self._records)

    def total_mode_changes(self) -> int:
        return sum(record.mode_changes for record in self._records.values())
