"""Delivery-failure detection from retransmission signals (§7.1.2).

The paper proposes the missing piece of RFC 826's fourteen-year-old
suggestion:

    "all IP clients (e.g. TCP) could indicate, for every IP packet they
    send and receive, whether the packet is an 'original' packet or a
    retransmission.  If the IP layer sees repeated retransmissions *to*
    a particular address, then this suggests that the currently
    selected delivery method may not be working.  Similarly, if the IP
    layer sees repeated retransmissions *from* a particular address,
    then that suggests that acknowledgements are not getting through."

:class:`RetransmissionDetector` implements exactly that.  It plugs into
:class:`repro.transport.sockets.TransportStack` as an observer; when
either counter for a remote address crosses the threshold it fires the
``on_suspect`` callback (wired to the selection machinery, which
demotes the delivery method) and resets.  Receiving an *original*
packet from the remote is forward progress and clears both counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from ..netsim.addressing import IPAddress
from ..transport.sockets import TransportObserver

__all__ = ["RemoteHealth", "RetransmissionDetector"]

DEFAULT_THRESHOLD = 2


@dataclass
class RemoteHealth:
    """Per-correspondent retransmission counters."""

    retx_to: int = 0        # our own retransmissions toward the remote
    retx_from: int = 0      # retransmissions we received from the remote
    originals_to: int = 0
    originals_from: int = 0
    suspicions_raised: int = 0


class RetransmissionDetector(TransportObserver):
    """Turn the §7.1.2 original/retransmission stream into failure events."""

    def __init__(
        self,
        on_suspect: Callable[[IPAddress, str], None],
        threshold: int = DEFAULT_THRESHOLD,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.on_suspect = on_suspect
        self._health: Dict[IPAddress, RemoteHealth] = {}

    def health(self, remote: IPAddress) -> RemoteHealth:
        key = IPAddress(remote)
        record = self._health.get(key)
        if record is None:
            record = self._health[key] = RemoteHealth()
        return record

    # ------------------------------------------------------------------
    # TransportObserver interface
    # ------------------------------------------------------------------
    def on_send(self, remote: IPAddress, retransmission: bool) -> None:
        record = self.health(remote)
        if retransmission:
            record.retx_to += 1
            if record.retx_to >= self.threshold:
                self._raise(remote, record, "repeated-retransmissions-to")
        else:
            record.originals_to += 1

    def on_receive(self, remote: IPAddress, retransmission: bool) -> None:
        record = self.health(remote)
        if retransmission:
            record.retx_from += 1
            if record.retx_from >= self.threshold:
                self._raise(remote, record, "repeated-retransmissions-from")
        else:
            # An original packet arrived: the current delivery method is
            # working in both directions well enough for forward progress.
            record.originals_from += 1
            record.retx_to = 0
            record.retx_from = 0

    # ------------------------------------------------------------------
    def _raise(self, remote: IPAddress, record: RemoteHealth, reason: str) -> None:
        record.suspicions_raised += 1
        record.retx_to = 0
        record.retx_from = 0
        self.on_suspect(IPAddress(remote), reason)

    def reset(self, remote: IPAddress) -> None:
        """Forget state for a remote (e.g. after a deliberate mode change)."""
        self._health.pop(IPAddress(remote), None)

    def reset_all(self) -> None:
        """Forget every remote's counters.

        Called when the mobile host moves: retransmissions counted on
        the old path say nothing about the new one, and letting them
        stand would immediately demote a freshly probed mode.  Clearing
        in place (rather than replacing the detector) keeps any held
        references — the transport stack's observer list — valid.
        """
        self._health.clear()
