"""The DNS extension of §3.2: temporary-address records.

    "The second is an extension to the Domain Name Service, similar to
    the current MX records which provide alternative addresses for mail
    delivery.  A mobile host that is away from home, but not currently
    changing location frequently, could register its care-of address
    with the extended DNS service.  When a smart correspondent looks up
    a host name and sees that it has a temporary address record in
    addition to the normal permanent address record, it then knows that
    it has the option to send packets directly to that temporary
    address."

:class:`DNSServer` is an in-simulator name server holding conventional
A records plus "TMP" records (the MX-like extension).  Mobile hosts
register/withdraw their care-of address; correspondents query over UDP
port 53.  A mobile-aware correspondent that sees a TMP record installs
a binding and upgrades to In-DE; a conventional resolver simply ignores
the extra record — the backward-compatibility property the paper's
design requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..netsim.addressing import IPAddress
from ..netsim.node import Node
from ..transport.sockets import TransportStack, UDPSocket

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.simulator import Simulator

__all__ = [
    "DNS_PORT",
    "DNSQuery",
    "DNSAnswer",
    "DNSUpdate",
    "DNSUpdateAck",
    "DNSServer",
    "Resolver",
]

DNS_PORT = 53
QUERY_SIZE = 32
ANSWER_SIZE = 48
UPDATE_SIZE = 40


@dataclass(frozen=True)
class DNSQuery:
    name: str
    ident: int
    want_tmp: bool = True   # smart resolvers ask for temporary records too

    @property
    def size(self) -> int:
        return QUERY_SIZE + len(self.name)


@dataclass(frozen=True)
class DNSAnswer:
    name: str
    ident: int
    address: Optional[IPAddress]          # the permanent A record
    temporary: Optional[IPAddress] = None  # the §3.2 TMP record
    tmp_lifetime: float = 60.0

    @property
    def size(self) -> int:
        return ANSWER_SIZE + len(self.name)


@dataclass(frozen=True)
class DNSUpdate:
    """A mobile host registering/withdrawing its TMP record remotely.

    §3.2: "a mobile host that is away from home, but not currently
    changing location frequently, could register its care-of address
    with the extended DNS service."  ``care_of=None`` withdraws.
    A real deployment would authenticate this (like RFC 2136 dynamic
    update); the simulator has no adversaries.
    """

    name: str
    ident: int
    care_of: Optional[IPAddress] = None
    lifetime: float = 60.0

    @property
    def size(self) -> int:
        return UPDATE_SIZE + len(self.name)


@dataclass(frozen=True)
class DNSUpdateAck:
    ident: int
    ok: bool

    @property
    def size(self) -> int:
        return 12


@dataclass
class _ZoneEntry:
    address: IPAddress
    temporary: Optional[IPAddress] = None
    tmp_registered_at: float = 0.0
    tmp_lifetime: float = 0.0


class DNSServer(Node):
    """An authoritative name server with the TMP-record extension."""

    def __init__(self, name: str, simulator: "Simulator"):
        super().__init__(name, simulator)
        self.stack = TransportStack(self)
        self._socket = self.stack.udp_socket(DNS_PORT)
        self._socket.on_receive(self._query_input)
        self._zone: Dict[str, _ZoneEntry] = {}

    # ------------------------------------------------------------------
    # Zone management
    # ------------------------------------------------------------------
    def add_record(self, name: str, address: IPAddress) -> None:
        self._zone[name] = _ZoneEntry(IPAddress(address))

    def register_temporary(
        self, name: str, care_of: IPAddress, lifetime: float = 60.0
    ) -> None:
        """Install a TMP record (the mobile host's registration)."""
        entry = self._zone.get(name)
        if entry is None:
            raise KeyError(f"no A record for {name!r}")
        entry.temporary = IPAddress(care_of)
        entry.tmp_registered_at = self.now
        entry.tmp_lifetime = lifetime

    def withdraw_temporary(self, name: str) -> None:
        entry = self._zone.get(name)
        if entry is not None:
            entry.temporary = None

    def _current_tmp(self, entry: _ZoneEntry) -> Optional[IPAddress]:
        if entry.temporary is None:
            return None
        if self.now - entry.tmp_registered_at > entry.tmp_lifetime:
            entry.temporary = None
            return None
        return entry.temporary

    # ------------------------------------------------------------------
    # Query service
    # ------------------------------------------------------------------
    def _query_input(
        self, data: object, size: int, src_ip: IPAddress, src_port: int
    ) -> None:
        if isinstance(data, DNSUpdate):
            self._update_input(data, src_ip, src_port)
            return
        if not isinstance(data, DNSQuery):
            return
        entry = self._zone.get(data.name)
        if entry is None:
            answer = DNSAnswer(data.name, data.ident, None)
        else:
            tmp = self._current_tmp(entry) if data.want_tmp else None
            answer = DNSAnswer(
                data.name,
                data.ident,
                entry.address,
                temporary=tmp,
                tmp_lifetime=entry.tmp_lifetime,
            )
        self._socket.sendto(answer, answer.size, src_ip, src_port)

    def _update_input(
        self, update: DNSUpdate, src_ip: IPAddress, src_port: int
    ) -> None:
        """Handle a remote TMP-record registration/withdrawal."""
        ok = True
        try:
            if update.care_of is None:
                self.withdraw_temporary(update.name)
            else:
                self.register_temporary(
                    update.name, update.care_of, update.lifetime
                )
        except KeyError:
            ok = False
        ack = DNSUpdateAck(update.ident, ok)
        self._socket.sendto(ack, ack.size, src_ip, src_port)


class Resolver:
    """Client-side stub resolver for any node with a transport stack.

    ``want_tmp=False`` models a conventional resolver that never asks
    for (and would ignore) temporary records.
    """

    def __init__(self, stack: TransportStack, server: IPAddress, want_tmp: bool = True):
        self.stack = stack
        self.server = IPAddress(server)
        self.want_tmp = want_tmp
        self._socket: UDPSocket = stack.udp_socket()
        self._socket.on_receive(self._answer_input)
        self._pending: Dict[int, Callable[[DNSAnswer], None]] = {}

    def lookup(self, name: str, callback: Callable[[DNSAnswer], None]) -> int:
        ident = self.stack.node.simulator.next_token()
        self._pending[ident] = callback
        query = DNSQuery(name, ident, want_tmp=self.want_tmp)
        self._socket.sendto(query, query.size, self.server, DNS_PORT)
        return ident

    def _answer_input(
        self, data: object, size: int, src_ip: IPAddress, src_port: int
    ) -> None:
        if not isinstance(data, DNSAnswer):
            return
        callback = self._pending.pop(data.ident, None)
        if callback is not None:
            callback(data)
