"""An adversarial node for hardening runs.

The paper's threat discussion (§3.1) is about *routers* distrusting
topologically-incorrect packets; the registration protocol itself is
described over an open UDP port.  This module supplies the attacker
that port invites — the reason RFC 2002 made its authentication
extension mandatory:

* **spoofed registrations** — claim someone else's home address and
  bind it to an address the attacker controls (traffic hijack);
* **replayed registrations** — re-send a captured legitimate request
  verbatim, authenticator and all (rebind the victim to a stale
  care-of address);
* **bogus encapsulation** — tunnel-protocol packets whose payload is
  not a packet at all, probing every decapsulating endpoint;
* **truncated encapsulation** — minimal-encapsulation packets with the
  forwarding header torn off.

The :class:`Adversary` is an ordinary :class:`~repro.netsim.node.Node`
attached anywhere in the topology; everything it sends travels — and
is filtered, dropped, or rejected — like any other traffic, so the
invariant monitor and the trace observe the whole exchange.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from ..mobileip.registration import (
    MOBILE_IP_PORT,
    RegistrationReply,
    RegistrationRequest,
    compute_authenticator,
)
from ..netsim.addressing import IPAddress
from ..netsim.node import Node
from ..netsim.packet import IPProto, Packet
from ..transport.sockets import TransportStack

if TYPE_CHECKING:  # pragma: no cover
    from ..mobileip.mobile_host import MobileHost
    from ..netsim.simulator import Simulator

__all__ = ["Adversary"]


class Adversary(Node):
    """A malicious host: spoofs, replays, and malforms."""

    def __init__(self, name: str, simulator: "Simulator"):
        super().__init__(name, simulator)
        self.stack = TransportStack(self)
        self._reg_socket = self.stack.udp_socket(MOBILE_IP_PORT)
        self._reg_socket.on_receive(self._reply_input)
        # Every registration reply the victim's home agent sends back.
        self.replies: List[RegistrationReply] = []
        # Requests captured for replay (handed over by the harness; a
        # real attacker would sniff them off the victim's LAN).
        self.captured: List[RegistrationRequest] = []
        self.attacks_sent = 0
        simulator.metrics.counter(
            "adversary.attacks", read=lambda: self.attacks_sent, node=name)

    def _reply_input(
        self, data: Any, size: int, src_ip: IPAddress, src_port: int
    ) -> None:
        if isinstance(data, RegistrationReply):
            self.replies.append(data)

    # ------------------------------------------------------------------
    # Registration attacks
    # ------------------------------------------------------------------
    def spoof_registration(
        self,
        home_agent: IPAddress,
        victim_home_address: IPAddress,
        care_of: Optional[IPAddress] = None,
        lifetime: float = 300.0,
        auth: Optional[int] = None,
    ) -> RegistrationRequest:
        """Register the victim's home address to our own care-of address.

        Without the victim's key the attacker can at best guess ``auth``
        (default: omit the extension entirely).  Against an
        unauthenticated home agent this attack *succeeds* — which is
        precisely what the hardening tests demonstrate.
        """
        care_of = IPAddress(care_of) if care_of else self._own_address()
        request = RegistrationRequest(
            home_address=IPAddress(victim_home_address),
            care_of_address=care_of,
            lifetime=lifetime,
            ident=self.simulator.next_token(),
            auth=auth,
        )
        self.attacks_sent += 1
        self._reg_socket.sendto(
            request, request.size, IPAddress(home_agent), MOBILE_IP_PORT,
            src_override=care_of,
        )
        return request

    def capture(self, request: RegistrationRequest) -> None:
        """Record a legitimate request for later replay."""
        self.captured.append(request)

    def replay_captured(
        self, home_agent: IPAddress, index: int = -1
    ) -> Optional[RegistrationRequest]:
        """Re-send a captured request verbatim (valid authenticator,
        stale ident) — the attack the replay-protected ident stops."""
        if not self.captured:
            return None
        request = self.captured[index]
        self.attacks_sent += 1
        self._reg_socket.sendto(
            request, request.size, IPAddress(home_agent), MOBILE_IP_PORT,
            src_override=self._own_address(),
        )
        return request

    # ------------------------------------------------------------------
    # Malformed-tunnel attacks
    # ------------------------------------------------------------------
    def send_bogus_tunnel(
        self, dst: IPAddress, proto: IPProto = IPProto.IPIP, size: int = 64
    ) -> Packet:
        """A tunnel-protocol packet whose payload is not a packet."""
        packet = Packet(
            src=self._own_address(),
            dst=IPAddress(dst),
            proto=proto,
            payload="not-an-ip-datagram",
            payload_size=size,
        )
        self.attacks_sent += 1
        self.ip_send(packet)
        return packet

    def send_truncated_tunnel(self, dst: IPAddress) -> Packet:
        """A minimal-encapsulation packet with no forwarding header."""
        packet = Packet(
            src=self._own_address(),
            dst=IPAddress(dst),
            proto=IPProto.MINENC,
            payload=None,
            payload_size=8,
        )
        self.attacks_sent += 1
        self.ip_send(packet)
        return packet

    # ------------------------------------------------------------------
    # The attack vocabulary (``ADVERSARY_KINDS`` in experiment specs)
    # ------------------------------------------------------------------
    def attack(self, kind: str, home_agent: IPAddress, victim: "MobileHost",
               auth_key: Optional[str] = None) -> None:
        """Launch one ``spoof``/``replay``/``bogus``/``truncated`` attack
        on ``victim`` and its home agent.

        ``replay`` re-sends a request sniffed off the victim's wire: a
        valid authenticator under ``auth_key`` (the attacker has the
        ciphertext, not the key) and a stale ident.
        """
        if kind == "spoof":
            self.spoof_registration(home_agent, victim.home_address)
        elif kind == "replay":
            care_of = victim.care_of or victim.home_address
            lifetime = victim.reg_lifetime
            auth = (compute_authenticator(auth_key, victim.home_address,
                                          care_of, lifetime, 1)
                    if auth_key else None)
            self.capture(RegistrationRequest(
                home_address=victim.home_address, care_of_address=care_of,
                lifetime=lifetime, ident=1, auth=auth))
            self.replay_captured(home_agent)
        elif kind == "bogus":
            self.send_bogus_tunnel(victim.care_of or victim.home_address)
        elif kind == "truncated":
            self.send_truncated_tunnel(home_agent)
        else:
            raise ValueError(f"unknown adversary attack {kind!r}")

    # ------------------------------------------------------------------
    def _own_address(self) -> IPAddress:
        address = self._preferred_source()
        if address is None:
            raise RuntimeError(f"adversary {self.name} has no address")
        return address
