"""Telnet workload: the long-lived-connection motivation (§2, §8).

    "On our laptop computers running Linux we frequently have idle
    telnet connections that are preserved for hours, and sometimes even
    for days or weeks, while the laptop computer is sitting unused in
    'sleep' mode."

The model: an interactive session over TCP port 23 that types a
keystroke every ``think_time`` seconds and expects an echo.  The
session records per-keystroke echo RTTs and whether the connection
survived — the durability metric for the §2 connection-durability
benchmark, where the mobile host moves mid-session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..netsim.addressing import IPAddress
from ..transport.sockets import TransportStack
from ..transport.tcp import TCPConnection

__all__ = ["TELNET_PORT", "TelnetServer", "TelnetSession"]

TELNET_PORT = 23
KEYSTROKE_SIZE = 1


class TelnetServer:
    """Echoes every keystroke back, like a remote shell's terminal."""

    def __init__(self, stack: TransportStack, port: int = TELNET_PORT):
        self.stack = stack
        self.port = port
        stack.listen(port, self._accept)

    def _accept(self, connection: TCPConnection) -> None:
        def on_data(data: object, size: int) -> None:
            connection.send(size, data=data)

        connection.on_data = on_data


@dataclass
class _Keystroke:
    sent_at: float
    echoed_at: Optional[float] = None


class TelnetSession:
    """An interactive client session with periodic keystrokes."""

    def __init__(
        self,
        stack: TransportStack,
        server: IPAddress,
        think_time: float = 2.0,
        keystrokes: int = 20,
        port: int = TELNET_PORT,
        bound_ip: Optional[IPAddress] = None,
    ):
        self.stack = stack
        self.server = IPAddress(server)
        self.think_time = think_time
        self.total_keystrokes = keystrokes
        self._strokes: List[_Keystroke] = []
        self.alive = False
        self.failure_reason: Optional[str] = None
        self.connection: TCPConnection = stack.connect(
            self.server, port, bound_ip=bound_ip
        )
        self.connection.on_established = self._on_established
        self.connection.on_data = self._on_echo
        self.connection.on_fail = self._on_fail
        self.connection.on_close = self._on_close

    # ------------------------------------------------------------------
    def _on_established(self) -> None:
        self.alive = True
        self._type_next()

    def _type_next(self) -> None:
        if not self.alive or len(self._strokes) >= self.total_keystrokes:
            if self.alive and self.connection.is_open:
                self.connection.close()
            return
        self._strokes.append(_Keystroke(sent_at=self.stack.now))
        self.connection.send(KEYSTROKE_SIZE, data=len(self._strokes))
        self.stack.schedule(self.think_time, self._type_next, label="telnet-think")

    def _on_echo(self, data: object, size: int) -> None:
        if isinstance(data, int) and 1 <= data <= len(self._strokes):
            stroke = self._strokes[data - 1]
            if stroke.echoed_at is None:
                stroke.echoed_at = self.stack.now

    def _on_fail(self, reason: str) -> None:
        self.alive = False
        self.failure_reason = reason

    def _on_close(self) -> None:
        self.alive = False

    # ------------------------------------------------------------------
    @property
    def echoes_received(self) -> int:
        return sum(1 for stroke in self._strokes if stroke.echoed_at is not None)

    @property
    def keystrokes_sent(self) -> int:
        return len(self._strokes)

    @property
    def survived(self) -> bool:
        """True if the session never failed (orderly close is fine)."""
        return self.failure_reason is None

    @property
    def echo_rtts(self) -> List[float]:
        return [
            stroke.echoed_at - stroke.sent_at
            for stroke in self._strokes
            if stroke.echoed_at is not None
        ]

    def mean_echo_rtt(self) -> Optional[float]:
        rtts = self.echo_rtts
        if not rtts:
            return None
        return sum(rtts) / len(rtts)
