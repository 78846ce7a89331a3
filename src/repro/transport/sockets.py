"""The socket layer: binding semantics from §7.1.1 and the transport stack.

The paper's application-visible mechanism:

    "mobile-aware applications indicate their preferences to the
    networking software by binding their sockets to specific
    addresses.  If the application binds its socket to the source
    address of (any of) the machine's physical interface(s), then the
    packets sent through that socket are sent directly through that
    interface using Out-DT ...  If a socket is not bound to a
    particular address, or is bound to the host's permanent home
    address, then ... our Mobile IP software should use its heuristics
    to decide."

A :class:`TransportStack` attaches to one :class:`~repro.netsim.node.Node`
and owns its UDP bindings and TCP connections.  The *source selector*
hook is where the mobility machinery plugs in: it is consulted exactly
once per conversation — at UDP send and at TCP connect — mirroring the
paper's observation that the address decision is made "when TCP decides
what address to use as the endpoint identifier".

The stack also implements the §7.1.2 observer interface: every
transport send and receive is reported with an original/retransmission
flag, which :mod:`repro.core.feedback` turns into delivery-failure
signals.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..netsim.addressing import IPAddress
from ..netsim.node import Node
from ..netsim.packet import IPProto, Packet
from .tcp import ConnectionKey, TCPConnection, TCPFlags, TCPSegment
from .udp import UDPDatagram

__all__ = ["SourceSelector", "TransportObserver", "UDPSocket", "TransportStack"]

# (remote_ip, remote_port, proto, explicit_bind) -> source address to use.
SourceSelector = Callable[[IPAddress, int, IPProto, Optional[IPAddress]], IPAddress]


class TransportObserver:
    """§7.1.2's proposed IP programming-interface addition.

    "all IP clients (e.g. TCP) could indicate, for every IP packet they
    send and receive, whether the packet is an 'original' packet or a
    retransmission."
    """

    def on_send(self, remote: IPAddress, retransmission: bool) -> None:  # pragma: no cover - interface
        pass

    def on_receive(self, remote: IPAddress, retransmission: bool) -> None:  # pragma: no cover - interface
        pass


class UDPSocket:
    """A bound UDP endpoint."""

    def __init__(self, stack: "TransportStack", port: int, bound_ip: Optional[IPAddress]):
        self.stack = stack
        self.port = port
        self.bound_ip = bound_ip
        self._callback: Optional[Callable[[Any, int, IPAddress, int], None]] = None

    def on_receive(self, callback: Callable[[Any, int, IPAddress, int], None]) -> None:
        self._callback = callback

    def sendto(
        self,
        data: Any,
        data_size: int,
        dst_ip: IPAddress,
        dst_port: int,
        src_override: Optional[IPAddress] = None,
        is_retransmission: bool = False,
    ) -> None:
        """Send a datagram; the source address comes from the §7.1.1 path:
        an explicit bind wins, then the stack's source selector.

        ``is_retransmission`` is the §7.1.2 interface: "all IP clients
        (e.g. TCP) could indicate, for every IP packet they send ...
        whether the packet is an 'original' packet or a retransmission."
        UDP RPC clients (NFS, registration) set it on retries.
        """
        self.stack.udp_output(self, data, data_size, IPAddress(dst_ip), dst_port,
                              src_override, is_retransmission)

    def close(self) -> None:
        self.stack.udp_close(self)

    def _deliver(self, data: Any, size: int, src_ip: IPAddress, src_port: int) -> None:
        if self._callback is not None:
            self._callback(data, size, src_ip, src_port)


class TransportStack:
    """Per-node transport state: UDP demux, TCP connections, observers."""

    def __init__(self, node: Node):
        self.node = node
        node.register_proto_handler(IPProto.UDP, self._udp_input)
        node.register_proto_handler(IPProto.TCP, self._tcp_input)
        self._udp_sockets: Dict[int, UDPSocket] = {}
        self._connections: Dict[ConnectionKey, TCPConnection] = {}
        self._listeners: Dict[int, Callable[[TCPConnection], None]] = {}
        self._ephemeral = 49152
        self.observers: List[TransportObserver] = []
        self.source_selector: Optional[SourceSelector] = None
        self.send_rst_on_closed_port = True

    # ------------------------------------------------------------------
    # Simulator plumbing used by TCPConnection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.node.now

    def schedule(self, delay: float, action: Callable[[], None], label: str = ""):
        return self.node.simulator.events.schedule(delay, action, label=label)

    def ephemeral_port(self) -> int:
        port = self._ephemeral
        self._ephemeral += 1
        if self._ephemeral > 65535:
            self._ephemeral = 49152
        return port

    def _select_source(
        self,
        remote_ip: IPAddress,
        remote_port: int,
        proto: IPProto,
        explicit: Optional[IPAddress],
    ) -> IPAddress:
        if self.source_selector is not None:
            return self.source_selector(remote_ip, remote_port, proto, explicit)
        if explicit is not None:
            return explicit
        source = self.node._preferred_source()
        if source is None:
            raise RuntimeError(f"{self.node.name} has no address to send from")
        return source

    def report_send(self, remote: IPAddress, retransmission: bool) -> None:
        for observer in self.observers:
            observer.on_send(remote, retransmission)

    def report_receive(self, conn_or_ip, retransmission: bool) -> None:
        remote = conn_or_ip.remote_ip if isinstance(conn_or_ip, TCPConnection) else conn_or_ip
        for observer in self.observers:
            observer.on_receive(remote, retransmission)

    # ------------------------------------------------------------------
    # UDP
    # ------------------------------------------------------------------
    def udp_socket(
        self, port: Optional[int] = None, bound_ip: Optional[IPAddress] = None
    ) -> UDPSocket:
        if port is None:
            port = self.ephemeral_port()
            while port in self._udp_sockets:
                port = self.ephemeral_port()
        if port in self._udp_sockets:
            raise OSError(f"UDP port {port} already bound on {self.node.name}")
        socket = UDPSocket(self, port, bound_ip)
        self._udp_sockets[port] = socket
        return socket

    def udp_close(self, socket: UDPSocket) -> None:
        self._udp_sockets.pop(socket.port, None)

    def udp_output(
        self,
        socket: UDPSocket,
        data: Any,
        data_size: int,
        dst_ip: IPAddress,
        dst_port: int,
        src_override: Optional[IPAddress] = None,
        is_retransmission: bool = False,
    ) -> None:
        explicit = src_override if src_override is not None else socket.bound_ip
        src = self._select_source(dst_ip, dst_port, IPProto.UDP, explicit)
        datagram = UDPDatagram(socket.port, dst_port, data, data_size)
        packet = Packet(
            src=src,
            dst=dst_ip,
            proto=IPProto.UDP,
            payload=datagram,
            payload_size=datagram.size,
        )
        self.report_send(dst_ip, retransmission=is_retransmission)
        self.node.ip_send(packet)

    def _udp_input(self, packet: Packet) -> None:
        datagram = packet.payload
        if not isinstance(datagram, UDPDatagram):
            return
        socket = self._udp_sockets.get(datagram.dst_port)
        if socket is None:
            return  # port unreachable; ICMP elided for UDP
        if socket.bound_ip is not None and not packet.dst.is_multicast:
            if packet.dst != socket.bound_ip:
                return  # bound to a specific address; not ours
        self.report_receive(packet.src, retransmission=False)
        socket._deliver(datagram.data, datagram.data_size, packet.src, datagram.src_port)

    # ------------------------------------------------------------------
    # TCP
    # ------------------------------------------------------------------
    def listen(self, port: int, on_accept: Callable[[TCPConnection], None]) -> None:
        if port in self._listeners:
            raise OSError(f"TCP port {port} already listening on {self.node.name}")
        self._listeners[port] = on_accept

    def stop_listening(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(
        self,
        remote_ip: IPAddress,
        remote_port: int,
        bound_ip: Optional[IPAddress] = None,
        local_port: Optional[int] = None,
    ) -> TCPConnection:
        """Active open.  The local endpoint address is fixed *now* —
        the paper's §7 decision point — via the source selector."""
        remote_ip = IPAddress(remote_ip)
        local_ip = self._select_source(remote_ip, remote_port, IPProto.TCP, bound_ip)
        if local_port is None:
            local_port = self.ephemeral_port()
        connection = TCPConnection(self, local_ip, local_port, remote_ip, remote_port)
        self._connections[connection.key] = connection
        connection.open_active()
        return connection

    def forget(self, connection: TCPConnection) -> None:
        self._connections.pop(connection.key, None)

    @property
    def connections(self) -> List[TCPConnection]:
        return list(self._connections.values())

    def tcp_output(self, connection: TCPConnection, segment: TCPSegment) -> None:
        packet = Packet(
            src=connection.local_ip,
            dst=connection.remote_ip,
            proto=IPProto.TCP,
            payload=segment,
            payload_size=segment.size,
        )
        self.report_send(connection.remote_ip, segment.is_retransmission)
        self.node.ip_send(packet)

    def _tcp_input(self, packet: Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            return
        key: ConnectionKey = (
            packet.dst,
            segment.dst_port,
            packet.src,
            segment.src_port,
        )
        connection = self._connections.get(key)
        if connection is not None:
            self.report_receive(packet.src, segment.is_retransmission)
            connection.segment_arrived(segment)
            return

        if segment.flags is TCPFlags.SYN:
            on_accept = self._listeners.get(segment.dst_port)
            if on_accept is not None:
                # Passive open: the local endpoint identifier is the
                # address the SYN was addressed to (for a mobile host
                # that may be the home address — In-IE — or the care-of
                # address — In-DT; the 4-tuple records the difference).
                connection = TCPConnection(
                    self, packet.dst, segment.dst_port, packet.src, segment.src_port
                )
                self._connections[connection.key] = connection
                connection.open_passive(segment)
                on_accept(connection)
                return
        if segment.flags is not TCPFlags.RST and self.send_rst_on_closed_port:
            self._send_rst(packet, segment)

    def _send_rst(self, packet: Packet, segment: TCPSegment) -> None:
        rst = TCPSegment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=segment.ack,
            ack=segment.seq + segment.seq_space,
            flags=TCPFlags.RST,
        )
        reply = Packet(
            src=packet.dst,
            dst=packet.src,
            proto=IPProto.TCP,
            payload=rst,
            payload_size=rst.size,
        )
        self.node.ip_send(reply)
