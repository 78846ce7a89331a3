"""Transport substrate: UDP, simplified TCP, and the socket layer.

See module docstrings for the paper-facing behaviours each piece
reproduces: endpoint-identity semantics (connections break when
addresses change), the connect-time address decision point, and the
original/retransmission reporting interface of §7.1.2.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "sockets": (
        "SourceSelector", "TransportObserver", "TransportStack", "UDPSocket",
    ),
    "tcp": (
        "TCP_HEADER_SIZE", "ConnectionKey", "TCPConnection", "TCPFlags",
        "TCPSegment", "TCPState",
    ),
    "udp": ("UDP_HEADER_SIZE", "UDPDatagram"),
})
