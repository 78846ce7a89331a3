"""Link layer: shared segments, interfaces, and frames.

The paper's In-DH optimization ("Both Hosts on Same Network Segment",
§5, Row C of the grid) depends on a real link-layer model: an IP packet
whose destination address "does not belong on this network segment" can
nevertheless be delivered in one hop by addressing the *frame* to the
mobile host's link-layer address.  Proxy ARP by the home agent
(RFC 1027) likewise operates at this layer.

A :class:`Segment` is a broadcast domain (an Ethernet): every attached
:class:`Interface` sees broadcast frames, and unicast frames are
delivered to the interface owning the destination link address.  Links
model latency (propagation) and bandwidth (serialization of the frame's
wire size), both of which feed the latency benchmarks (§3.2).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from .addressing import IPAddress, Network
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import Node
    from .simulator import Simulator

__all__ = ["LinkAddress", "Frame", "Interface", "Segment", "BROADCAST_LINK_ADDR", "ETHERNET_MTU"]

ETHERNET_MTU = 1500
_link_addr_counter = itertools.count(1)


@dataclass(frozen=True, order=True)
class LinkAddress:
    """An opaque link-layer (MAC-like) address."""

    value: int

    def __str__(self) -> str:
        return f"L2:{self.value:04x}"


BROADCAST_LINK_ADDR = LinkAddress(0xFFFF)


def fresh_link_address() -> LinkAddress:
    """Mint the next unicast link address.

    The counter is open-ended (values past 16 bits format fine through
    ``:04x``), but it must never mint ``0xFFFF``: that value *is* the
    broadcast address, and an interface holding it would receive every
    unicast frame sent to broadcast — interface #65535 of a large run
    would silently become a packet sink.
    """
    value = next(_link_addr_counter)
    if value == BROADCAST_LINK_ADDR.value:
        value = next(_link_addr_counter)
    return LinkAddress(value)


class Frame:
    """A link-layer frame carrying either an IP packet or an ARP message.

    ``wire_size`` is fixed when the frame is built: a packet's size
    never changes once it is handed to the link layer.
    """

    __slots__ = ("src", "dst", "payload", "kind", "wire_size")

    def __init__(
        self,
        src: LinkAddress,
        dst: LinkAddress,
        payload: Any,                # Packet ("ip") or ArpMessage ("arp")
        kind: str = "ip",
    ):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.kind = kind
        # An Ethernet header on the packet, or an ARP message in a
        # minimum-size Ethernet frame.
        self.wire_size = payload.wire_size + 14 if kind == "ip" else 42


class Interface:
    """A node's attachment to a segment.

    An interface carries at most one primary IP address plus any number
    of secondary addresses (the mobile host keeps its *home* address
    configured alongside its care-of address so it can recognize
    packets addressed to either — paper §5, Figures 8/9).
    """

    def __init__(self, name: str, node: "Node"):
        self.name = name
        self.node = node
        self.link_address = fresh_link_address()
        self.segment: Optional[Segment] = None
        self.ip: Optional[IPAddress] = None
        self.network: Optional[Network] = None
        self.secondary_ips: List[IPAddress] = []
        self.up = True
        # Frames discarded because this interface was down at transmit
        # or receive time.  The trace records each loss; the counter
        # makes the total queryable without scanning entries.
        self.frames_dropped = 0
        node.simulator.metrics.counter(
            "interface.frames_dropped",
            read=lambda: self.frames_dropped,
            node=node.name, interface=name,
        )

    # ------------------------------------------------------------------
    def configure(self, ip: IPAddress, network: Network) -> None:
        """Assign the primary address and the directly-attached prefix."""
        if not network.contains(ip):
            raise ValueError(f"{ip} not in {network}")
        self.ip = IPAddress(ip)
        self.network = network

    def deconfigure(self) -> None:
        self.ip = None
        self.network = None
        self.secondary_ips.clear()

    def add_secondary(self, ip: IPAddress) -> None:
        ip = IPAddress(ip)
        if ip not in self.secondary_ips:
            self.secondary_ips.append(ip)

    @property
    def addresses(self) -> List[IPAddress]:
        addrs = []
        if self.ip is not None:
            addrs.append(self.ip)
        addrs.extend(self.secondary_ips)
        return addrs

    def owns(self, ip: IPAddress) -> bool:
        own = self.ip
        if own is not None and ip == own:
            return True
        return ip in self.secondary_ips

    # ------------------------------------------------------------------
    def attach(self, segment: "Segment") -> None:
        if self.segment is not None:
            self.detach()
        self.segment = segment
        segment._interfaces[self.link_address.value] = self

    def detach(self) -> None:
        if self.segment is not None:
            self.segment._interfaces.pop(self.link_address.value, None)
            self.segment = None

    def transmit(self, frame: Frame) -> None:
        """Hand a frame to the attached segment for delivery."""
        if self.segment is None or not self.up:
            # Cable unplugged: the frame is lost — but not silently.
            # Every loss is traced as a ``lost`` event so the invariant
            # monitor can account for the datagram's disappearance.
            self._note_lost(frame, "interface-down")
            return
        self.segment.transmit(self, frame)

    def receive(self, frame: Frame) -> None:
        """Called by the segment when a frame arrives for this interface."""
        if not self.up:
            self._note_lost(frame, "interface-down")
            return
        self.node.frame_received(self, frame)

    def _note_lost(self, frame: Frame, detail: str) -> None:
        self.frames_dropped += 1
        payload = frame.payload
        if isinstance(payload, Packet):
            sim = self.node.simulator
            sim.trace.note(
                sim.clock.now, f"{self.node.name}/{self.name}", "lost",
                payload, detail=detail,
            )

    def __repr__(self) -> str:
        return f"Interface({self.node.name}/{self.name} ip={self.ip})"


class Segment:
    """A shared broadcast segment (an Ethernet or a point-to-point wire).

    ``latency`` is one-way propagation delay in seconds; ``bandwidth``
    is bits/second used to compute serialization delay; ``mtu`` bounds
    the IP packet size carried in one frame (fragmentation happens at
    the IP layer of the sending node, see
    :mod:`repro.netsim.fragmentation`).
    """

    def __init__(
        self,
        name: str,
        simulator: "Simulator",
        latency: float = 0.001,
        bandwidth: float = 10e6,
        mtu: int = ETHERNET_MTU,
        loss_rate: float = 0.0,
        queue_capacity: Optional[int] = None,
    ):
        """``loss_rate`` drops each frame independently with the given
        probability (from the simulator's seeded RNG) — a crude model of
        the wireless media the paper's mobile hosts roam across, used to
        study the §7.1.2 detector's behaviour under genuine loss.  A
        rate of exactly 1.0 is a total blackout (every frame lost), the
        boundary the fault-injection scenarios use.

        ``up`` models the whole medium: a downed segment (cut cable,
        failed base station) silently discards every frame offered to
        it without consuming randomness, so toggling a segment down and
        up around a window of simulated time leaves the RNG stream —
        and therefore every later loss draw — exactly where it would
        have been (see :mod:`repro.netsim.faults`).

        ``queue_capacity`` selects the transmission-line model.  With
        the default ``None`` every offered frame is scheduled
        independently at ``latency + serialization`` — the historical
        no-contention behaviour, preserved exactly so existing traces
        (and the pinned golden digest) are unchanged.  With an integer,
        the segment owns a real line: one frame serializes at a time, up
        to ``queue_capacity`` further frames wait in a FIFO transmit
        queue, and a frame offered to a full queue is dropped as a
        traced ``queue-overflow`` loss."""
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        if queue_capacity is not None and queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0 (or None)")
        self.name = name
        self.simulator = simulator
        self.latency = latency
        self.bandwidth = bandwidth
        self.mtu = mtu
        self.loss_rate = loss_rate
        self.up = True
        self.queue_capacity = queue_capacity
        # Attached interfaces by the integer value of their link address.
        self._interfaces: Dict[int, Interface] = {}
        # Event labels, formatted once rather than per frame.
        self._deliver_label = f"link:{name}"
        self._line_free_label = f"link-free:{name}"
        self._queue: Deque[Tuple[Interface, Frame]] = deque()
        # True while a frame is serializing on the line (queueing mode).
        self._line_busy = False
        self.frames_carried = 0
        self.bytes_carried = 0
        self.frames_lost = 0
        self.queue_dropped = 0
        # Transmit-queue high-water mark: the deepest the queue has
        # been, exact (set at every enqueue, never lowered).
        self.queue_peak = 0
        # Serialization occupancy, accumulated in *bits* so the counter
        # stays an integer (exact).  ``busy_seconds`` derives from it.
        # In the legacy (queue_capacity=None) model the sum can exceed
        # wall time — that is the infinite-capacity artifact, made
        # visible.
        self.busy_bits = 0
        metrics = simulator.metrics
        metrics.counter("link.bytes_carried",
                        read=lambda: self.bytes_carried, link=name)
        metrics.counter("link.frames_carried",
                        read=lambda: self.frames_carried, link=name)
        metrics.counter("link.frames_lost",
                        read=lambda: self.frames_lost, link=name)
        metrics.counter("link.queue_dropped",
                        read=lambda: self.queue_dropped, link=name)
        metrics.gauge("link.queue_depth",
                      read=lambda: self.queue_depth, link=name)
        metrics.gauge("link.busy_seconds",
                      read=lambda: self.busy_seconds, link=name)

    @property
    def queue_depth(self) -> int:
        """Frames waiting behind the line (not the one serializing)."""
        return len(self._queue)

    @property
    def busy_seconds(self) -> float:
        """Total serialization time this line has been occupied."""
        return self.busy_bits / self.bandwidth

    @property
    def interfaces(self) -> List[Interface]:
        return list(self._interfaces.values())

    def interface_with_ip(self, ip: IPAddress) -> Optional[Interface]:
        for iface in self._interfaces.values():
            if iface.owns(ip):
                return iface
        return None

    def transmit(self, sender: Interface, frame: Frame) -> None:
        """Deliver a frame after serialization + propagation delay."""
        if not self.up:
            # The medium itself is down: nothing is carried, nothing is
            # scheduled, and — unlike probabilistic loss — no randomness
            # is consumed, so fault windows do not shift the RNG stream.
            self.frames_lost += 1
            self._note_lost(frame, "segment-down")
            return
        if self.loss_rate and self.simulator.rng.random() < self.loss_rate:
            self.frames_lost += 1
            # Vanished into the ether; transport recovers.  The loss is
            # traced to keep every datagram's fate observable, and the
            # carried counters are *not* touched: a frame the medium ate
            # never occupied the line, so counting its bytes would
            # inflate link utilization.  The RNG draw stays the first
            # (and only) draw per offered frame, so fault-window
            # determinism is unchanged.
            self._note_lost(frame, "link-loss")
            return
        if self.queue_capacity is None:
            # Historical no-contention model: every frame gets the line
            # to itself.  Kept bit-exact (same float arithmetic, same
            # scheduling) so default-link traces are unchanged.
            size = frame.wire_size
            self.frames_carried += 1
            self.bytes_carried += size
            self.busy_bits += size * 8
            self.simulator.trace.note_link_bytes(self.name, size)
            delay = self.latency + (size * 8) / self.bandwidth
            self.simulator.events.schedule(
                delay, self._deliver, sender, frame, label=self._deliver_label
            )
            return
        if self._line_busy:
            if len(self._queue) >= self.queue_capacity:
                # Tail drop: the transmit buffer is full.  Traced as a
                # ``lost`` with detail ``queue-overflow`` so the
                # invariant monitor accounts for the datagram; never
                # counted as carried (it never reached the line).
                self.queue_dropped += 1
                self.frames_lost += 1
                self._note_lost(frame, "queue-overflow")
                return
            self._queue.append((sender, frame))
            if len(self._queue) > self.queue_peak:
                self.queue_peak = len(self._queue)
            return
        self._start_frame(sender, frame)

    def _start_frame(self, sender: Interface, frame: Frame) -> None:
        """Begin serializing one frame on the (idle) line.

        Carried accounting happens here — at line occupancy, not at
        offer — so queued frames later discarded (queue shrink, segment
        down) never inflate the byte counters.  Delivery lands at
        ``latency + serialization`` from now, the identical float chain
        the no-queue model uses, so an uncontended queueing run is
        trace-identical to a default run.
        """
        size = frame.wire_size
        self.frames_carried += 1
        self.bytes_carried += size
        self.busy_bits += size * 8
        self.simulator.trace.note_link_bytes(self.name, size)
        serialization = (size * 8) / self.bandwidth
        self._line_busy = True
        self.simulator.events.schedule(
            self.latency + serialization, self._deliver, sender, frame,
            label=self._deliver_label,
        )
        self.simulator.events.schedule(
            serialization, self._line_free, label=self._line_free_label
        )

    def _line_free(self) -> None:
        """The line finished a frame: start the next queued one."""
        self._line_busy = False
        if not self._queue:
            return
        if not self.up:
            # The medium died while frames waited.  Flush them as
            # segment-down losses (no RNG consumed, same as an offer to
            # a downed segment) instead of serializing onto a dead wire.
            while self._queue:
                _sender, frame = self._queue.popleft()
                self.frames_lost += 1
                self._note_lost(frame, "segment-down")
            return
        sender, frame = self._queue.popleft()
        self._start_frame(sender, frame)

    def set_queue_capacity(self, capacity: Optional[int]) -> int:
        """Resize the transmit queue in place (the bufferbloat knob).

        Shrinking below the current depth tail-drops the excess as
        traced ``queue-overflow`` losses — the frames a smaller buffer
        would never have admitted.  Returns the number of frames
        dropped.  Growing (or disabling with ``None``) never drops;
        already-queued frames keep draining through the line even when
        the capacity goes to ``None``, since the line-free chain is
        already scheduled.
        """
        if capacity is not None and capacity < 0:
            raise ValueError("queue_capacity must be >= 0 (or None)")
        self.queue_capacity = capacity
        dropped = 0
        if capacity is not None:
            while len(self._queue) > capacity:
                _sender, frame = self._queue.pop()
                self.queue_dropped += 1
                self.frames_lost += 1
                self._note_lost(frame, "queue-overflow")
                dropped += 1
        return dropped

    def _deliver(self, sender: Interface, frame: Frame) -> None:
        dst = frame.dst.value
        if dst == BROADCAST_LINK_ADDR.value:
            # Snapshot: receivers may attach/detach interfaces in response.
            for iface in list(self._interfaces.values()):
                if iface is not sender:
                    iface.receive(frame)
            return
        target = self._interfaces.get(dst)
        if target is not None and target is not sender:
            target.receive(frame)
            return
        # Unknown destination: frame lost, like a real switch flushing
        # a stale forwarding entry.  IP-level retransmission recovers.
        self._note_lost(frame, "unknown-link-dest")

    def _note_lost(self, frame: Frame, detail: str) -> None:
        payload = frame.payload
        if isinstance(payload, Packet):
            self.simulator.trace.note(
                self.simulator.clock.now, self.name, "lost", payload,
                detail=detail,
            )

    def __repr__(self) -> str:
        return f"Segment({self.name}, {len(self._interfaces)} ifaces, mtu={self.mtu})"
