"""Tests for the busy-line transmission model (PR 8).

A :class:`~repro.netsim.link.Segment` with ``queue_capacity`` set owns
a real line: one frame serializes at a time, excess frames wait in a
bounded FIFO, and overflow is a traced ``queue-overflow`` loss.  With
the default ``queue_capacity=None`` the historical infinite-capacity
scheduling is preserved bit-for-bit — the golden digest pins that.
"""

import itertools

import pytest

from repro.netsim import IPAddress, Simulator
from repro.netsim import link as link_mod
from repro.netsim.link import (
    BROADCAST_LINK_ADDR,
    Frame,
    fresh_link_address,
)
from repro.netsim.node import Node
from repro.netsim.packet import IPProto, Packet


def make_packet(tag=0, size=100):
    return Packet(src=IPAddress("10.1.0.1"), dst=IPAddress("10.2.0.2"),
                  proto=IPProto.UDP, payload=tag, payload_size=size)


class Wire:
    """A two-interface segment with the receiver's frames recorded."""

    def __init__(self, seed=42, latency=0.001, bandwidth=8_000,
                 queue_capacity=None):
        self.sim = Simulator(seed=seed)
        self.segment = self.sim.segment(
            "wire", latency=latency, bandwidth=bandwidth,
            queue_capacity=queue_capacity)
        self.a = Node("wa", self.sim)
        self.b = Node("wb", self.sim)
        self.ia = self.a.add_interface("eth0", self.segment)
        self.ib = self.b.add_interface("eth0", self.segment)
        self.received = []
        self.b.frame_received = (
            lambda iface, frame: self.received.append(
                (self.sim.now, frame.payload.payload)))

    def offer(self, tag, size=100):
        frame = Frame(src=self.ia.link_address, dst=self.ib.link_address,
                      payload=make_packet(tag, size))
        self.segment.transmit(self.ia, frame)
        return frame.wire_size


class TestBusyLine:
    def test_fifo_order_and_serialized_spacing(self):
        w = Wire(queue_capacity=8)
        wire_size = 0
        for tag in range(3):
            wire_size = w.offer(tag)
        ser = wire_size * 8 / w.segment.bandwidth
        assert w.segment.queue_depth == 2     # one on the line, two behind
        w.sim.run(until=10)
        assert [tag for _t, tag in w.received] == [0, 1, 2]
        times = [t for t, _tag in w.received]
        # Frame k starts serializing when the line frees at k*ser and
        # lands at latency + (k+1)*ser — serialization is paid in
        # sequence, not in parallel.
        for k, t in enumerate(times):
            assert t == pytest.approx(w.segment.latency + (k + 1) * ser)
        assert w.segment.queue_depth == 0
        assert w.segment.frames_carried == 3
        assert w.segment.busy_seconds == pytest.approx(3 * ser)

    def test_overflow_is_traced_and_counted(self):
        w = Wire(queue_capacity=2)
        for tag in range(5):
            w.offer(tag)
        # One serializing + two queued; frames 3 and 4 overflow.
        assert w.segment.queue_dropped == 2
        assert w.segment.frames_lost == 2
        w.sim.run(until=10)
        assert [tag for _t, tag in w.received] == [0, 1, 2]
        assert w.segment.frames_carried == 3
        trace = w.sim.trace
        assert trace.losses_by_reason["queue-overflow"] == 2
        lost = [e for e in trace.entries if e.action == "lost"]
        assert len(lost) == 2
        assert all(e.detail == "queue-overflow" for e in lost)
        assert w.sim.metrics.value("link.queue_dropped", link="wire") == 2

    def test_zero_capacity_means_no_buffer(self):
        w = Wire(queue_capacity=0)
        w.offer(0)
        w.offer(1)
        assert w.segment.queue_dropped == 1
        w.sim.run(until=10)
        assert [tag for _t, tag in w.received] == [0]

    def test_line_frees_for_later_traffic(self):
        w = Wire(queue_capacity=1)
        w.offer(0)
        w.offer(1)
        w.sim.run(until=10)
        # Line idle again: a fresh offer serializes immediately.
        w.offer(2)
        assert w.segment.queue_depth == 0
        w.sim.run(until=20)
        assert [tag for _t, tag in w.received] == [0, 1, 2]
        assert w.segment.queue_dropped == 0

    def test_lost_frames_never_counted_as_carried(self):
        w = Wire(queue_capacity=4)
        w.segment.loss_rate = 1.0
        w.offer(0)
        assert w.segment.frames_carried == 0
        assert w.segment.bytes_carried == 0
        assert w.segment.busy_bits == 0
        assert w.segment.frames_lost == 1
        assert w.sim.trace.losses_by_reason["link-loss"] == 1

    def test_segment_down_flushes_queue_without_rng(self):
        w = Wire(queue_capacity=4)
        for tag in range(3):
            w.offer(tag)
        assert w.segment.queue_depth == 2
        w.segment.up = False
        state = w.sim.rng.getstate()
        w.sim.run(until=10)
        # The frame already on the line delivers; the queued two are
        # flushed as segment-down losses, no randomness consumed.
        assert [tag for _t, tag in w.received] == [0]
        assert w.segment.queue_depth == 0
        assert w.sim.trace.losses_by_reason["segment-down"] == 2
        assert w.sim.rng.getstate() == state

    def test_set_queue_capacity_shrink_tail_drops(self):
        w = Wire(queue_capacity=4)
        for tag in range(4):
            w.offer(tag)
        assert w.segment.queue_depth == 3
        dropped = w.segment.set_queue_capacity(1)
        assert dropped == 2
        assert w.segment.queue_dropped == 2
        # Tail drop: the *newest* queued frames go; 0 (on the line) and
        # 1 (head of queue) survive.
        w.sim.run(until=10)
        assert [tag for _t, tag in w.received] == [0, 1]
        assert w.sim.trace.losses_by_reason["queue-overflow"] == 2
        # The high-water mark keeps the burst's depth through the
        # shrink and the drain.
        assert w.segment.queue_depth == 0
        assert w.segment.queue_peak == 3

    def test_set_queue_capacity_validates(self):
        w = Wire(queue_capacity=2)
        with pytest.raises(ValueError):
            w.segment.set_queue_capacity(-1)
        with pytest.raises(ValueError):
            Simulator(seed=1).segment("bad", queue_capacity=-3)

    def test_queue_depth_gauge_reads_live(self):
        w = Wire(queue_capacity=8)
        for tag in range(3):
            w.offer(tag)
        assert w.sim.metrics.value("link.queue_depth", link="wire") == 2
        w.sim.run(until=10)
        assert w.sim.metrics.value("link.queue_depth", link="wire") == 0


class TestLegacyModelPreserved:
    def test_default_links_serialize_in_parallel(self):
        # The historical artifact, pinned on purpose: with
        # queue_capacity=None simultaneous frames do not contend.
        w = Wire(queue_capacity=None)
        wire_size = 0
        for tag in range(3):
            wire_size = w.offer(tag)
        ser = wire_size * 8 / w.segment.bandwidth
        w.sim.run(until=10)
        times = [t for t, _tag in w.received]
        assert times == pytest.approx(
            [w.segment.latency + ser] * 3)
        # busy_bits still accumulates (it is the accounting twin of
        # bytes_carried), making the infinite-capacity artifact visible:
        # 3 frames' serialization "fits" in one frame's wall time.
        assert w.segment.busy_bits == 3 * wire_size * 8

    def test_uncontended_queueing_is_trace_identical(self):
        # Frames spaced wider than their serialization time never meet
        # the busy line, so the queueing model computes the *identical*
        # float delay chain (latency + serialization) as the legacy
        # model: byte-identical traces.
        from repro.bench.golden import trace_digest

        runs = {}
        for capacity in (None, 64):
            w = Wire(queue_capacity=capacity)
            ser = (make_packet().wire_size + 14) * 8 / w.segment.bandwidth
            for tag in range(5):
                w.sim.events.schedule(
                    tag * (ser * 2), lambda w=w, t=tag: w.offer(t))
            w.sim.run(until=10)
            runs[capacity] = (trace_digest(w.sim.trace), w.received)
        assert runs[64] == runs[None]

    def test_canonical_run_with_queueing_loses_nothing(self):
        # The canonical workload is *almost* uncontended: one ARP frame
        # overlaps a registration reply, so the digest legitimately
        # shifts by that frame's serialization — but nothing queues
        # deep enough to overflow, so deliveries are unchanged.
        from repro.experiment import Runner, canonical_traffic_spec

        default = Runner().run(canonical_traffic_spec())
        queued = Runner().run(
            canonical_traffic_spec().replace(queue_capacity=64))
        assert queued.trace_entries == default.trace_entries
        assert queued.deliverability["delivered"] == \
            default.deliverability["delivered"]
        assert queued.deliverability["losses_by_reason"] == {}


class TestFreshLinkAddress:
    def test_never_mints_the_broadcast_address(self):
        saved = link_mod._link_addr_counter
        try:
            link_mod._link_addr_counter = itertools.count(0xFFFE)
            minted = [fresh_link_address() for _ in range(3)]
        finally:
            link_mod._link_addr_counter = saved
        assert BROADCAST_LINK_ADDR not in minted
        assert [a.value for a in minted] == [0xFFFE, 0x10000, 0x10001]

    def test_interface_65535_does_not_become_a_sink(self, sim):
        saved = link_mod._link_addr_counter
        try:
            link_mod._link_addr_counter = itertools.count(0xFFFF)
            segment = sim.segment("lan-ffff")
            a = Node("na", sim)
            b = Node("nb", sim)
            ia = a.add_interface("eth0", segment)
            ib = b.add_interface("eth0", segment)
        finally:
            link_mod._link_addr_counter = saved
        assert ia.link_address != BROADCAST_LINK_ADDR
        assert ib.link_address != BROADCAST_LINK_ADDR
        got = []
        b.frame_received = lambda iface, frame: got.append(frame)
        # A unicast frame to ia must not also land on ib.
        frame = Frame(src=ib.link_address, dst=ia.link_address,
                      payload=make_packet())
        segment.transmit(ib, frame)
        sim.run(until=1)
        assert got == []


class TestInterfaceDropCounter:
    def test_interface_down_losses_are_counted(self):
        w = Wire()
        w.ia.up = False
        frame = Frame(src=w.ia.link_address, dst=w.ib.link_address,
                      payload=make_packet())
        w.ia.transmit(frame)
        assert w.ia.frames_dropped == 1
        assert w.sim.metrics.value(
            "interface.frames_dropped", node="wa", interface="eth0") == 1
        assert w.sim.trace.losses_by_reason["interface-down"] == 1
        # The healthy peer's counter stays untouched.
        assert w.sim.metrics.value(
            "interface.frames_dropped", node="wb", interface="eth0") == 0
