"""Fault injection: plans, validation, and injector semantics."""

from __future__ import annotations

import pytest

from repro.netsim import (
    FaultError,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    Simulator,
)


class TestFaultEvent:
    def test_kind_coerced_from_string(self):
        event = FaultEvent(time=1.0, kind="link-down", target="lan")
        assert event.kind is FaultKind.LINK_DOWN

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultEvent(time=1.0, kind="meteor-strike", target="lan")

    def test_negative_time_rejected(self):
        with pytest.raises(FaultError, match="time must be"):
            FaultEvent(time=-0.5, kind=FaultKind.LINK_UP, target="lan")

    def test_missing_target_rejected(self):
        with pytest.raises(FaultError, match="needs a target"):
            FaultEvent(time=0.0, kind=FaultKind.LINK_DOWN, target="")

    def test_required_params_enforced(self):
        with pytest.raises(FaultError, match="requires param 'duration'"):
            FaultEvent(time=0.0, kind=FaultKind.LINK_FLAP, target="lan")
        with pytest.raises(FaultError, match="requires param"):
            FaultEvent(time=0.0, kind=FaultKind.LOSS_BURST, target="lan",
                       params={"duration": 1.0})

    def test_unknown_params_rejected(self):
        with pytest.raises(FaultError, match="does not take param"):
            FaultEvent(time=0.0, kind=FaultKind.LINK_DOWN, target="lan",
                       params={"duration": 1.0})

    def test_duration_and_loss_rate_bounds(self):
        with pytest.raises(FaultError, match="duration must be > 0"):
            FaultEvent(time=0.0, kind=FaultKind.LINK_FLAP, target="lan",
                       params={"duration": 0.0})
        with pytest.raises(FaultError, match="loss_rate must be in"):
            FaultEvent(time=0.0, kind=FaultKind.LOSS_BURST, target="lan",
                       params={"duration": 1.0, "loss_rate": 1.5})
        # The boundaries themselves are valid.
        FaultEvent(time=0.0, kind=FaultKind.LOSS_BURST, target="lan",
                   params={"duration": 1.0, "loss_rate": 1.0})
        FaultEvent(time=0.0, kind=FaultKind.LOSS_BURST, target="lan",
                   params={"duration": 1.0, "loss_rate": 0.0})


class TestFaultPlan:
    def test_events_kept_sorted_by_time(self):
        plan = FaultPlan()
        plan.add(5.0, FaultKind.LINK_UP, "lan")
        plan.add(1.0, FaultKind.LINK_DOWN, "lan")
        assert [event.time for event in plan] == [1.0, 5.0]
        assert len(plan) == 2

    def test_json_round_trip(self):
        plan = FaultPlan()
        plan.add(2.0, FaultKind.LOSS_BURST, "lan", duration=3.0, loss_rate=0.5)
        plan.add(1.0, FaultKind.FILTER_TOGGLE, "gw", source_filtering=True)
        text = plan.to_json()
        parsed = FaultPlan.from_json(text)
        assert parsed.to_dict() == plan.to_dict()
        assert parsed.events[0].kind is FaultKind.FILTER_TOGGLE
        assert parsed.events[1].params == {"duration": 3.0, "loss_rate": 0.5}

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultError, match="'events' list"):
            FaultPlan.from_json('{"events": 3}')
        with pytest.raises(FaultError, match="missing"):
            FaultPlan.from_json('{"events": [{"time": 1.0}]}')

    def test_from_file(self, tmp_path):
        path = tmp_path / "faults.json"
        plan = FaultPlan().add(1.0, FaultKind.NODE_DOWN, "ha")
        path.write_text(plan.to_json())
        loaded = FaultPlan.from_file(str(path))
        assert loaded.to_dict() == plan.to_dict()


class TestFaultInjector:
    def test_link_down_up_and_flap(self, lan):
        sim, segment, host_a, host_b = lan
        injector = FaultInjector(sim)
        plan = FaultPlan()
        plan.add(1.0, FaultKind.LINK_DOWN, "lan")
        plan.add(2.0, FaultKind.LINK_UP, "lan")
        plan.add(3.0, FaultKind.LINK_FLAP, "lan", duration=0.5)
        assert injector.inject(plan) == 3
        sim.run(until=1.5)
        assert segment.up is False
        sim.run(until=2.5)
        assert segment.up is True
        sim.run(until=3.2)
        assert segment.up is False
        sim.run(until=4.0)
        assert segment.up is True
        assert injector.applied == {
            "link-down": 1, "link-up": 1, "link-flap": 1,
        }
        assert sim.metrics.get("fault.total").value == 3

    def test_loss_burst_restores_previous_rate(self, lan):
        sim, segment, *_ = lan
        segment.loss_rate = 0.05
        injector = FaultInjector(sim)
        plan = FaultPlan().add(1.0, FaultKind.LOSS_BURST, "lan",
                               duration=2.0, loss_rate=1.0)
        injector.inject(plan)
        sim.run(until=1.5)
        assert segment.loss_rate == 1.0
        sim.run(until=3.5)
        assert segment.loss_rate == 0.05

    def test_queue_shrink_drops_excess_and_restores(self, lan):
        sim, segment, host_a, host_b = lan
        segment.set_queue_capacity(8)
        injector = FaultInjector(sim)
        plan = FaultPlan().add(1.0, FaultKind.QUEUE_SHRINK, "lan",
                               queue_capacity=1, duration=2.0)
        injector.inject(plan)
        sim.run(until=1.5)
        assert segment.queue_capacity == 1
        sim.run(until=3.5)
        # The previous capacity (8, from before the fault) comes back.
        assert segment.queue_capacity == 8
        assert injector.applied == {"queue-shrink": 1}

    def test_queue_shrink_validates_capacity(self):
        with pytest.raises(FaultError, match="queue_capacity"):
            FaultEvent(1.0, FaultKind.QUEUE_SHRINK, "lan",
                       params={"queue_capacity": -1})
        with pytest.raises(FaultError, match="queue_capacity"):
            FaultEvent(1.0, FaultKind.QUEUE_SHRINK, "lan",
                       params={"queue_capacity": True})
        with pytest.raises(FaultError):
            FaultEvent(1.0, FaultKind.QUEUE_SHRINK, "lan", params={})

    def test_unknown_segment_rejected_at_inject_time(self, sim):
        injector = FaultInjector(sim)
        plan = FaultPlan().add(1.0, FaultKind.LINK_DOWN, "nope")
        with pytest.raises(FaultError, match="no segment named"):
            injector.inject(plan)
        # Eager validation: nothing was scheduled.
        assert sim.events.pending == 0

    def test_unknown_node_rejected(self, sim):
        injector = FaultInjector(sim)
        plan = FaultPlan().add(1.0, FaultKind.NODE_DOWN, "ghost")
        with pytest.raises(FaultError, match="no node named"):
            injector.inject(plan)

    def test_filter_toggle_requires_boundary_router(self, lan):
        sim, segment, host_a, host_b = lan
        injector = FaultInjector(sim)
        plan = FaultPlan().add(1.0, FaultKind.FILTER_TOGGLE, "lan-a",
                               source_filtering=True)
        with pytest.raises(FaultError, match="not a boundary router"):
            injector.inject(plan)

    def test_node_down_up_toggles_interfaces(self, lan):
        sim, segment, host_a, host_b = lan
        injector = FaultInjector(sim)
        plan = FaultPlan()
        plan.add(1.0, FaultKind.NODE_DOWN, "lan-a")
        plan.add(2.0, FaultKind.NODE_UP, "lan-a")
        injector.inject(plan)
        sim.run(until=1.5)
        assert all(not iface.up for iface in host_a.interfaces.values())
        sim.run(until=2.5)
        assert all(iface.up for iface in host_a.interfaces.values())

    def test_move_requires_net(self, sim):
        from repro.netsim import Internet, Network
        from repro.mobileip.mobile_host import MobileHost

        net = Internet(sim, backbone_size=2)
        net.add_domain("home", "10.1.0.0/16", attach_at=0)
        net.add_domain("away", "10.2.0.0/16", attach_at=1)
        mh = MobileHost(
            "mh", sim,
            home_address="10.1.0.10",
            home_network=Network("10.1.0.0/16"),
            home_agent_address="10.1.0.1",
        )
        mh.attach_home(net, "home")
        injector = FaultInjector(sim)  # no net
        plan = FaultPlan().add(1.0, FaultKind.MOVE, "mh", domain="away")
        with pytest.raises(FaultError, match="without an Internet"):
            injector.inject(plan)
        # With the net supplied the same plan schedules and applies.
        injector = FaultInjector(sim, net=net)
        injector.inject(plan)
        sim.run(until=5.0)
        assert mh.current_domain == "away"
        assert mh.care_of is not None

    def test_filter_toggle_applies_posture(self, sim):
        from repro.netsim import Internet

        net = Internet(sim, backbone_size=2)
        domain = net.add_domain("site", "10.9.0.0/16", attach_at=0,
                                source_filtering=False, forbid_transit=False)
        injector = FaultInjector(sim)
        plan = FaultPlan().add(1.0, FaultKind.FILTER_TOGGLE, "site-gw",
                               source_filtering=True)
        injector.inject(plan)
        sim.run(until=2.0)
        assert domain.boundary.source_filtering is True
        assert domain.boundary.forbid_transit is False  # None leaves as-is
        assert domain.boundary.posture_changes == 1

    def test_same_plan_same_seed_identical_traces(self):
        from repro.bench.golden import trace_digest
        from repro.netsim import Internet, Node
        from repro.netsim.packet import IPProto
        from repro.transport.sockets import TransportStack

        def run():
            sim = Simulator(seed=909)
            net = Internet(sim, backbone_size=2)
            net.add_domain("a", "10.1.0.0/16", attach_at=0,
                           source_filtering=False)
            net.add_domain("b", "10.2.0.0/16", attach_at=1,
                           source_filtering=False)
            a, b = Node("a1", sim), Node("b1", sim)
            ip_a, ip_b = net.add_host("a", a), net.add_host("b", b)
            sim.segments["p2p-bb0-bb1"].loss_rate = 0.2
            seen = []
            b.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
            stack = TransportStack(a)
            sock = stack.udp_socket()
            for index in range(50):
                sim.events.schedule(
                    index * 0.05, lambda: sock.sendto("x", 80, ip_b, 9000)
                )
            plan = FaultPlan()
            plan.add(0.7, FaultKind.LINK_FLAP, "p2p-bb0-bb1", duration=0.4)
            plan.add(1.6, FaultKind.LOSS_BURST, "p2p-bb0-bb1",
                     duration=0.3, loss_rate=1.0)
            FaultInjector(sim).inject(plan)
            sim.run(until=10.0)
            return trace_digest(sim.trace)

        assert run() == run()
