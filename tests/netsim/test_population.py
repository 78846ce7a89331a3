"""Tests for the flyweight population layer (repro.netsim.population).

The layer's contract has three legs, each pinned here:

* **small** — struct-of-arrays pool state is exactly 10 bytes per
  host, far under the 200-byte acceptance bar;
* **alive** — one timer-wheel event per pool keeps every registration
  fresh, administratively, without touching the trace;
* **invisible** — promoting a pooled host to a full node, or building
  the whole world pooled instead of materialized, never changes a
  single traced byte.
"""

import pytest

from repro.analysis.scenarios import build_scenario
from repro.bench.golden import trace_digest
from repro.netsim.population import (
    DEFAULT_POOL_LIFETIME,
    REFRESH_FRACTION,
    validate_population,
)


def pooled_scenario(hosts=4000, domains=2, **kwargs):
    population = {"hosts": hosts, "domains": domains}
    population.update(kwargs.pop("population", {}))
    return build_scenario(population=population, **kwargs)


class TestHostPool:
    def test_flyweight_state_is_tiny(self):
        scenario = pooled_scenario(hosts=10_000)
        pop = scenario.population
        # registered_at (8) + alive (1) + promoted (1); every address
        # and the lifetime are derived per pool or per segment.
        assert pop.state_bytes() == pop.pool.size * 10

    def test_pool_hosts_are_not_nodes(self):
        scenario = pooled_scenario(hosts=5000)
        # The world has its usual dozen actors, not 5000 nodes.
        assert len(scenario.sim.nodes) < 40
        assert scenario.population.pool.live == 5000

    def test_every_host_is_registered(self):
        scenario = pooled_scenario(hosts=3000, domains=3)
        pop = scenario.population
        assert len(pop.ha.bindings) == 3000
        assert pop.block.live == 3000
        # Spot-check bindings at the segment seams.
        from repro.netsim import IPAddress

        for index in (0, 999, 1000, 2999):
            home = IPAddress(pop.pool.home_of(index))
            binding = pop.ha.bindings.lookup(home, now=scenario.sim.now)
            assert binding is not None
            assert binding.care_of_address.value == pop.pool.care_of(index)

    def test_hosts_spread_across_domains(self):
        scenario = pooled_scenario(hosts=3000, domains=3)
        pool = scenario.population.pool
        assert pool.domain_names == ["mega-v0", "mega-v1", "mega-v2"]
        assert [s["stop"] - s["start"] for s in pool.segments] == [
            1000, 1000, 1000]
        # Care-of addresses live in their segment's domain prefix.
        for segment in pool.segments:
            domain = scenario.net.domains[segment["domain"]]
            from repro.netsim import IPAddress

            for index in (segment["start"], segment["stop"] - 1):
                assert domain.prefix.contains(IPAddress(pool.care_of(index)))

    def test_segment_seams_on_an_uneven_split(self):
        scenario = pooled_scenario(hosts=1001, domains=3)
        pool = scenario.population.pool
        assert [(s["start"], s["stop"]) for s in pool.segments] == [
            (0, 334), (334, 668), (668, 1001)]
        for segment in pool.segments:
            domain = scenario.net.domains[segment["domain"]]
            start = segment["start"]
            for index in (start, segment["stop"] - 1):
                assert pool.care_of(index) == (
                    domain.pool_base + (index - start))
                assert pool.domain_of(index) == domain.name

    def test_name_and_address_mapping(self):
        pool = pooled_scenario(hosts=100, domains=1).population.pool
        from repro.netsim import IPAddress

        assert pool.host_name(7) == "mega-h7"
        assert pool.index_of_name("mega-h7") == 7
        assert pool.index_of_name("mega-h100") is None
        assert pool.index_of_name("mh") is None
        assert pool.index_of_name("mega-hx") is None
        assert pool.index_of_address(IPAddress(pool.home_of(42))) == 42


class TestTimerWheel:
    def test_one_rotation_refreshes_every_host(self):
        scenario = pooled_scenario(hosts=2000)
        pop = scenario.population
        before = list(pop.pool.registered_at[:5])
        scenario.sim.run(until=scenario.sim.now + pop.wheel.period + 1.0)
        assert pop.pool.refreshes >= 2000
        assert list(pop.pool.registered_at[:5]) != before

    def test_period_matches_the_client_refresh_discipline(self):
        pop = pooled_scenario(hosts=100).population
        assert pop.wheel.period == pytest.approx(
            REFRESH_FRACTION * DEFAULT_POOL_LIFETIME)

    def test_bindings_never_expire_in_steady_state(self):
        scenario = pooled_scenario(
            hosts=500, domains=1, population={"lifetime": 40.0})
        pop = scenario.population
        # Many lifetimes later, every binding is still alive and the
        # table never recorded an expiry.
        scenario.sim.run(until=scenario.sim.now + 10 * 40.0)
        assert pop.block.live == 500
        assert pop.ha.bindings.expirations == 0
        assert pop.ha.bindings.prune(scenario.sim.now) == 0

    def test_expiry_floor_advances_with_rotations(self):
        scenario = pooled_scenario(hosts=500)
        pop = scenario.population
        floor0 = pop.block.expiry_floor
        scenario.sim.run(until=scenario.sim.now + 2 * pop.wheel.period + 1.0)
        assert pop.block.expiry_floor > floor0

    def test_wheel_is_one_event_not_n(self):
        scenario = pooled_scenario(hosts=50_000)
        # Live engine events stay bounded by the world's actors, not
        # the pool size (one wheel event + mh refresh timers etc).
        assert scenario.sim.events.pending < 100

    def test_wheel_writes_no_trace(self):
        scenario = pooled_scenario(hosts=1000)
        scenario.sim.run(
            until=scenario.sim.now + scenario.population.wheel.period + 1.0)
        assert scenario.population.wheel.ticks > 0
        # The base world's own actors keep tracing; the pool never does.
        assert not any(
            entry.node.startswith("mega-")
            for entry in scenario.sim.trace.entries)


class TestPromotion:
    def test_promoted_host_has_the_pool_state(self):
        scenario = pooled_scenario()
        pop = scenario.population
        host = pop.promote(123)
        assert host.name == "mega-h123"
        assert host.home_address.value == pop.pool.home_of(123)
        assert host.care_of.value == pop.pool.care_of(123)
        assert host.registered and not host.at_home
        assert host.current_domain == pop.pool.domain_of(123)
        assert host.name in scenario.sim.nodes

    def test_promotion_is_idempotent(self):
        pop = pooled_scenario().population
        host = pop.promote(5)
        assert pop.promote(5) is host
        assert pop.promote_name("mega-h5") is host
        assert pop.stats()["promotions"] == 1

    def test_promote_by_name_and_address(self):
        from repro.netsim import IPAddress

        pop = pooled_scenario().population
        host = pop.promote_name("mega-h9")
        assert host is pop.promote_address(IPAddress(pop.pool.home_of(9)))
        assert pop.promote_name("not-a-pool-host") is None

    def test_promote_out_of_range_raises(self):
        pop = pooled_scenario(hosts=10, domains=1).population
        with pytest.raises(IndexError):
            pop.promote(10)

    def test_promoted_host_never_reregisters(self):
        scenario = pooled_scenario()
        host = scenario.population.promote(0)
        sent_before = host.packets_sent
        scenario.sim.run(until=scenario.sim.now + 2 * DEFAULT_POOL_LIFETIME)
        # The wheel renews administratively; the host itself stays mute.
        assert host.packets_sent == sent_before
        assert host.registered

    def test_packet_for_pooled_address_promotes_at_the_home_agent(self):
        from repro.netsim import IPAddress

        scenario = pooled_scenario()
        pop = scenario.population
        target = IPAddress(pop.pool.home_of(77))
        assert "mega-h77" not in scenario.sim.nodes
        replies = []
        scenario.ch.ping(target, replies.append)
        scenario.sim.run(until=scenario.sim.now + 10.0)
        assert "mega-h77" in scenario.sim.nodes
        assert pop.pool.promoted[77]
        assert len(replies) == 1

    def test_promoted_conversation_reaches_the_host(self):
        scenario = pooled_scenario()
        host = scenario.population.promote(3)
        received = []
        sock = host.stack.udp_socket(7000)
        sock.on_receive(lambda d, s, ip, p: received.append(d))
        ch_sock = scenario.ch.stack.udp_socket()
        ch_sock.sendto("hello", 50, host.home_address, 7000)
        scenario.sim.run(until=scenario.sim.now + 5.0)
        assert received == ["hello"]


class TestBindingDeathReachesThePool:
    """The pool and its binding block share one ``alive`` column, so a
    binding that dies at the home agent reads dead in the pool."""

    def _assert_dead(self, scenario, index, live):
        pop = scenario.population
        assert pop.block.live == live
        assert pop.pool.live == live
        assert pop.stats()["live"] == live
        assert pop.pool.refresh_slice(0, pop.pool.size, scenario.sim.now) \
            == live
        assert pop.promote(index).registered is False

    def test_deregister(self):
        from repro.netsim import IPAddress

        scenario = pooled_scenario(hosts=100, domains=1)
        pop = scenario.population
        home = IPAddress(pop.pool.home_of(5))
        assert pop.ha.bindings.deregister(home) is not None
        assert pop.ha.bindings.lookup(home, now=scenario.sim.now) is None
        self._assert_dead(scenario, 5, live=99)

    def test_expiry(self):
        from repro.netsim import IPAddress

        scenario = pooled_scenario(hosts=100, domains=1)
        pop = scenario.population
        later = scenario.sim.now + pop.pool.lifetime
        home = IPAddress(pop.pool.home_of(8))
        assert pop.ha.bindings.lookup(home, now=later) is None
        self._assert_dead(scenario, 8, live=99)
        assert pop.ha.bindings.prune(later) == 99
        assert pop.pool.live == 0

    def test_flush(self):
        scenario = pooled_scenario(hosts=100, domains=1)
        pop = scenario.population
        pop.ha.restart()  # crash semantics: the table comes back empty
        assert pop.ha.bindings.pool_stats()["blocks"] == 0
        self._assert_dead(scenario, 3, live=0)


class TestDigestNeutrality:
    DRIVE = 60.0

    def _converse(self, scenario, name="mega-h123"):
        host = scenario.population.promote_name(name)
        received = []
        sock = host.stack.udp_socket(7000)
        sock.on_receive(lambda d, s, ip, p: received.append(d))
        ch_sock = scenario.ch.stack.udp_socket()
        for k in range(5):
            scenario.sim.events.schedule(
                0.5 + 0.25 * k,
                lambda k=k: ch_sock.sendto(
                    ("m", k), 100, host.home_address, 7000),
                label=f"mega-msg-{k}")
        scenario.sim.run(until=scenario.sim.now + self.DRIVE)
        assert len(received) == 5
        return trace_digest(scenario.sim.trace)

    def test_pooled_world_matches_materialized_world(self):
        pooled = self._converse(pooled_scenario(hosts=3000))
        materialized = self._converse(
            pooled_scenario(hosts=3000, population={"mode": "materialized"}))
        assert pooled == materialized

    def test_uneven_split_matches_materialized_world(self):
        split = {"hosts": 1001, "domains": 3}
        pooled = self._converse(pooled_scenario(**split))
        materialized = self._converse(
            pooled_scenario(**split, population={"mode": "materialized"}))
        assert pooled == materialized

    def test_population_does_not_disturb_the_base_world(self):
        # The same stage with and without a pool riding it produces the
        # identical trace: silent registrations and wheel ticks never
        # reach the wire.
        base = build_scenario()
        base.sim.run(until=base.sim.now + self.DRIVE)
        pooled = pooled_scenario(hosts=2000)
        pooled.sim.run(until=pooled.sim.now + self.DRIVE)
        assert trace_digest(base.sim.trace) == trace_digest(pooled.sim.trace)


class TestValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            validate_population({"hosts": 10, "color": "red"})

    @pytest.mark.parametrize("hosts", [None, 0, -5, True, 2.5, "many"])
    def test_bad_hosts_rejected(self, hosts):
        with pytest.raises(ValueError):
            validate_population({"hosts": hosts})

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            validate_population({"hosts": 10, "mode": "imaginary"})

    def test_bad_domains_lifetime_buckets_rejected(self):
        for bad in ({"domains": 0}, {"lifetime": 0}, {"wheel_buckets": 0}):
            with pytest.raises(ValueError):
                validate_population({"hosts": 10, **bad})

    def test_spec_carries_the_knob(self):
        from repro.experiment import ExperimentSpec, SpecError

        spec = ExperimentSpec(population={"hosts": 50, "domains": 1})
        assert spec.scenario_kwargs()["population"] == {
            "hosts": 50, "domains": 1}
        with pytest.raises(SpecError):
            ExperimentSpec(population={"hosts": -1})
        with pytest.raises(SpecError):
            ExperimentSpec(population={"hosts": 10, "bogus": 1})


class TestRunnerIntegration:
    def test_traffic_target_promotes_a_pooled_host(self):
        from repro.experiment import ExperimentSpec, Runner, TrafficProgram

        spec = ExperimentSpec(
            duration=10.0,
            population={"hosts": 200, "domains": 1},
            traffic=TrafficProgram(
                target="mega-h42",
                uniform={"datagrams": 4, "spacing": 0.5, "size": 100,
                         "direction": "both"},
            ),
        )
        runner = Runner()
        result = runner.run(spec)
        scenario = runner.scenario
        assert "mega-h42" in scenario.sim.nodes
        assert scenario.population.stats()["promotions"] == 1
        assert result.deliverability["delivered"] > 0

    def test_unknown_traffic_target_raises(self):
        from repro.experiment import ExperimentSpec, Runner, TrafficProgram

        spec = ExperimentSpec(
            duration=5.0,
            population={"hosts": 10, "domains": 1},
            traffic=TrafficProgram(
                target="mega-h99",  # pool only has 10 hosts
                uniform={"datagrams": 1, "spacing": 0.5, "size": 100,
                         "direction": "both"},
            ),
        )
        with pytest.raises(ValueError, match="names no node"):
            Runner().run(spec)

    def test_fault_targeting_a_pooled_host_promotes_it(self):
        from repro.netsim.faults import FaultInjector, FaultPlan

        scenario = pooled_scenario(hosts=100, domains=1)
        plan = FaultPlan().add(1.0, "node-down", "mega-h7")
        plan.add(3.0, "node-up", "mega-h7")
        injector = FaultInjector(scenario.sim, net=scenario.net)
        injector.inject(plan)
        assert "mega-h7" in scenario.sim.nodes  # eager validation promoted
        scenario.sim.run(until=scenario.sim.now + 5.0)
        assert injector.applied


class TestMegaDriver:
    def test_run_mega_verify_small(self):
        from repro.analysis.mega import run_mega

        report = run_mega(hosts=1500, domains=1, duration=10.0,
                          datagrams=6, verify=True)
        assert report.verified is True
        assert report.digest == report.verify_digest
        assert report.bytes_per_host < 200
        assert report.population["promotions"] >= 1
        rendered = report.render()
        assert "IDENTICAL" in rendered
        payload = report.to_dict()
        assert payload["verified"] is True
        assert payload["hosts"] == 1500

    def test_conversation_counts_each_direction_by_trace_id(self):
        """The default world's 40 datagrams, not the run's 76 sends: every
        CH->MH datagram arrives; of MH->CH, 13 leave Out-DH and the
        visited gateway's source filter drops them, and one more is lost."""
        from repro.analysis.mega import run_mega

        report = run_mega(hosts=1000)
        assert report.digest.startswith("1dfc9a60")
        assert report.deliverability["sent"] == 76
        assert report.conversation == {
            "ch->mh": {"sent": 20, "delivered": 20},
            "mh->ch": {"sent": 20, "delivered": 6},
        }
        assert report.to_dict()["conversation"] == report.conversation
        assert ("conversation: CH->MH 20/20, MH->CH 6/20 datagrams delivered"
                in report.render())
