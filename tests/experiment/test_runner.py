"""Tests for the experiment runner lifecycle."""

from repro.experiment import (
    ExperimentSpec,
    Runner,
    RunResult,
    TrafficProgram,
    canonical_traffic_spec,
)

# The pinned golden digest (tests/netsim/test_golden_trace.py): the
# runner must reproduce the legacy hand-rolled workload byte-for-byte.
GOLDEN_DIGEST = "6c91661118a78681dfe5624d953ae85bb5a3f6e3b7e88fc4d166a9a121cf8a8f"
GOLDEN_ENTRIES = 3618


def _legacy_canonical_run():
    """The hand-rolled loop the runner replaced, inline."""
    from repro.analysis import MH_HOME_ADDRESS, build_scenario
    from repro.bench.golden import trace_digest
    from repro.mobileip import Awareness

    scenario = build_scenario(seed=1401, ch_awareness=Awareness.CONVENTIONAL)
    sock = scenario.mh.stack.udp_socket(7000)
    sock.on_receive(lambda *args: None)
    ch_sock = scenario.ch.stack.udp_socket()
    for index in range(200):
        scenario.sim.events.schedule(
            index * 0.01,
            lambda: ch_sock.sendto("x", 100, MH_HOME_ADDRESS, 7000),
        )
    scenario.sim.run_for(30)
    return trace_digest(scenario.sim.trace)


class TestDigestFidelity:
    def test_runner_reproduces_pinned_golden_digest(self):
        result = Runner().run(canonical_traffic_spec())
        assert result.digest == GOLDEN_DIGEST
        assert result.trace_entries == GOLDEN_ENTRIES

    def test_runner_matches_legacy_inline_workload(self):
        legacy_digest, legacy_entries = _legacy_canonical_run()
        result = Runner().run(canonical_traffic_spec())
        assert result.digest == legacy_digest
        assert result.trace_entries == legacy_entries

    def test_arming_invariants_does_not_change_digest(self):
        bare = Runner().run(canonical_traffic_spec(datagrams=40))
        armed = Runner().run(canonical_traffic_spec(
            datagrams=40, arm_invariants=True))
        assert armed.digest == bare.digest
        assert armed.invariants["armed"] is True
        assert armed.invariants["violation_count"] == 0
        assert bare.invariants == {"armed": False}

    def test_observability_does_not_change_digest(self):
        bare = Runner().run(canonical_traffic_spec(datagrams=40))
        observed = Runner().run(canonical_traffic_spec(
            datagrams=40, observe=True))
        assert observed.digest == bare.digest
        assert observed.obs is not None
        assert observed.obs["spans"]["count"] >= 40
        assert bare.obs is None


def _trace_off_spec(datagrams):
    """A spec written while trace levels existed, with both switched off."""
    return ExperimentSpec.from_dict(dict(
        canonical_traffic_spec(datagrams=datagrams).to_dict(),
        trace_entries=False, trace_aggregates=False))


class TestRetiredTraceLevels:
    def test_trace_off_spec_records_and_digests_every_event(self):
        # The keys are retired, so such a spec traces like any other
        # and its digest is never the sha256 of nothing.
        result = Runner().run(_trace_off_spec(20))
        assert result.digest == (
            "751d5094488e03683c7e9b27a8e21fb839d655326672c59b78362a5a3f9e9bce")
        assert result.trace_entries == 378
        plain = Runner().run(canonical_traffic_spec(datagrams=20))
        assert (result.digest, result.trace_entries) == (
            plain.digest, plain.trace_entries)
        # The canonical world draws nothing from its seed, so a second,
        # different run is one datagram longer.
        longer = Runner().run(_trace_off_spec(21))
        assert longer.digest != result.digest


class TestCollection:
    def test_result_summaries(self):
        result = Runner().run(canonical_traffic_spec(datagrams=40))
        assert result.ok
        assert result.registered is True
        assert result.seed == 1401
        assert result.sim_time > 30.0
        assert result.deliverability["sent"] >= 40
        assert result.deliverability["delivered"] >= 40
        assert result.overhead["tunneled_by_ha"] == 40
        assert result.overhead["bytes_by_link"]
        assert result.metrics  # full registry snapshot present

    def test_result_round_trips_as_plain_data(self):
        result = Runner().run(canonical_traffic_spec(datagrams=10))
        clone = RunResult.from_dict(result.to_dict())
        assert clone == result

    def test_runner_keeps_live_scenario(self):
        runner = Runner()
        runner.run(canonical_traffic_spec(datagrams=10))
        assert runner.scenario is not None
        assert runner.scenario.ha.packets_tunneled == 10

    def test_extras_hold_only_what_was_armed(self, tmp_path):
        runner = Runner(flightrec_path=str(tmp_path / "flightrec.json"))
        result = runner.run(canonical_traffic_spec(datagrams=5))
        assert set(result.extras) == {"flightrec"}
        assert result.extras["flightrec"]["armed"] is True
        assert result.extras["flightrec"]["dumped"] is False
        assert Runner().run(canonical_traffic_spec(datagrams=5)).extras == {}

    def test_zero_tunnel_depth_forces_deterministic_violation(self):
        # max_tunnel_depth=0 declares *any* encapsulation illegal, so
        # the canonical tunnelled workload must violate — the knob CI
        # uses to prove the sweep's nonzero exit path.
        result = Runner().run(canonical_traffic_spec(
            datagrams=10, arm_invariants=True, max_tunnel_depth=0))
        assert not result.ok
        assert result.invariants["violation_count"] > 0
        assert any(v["invariant"] == "tunnel-depth"
                   for v in result.violations)


class TestDriverHook:
    """The TCP conversation runs in the slot the retired ``driver`` hook
    had: started on the built, armed scenario after the faults and the
    adversary, its counters collected beside the runner's own extras."""

    SPEC = ExperimentSpec(
        duration=10.0,
        traffic=TrafficProgram(port=6100, conversation={"interval": 0.5}))
    # One 50-byte message per 0.5 s tick over the 10 s run, each echoed.
    COUNTS = {"sent": 19, "echoes": 19, "reconnects": 0}

    def test_driver_runs_and_collects_extras(self, tmp_path):
        runner = Runner(flightrec_path=str(tmp_path / "flightrec.json"))
        result = runner.run(self.SPEC)
        assert result.extras["conversation"] == self.COUNTS
        assert set(result.extras) == {"conversation", "flightrec"}
        assert result.extras["flightrec"]["armed"] is True
        assert result.extras["flightrec"]["dumped"] is False
        assert result.digest == Runner().run(self.SPEC).digest

    def test_driver_without_collector(self):
        result = Runner().run(self.SPEC)
        assert result.extras == {"conversation": self.COUNTS}


class TestPhaseTimings:
    def test_every_phase_is_timed(self):
        result = Runner().run(canonical_traffic_spec(datagrams=5))
        assert set(result.timings) == {
            "build", "arm", "drive", "collect", "total"}
        for phase, seconds in result.timings.items():
            assert seconds >= 0.0, phase
        assert result.timings["total"] >= result.timings["drive"]
        phases = (result.timings["build"] + result.timings["arm"]
                  + result.timings["drive"] + result.timings["collect"])
        assert result.timings["total"] >= phases * 0.5

    def test_timings_round_trip_as_plain_data(self):
        result = Runner().run(canonical_traffic_spec(datagrams=5))
        clone = RunResult.from_dict(result.to_dict())
        assert clone.timings == result.timings
