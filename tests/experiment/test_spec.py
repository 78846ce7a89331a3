"""Tests for the declarative experiment spec."""

import json

import pytest

from repro.analysis.scenarios import SCENARIO_KNOBS
from repro.experiment import (
    ExperimentSpec,
    SpecError,
    TrafficProgram,
    canonical_traffic_spec,
)


# Removed spec fields ("traffic." for the traffic object's): a value
# of the type the field had, and a value of another type.
RETIRED_FIELDS = {
    "fast_forward": (True, "yes"),
    "trace_entries": (True, "yes"),
    "trace_aggregates": (True, "yes"),
    "traffic.ch_bind": (False, "yes"),
    "traffic.payload_style": ("indexed", 1),
}


def _retired_key(spec_dict, field):
    """The dict that holds retired ``field`` in ``spec_dict``, and the
    key's name there."""
    *owner, name = field.split(".")
    return (spec_dict[owner[0]] if owner else spec_dict), name


class TestJsonRoundTrip:
    def test_default_spec_round_trips(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_rich_spec_round_trips(self):
        spec = ExperimentSpec(
            seed=7,
            label="rich",
            duration=12.0,
            settle_margin=5.0,
            awareness="decap-capable",
            visited_filtering=False,
            strategy="conservative-first",
            encap="gre",
            auth_key="secret",
            traffic=TrafficProgram(
                port=6200,
                events=[{"at": 0.5, "direction": "mh->ch", "size": 300}],
            ),
            faults={"events": [{"time": 8.0, "kind": "link-flap",
                                "target": "visited-uplink",
                                "duration": 2.0}]},
            adversary=[{"at": 3.0, "kind": "spoof"}],
            arm_invariants=True,
            max_tunnel_depth=2,
            invariant_grace=1.5,
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_dict() == spec.to_dict()

    def test_link_shaping_knobs_round_trip(self):
        spec = ExperimentSpec(
            queue_capacity=16,
            queue_capacities={"uplink-home": 4},
            link_bandwidths={"uplink-home": 1.5e6},
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        kwargs = spec.scenario_kwargs()
        assert kwargs["queue_capacity"] == 16
        assert kwargs["queue_capacities"] == {"uplink-home": 4}
        assert kwargs["link_bandwidths"] == {"uplink-home": 1.5e6}

    def test_conversation_spec_round_trips(self):
        spec = ExperimentSpec(traffic=TrafficProgram(
            port=6100, conversation={"interval": 0.5}))
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.traffic.conversation == {"interval": 0.5}
        assert clone.traffic.resolved_events() == []

    def test_traffic_dict_is_coerced(self):
        spec = ExperimentSpec(traffic={"uniform": {"datagrams": 3}})
        assert isinstance(spec.traffic, TrafficProgram)

    def test_replace_returns_validated_copy(self):
        base = ExperimentSpec()
        changed = base.replace(seed=5, label="x")
        assert (changed.seed, changed.label) == (5, "x")
        assert base.seed == 1996  # original untouched
        with pytest.raises(SpecError):
            base.replace(encap="carrier-pigeon")

    def test_from_file_accepts_bare_spec_and_fuzz_repro(self, tmp_path):
        spec = canonical_traffic_spec(datagrams=3)
        bare = tmp_path / "spec.json"
        bare.write_text(spec.to_json())
        assert ExperimentSpec.from_file(str(bare)) == spec
        repro = tmp_path / "repro.json"
        repro.write_text(json.dumps(
            {"case": {}, "violations": [], "spec": spec.to_dict()}))
        assert ExperimentSpec.from_file(str(repro)) == spec

    @pytest.mark.parametrize("field", list(RETIRED_FIELDS))
    def test_retired_field_loads_and_is_dropped(self, tmp_path, field):
        # Spec, grid, and fuzz-repro files written while the flow
        # replay engine, the trace levels, or the two traffic socket
        # knobs existed carry these keys.
        legacy = canonical_traffic_spec(datagrams=3).to_dict()
        owner, name = _retired_key(legacy, field)
        owner[name] = RETIRED_FIELDS[field][0]
        spec = ExperimentSpec.from_dict(legacy)
        assert spec == canonical_traffic_spec(datagrams=3)
        assert name not in _retired_key(spec.to_dict(), field)[0]
        assert name not in _retired_key(json.loads(spec.to_json()), field)[0]
        repro = tmp_path / "repro.json"
        repro.write_text(json.dumps({"case": {}, "spec": legacy}))
        assert ExperimentSpec.from_file(str(repro)) == spec

    @pytest.mark.parametrize("field", list(RETIRED_FIELDS))
    def test_retired_field_keeps_its_type_check(self, field):
        legacy = canonical_traffic_spec(datagrams=3).to_dict()
        owner, name = _retired_key(legacy, field)
        owner[name] = RETIRED_FIELDS[field][1]
        with pytest.raises(SpecError, match=name):
            ExperimentSpec.from_dict(legacy)

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="invalid JSON"):
            ExperimentSpec.from_file(str(path))


class TestValidation:
    @pytest.mark.parametrize("changes,match", [
        ({"awareness": "psychic"}, "unknown awareness"),
        ({"strategy": "yolo"}, "unknown strategy"),
        ({"encap": "carrier-pigeon"}, "unknown encap"),
        ({"duration": -1.0}, "duration must be > 0"),
        ({"settle_margin": -0.1}, "settle_margin"),
        ({"seed": "abc"}, "seed must be an int"),
        ({"backbone_size": 1}, "backbone_size"),
        ({"home_attach": 99}, "home_attach"),
        ({"ch_attach": -1}, "ch_attach"),
        ({"visited_attach": 7}, "visited_attach"),
        ({"obs_cadence": 0}, "obs_cadence"),
        ({"max_tunnel_depth": -1}, "max_tunnel_depth"),
        ({"invariant_grace": -2}, "invariant_grace"),
        ({"adversary": [{"at": 1.0, "kind": "nuke"}]}, "adversary kind"),
        ({"adversary": [{"at": -1.0, "kind": "spoof"}]}, "'at' >= 0"),
        ({"faults": {"events": [{"time": 1.0, "kind": "meteor",
                                 "target": "x"}]}}, "invalid fault plan"),
        ({"arm_invariants": "yes"}, "must be a bool"),
        ({"queue_capacity": -1}, "queue_capacity"),
        ({"queue_capacity": True}, "queue_capacity"),
        ({"queue_capacities": {"lan": -2}}, "queue_capacities"),
        ({"queue_capacities": {3: 4}}, "queue_capacities"),
        ({"queue_capacities": "lots"}, "queue_capacities"),
        ({"link_bandwidths": {"lan": 0}}, "link_bandwidths"),
        ({"link_bandwidths": {"lan": -1e6}}, "link_bandwidths"),
        ({"link_bandwidths": [1e6]}, "link_bandwidths"),
    ])
    def test_bad_field_raises(self, changes, match):
        with pytest.raises(SpecError, match=match):
            ExperimentSpec(**changes)

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(SpecError, match="unknown fields.*bogus"):
            ExperimentSpec.from_dict({"seed": 1, "bogus": True})
        # A retired traffic key is dropped only inside the traffic object.
        with pytest.raises(SpecError, match="unknown fields.*ch_bind"):
            ExperimentSpec.from_dict({"seed": 1, "ch_bind": True})

    def test_traffic_needs_a_correspondent(self):
        with pytest.raises(SpecError, match="needs a correspondent"):
            ExperimentSpec(awareness=None,
                           traffic={"uniform": {"datagrams": 1}})

    @pytest.mark.parametrize("traffic,match", [
        ({"port": 0}, "port"),
        ({"target": ""}, "target"),
        ({"events": [{"at": 1.0, "direction": "up", "size": 10}]},
         "direction"),
        ({"events": [{"at": 1.0, "direction": "mh->ch", "size": 0}]},
         "size"),
        ({"events": [{"at": 1.0, "direction": "mh->ch", "size": 10,
                      "color": "red"}]}, "unknown fields"),
        ({"events": [{"at": 1.0, "direction": "mh->ch", "size": 10}],
          "uniform": {"datagrams": 2}}, "not both"),
        ({"uniform": {"datagrams": 0}}, "datagrams"),
        ({"uniform": {"datagrams": 2, "direction": "sideways"}},
         "direction"),
        ({"uniform": {"datagrams": 2, "volume": 11}}, "unknown fields"),
        ({"events": [{"at": 1.0, "direction": "mh->ch", "size": 10}],
          "conversation": {"interval": 2.0}}, "not both"),
        ({"uniform": {"datagrams": 2}, "conversation": {"interval": 2.0}},
         "not both"),
        ({"conversation": {"interval": 0}}, "interval"),
        ({"conversation": {"interval": -1}}, "interval"),
        ({"conversation": {"interval": "2"}}, "interval"),
        ({"conversation": {"interval": True}}, "interval"),
        ({"conversation": {"interval": 2.0, "size": 50}},
         "conversation has unknown fields"),
        ({"conversation": 2.0}, "must be an object"),
    ])
    def test_bad_traffic_raises(self, traffic, match):
        with pytest.raises(SpecError, match=match):
            ExperimentSpec(traffic=traffic)

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            ExperimentSpec(encap="nope")


class TestScenarioBridge:
    def test_kwargs_match_builder_signature(self):
        assert set(ExperimentSpec().scenario_kwargs()) <= SCENARIO_KNOBS

    def test_defaults_mirror_builder_defaults(self):
        import inspect

        from repro.analysis.scenarios import build_scenario

        signature = inspect.signature(build_scenario)
        kwargs = ExperimentSpec().scenario_kwargs()
        for name, value in kwargs.items():
            parameter = signature.parameters[name]
            if name in ("seed", "ch_awareness"):
                continue  # spec pins its own seed; awareness is explicit
            assert value == parameter.default, (
                f"spec default for {name!r} drifted from build_scenario")

    def test_enums_translate(self):
        kwargs = ExperimentSpec(
            awareness="mobile-aware", strategy="aggressive-first",
            encap="minimal").scenario_kwargs()
        assert kwargs["ch_awareness"].value == "mobile-aware"
        assert kwargs["strategy"].value == "aggressive-first"
        assert kwargs["scheme"].value == "minimal"

    def test_null_awareness_means_no_correspondent(self):
        assert ExperimentSpec(
            awareness=None).scenario_kwargs()["ch_awareness"] is None


class TestTrafficProgram:
    def test_uniform_expansion(self):
        program = TrafficProgram(
            uniform={"datagrams": 3, "spacing": 0.5, "size": 64,
                     "direction": "mh->ch"})
        assert program.resolved_events() == [
            {"at": 0.0, "direction": "mh->ch", "size": 64},
            {"at": 0.5, "direction": "mh->ch", "size": 64},
            {"at": 1.0, "direction": "mh->ch", "size": 64},
        ]

    def test_both_alternates_directions(self):
        program = TrafficProgram(
            uniform={"datagrams": 4, "spacing": 1.0, "size": 10,
                     "direction": "both"})
        directions = [e["direction"] for e in program.resolved_events()]
        assert directions == ["ch->mh", "mh->ch", "ch->mh", "mh->ch"]

    def test_explicit_events_pass_through(self):
        events = [{"at": 2.0, "direction": "ch->mh", "size": 99}]
        assert TrafficProgram(events=events).resolved_events() == events


class TestCanonicalSpec:
    def test_shape(self):
        spec = canonical_traffic_spec()
        assert spec.seed == 1401
        assert spec.duration == 30.0
        assert spec.awareness == "conventional"
        events = spec.traffic.resolved_events()
        assert len(events) == 200
        assert events[1]["at"] == pytest.approx(0.01)
        assert all(e["direction"] == "ch->mh" for e in events)

    def test_overrides_apply(self):
        spec = canonical_traffic_spec(seed=9, datagrams=5, observe=True)
        assert spec.seed == 9
        assert spec.observe is True
        assert len(spec.traffic.resolved_events()) == 5
