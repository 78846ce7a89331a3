"""The tracer is transparent: references restored by identity, digests unchanged."""

from __future__ import annotations

from benchmarks.e2e.tracer import WRAP_TABLE, LayerTracer, RunProbe, _loaded_containers, resolve
from benchmarks.e2e.workloads import pinned_digests


def _references():
    """Every (container, key) -> object bound to a wrap target's original."""
    originals = set()
    for _, target in WRAP_TABLE:
        raw, function = resolve(target)
        originals.update((id(raw), id(function)))
    return {(id(container), key): (container, key, value)
            for container in _loaded_containers()
            for key, value in vars(container).items()
            if id(value) in originals}


def test_restore_puts_back_every_reference_by_identity():
    before = _references()
    # The runner imports trace_digest by name: that copy is patched too.
    assert any(key == "trace_digest" and getattr(c, "__name__", "") ==
               "repro.experiment.runner" for c, key, _ in before.values())
    tracer = LayerTracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for container, key, value in before.values():
            assert vars(container)[key] is not value, (container, key)
    finally:
        tracer.restore()
    assert tracer.patch.leftovers() == []
    for container, key, value in before.values():
        assert vars(container)[key] is value, (container, key)
    assert _references().keys() == before.keys()


def test_traced_digests_equal_untraced_digests(make_session):
    session = make_session("chaos")
    probe = RunProbe()
    probe.install()
    try:
        untraced = session.invoke(probe)
    finally:
        probe.restore()
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = session.invoke(tracer)
    finally:
        tracer.restore()
    assert session.failed == 0, session.errors
    assert session.digests == pinned_digests("chaos", 1996)
    assert traced["dispatched"] == untraced["dispatched"] > 0
    assert sum(traced["self_s"].values()) < traced["seconds"]


def test_a_bogus_target_is_skipped_and_listed():
    bogus = ("netsim.link", "repro.netsim.link:Segment.no_such_method")
    absent = ("netsim.link", "repro.no_such_module:function")
    tracer = LayerTracer(WRAP_TABLE[:2] + (bogus, absent))
    tracer.install()
    tracer.restore()
    assert tracer.missing == [bogus[1], absent[1]]
    assert tracer.patch.leftovers() == []


def test_mega_fast_forward_counters_match_the_forwarder(make_session):
    from repro.analysis.mega import run_mega
    from repro.experiment import Runner

    tracer = LayerTracer()
    tracer.install()
    try:
        record = make_session("mega").invoke(tracer)
    finally:
        tracer.restore()
    runner = Runner()
    run_mega(hosts=1_000_000, domains=None, mode="pooled", seed=1996,
             duration=30.0, datagrams=40, target_index=123, verify=False,
             observe=False, runner=runner)
    stats = runner.scenario.sim.fast_forward.stats()
    for key in ("captured", "replayed", "fallbacks", "world_changes"):
        assert record["fast_forward"][key] == stats[key], key
    assert stats["captured"] > 0
