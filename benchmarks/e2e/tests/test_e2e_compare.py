"""compare: verdicts on end-to-end metrics, and a slowdown named by its layer."""

from __future__ import annotations

import copy
import json
from time import perf_counter

from benchmarks.e2e.__main__ import main
from benchmarks.e2e.compare import compare, flagged_layers
from benchmarks.e2e.run import document, per_layer_metrics
from benchmarks.e2e.tracer import LayerTracer, RunProbe


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_identical_files_pass_and_a_doctored_command_s_fails(tiny_results, tmp_path):
    doc = document(tiny_results, 1996)
    parent = _write(tmp_path / "parent.json", doc)
    assert main(["compare", parent, _write(tmp_path / "same.json", doc)]) == 0

    worse = copy.deepcopy(doc)
    entry = worse["workloads"]["chaos"]["end_to_end"]["command_s"]
    for key in ("value", "q1", "q3"):
        entry[key] *= 1.2
    assert main(["compare", parent, _write(tmp_path / "worse.json", worse)]) == 1


def test_a_risen_error_rate_fails(tiny_results):
    doc = document(tiny_results, 1996)
    worse = copy.deepcopy(doc)
    worse["workloads"]["mega"]["end_to_end"]["error_rate"]["value"] = 0.01
    assert compare(doc, worse)[1] is True


def test_counter_changes_are_reported_by_name(tiny_results):
    doc = document(tiny_results, 1996)
    changed = copy.deepcopy(doc)
    changed["workloads"]["congestion"]["per_layer"]["netsim.link.frames"]["value"] += 1
    lines, worse = compare(doc, changed)
    assert not worse
    assert any("behaviour change: netsim.link.frames" in line for line in lines)


def test_a_2x_slower_segment_transmit_is_named_as_netsim_link(make_session, monkeypatch):
    from repro.netsim import link

    original = link.Segment.transmit
    slow = [False]

    def transmit(self, sender, frame):
        start = perf_counter()
        original(self, sender, frame)
        if slow[0]:
            # Spend as long again as the call itself took: 2x its time.
            until = perf_counter() + (perf_counter() - start)
            while perf_counter() < until:
                pass

    monkeypatch.setattr(link.Segment, "transmit", transmit)
    session = make_session("congestion")
    probe = RunProbe()
    probe.install()
    try:
        untraced = [session.invoke(probe)]
    finally:
        probe.restore()
    runs = {False: [], True: []}
    tracer = LayerTracer()
    tracer.install()
    try:
        # Alternate, so that host noise lands on both sides alike.
        for _ in range(5):
            for flag in (False, True):
                slow[0] = flag
                runs[flag].append(session.invoke(tracer))
    finally:
        tracer.restore()
    assert session.failed == 0, session.errors
    before, errors = per_layer_metrics({"untraced": untraced, "traced": runs[False]})
    after, more = per_layer_metrics({"untraced": untraced, "traced": runs[True]})
    assert errors == more == []
    assert flagged_layers(before, after) == ["netsim.link"]
    assert flagged_layers(before, before) == []
