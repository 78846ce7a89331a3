"""Tests for metrics, reporting, and the scenario builder itself."""

import pytest
from repro.analysis import TextTable, build_scenario, path_stretch
from repro.mobileip import Awareness


class TestRatios:
    def test_path_stretch(self):
        assert path_stretch(30.0, 10.0) == 3.0
        assert path_stretch(10.0, 10.0) == 1.0

    def test_path_stretch_bad_direct(self):
        with pytest.raises(ValueError):
            path_stretch(1.0, 0.0)


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable("Demo", ["mode", "latency"])
        table.add_row("Out-IE", 0.123456)
        table.add_row("Out-DH", 0.05)
        rendered = table.render()
        assert "Demo" in rendered
        assert "Out-IE" in rendered and "0.1235" in rendered

    def test_row_arity_checked(self):
        table = TextTable("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")


class TestScenarioBuilder:
    def test_determinism_same_seed(self):
        first = build_scenario(seed=201, ch_awareness=Awareness.CONVENTIONAL)
        second = build_scenario(seed=201, ch_awareness=Awareness.CONVENTIONAL)
        assert str(first.mh.care_of) == str(second.mh.care_of)
        assert first.sim.trace.action_counts == second.sim.trace.action_counts

    def test_ch_in_visited_lan_shares_segment(self):
        scenario = build_scenario(seed=202, ch_awareness=Awareness.CONVENTIONAL,
                                  ch_in_visited_lan=True)
        assert scenario.visited.prefix.contains(scenario.ch_ip)

    def test_backbone_distances(self):
        scenario = build_scenario(seed=203, backbone_size=7, ch_attach=3,
                                  ch_awareness=Awareness.CONVENTIONAL)
        domains = scenario.net.domains
        assert abs(domains["home"].attach_index
                   - domains["visited"].attach_index) == 6
        assert abs(domains["chdom"].attach_index
                   - domains["visited"].attach_index) == 3

    def test_settled_scenario_is_registered(self):
        scenario = build_scenario(seed=204, ch_awareness=None)
        assert scenario.mh.registered


class TestAsciiSeries:
    def test_bars_scale_to_maximum(self):
        from repro.analysis import ascii_series

        rendered = ascii_series("S", ["a", "b"], [1.0, 2.0], width=10)
        lines = rendered.splitlines()
        assert lines[0] == "== S =="
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 10

    def test_unit_suffix(self):
        from repro.analysis import ascii_series

        rendered = ascii_series("S", ["x"], [3.0], unit="ms")
        assert "3ms" in rendered

    def test_empty_series(self):
        from repro.analysis import ascii_series

        assert "(no data)" in ascii_series("S", [], [])

    def test_mismatched_lengths_rejected(self):
        from repro.analysis import ascii_series

        with pytest.raises(ValueError):
            ascii_series("S", ["a"], [1.0, 2.0])

    def test_all_zero_values(self):
        from repro.analysis import ascii_series

        rendered = ascii_series("S", ["a", "b"], [0.0, 0.0], width=10)
        assert "#" not in rendered
