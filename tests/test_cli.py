"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main

# `chaos` at the CLI's default seed under the demo plan.
CHAOS_DIGEST = (
    "403fe7a1afb1fcaa3d6b79e92bdcdeabd94cc545e1b1c4eed6ebb45f43be99f0")


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Run every CLI test from a scratch directory: the flight
    recorder (armed by default on chaos/sweep/fuzz) dumps relative to
    the CWD, and those artifacts must not land in the checkout.
    PYTHONPATH entries are absolutized first so subprocess tests
    (``python -m repro``) still resolve a relative ``src``."""
    paths = os.environ.get("PYTHONPATH", "")
    if paths:
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            os.path.abspath(p) for p in paths.split(os.pathsep) if p))
    monkeypatch.chdir(tmp_path)


class TestCli:
    def test_grid_static(self, capsys):
        assert main(["grid"]) == 0
        out = capsys.readouterr().out
        assert "Out-IE" in out and "inapplicable" in out

    def test_grid_live_agrees(self, capsys):
        assert main(["grid", "--live"]) == 0
        out = capsys.readouterr().out
        assert "all cells agree with Figure 10" in out
        assert out.count("DEAD") == 6

    def test_modes(self, capsys):
        assert main(["modes"]) == 0
        out = capsys.readouterr().out
        for mode in ("Out-IE", "Out-DE", "Out-DH", "Out-DT",
                     "In-IE", "In-DE", "In-DH", "In-DT"):
            assert mode in out
        assert "140B" in out and "120B" in out

    def test_topology(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "backbone:" in out
        assert "registered=True" in out

    def test_grid_live_counts_mismatches(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_run_cell", lambda *a, **k: False)
        assert main(["grid", "--live"]) == 1
        out = capsys.readouterr().out
        # Figure 10 has 10 working cells; claiming every cell is dead
        # must mismatch exactly those 10 and report them.
        assert "10 mismatches!" in out
        assert out.count("MISMATCH") == 10
        assert "all cells agree" not in out

    def test_grid_live_runs_sixteen_cells(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.core.grid import GRID

        calls = []

        def fake_cell(in_mode, out_mode, args):
            calls.append((in_mode, out_mode))
            return GRID.cell(in_mode, out_mode).works_with_tcp

        monkeypatch.setattr(cli, "_run_cell", fake_cell)
        assert main(["grid", "--live"]) == 0
        assert len(calls) == 16
        assert len(set(calls)) == 16

    def test_trace(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert out.count("reached") == 2
        assert "home-address path bends" in out

    def test_trace_prints_hop_lists(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        home_section = out.split("--- to the care-of address ---")[0]
        # The home-address path bends through the home domain...
        for hop in ("chdom-gw", "home-gw", "(mh)"):
            assert hop in home_section
        # ...and hops are numbered in order.
        assert home_section.index(" 1 ") < home_section.index("(mh)")

    def test_durability(self, capsys):
        assert main(["durability"]) == 0
        out = capsys.readouterr().out
        assert "survived" in out
        assert "broke" in out

    def test_seed_flag(self, capsys):
        assert main(["--seed", "7", "topology"]) == 0
        out = capsys.readouterr().out
        assert "care-of" in out

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestPolicySubcommand:
    def test_policy_lookup(self, tmp_path, capsys):
        config = tmp_path / "policy.conf"
        config.write_text(
            "default pessimistic\n10.1.0.0/16 home-only\n")
        assert main(["policy", str(config), "10.1.0.5", "8.8.8.8"]) == 0
        out = capsys.readouterr().out
        assert "10.1.0.5 -> home-only" in out
        assert "8.8.8.8 -> pessimistic" in out

    def test_policy_bad_config(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("10.0.0.0/8 yolo\n")
        assert main(["policy", str(config)]) == 1
        assert "error" in capsys.readouterr().err

    def test_policy_missing_file(self, capsys):
        assert main(["policy", "/nonexistent/file"]) == 1

    def test_policy_bad_address(self, tmp_path, capsys):
        config = tmp_path / "policy.conf"
        config.write_text("default optimistic\n")
        assert main(["policy", str(config), "not-an-ip"]) == 1


class TestObsSubcommand:
    def test_obs_prints_summaries(self, capsys):
        assert main(["obs", "--datagrams", "10", "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-mode datagram summary:" in out
        assert "conventional" in out
        assert "delivered=10" in out
        assert "latency mean=" in out
        assert "engine:" in out
        assert "peak_pending=" in out

    def test_obs_chrome_trace_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["obs", "--datagrams", "5", "--duration", "1",
                     "--chrome-trace", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(path) as handle:
            trace = json.load(handle)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) >= 5

    def test_obs_out_writes_report(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        assert main(["--obs-out", str(path), "obs",
                     "--datagrams", "5", "--duration", "1"]) == 0
        assert f"observability report written to {path}" in \
            capsys.readouterr().out
        assert path.read_text().endswith("}\n")
        with open(path) as handle:
            report = json.load(handle)
        assert report["spans"]["count"] >= 5
        assert "node.packets_sent{node=mh}" in report["metrics"]
        assert report["engine"]["summary"]["samples"] >= 1

    def test_obs_folds_the_trace_once_per_output(self, tmp_path, monkeypatch,
                                                 capsys):
        # One fold for the run's report, which --obs-out writes as it
        # is, and one for the Chrome file: none for a second report.
        import repro.obs.observability

        folds = []
        fold = repro.obs.observability.datagrams

        def counted(*args, **kwargs):
            folds.append(1)
            return fold(*args, **kwargs)

        monkeypatch.setattr(repro.obs.observability, "datagrams", counted)
        assert main(["--seed", "1996", "--obs-out", str(tmp_path / "r.json"),
                     "obs", "--chrome-trace", str(tmp_path / "c.json")]) == 0
        assert len(folds) == 2

    def test_obs_output_bytes_are_pinned(self, tmp_path):
        # Pins the span fold's order, ids and arg order, which the
        # report's per-mode summary and the Chrome file both show.  Run
        # in a fresh process: span names carry process-global trace
        # ids.  A change that alters either file on purpose updates
        # these pins and says why in CHANGES.md.
        import hashlib
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--seed", "1996",
             "--obs-out", "obs.json", "obs", "--chrome-trace", "chrome.json"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("obs.json", "chrome.json")}
        assert digests == {
            "obs.json": "b49b157e0d2e2c70bf30def86475c627"
                        "8fc8f1d3ee2e43b41c2f3626137fff0e",
            "chrome.json": "e9b1b324fd6bb38a692acdd5da5eb215"
                           "f5b8ce53dcb69aea29bade8436ef8ac5",
        }

    def test_obs_out_on_topology(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        assert main(["--obs-out", str(path), "topology"]) == 0
        with open(path) as handle:
            report = json.load(handle)
        # Registration traffic happened before obs attached; the
        # registry still reports it because metrics are pull-based.
        assert report["metrics"]["node.packets_sent{node=mh}"] >= 1

    def test_no_obs_out_no_report(self, tmp_path, capsys):
        assert main(["topology"]) == 0
        assert "observability report" not in capsys.readouterr().out


class TestChaosSubcommand:
    def test_chaos_show_plan(self, capsys):
        assert main(["chaos", "--show-plan"]) == 0
        out = capsys.readouterr().out
        assert '"events"' in out
        assert "agent-restart" in out

    def test_chaos_short_run(self, capsys):
        assert main(["chaos", "--duration", "40"]) == 0
        out = capsys.readouterr().out
        assert "chaos run: seed=1996" in out  # the CLI's global default seed
        assert "faults applied" in out
        assert "loss-burst x1" in out
        assert "registered=True" in out

    def test_chaos_fault_script_and_json_out(self, tmp_path, capsys):
        import json

        from repro.netsim import FaultKind, FaultPlan

        script = tmp_path / "faults.json"
        script.write_text(
            FaultPlan().add(2.0, FaultKind.LINK_FLAP, "visited-lan",
                            duration=1.0).to_json()
        )
        report_path = tmp_path / "report.json"
        assert main(["--seed", "9", "chaos", "--fault-script", str(script),
                     "--duration", "20", "--json-out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "chaos run: seed=9" in out
        assert report_path.read_text().endswith("}\n")
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["seed"] == 9
        assert report["faults"] == {"link-flap": 1}
        assert report["digest"]

    def test_chaos_bad_script_errors(self, tmp_path, capsys):
        script = tmp_path / "bad.json"
        script.write_text('{"events": [{"time": 1.0}]}')
        assert main(["chaos", "--fault-script", str(script)]) == 1
        assert "error" in capsys.readouterr().err

    def test_chaos_unknown_target_errors(self, tmp_path, capsys):
        from repro.netsim import FaultKind, FaultPlan

        script = tmp_path / "ghost.json"
        script.write_text(
            FaultPlan().add(1.0, FaultKind.LINK_DOWN, "no-such-lan").to_json()
        )
        assert main(["chaos", "--fault-script", str(script)]) == 1
        assert "no segment named" in capsys.readouterr().err

    def test_chaos_spec_replays_through_sweep(self, tmp_path):
        import json

        from repro.analysis.chaos import chaos_spec, demo_plan

        assert main(["chaos", "--json-out", "chaos.json"]) == 0
        with open("chaos.json") as handle:
            chaos = json.load(handle)
        assert chaos["digest"] == CHAOS_DIGEST
        spec = tmp_path / "chaos-spec.json"
        spec.write_text(chaos_spec(seed=1996, plan=demo_plan(),
                                   arm_invariants=True).to_json())
        counts = {"sent": chaos["messages_sent"], "echoes": chaos["echoes"],
                  "reconnects": chaos["reconnects"]}
        assert counts == {"sent": 95, "echoes": 24, "reconnects": 1}

        def replay(*flags):
            assert main(["sweep", "--spec", str(spec), *flags,
                         "--json-out", "sweep.json"]) == 0
            with open("sweep.json") as handle:
                sweep = json.load(handle)
            (result,) = sweep["results"]
            assert result["digest"] == CHAOS_DIGEST
            assert result["extras"]["conversation"] == counts
            return sweep["cache"]

        assert replay("--no-cache") is None
        cache_dir = str(tmp_path / "cache")
        assert replay("--cache-dir", cache_dir)["hits"] == 0
        assert replay("--cache-dir", cache_dir)["hits"] == 1


class TestCongestionSubcommand:
    def test_congestion_json_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "congestion.json"
        assert main(["congestion", "--datagrams", "60",
                     "--json-out", str(path)]) == 0
        assert f"congestion report written to {path}" in \
            capsys.readouterr().out
        assert path.read_text().endswith("}\n")
        assert json.loads(path.read_text())["cells"]

    def test_congestion_obs_out_writes_one_run_per_cell(self, tmp_path,
                                                        capsys):
        import json

        obs_path = tmp_path / "obs.json"
        json_path = tmp_path / "congestion.json"
        assert main(["--obs-out", str(obs_path), "congestion",
                     "--datagrams", "60", "--json-out", str(json_path)]) == 0
        runs = json.loads(obs_path.read_text())["runs"]
        assert len(runs) == 3
        for run in runs:
            peaks = run["engine"]["summary"]["peak_queue_depth"]
            assert peaks == {"uplink-home": 8}
        # The observability reports stay out of the congestion report.
        assert "obs" not in json.loads(json_path.read_text())


class TestMegaSubcommand:
    def test_mega_json_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "mega.json"
        assert main(["mega", "--hosts", "2000", "--datagrams", "5",
                     "--json-out", str(path)]) == 0
        assert f"mega report written to {path}" in capsys.readouterr().out
        assert path.read_text().endswith("}\n")
        report = json.loads(path.read_text())
        assert report["hosts"] == 2000
        assert report["target"] == "mega-h123"

    def test_default_target_is_the_last_host_of_a_small_world(
            self, tmp_path):
        import json

        path = tmp_path / "mega.json"
        assert main(["mega", "--hosts", "100", "--datagrams", "4",
                     "--json-out", str(path)]) == 0
        assert json.loads(path.read_text())["target"] == "mega-h99"

    @pytest.mark.parametrize("hosts, target", [
        ("100", "500"), ("100", "100"), ("1000000", "-1")])
    def test_target_outside_the_world_is_refused(
            self, hosts, target, capsys):
        assert main(["mega", "--hosts", hosts, "--target", target]) == 1
        assert capsys.readouterr().err == (
            f"error: --target must be in [0, {hosts}), got {target}\n")

    def test_no_traffic_prints_no_conversation(self, capsys):
        assert main(["mega", "--hosts", "1000", "--datagrams", "0"]) == 0
        out = capsys.readouterr().out
        assert "trace digest" in out
        assert "conversation" not in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "grid"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "Out-IE" in result.stdout


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["modes"],
        ["mega", "--hosts", "100", "--datagrams", "4"],
    ], ids=["modes", "mega"])
    def test_a_reader_gone_before_the_first_write_exits_141_quietly(
            self, argv, unbuffered):
        """Like ``repro-mobility modes | head -0``: stdout is a pipe
        whose read end is already closed.  The command ends with
        128+SIGPIPE and writes nothing to stderr, neither a traceback
        nor an "Exception ignored" line from the exit-time flush."""
        import subprocess
        import sys

        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b"")


class TestJsonOutToStdout:
    @pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                        reason="needs /dev/stdout")
    def test_dev_stdout_keeps_redirected_output_in_order(self, tmp_path):
        """``--json-out /dev/stdout`` with stdout redirected to a file:
        the table, then one parseable JSON line, then the confirmation
        line.  Opening the path anew would truncate the file under the
        buffered table and interleave the two writers."""
        import json
        import subprocess
        import sys

        out = tmp_path / "out.txt"
        with open(out, "w") as handle:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "chaos", "--duration", "20",
                 "--json-out", "/dev/stdout"],
                stdout=handle, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("chaos run: seed=1996 duration=20s")
        assert any(line.startswith("  registration ") for line in lines[1:-2])
        report = json.loads(lines[-2])
        assert report["seed"] == 1996 and report["registered"] is True
        assert lines[-1] == "chaos report written to /dev/stdout"


class TestChaosExitCodes:
    def test_chaos_arms_invariants_and_reports_them(self, capsys):
        assert main(["chaos", "--duration", "40"]) == 0
        out = capsys.readouterr().out
        assert "invariants" in out
        assert "0 violations" in out

    def test_chaos_exits_nonzero_on_invariant_violation(
        self, capsys, monkeypatch
    ):
        from repro.netsim.router import Router

        monkeypatch.setattr(Router, "ttl_decrement", 0)
        assert main(["chaos", "--duration", "40"]) == 1
        captured = capsys.readouterr()
        assert "invariant violation" in captured.err


class TestFuzzSubcommand:
    def test_fuzz_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "no invariant violations" in out
        assert "seed=1996" in out  # the CLI's global default seed

    def test_fuzz_seed_flag_overrides_default(self, capsys):
        assert main(["fuzz", "--iterations", "1", "--seed", "9"]) == 0
        assert "seed=9" in capsys.readouterr().out

    def test_fuzz_exits_nonzero_and_writes_repro_on_violation(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.netsim.router import Router

        monkeypatch.setattr(Router, "ttl_decrement", 0)
        out_file = tmp_path / "repro.json"
        assert main(["fuzz", "--iterations", "2", "--no-shrink",
                     "--out", str(out_file)]) == 1
        captured = capsys.readouterr().out
        assert "FAILED" in captured
        payload = json.loads(out_file.read_text())
        assert payload["spec"]
        # Replaying the repro (sabotage still in place) fails too…
        assert main(["fuzz", "--repro", str(out_file)]) == 1
        assert "ttl-decreases" in capsys.readouterr().out

    def test_fuzz_repro_of_clean_case_exits_zero(self, tmp_path, capsys):
        import json

        from repro.verify.fuzz import generate_case

        repro = tmp_path / "clean.json"
        repro.write_text(json.dumps(
            {"spec": generate_case(4242).to_dict(), "violations": []}))
        assert main(["fuzz", "--repro", str(repro)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_fuzz_missing_repro_errors(self, tmp_path, capsys):
        assert main(["fuzz", "--repro", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err
        # A repro file from before the spec key holds only a case record.
        old = tmp_path / "old.json"
        old.write_text('{"case": {"seed": 1}, "violations": []}')
        assert main(["fuzz", "--repro", str(old)]) == 1
        assert "unknown fields" in capsys.readouterr().err


class TestSweepSubcommand:
    def _grid_file(self, tmp_path, specs=2, datagrams=5):
        import json

        from repro.experiment import canonical_traffic_spec

        base = canonical_traffic_spec(datagrams=datagrams).to_dict()
        del base["label"]
        seeds = [1401, 1996, 7, 11][:specs]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            {"base": base, "axes": {"seed": seeds}}))
        return str(path)

    def test_sweep_grid_runs_and_exits_zero(self, tmp_path, capsys):
        assert main(["sweep", "--grid", self._grid_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 runs" in out
        assert "seed=1401" in out and "seed=1996" in out

    def test_sweep_json_out(self, tmp_path, capsys, monkeypatch):
        """The report file is one line of sorted JSON.  Re-indented, it
        is byte-for-byte what an ``indent=2`` writer makes of the same
        payload: only whitespace differs."""
        import json

        from repro import cli

        payloads = []
        write_json = cli._write_json

        def recording_write_json(path, payload, what):
            payloads.append(payload)
            write_json(path, payload, what)

        monkeypatch.setattr(cli, "_write_json", recording_write_json)
        out_file = tmp_path / "results.json"
        assert main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--json-out", str(out_file)]) == 0
        text = out_file.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        payload = json.loads(text)
        assert payload["runs"] == 2
        assert all(r["digest"] for r in payload["results"])
        # Each cell's metrics snapshot is one flat object: a number per
        # series, an object of numbers per family.
        for result in payload["results"]:
            assert result["metrics"]
            for value in result["metrics"].values():
                numbers = value.values() if isinstance(value, dict) else [value]
                assert all(isinstance(n, (int, float)) for n in numbers), value
        [written] = payloads
        assert json.dumps(payload, indent=2, sort_keys=True) == \
            json.dumps(written, indent=2, sort_keys=True)

    def test_sweep_parallel_matches_serial_digests(self, tmp_path, capsys):
        import json

        grid = self._grid_file(tmp_path, specs=3)
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(["sweep", "--grid", grid, "--jobs", "1",
                     "--json-out", str(serial_out)]) == 0
        assert main(["sweep", "--grid", grid, "--jobs", "2",
                     "--json-out", str(parallel_out)]) == 0
        serial = json.loads(serial_out.read_text())
        parallel = json.loads(parallel_out.read_text())
        assert [r["digest"] for r in serial["results"]] == \
            [r["digest"] for r in parallel["results"]]

    def test_sweep_show_specs_prints_without_running(self, tmp_path, capsys):
        import json

        assert main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--show-specs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert payload[0]["seed"] == 1401

    def test_sweep_single_spec_file(self, tmp_path, capsys):
        from repro.experiment import canonical_traffic_spec

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(canonical_traffic_spec(datagrams=5).to_json())
        assert main(["sweep", "--spec", str(spec_file)]) == 0
        assert "sweep: 1 runs" in capsys.readouterr().out

    def test_sweep_exits_nonzero_on_violation(self, tmp_path, capsys):
        from repro.experiment import canonical_traffic_spec

        spec_file = tmp_path / "violating.json"
        spec_file.write_text(canonical_traffic_spec(
            datagrams=5, arm_invariants=True,
            max_tunnel_depth=0).to_json())
        assert main(["sweep", "--spec", str(spec_file)]) == 1
        captured = capsys.readouterr()
        assert "invariant violation" in captured.err

    def test_sweep_replays_fuzz_repro(self, tmp_path, capsys, monkeypatch):
        from repro.netsim.router import Router

        monkeypatch.setattr(Router, "ttl_decrement", 0)
        out_file = tmp_path / "repro.json"
        assert main(["fuzz", "--iterations", "2", "--no-shrink",
                     "--out", str(out_file)]) == 1
        capsys.readouterr()
        # The repro's embedded spec arms invariants; the sabotage is
        # still in place, so the sweep replay reports the violation.
        assert main(["sweep", "--spec", str(out_file)]) == 1
        captured = capsys.readouterr()
        assert "invariant violation" in captured.err

    def test_sweep_spec_and_grid_are_exclusive(self, tmp_path, capsys):
        assert main(["sweep", "--spec", "a.json", "--grid", "b.json"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_missing_grid_errors(self, tmp_path, capsys):
        assert main(["sweep", "--grid", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_bad_grid_is_a_spec_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"axes": {"warp_factor": [1]}}')
        assert main(["sweep", "--grid", str(bad)]) == 1
        assert "not an experiment-spec field" in capsys.readouterr().err

    def test_sweep_bad_jobs_errors(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_bad_max_retries_errors(self, capsys):
        assert main(["sweep", "--max-retries", "-1"]) == 1
        assert "--max-retries" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--resume", "--checkpoint"])
    def test_sweep_refuses_to_journal_into_a_grid(
            self, tmp_path, capsys, flag):
        import hashlib
        import pathlib
        import shutil

        copy = tmp_path / "grid_4x4.json"
        shutil.copyfile(pathlib.Path(__file__).resolve().parents[1]
                        / "examples" / "grid_4x4.json", copy)
        before = hashlib.sha256(copy.read_bytes()).hexdigest()
        assert main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--no-cache", flag, str(copy)]) == 1
        assert str(copy) in capsys.readouterr().err
        assert hashlib.sha256(copy.read_bytes()).hexdigest() == before

    def test_sweep_refuses_to_resume_from_a_json_out_report(
            self, tmp_path, capsys):
        import hashlib

        grid = self._grid_file(tmp_path)
        report = tmp_path / "report.json"
        assert main(["sweep", "--grid", grid, "--no-cache",
                     "--json-out", str(report)]) == 0
        capsys.readouterr()
        before = hashlib.sha256(report.read_bytes()).hexdigest()
        assert main(["sweep", "--grid", grid, "--no-cache",
                     "--resume", str(report)]) == 1
        assert str(report) in capsys.readouterr().err
        assert hashlib.sha256(report.read_bytes()).hexdigest() == before

    def test_sweep_resumes_a_checkpoint_torn_in_its_first_append(
            self, tmp_path, capsys):
        from repro.experiment import SweepCheckpoint

        checkpoint = tmp_path / "ck.jsonl"
        checkpoint.write_text('{"torn half of a lin')
        assert main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--no-cache", "--resume", str(checkpoint)]) == 0
        assert "(1 torn line(s) skipped)" in capsys.readouterr().err
        # The first append terminated the torn line instead of gluing
        # its record onto it.
        lines = checkpoint.read_text().splitlines()
        assert lines[0] == '{"torn half of a lin' and len(lines) == 3
        completed, torn = SweepCheckpoint.load(str(checkpoint))
        assert (len(completed), torn) == (2, 1)

    def test_sweep_grace_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grace", "5"])
        assert exc.value.code == 2

    def test_sweep_checkpoint_then_resume_round_trip(self, tmp_path, capsys):
        grid = self._grid_file(tmp_path)
        checkpoint = tmp_path / "ck.jsonl"
        assert main(["sweep", "--grid", grid, "--no-cache",
                     "--checkpoint", str(checkpoint)]) == 0
        captured = capsys.readouterr()
        assert "sweep checkpoint: 2 cell(s)" in captured.out
        assert main(["sweep", "--grid", grid, "--no-cache",
                     "--resume", str(checkpoint)]) == 0
        captured = capsys.readouterr()
        assert "resuming: 2 checkpointed cell(s)" in captured.err
        assert "sweep: 2 runs" in captured.out

    def test_sweep_resume_from_empty_checkpoint_runs_full_grid(
            self, tmp_path, capsys):
        checkpoint = tmp_path / "empty.jsonl"
        checkpoint.write_text("")
        assert main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--no-cache", "--resume", str(checkpoint)]) == 0
        captured = capsys.readouterr()
        assert "no completed cells" in captured.err
        assert "sweep: 2 runs" in captured.out

    def test_sweep_quarantined_cell_warns_but_exits_zero(
            self, tmp_path, capsys, monkeypatch):
        from repro.experiment import FAULT_ENV

        monkeypatch.setenv(FAULT_ENV, "fail:seed=1401:99")
        assert main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--no-cache", "--max-retries", "1",
                     "--retry-backoff", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "warning: 1 cell(s) quarantined" in captured.err
        assert "quarantined: seed=1401" in captured.out

    def test_sweep_strict_cells_fails_the_run(
            self, tmp_path, capsys, monkeypatch):
        from repro.experiment import FAULT_ENV

        monkeypatch.setenv(FAULT_ENV, "fail:seed=1401:99")
        assert main(["sweep", "--grid", self._grid_file(tmp_path),
                     "--no-cache", "--strict-cells", "--max-retries", "0",
                     ]) == 1
        assert "seed=1401" in capsys.readouterr().err


class TestOutOfRangeFlags:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--cell-timeout", "0"],
        ["sweep", "--cell-timeout", "-1"],
        ["sweep", "--retry-backoff", "-0.5"],
        ["chaos", "--interval", "0"],
        ["chaos", "--interval", "-1"],
        ["fuzz", "--iterations", "-1"],
        ["mega", "--datagrams", "-1"],
        ["obs", "--datagrams", "-1"],
        ["obs", "--duration", "-1"],
    ])
    def test_flag_is_refused_by_name(self, argv, capsys):
        assert main(argv) == 1
        assert f"error: {argv[1]} must be" in capsys.readouterr().err


class TestSweepProgress:
    def test_progress_streams_to_stderr(self, tmp_path, capsys):
        import json

        from repro.experiment import canonical_traffic_spec

        base = canonical_traffic_spec(datagrams=5).to_dict()
        del base["label"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"base": base, "axes": {"seed": [1401, 1996]}}))
        assert main(["sweep", "--grid", str(grid), "--no-cache",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[1/2]" in captured.err
        assert "[2/2]" in captured.err
        assert "cells/s" in captured.err
        # The status line stays off stdout (results remain pipeable).
        assert "cells/s" not in captured.out

    def test_sweep_ledger_flag_appends_records(self, tmp_path, capsys):
        from repro.experiment import canonical_traffic_spec
        from repro.obs.ledger import read_ledger

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(canonical_traffic_spec(datagrams=5).to_json())
        ledger = tmp_path / "ledger.jsonl"
        assert main(["sweep", "--spec", str(spec_file), "--no-cache",
                     "--ledger", str(ledger)]) == 0
        assert "run ledger: 3 record(s) appended" in capsys.readouterr().out
        records, skipped = read_ledger(str(ledger))
        assert skipped == 0
        assert [r["kind"] for r in records] == [
            "sweep-start", "run", "sweep-end"]


class TestFlightrecAcceptance:
    def test_violating_spec_sweep_dumps_the_flight_recorder(
        self, tmp_path, capsys
    ):
        # The PR's acceptance pin: sweeping examples/violating_spec.json
        # exits 1 and leaves flightrec.json in the CWD with the
        # violating datagram among the last-N ring entries.
        import json
        import pathlib

        spec = str(pathlib.Path(__file__).resolve().parents[1]
                   / "examples" / "violating_spec.json")
        assert main(["sweep", "--spec", spec, "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert "flight recorder dumped to" in captured.out
        payload = json.loads(
            (pathlib.Path.cwd() / "flightrec.json").read_text())
        assert payload["reason"] == "invariant-violation"
        violating_ids = {v["trace_id"] for v in payload["violations"]}
        ring_ids = {e["trace_id"] for e in payload["entries"]}
        assert violating_ids & ring_ids

    def test_violating_spec_dump_bytes_are_pinned(self):
        # Run in a fresh process: the dump carries process-global trace
        # ids.  A change that alters the dump on purpose updates this
        # pin and says why in CHANGES.md.
        import hashlib
        import pathlib
        import subprocess
        import sys

        spec = str(pathlib.Path(__file__).resolve().parents[1]
                   / "examples" / "violating_spec.json")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--no-cache",
             "--spec", spec],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        dump = (pathlib.Path.cwd() / "flightrec.json").read_bytes()
        assert hashlib.sha256(dump).hexdigest() == (
            "3da1ceade5752aacac890d67e3be8221d2073192ee28a0330f859547e23430ce")

    def test_no_flightrec_suppresses_the_dump(self, tmp_path, capsys):
        import pathlib

        spec = str(pathlib.Path(__file__).resolve().parents[1]
                   / "examples" / "violating_spec.json")
        assert main(["sweep", "--spec", spec, "--no-cache",
                     "--no-flightrec"]) == 1
        assert not (pathlib.Path.cwd() / "flightrec.json").exists()


class TestReportSubcommand:
    def _ledger_file(self, tmp_path):
        from repro.experiment import Runner, canonical_traffic_spec
        from repro.obs.ledger import (
            RunLedger,
            run_record,
            sweep_end_record,
            sweep_start_record,
        )

        result = Runner().run(canonical_traffic_spec(datagrams=5))
        path = tmp_path / "ledger.jsonl"
        with RunLedger(str(path)) as ledger:
            ledger.append(sweep_start_record(total=1, jobs=1, cache=False))
            ledger.append(run_record(result))
            ledger.append(sweep_end_record(
                completed=1, total=1, elapsed=0.5, violation_count=0,
                cache=None))
        return path

    def test_report_renders_ledger_markdown(self, tmp_path, capsys):
        path = self._ledger_file(tmp_path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Run-ledger report")
        assert "## Phase-time breakdown" in out

    def test_report_json_summary(self, tmp_path, capsys):
        import json

        path = self._ledger_file(tmp_path)
        assert main(["report", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == 1
        assert summary["invalid_records"] == 0

    def test_report_out_writes_file(self, tmp_path, capsys):
        path = self._ledger_file(tmp_path)
        out_file = tmp_path / "report.md"
        assert main(["report", str(path), "--out", str(out_file)]) == 0
        assert "report written to" in capsys.readouterr().out
        assert out_file.read_text().startswith("# Run-ledger report")

    def test_report_strict_fails_on_garbage_line(self, tmp_path, capsys):
        path = self._ledger_file(tmp_path)
        with open(path, "a") as handle:
            handle.write("this is not json\n")
        assert main(["report", str(path)]) == 0
        assert "1 invalid or torn record(s)" in capsys.readouterr().out
        assert main(["report", str(path), "--strict"]) == 1
        captured = capsys.readouterr()
        assert "invalid ledger record" in captured.err

    def test_report_strict_accepts_legacy_run_records(self, tmp_path, capsys):
        # Ledgers written while the replay engine existed carry its
        # counters in every run record.
        import json

        path = self._ledger_file(tmp_path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if record["kind"] == "run":
                record["fast_forward"] = {
                    "enabled": True, "engaged_runs": 1, "replayed": 3,
                    "captured": 2, "fallbacks": 0, "world_changes": 1}
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", str(path), "--strict"]) == 0
        assert "invalid" not in capsys.readouterr().out

    def test_report_missing_file_errors(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["foreign-json", "BENCH_PR6.json"])
    def test_report_unrecognized_json_errors(self, source, tmp_path, capsys):
        import pathlib

        if source == "foreign-json":
            path = tmp_path / "other.json"
            path.write_text('{"hello": "world"}')
        else:
            # A committed micro-benchmark trajectory: JSON, not a ledger.
            path = pathlib.Path(__file__).resolve().parents[1] / source
        assert main(["report", str(path)]) == 1
        assert "not a run ledger" in capsys.readouterr().err
