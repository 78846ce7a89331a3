"""A command imports only what it runs.

Each command runs as ``python -m repro`` in a fresh interpreter, and
the set of ``repro`` modules it has loaded when it exits is pinned.  A
new top-level import that drags the simulator into a command that does
not simulate fails here: in particular, a sweep served from the result
cache loads no simulator, scenario builder or runner.  A change that
makes a command load a module on purpose updates its pin.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiment.spec import canonical_traffic_spec

SRC = Path(repro.__file__).resolve().parent.parent

# Runs the CLI the way ``python -m repro`` does, then writes the sorted
# names of the loaded ``repro`` modules to the file named first.
DRIVER = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["repro", *sys.argv[2:]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
with open(out, "w") as handle:
    json.dump(sorted(m for m in sys.modules
                     if m == "repro" or m.startswith("repro.")), handle)
"""

#: Every command: the CLI, the spec it parses arguments into, and the
#: packages on the way, whose exports load lazily.
BASE = [
    "repro", "repro._lazy", "repro.cli",
    "repro.core", "repro.core.strategy",
    "repro.experiment", "repro.experiment.spec",
    "repro.mobileip", "repro.mobileip.awareness",
    "repro.netsim", "repro.netsim.addressing", "repro.netsim.encap",
    "repro.netsim.faults", "repro.netsim.packet",
]
GRID = sorted(BASE + ["repro.core.grid", "repro.core.modes"])
WARM_SWEEP = sorted(BASE + [
    "repro.experiment.cache", "repro.experiment.result",
    "repro.experiment.supervise", "repro.experiment.sweep",
    "repro.obs", "repro.obs.ledger",
])
MEGA = sorted(BASE + [
    "repro.analysis", "repro.analysis.mega", "repro.analysis.scenarios",
    "repro.bench", "repro.bench.golden",
    "repro.core.decision", "repro.core.feedback", "repro.core.heuristics",
    "repro.core.modes", "repro.core.policy", "repro.core.selection",
    "repro.experiment.result", "repro.experiment.runner",
    "repro.mobileip.binding", "repro.mobileip.correspondent",
    "repro.mobileip.dns", "repro.mobileip.foreign_agent",
    "repro.mobileip.home_agent", "repro.mobileip.mobile_host",
    "repro.mobileip.registration", "repro.mobileip.tunnel",
    "repro.netsim.arp", "repro.netsim.events", "repro.netsim.filters",
    "repro.netsim.fragmentation", "repro.netsim.icmp", "repro.netsim.link",
    "repro.netsim.node", "repro.netsim.population", "repro.netsim.router",
    "repro.netsim.routing", "repro.netsim.simulator",
    "repro.netsim.topology", "repro.netsim.trace",
    "repro.obs", "repro.obs.metrics",
    "repro.transport", "repro.transport.sockets", "repro.transport.tcp",
    "repro.transport.udp",
])


def loaded(tmp_path: Path, *argv: str):
    """``(repro modules loaded, stdout)`` of one fresh ``python -m repro``."""
    out = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", DRIVER, str(out), *argv], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(out.read_text()), result.stdout


def test_grid_loads_the_grid_and_no_simulator(tmp_path):
    modules, _ = loaded(tmp_path, "grid")
    assert modules == GRID


def test_mega_loads_the_simulator_but_no_sweep(tmp_path):
    modules, _ = loaded(tmp_path, "mega", "--hosts", "2000",
                        "--datagrams", "4")
    assert modules == MEGA


def test_a_cache_served_sweep_loads_no_simulator(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(canonical_traffic_spec(datagrams=5).to_json())
    sweep = ("sweep", "--spec", str(spec), "--cache-dir", "cache",
             "--no-flightrec")
    _, fill = loaded(tmp_path, *sweep)
    assert "cache: 0 hit(s), 1 miss(es)" in fill
    modules, warm = loaded(tmp_path, *sweep, "--ledger", "ledger.jsonl",
                           "--json-out", "out.json")
    assert "cache: 1 hit(s), 0 miss(es)" in warm
    for module in ("repro.netsim.simulator", "repro.analysis.scenarios",
                   "repro.experiment.runner"):
        assert module not in modules
    assert modules == WARM_SWEEP
