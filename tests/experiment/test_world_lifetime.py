"""World lifetime: a world run in a loop dies inside its GC pause.

Worlds are cyclic, so reference counting never frees one; the cyclic
GC does.  A world built, driven and dropped inside one ``gc_paused``
block is all young garbage when the GC resumes, so the first
collection frees it.  A world still referenced when the GC resumes is
promoted to an older generation and outlives the cells after it.
"""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
from repro.analysis.congestion import run_congestion
from repro.experiment import Runner, SweepExecutor, canonical_traffic_spec
from repro.experiment.runner import gc_paused
from repro.netsim import Simulator
from repro.verify.fuzz import run_case


def _live_simulators() -> int:
    return sum(isinstance(obj, Simulator) for obj in gc.get_objects())


@pytest.fixture
def probe(monkeypatch):
    """A post-hook on ``Runner.run``, like the benchmark's ``RunProbe``:
    per run, whether the GC was enabled when ``run`` returned, and a
    weak reference to the run's simulator."""
    seen = []
    original = Runner.run

    def run(self, spec):
        result = original(self, spec)
        seen.append((gc.isenabled(), weakref.ref(self.scenario.sim)))
        return result

    monkeypatch.setattr(Runner, "run", run)
    return seen


class TestGcPaused:
    def test_a_nested_pause_resumes_only_at_the_outer_exit(self):
        assert gc.isenabled()
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_resumes_on_error(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_leaves_a_disabled_gc_disabled(self):
        gc.disable()
        try:
            with gc_paused():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestWorldLifetime:
    def test_congestion_cells_start_with_no_earlier_world_alive(
            self, monkeypatch):
        counts = []
        original = Runner._run

        def counting(self, spec):
            counts.append(_live_simulators())
            return original(self, spec)

        monkeypatch.setattr(Runner, "_run", counting)
        gc.collect()
        baseline = _live_simulators()
        run_congestion(datagrams=100)
        assert [count - baseline for count in counts] == [0, 0, 0]

    def test_a_sweep_cell_world_dies_inside_its_pause(self, probe):
        specs = [canonical_traffic_spec(seed=seed, datagrams=10)
                 for seed in (1401, 1402)]
        sweep = SweepExecutor(jobs=1).run(specs)
        assert sweep.ok and sweep.runs == 2
        assert [enabled for enabled, _ in probe] == [False, False]
        gc.collect(0)
        assert [world() for _, world in probe] == [None, None]

    def test_a_fuzz_case_world_dies_inside_its_pause(self, probe):
        result = run_case(canonical_traffic_spec(datagrams=10))
        assert result.ok
        ((enabled, world),) = probe
        assert not enabled
        gc.collect(0)
        assert world() is None


def test_an_inline_sweep_never_loads_multiprocessing(tmp_path):
    """Only ``WorkerSupervisor.run`` spawns workers, so only it imports
    ``multiprocessing``.  A fresh interpreter, because pytest's plugins
    may have imported it here already."""
    spec = tmp_path / "spec.json"
    spec.write_text(canonical_traffic_spec(datagrams=5).to_json())
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        f"status = main(['sweep', '--spec', {str(spec)!r}, '--jobs', '1',\n"
        "               '--no-cache', '--no-flightrec'])\n"
        "assert status == 0, status\n"
        "loaded = sorted(m for m in sys.modules if 'multiprocessing' in m)\n"
        "assert not loaded, loaded\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
