"""One workload child: a fresh interpreter running one CLI command in a loop.

Run as ``python -m benchmarks.e2e.child CONFIG_JSON`` from the
workload's own temp directory, with ``src`` and the repo root on
``PYTHONPATH``.  It imports ``repro.cli`` once, prepares the
workload's inputs, makes one warm-up invocation, prints ``ready``
(the orchestrator times set-up up to that line), then runs the
untraced loop and, when asked, the traced loop.  The last stdout line
is a JSON summary.

Every invocation is ``repro.cli.main(argv)`` with stdout and stderr
sent to in-memory buffers, preceded by ``gc.collect()`` outside the
timed region: ``Runner`` disables the cyclic GC during a run, so
without it cyclic worlds pile up and inflate RSS and tail latency.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import shutil
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from . import hostspeed
from .tracer import LayerTracer, RunProbe
from .workloads import SRC, WORKLOADS, Inputs, Workload, argv, check_report, grid_for_seed

MAX_ERRORS = 5
#: Timed invocations in a seconds-bounded loop never drop below this.
MIN_ITERATIONS = 2

#: sweep_warm's set-up: one cold sweep into the cache its loop reads.
FILL = Workload(
    "fill", 1,
    lambda inputs, out: ["sweep", "--grid", str(inputs.grid), "--jobs", "1",
                         "--cache-dir", str(inputs.warm_cache),
                         "--json-out", str(out / "out.json")],
    WORKLOADS["sweep_cold"].health, WORKLOADS["sweep_cold"].digests)


class Session:
    """Invokes one workload's command and checks every invocation."""

    def __init__(self, main: Callable[[List[str]], int], workload: Workload,
                 seed: int, workdir: Path, expected: Optional[List[str]],
                 reference: Optional[hostspeed.Reference] = None):
        self.main = main
        self.reference = reference or hostspeed.Reference()
        self.workload = workload
        self.workdir = workdir
        self.inputs = Inputs(seed, grid_for_seed(seed, workdir),
                             workdir / "warm-cache")
        self.digests = expected
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._serial = 0

    def invoke(self, probe, workload: Optional[Workload] = None) -> Dict[str, Any]:
        """One checked invocation; returns its record."""
        workload = workload or self.workload
        self._serial += 1
        out = self.workdir / f"inv-{self._serial}"
        out.mkdir()
        args = argv(workload, self.inputs, out)
        gc.collect()
        reference = self.reference.seconds()
        invocation = probe.begin()
        stdout, stderr = io.StringIO(), io.StringIO()
        status: Any = None
        crash = None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = perf_counter()
            try:
                status = self.main(args)
            except SystemExit as exc:
                status = exc.code
            except Exception:
                crash = traceback.format_exc(limit=8)
            seconds = perf_counter() - start
        probe.end()
        self.attempted += 1
        if crash is not None:
            problem = f"raised:\n{crash}"
            digests = None
        elif status != 0:
            problem = f"exit status {status}: {stderr.getvalue()[-400:]}"
            digests = None
        else:
            expected = self.digests if workload is self.workload else None
            digests, problem = check_report(workload, out, invocation.runs, expected)
            if problem is None and workload is self.workload and self.digests is None:
                self.digests = digests
        if problem is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{workload.name} {' '.join(args)}: {problem}")
        shutil.rmtree(out, ignore_errors=True)
        return {
            "seconds": seconds,
            "reference": reference,
            "runs": invocation.runs,
            "dispatched": invocation.dispatched,
            "phases": invocation.phases,
            "fast_forward": invocation.fast_forward,
            "hits": invocation.hits,
            "misses": invocation.misses,
            "calls": invocation.calls,
            "self_s": invocation.self_s,
        }

    def loop(self, probe, budget: Dict[str, float]) -> List[Dict[str, Any]]:
        """Invoke until the budget (``iterations`` or ``seconds``) is spent."""
        records: List[Dict[str, Any]] = []
        if "iterations" in budget:
            while len(records) < budget["iterations"]:
                records.append(self.invoke(probe))
            return records
        deadline = perf_counter() + budget["seconds"]
        while len(records) < MIN_ITERATIONS or perf_counter() < deadline:
            records.append(self.invoke(probe))
        return records


def run(config: Dict[str, Any]) -> Dict[str, Any]:
    # Before the program's import, so the table sits below its heap.
    reference = hostspeed.Reference()
    import repro
    import repro.cli

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    workload = WORKLOADS[config["workload"]]
    session = Session(repro.cli.main, workload, config["seed"], Path.cwd(),
                      config.get("expected"), reference)
    probe = RunProbe()
    probe.install()
    if workload.name == "sweep_warm":
        session.invoke(probe, FILL)
    session.invoke(probe)  # warm-up: lazy imports and first-run work
    print("ready", flush=True)
    setup_reference = reference.burst()

    untraced = session.loop(probe, config["untraced"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.restore()
    leftovers = probe.patch.leftovers()
    traced: List[Dict[str, Any]] = []
    missing: List[str] = []
    if config.get("traced"):
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = session.loop(tracer, config["traced"])
        finally:
            tracer.restore()
        missing = tracer.missing
        leftovers += tracer.patch.leftovers()
    return {
        "untraced": untraced,
        "traced": traced,
        "rss_mb": rss_mb,
        "setup_reference": setup_reference,
        "attempted": session.attempted,
        "failed": session.failed,
        "errors": session.errors,
        "digests": session.digests,
        "missing_targets": missing,
        "leftovers": leftovers,
    }


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))), flush=True)
