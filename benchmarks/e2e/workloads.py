"""The five end-to-end workloads: argv, inputs, health checks, digests.

Each workload is one ``repro-mobility`` command run with its default
flags (``--jobs 1`` for the sweeps).  This module never imports
``repro``: the orchestrator uses it to build cold-start command lines
and to check their ``--json-out`` reports, and the workload child uses
it for the in-process invocations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
GRID = ROOT / "examples" / "grid_4x4.json"
PINS = Path(__file__).resolve().parent / "pins.json"

#: The CLI's global ``--seed`` default; at this seed digests are pinned.
DEFAULT_SEED = 1996
#: Cells in the worked grid (examples/grid_4x4.json), at any seed.
GRID_CELLS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    #: Timed invocations when no ``--seconds`` budget is given.
    iterations: int
    #: ``args(inputs, out_dir)`` -> the subcommand and its flags.
    args: Callable[["Inputs", Path], List[str]]
    #: ``health(report, runs)`` -> an error message, or None when healthy.
    #: ``runs`` is the invocation's ``Runner.run`` count, or None when
    #: it was not observed (cold starts).
    health: Callable[[Dict[str, Any], Optional[int]], Optional[str]]
    #: The trace digests in a ``--json-out`` report, in report order.
    digests: Callable[[Dict[str, Any]], List[str]]


@dataclass(frozen=True)
class Inputs:
    """Everything an invocation's argv depends on besides its out dir."""

    seed: int
    grid: Path
    warm_cache: Path


def grid_for_seed(seed: int, directory: Path) -> Path:
    """The worked grid at ``seed``: the file itself at the default seed,
    else a copy in ``directory`` whose seed axis is ``[seed, seed+28]``
    (the file's own axis is ``[1996, 2024]``)."""
    if seed == DEFAULT_SEED:
        return GRID
    grid = json.loads(GRID.read_text())
    grid["axes"]["seed"] = [seed, seed + 28]
    path = directory / "grid.json"
    path.write_text(json.dumps(grid, indent=2))
    return path


def argv(workload: Workload, inputs: Inputs, out_dir: Path) -> List[str]:
    """The full CLI argv of one invocation writing into ``out_dir``."""
    return ["--seed", str(inputs.seed), *workload.args(inputs, out_dir)]


def json_out(out_dir: Path) -> Path:
    return out_dir / "out.json"


def _sweep_cold_args(inputs: Inputs, out: Path) -> List[str]:
    return ["sweep", "--grid", str(inputs.grid), "--jobs", "1",
            "--cache-dir", str(out / "cache"),
            "--ledger", str(out / "ledger.jsonl"),
            "--checkpoint", str(out / "checkpoint.jsonl"),
            "--json-out", str(json_out(out))]


def _sweep_warm_args(inputs: Inputs, out: Path) -> List[str]:
    return ["sweep", "--grid", str(inputs.grid), "--jobs", "1",
            "--cache-dir", str(inputs.warm_cache),
            "--ledger", str(out / "ledger.jsonl"),
            "--json-out", str(json_out(out))]


def _plain_args(command: str) -> Callable[[Inputs, Path], List[str]]:
    return lambda inputs, out: [command, "--json-out", str(json_out(out))]


def _sweep_health(hits: int, misses: int, runs_allowed: bool):
    def health(report: Dict[str, Any], runs: Optional[int]) -> Optional[str]:
        cache = report.get("cache") or {}
        if (cache.get("hits"), cache.get("misses")) != (hits, misses):
            return (f"cache {cache.get('hits')} hit(s)/{cache.get('misses')} "
                    f"miss(es), expected {hits}/{misses}")
        if report.get("failed"):
            return f"{report['failed']} quarantined cell(s)"
        if not runs_allowed and runs:
            return f"{runs} Runner.run call(s) on a fully cached sweep"
        return None
    return health


def _chaos_health(report, runs):
    return None if report.get("registered") is True else \
        "mobile host did not recover its registration"


def _congestion_health(report, runs):
    dropped = sum(cell.get("queue_dropped", 0) for cell in report["cells"])
    return None if dropped > 0 else "the bottleneck never overflowed"


def _mega_health(report, runs):
    promotions = report.get("population", {}).get("promotions")
    return None if promotions == 1 else \
        f"{promotions} promotion(s), expected exactly 1"


def _sweep_digests(report):
    return [result["digest"] for result in report["results"]]


#: Why each workload was chosen: README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sweep_cold", 40, _sweep_cold_args,
             _sweep_health(0, GRID_CELLS, True), _sweep_digests),
    Workload("sweep_warm", 200, _sweep_warm_args,
             _sweep_health(GRID_CELLS, 0, False), _sweep_digests),
    Workload("chaos", 80, _plain_args("chaos"), _chaos_health,
             lambda report: [report["digest"]]),
    Workload("congestion", 80, _plain_args("congestion"), _congestion_health,
             lambda report: [cell["digest"] for cell in report["cells"]]),
    Workload("mega", 100, _plain_args("mega"), _mega_health,
             lambda report: [report["digest"]]),
)}


def pinned_digests(name: str, seed: int) -> Optional[List[str]]:
    """The digests the workload must reproduce, or None when only
    run-internal consistency can be checked (any non-default seed)."""
    pins = json.loads(PINS.read_text())
    return pins["digests"].get(name) if seed == pins["seed"] else None


def check_report(workload: Workload, out_dir: Path, runs: Optional[int],
                 expected: Optional[List[str]]):
    """Read an invocation's ``--json-out`` and check it.

    Returns ``(digests, error)``; ``error`` is None for a healthy
    invocation whose digests equal ``expected`` (when given).
    """
    try:
        report = json.loads(json_out(out_dir).read_text())
        digests = workload.digests(report)
        problem = workload.health(report, runs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable --json-out: {exc!r}"
    if problem is None and expected is not None and digests != expected:
        problem = "trace digests differ from the reference"
    return digests, problem
