"""Function census: every function in ``src/repro`` runs under a
command, a figure or an example, or it is kept on purpose.

Run from anywhere with ``python tools/census`` (no flags).  It runs the
product runs below in a temporary directory, each in a fresh
interpreter whose ``sitecustomize`` hook (this directory, first on
``PYTHONPATH``) records every code object called, spawned sweep
workers included.  It then folds those records against the ``def``s
that ``ast`` finds under ``src/repro`` and prints every unreached
function with its line count, and the totals.

A function's first line is its first decorator's line, which is the
``co_firstlineno`` of its code object; its line count runs from its
``def`` to its last line.  A function nested in an
unreached function is not counted a second time.  Qualnames come from
the AST path (``Class.method``, ``outer.<locals>.inner``).

``kept.txt`` lists the functions no product run reaches that stay
anyway, one ``module:qualname category`` line each.  The census exits
1 if an unreached function is not in ``kept.txt``, if a ``kept.txt``
entry names no function in ``src/repro``, or if a kept function is
reached: the list stays exact.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

HOOK_DIR = Path(__file__).resolve().parent
REPO = HOOK_DIR.parent.parent
SRC = REPO / "src"
KEPT = HOOK_DIR / "kept.txt"

CATEGORIES = (
    "error-path",       # runs only when something fails
    "hook",             # an extension point a subclass or caller fills in
    "protocol",         # a dunder method Python calls on its own terms
    "wrap-target",      # named by the benchmark's WRAP_TABLE
    "test-oracle",      # what a test compares the product against
    "test-instrument",  # what tests use to drive or observe a run
    "paper-mechanism",  # the paper's mechanism, reached by unit tests only
    "library-api",      # documented in docs/TUTORIAL.md
)

POLICY_CONF = "default pessimistic\n10.1.0.0/16 home-only\n"
POISON = ("fail:awareness=conventional,seed=1996,strategy=rule-seeded,"
          "visited_filtering=True:99")
GRID = str(REPO / "examples" / "grid_4x4.json")


def _cli(*argv: str, code: int = 0, stdout: Optional[str] = None,
         env: Optional[Dict[str, str]] = None) -> tuple:
    return ([sys.executable, "-m", "repro", *argv], code, stdout, env or {})


def product_runs() -> List[tuple]:
    """``(argv, expected exit code, stdout file or None, extra env)``,
    in order: later runs read what earlier ones wrote."""
    sweep = ("sweep", "--grid", GRID)
    poison = (*sweep, "--no-cache", "--no-flightrec", "--max-retries", "1",
              "--retry-backoff", "0.1")
    runs = [
        _cli("grid"),
        _cli("grid", "--live"),
        _cli("modes"),
        _cli("topology"),
        _cli("trace"),
        _cli("--obs-out", "trace-obs.json", "trace"),
        _cli("durability"),
        _cli("policy", "policy.conf", "10.1.0.5", "8.8.8.8"),
        _cli("--obs-out", "obs.json", "obs", "--chrome-trace", "chrome.json"),
        _cli("chaos", "--json-out", "chaos.json"),
        _cli("--obs-out", "chaos-obs.json", "chaos", "--no-flightrec"),
        _cli("chaos", "--show-plan", stdout="plan.json"),
        _cli("chaos", "--fault-script", "plan.json"),
        _cli("congestion", "--json-out", "congestion.json"),
        _cli("--obs-out", "congestion-obs.json", "congestion",
             "--datagrams", "200"),
        _cli("sweep", "--no-cache"),
        _cli(*sweep, "--cache-dir", "cache", "--ledger", "ledger.jsonl",
             "--checkpoint", "checkpoint.jsonl", "--progress",
             "--json-out", "sweep-cold.json"),
        _cli("--obs-out", "sweep-obs.json", *sweep, "--cache-dir", "cache",
             "--ledger", "ledger.jsonl", "--json-out", "sweep-warm.json"),
        _cli(*sweep, "--no-cache", "--resume", "checkpoint.jsonl"),
        _cli("sweep", "--no-cache", "--spec",
             str(REPO / "examples" / "violating_spec.json"), code=1),
        # The default cache directory, under the temporary XDG_CACHE_HOME.
        _cli("sweep", "--spec", str(REPO / "examples" / "mega_world.json")),
        _cli("sweep", "--show-specs"),
        _cli(*sweep, "--no-cache", "--jobs", "2", "--ledger",
             "parallel-ledger.jsonl", "--progress"),
        _cli(*poison, "--jobs", "2", "--json-out", "poison.json",
             "--ledger", "poison-ledger.jsonl",
             env={"REPRO_SWEEP_FAULT": POISON}),
        _cli(*poison, "--jobs", "1", "--json-out", "poison-inline.json",
             env={"REPRO_SWEEP_FAULT": POISON}),
        _cli("report", "poison-ledger.jsonl"),
        _cli("report", "ledger.jsonl", "--json", "--strict"),
        _cli("fuzz", "--iterations", "65", "--seed", "4"),
        _cli("fuzz", "--iterations", "5", "--seed", "4",
             "--max-tunnel-depth", "0", "--out", "forced-repro.json", code=1),
        _cli("fuzz", "--repro", "forced-repro.json", code=1),
        _cli("mega", "--json-out", "mega.json"),
        _cli("--obs-out", "mega-obs.json", "mega", "--hosts", "50000",
             "--verify"),
        _cli("mega", "--hosts", "2000", "--mode", "materialized"),
    ]
    for example in sorted((REPO / "examples").glob("*.py")):
        runs.append(([sys.executable, str(example)], 0, None, {}))
    runs.append(([sys.executable, "-m", "pytest", str(REPO / "benchmarks"),
                  "--ignore", str(REPO / "benchmarks" / "e2e"),
                  "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
                 0, None, {}))
    return runs


def run_products(work: Path, out: Path) -> None:
    """Run every product run under the hook, in ``work``."""
    (work / "policy.conf").write_text(POLICY_CONF)
    env = dict(os.environ)
    env.pop("REPRO_SWEEP_FAULT", None)
    env.update(
        PYTHONPATH=os.pathsep.join([str(HOOK_DIR), str(SRC)]),
        CENSUS_OUT=str(out),
        XDG_CACHE_HOME=str(work / "xdg-cache"),
    )
    for argv, code, stdout, extra in product_runs():
        started = time.monotonic()
        with open(work / (stdout or "run.log"), "w") as sink:
            result = subprocess.run(argv, cwd=work, env={**env, **extra},
                                    stdout=sink, stderr=subprocess.PIPE,
                                    text=True)
        shown = " ".join(a.replace(str(REPO) + os.sep, "") for a in argv[1:])
        print(f"  {time.monotonic() - started:6.1f} s  {shown}", flush=True)
        if result.returncode != code:
            sys.exit(f"census: '{shown}' exited {result.returncode}, "
                     f"expected {code}\n{result.stderr[-2000:]}")


class Function(NamedTuple):
    module: str
    qualname: str
    path: str
    first_line: int
    name: str
    lines: int
    parent: Optional[str]  # the enclosing function's id, if any

    @property
    def id(self) -> str:
        return f"{self.module}:{self.qualname}"


def functions(src: Path = SRC) -> List[Function]:
    """Every ``def`` under ``src/repro``, in file order."""
    found: List[Function] = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), str(path))
        _walk(tree, module, str(path), "", None, found)
    return found


def _walk(node: ast.AST, module: str, path: str, prefix: str,
          parent: Optional[str], found: List[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            function = Function(module, prefix + child.name, path, first,
                                child.name, child.end_lineno - child.lineno + 1,
                                parent)
            found.append(function)
            _walk(child, module, path, function.qualname + ".<locals>.",
                  function.id, found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, module, path, prefix + child.name + ".", parent,
                  found)
        else:
            _walk(child, module, path, prefix, parent, found)


def called(out: Path) -> Set[Tuple[str, int, str]]:
    """The union of every process's record."""
    seen: Set[Tuple[str, int, str]] = set()
    for record in out.glob("*.json"):
        for filename, first_line, name in json.loads(record.read_text()):
            seen.add((os.path.realpath(filename), first_line, name))
    return seen


def uncalled(found: List[Function],
             seen: Set[Tuple[str, int, str]]) -> Set[str]:
    """The ids of the functions no run called."""
    return {f.id for f in found
            if (os.path.realpath(f.path), f.first_line, f.name) not in seen}


def unreached(found: List[Function], missed: Set[str]) -> List[Function]:
    """Functions no run called, except those nested in one of them."""
    return [f for f in found if f.id in missed and f.parent not in missed]


def read_kept(path: Path = KEPT) -> Dict[str, str]:
    kept: Dict[str, str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or fields[1] not in CATEGORIES:
            sys.exit(f"census: {path.name}:{number}: expected "
                     f"'module:qualname category', category one of "
                     f"{', '.join(CATEGORIES)}")
        kept[fields[0]] = fields[1]
    return kept


def main() -> int:
    found = functions()
    ids = [f.id for f in found]
    duplicates = sorted({i for i in ids if ids.count(i) > 1})
    if duplicates:
        sys.exit(f"census: qualnames defined twice: {duplicates}")
    kept = read_kept()
    print(f"census: {len(found)} functions under src/repro; product runs:")
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work, out = Path(tmp), Path(tmp) / "records"
        out.mkdir()
        run_products(work, out)
        seen = called(out)
    not_called = uncalled(found, seen)
    missed = unreached(found, not_called)
    missed_ids = {f.id for f in missed}

    print()
    print("unreached functions (lines, kept reason):")
    for function in missed:
        reason = kept.get(function.id, "NOT KEPT")
        print(f"  {function.lines:4d}  {function.id}  [{reason}]")
    print()
    print(f"{len(found)} functions, {len(found) - len(not_called)} reached, "
          f"{len(missed)} unreached ({sum(f.lines for f in missed)} lines), "
          f"{len(not_called) - len(missed)} more nested in unreached ones")
    for category in CATEGORIES:
        count = sum(1 for c in kept.values() if c == category)
        print(f"  kept as {category}: {count}")

    errors = [f"unreached and not in kept.txt: {i}"
              for i in sorted(missed_ids - set(kept))]
    for entry in sorted(set(kept) - missed_ids):
        if entry not in ids:
            errors.append(f"kept.txt names no function in src/repro: {entry}")
        elif entry in not_called:
            errors.append("kept.txt entry is nested in an unreached "
                          f"function; keep that one instead: {entry}")
        else:
            errors.append(f"kept.txt entry is reached by a product run: {entry}")
    for error in errors:
        print(f"census: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
