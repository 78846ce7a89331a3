"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e [--workload W] [--seed S] [--seconds N]
                             [--trace 0|1] [-o out.json]
    python -m benchmarks.e2e compare PARENT.json CHANGE.json

Run from the repo root.  Without ``--trace`` each workload gets both the
untraced measurement and the traced run; ``--trace 0`` or ``1`` runs
only one of them and ends stdout with a one-line JSON result
(``correct``, ``attempted``, ``failed``, ``metrics``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .compare import compare_files
from .run import BenchError, document, render, result_line, run_workload
from .workloads import DEFAULT_SEED, WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the repro-mobility CLI.")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="the CLI's global --seed (default %(default)s; "
                             "digests are pinned only at the default)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of each loop (default: each "
                             "workload's fixed iteration count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced end-to-end run only; 1: traced "
                             "per-layer run only (needs --workload)")
    parser.add_argument("-o", "--out", metavar="PATH",
                        help="write every result as JSON (input of compare)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        compare = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
        compare.add_argument("parent")
        compare.add_argument("change")
        args = compare.parse_args(argv[1:])
        return compare_files(args.parent, args.change)
    parser = _parser()
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = None if args.trace is None else bool(args.trace)
    try:
        results ={name: run_workload(name, args.seed, seconds=args.seconds,
                                      trace=trace) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results.values():
        print("\n".join(render(result)))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document(results, args.seed), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if trace is not None:
        print(json.dumps(result_line(results[args.workload], trace)))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
