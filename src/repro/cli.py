"""Command-line interface: explore the reproduction without writing code.

Subcommands:

* ``grid``        — print Figure 10 (``--live`` runs all sixteen cells
  as real conversations and prints the empirical outcome next to the
  paper's classification).
* ``modes``       — print the eight modes' address tables (Figures 6-9).
* ``topology``    — build the standard stage and sketch it.
* ``trace``       — traceroute from the correspondent to the mobile
  host's home and care-of addresses (Figure 1 vs Figure 5, as hop
  lists).
* ``durability``  — run the §2 telnet-across-a-move experiment and
  report survival for a Mobile IP and a no-Mobile-IP session.
* ``policy``      — parse a §7.1.2 policy config file and query the
  disposition for one or more addresses.
* ``obs``         — run the canonical traffic workload with full
  observability on and print the per-mode span and engine summaries
  (optionally exporting a Chrome ``trace_event`` file).
* ``chaos``       — run the stage under a fault-injection script
  (``--fault-script faults.json``, or the built-in demo plan) and
  report how the recovery machinery fared.
* ``congestion``  — throttle and bound the home uplink, run the same
  paced CH→MH workload through each In-* delivery mode, and rank the
  modes by goodput and latency (invariants armed: every queue-overflow
  loss must be a classified terminal fate).
* ``sweep``       — expand an experiment-spec grid (``--grid g.json``,
  or the built-in 4x4-coverage grid) and run every cell, optionally
  across worker processes (``--jobs N``); ``--spec repro.json``
  replays a single spec, including one embedded in a fuzz repro.
  ``--progress`` streams per-cell completion to stderr and
  ``--ledger run.jsonl`` appends one durable JSONL record per cell.
  At any ``--jobs``, ``--max-retries``/``--retry-backoff`` retry a
  failing cell and then quarantine it as a ``failed`` result (unless
  ``--strict-cells``); ``--cell-timeout`` also bounds each cell when
  workers run it.  ``--checkpoint``/``--resume`` journal and skip
  completed cells across crashes (and refuse a file that is not a
  checkpoint), and Ctrl-C drains gracefully (partial results
  written, exit 130).
* ``report``      — render a run ledger as markdown or JSON:
  phase-time breakdown, slowest cells, cache efficacy, violation index.
* ``mega``        — build a flyweight million-host world (see
  ``repro.netsim.population``), aim the canonical conversation at one
  pooled host, and report build time, bytes/host, and wheel
  throughput; ``--verify`` re-runs the world with every host
  materialized and insists the trace digests match.

The global ``--obs-out report.json`` flag enables the observability
layer (metrics registry snapshot, packet-lifecycle spans, engine
sampler) on any scenario-building subcommand and writes the merged
report when the command finishes; on ``sweep`` it additionally
carries the result-cache counters.

The ``chaos``/``sweep``/``fuzz`` subcommands arm a postmortem flight
recorder by default (``--no-flightrec`` disarms): a bounded ring of
the last trace entries, dumped to ``flightrec.json`` (with engine
state) when a run ends with invariant violations — or, for chaos, an
unrecovered registration.

A command that writes to a stdout whose reader has exited (say, a
``head`` that already quit) stops quietly with exit 141 (128 +
SIGPIPE) instead of a traceback.

Installed as ``repro-mobility`` (see pyproject.toml), or run with
``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from typing import TYPE_CHECKING, Any, List, Optional

from .experiment.spec import ExperimentSpec, SpecError

if TYPE_CHECKING:  # pragma: no cover
    from .core.modes import InMode, OutMode

__all__ = ["main"]


def spec_from_args(args: argparse.Namespace, **overrides) -> ExperimentSpec:
    """The one place argparse output becomes an :class:`ExperimentSpec`.

    Every scenario-building subcommand describes its world as the
    default spec (the canonical stage) plus command-specific
    ``overrides`` — no subcommand re-spells the builder's keyword
    list.
    """
    fields = {"seed": args.seed}
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _build_scenario(args: argparse.Namespace, spec: ExperimentSpec):
    """Build a spec's scenario, plus optional observability attachment.

    Every subcommand that assembles a stage goes through here so the
    global ``--obs-out`` flag can enable the observability layer on
    each scenario and collect the reports for ``main`` to merge.
    """
    from .analysis.scenarios import build_scenario

    scenario = build_scenario(**spec.scenario_kwargs())
    if args.obs_out:
        args._obs.append(scenario.sim.enable_observability())
    return scenario


def _write_json(path: str, payload: Any, what: str) -> None:
    """Write a ``--json-out``/``--obs-out`` report: one line of sorted
    JSON and a newline, from one ``json.dumps`` (``json.dump`` and
    ``indent=`` bypass the C encoder).  A path naming this process's
    stdout, such as ``/dev/stdout``, is written through ``sys.stdout``
    so the report lands after the text already printed."""
    text = json.dumps(payload, sort_keys=True) + "\n"
    sys.stdout.flush()
    if os.path.exists(path) and os.path.samestat(os.stat(path), os.fstat(1)):
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)
    print(f"{what} written to {path}")


def _cmd_grid(args: argparse.Namespace) -> int:
    from .core.grid import GRID
    from .core.modes import InMode, OutMode

    print(GRID.render())
    if not args.live:
        return 0
    print()
    print("running all sixteen cells live...")
    mismatches = 0
    for in_mode in InMode:
        for out_mode in OutMode:
            outcome = _run_cell(in_mode, out_mode, args)
            cell = GRID.cell(in_mode, out_mode)
            agrees = outcome == cell.works_with_tcp
            mismatches += not agrees
            status = "OK " if outcome else "DEAD"
            print(f"  {in_mode.value}/{out_mode.value:<7} [{status}] "
                  f"paper: {cell.cell_class.value:<20} "
                  f"{'' if agrees else '  <-- MISMATCH'}")
    print(f"\n{'all cells agree with Figure 10' if mismatches == 0 else f'{mismatches} mismatches!'}")
    return 0 if mismatches == 0 else 1


def _run_cell(in_mode: InMode, out_mode: OutMode, args: argparse.Namespace) -> bool:
    from .analysis.scenarios import MH_HOME_ADDRESS
    from .core.modes import AddressPlan, InMode, build_outgoing
    from .mobileip.awareness import Awareness
    from .netsim.packet import IPProto
    from .transport.udp import UDPDatagram

    scenario = _build_scenario(args, spec_from_args(
        args,
        awareness=Awareness.MOBILE_AWARE.value,
        ch_in_visited_lan=(in_mode is InMode.IN_DH),
        visited_filtering=False,
        ch_filtering=False,
    ))
    plan = AddressPlan(MH_HOME_ADDRESS, scenario.mh.care_of,
                       scenario.ha_ip, scenario.ch_ip)
    if in_mode in (InMode.IN_DE, InMode.IN_DH):
        scenario.ch.learn_binding(MH_HOME_ADDRESS, scenario.mh.care_of, 300.0)
    sent_to = plan.care_of if in_mode is InMode.IN_DT else plan.home

    def on_request(data, size, src_ip, src_port):
        reply = UDPDatagram(7000, src_port, "rep", 30)
        packet = build_outgoing(out_mode, plan, payload=reply,
                                payload_size=reply.size, proto=IPProto.UDP)
        scenario.mh.ip_send(packet, bypass_overrides=True)

    sock = scenario.mh.stack.udp_socket(7000)
    sock.on_receive(on_request)
    replies = []
    ch_sock = scenario.ch.stack.udp_socket()
    ch_sock.on_receive(lambda d, s, ip, p: replies.append(ip))
    ch_sock.sendto("req", 40, sent_to, 7000)
    scenario.sim.run_for(20)
    return bool(replies) and replies[0] == sent_to


def _cmd_modes(args: argparse.Namespace) -> int:
    from .core.modes import (
        AddressPlan,
        InMode,
        OutMode,
        build_incoming_direct,
        build_outgoing,
    )
    from .netsim.addressing import IPAddress

    plan = AddressPlan(
        home=IPAddress("10.1.0.10"), care_of=IPAddress("10.2.0.2"),
        home_agent=IPAddress("10.1.0.1"), correspondent=IPAddress("10.3.0.2"),
    )
    print("cast: MH(home)=10.1.0.10  COA=10.2.0.2  HA=10.1.0.1  CH=10.3.0.2")
    print("\noutgoing (Figures 6/7):")
    for mode in OutMode:
        packet = build_outgoing(mode, plan, payload_size=100)
        print(f"  {mode.value:<7} {_describe(packet)}")
    print("\nincoming (Figures 8/9):")
    for mode in InMode:
        packet = build_incoming_direct(mode, plan, payload_size=100)
        print(f"  {mode.value:<7} {_describe(packet)}")
    return 0


def _describe(packet) -> str:
    if packet.is_encapsulated:
        inner = packet.innermost
        return (f"outer {packet.src} -> {packet.dst}  |  "
                f"inner {inner.src} -> {inner.dst}  ({packet.wire_size}B)")
    return f"{packet.src} -> {packet.dst}  ({packet.wire_size}B)"


def _cmd_topology(args: argparse.Namespace) -> int:
    from .analysis.scenarios import MH_HOME_ADDRESS
    from .netsim.tools import render_topology

    scenario = _build_scenario(args, spec_from_args(args))
    print(render_topology(scenario.net))
    print(f"\nmobile host: home {MH_HOME_ADDRESS}, care-of "
          f"{scenario.mh.care_of}, registered={scenario.mh.registered}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis.scenarios import MH_HOME_ADDRESS
    from .netsim.tools import traceroute

    scenario = _build_scenario(
        args, spec_from_args(args, visited_filtering=False))
    names = {}
    for node in scenario.sim.nodes.values():
        for address in node.addresses:
            names.setdefault(address, node.name)

    def resolver(address):
        return names.get(address, "?")

    targets = {
        "home": MH_HOME_ADDRESS,
        "care-of": scenario.mh.care_of,
    }
    for label, destination in targets.items():
        results = []
        traceroute(scenario.ch, destination, results.append)
        scenario.sim.run_for(180)
        print(f"--- to the {label} address ---")
        print(results[0].render(resolver) if results else "  (no result)")
        print()
    print("the home-address path bends through the home domain (Figure 1);")
    print("the care-of path is the direct route a smart CH uses (Figure 5).")
    return 0


def _cmd_durability(args: argparse.Namespace) -> int:
    from .apps.telnet import TelnetServer, TelnetSession

    for label, bound in (("Mobile IP (home endpoint)", False),
                         ("no Mobile IP (care-of endpoint)", True)):
        scenario = _build_scenario(args, spec_from_args(args))
        scenario.net.add_domain("visited2", "10.5.0.0/16", attach_at=3)
        TelnetServer(scenario.ch.stack)
        session = TelnetSession(
            scenario.mh.stack, scenario.ch_ip, think_time=1.0, keystrokes=8,
            bound_ip=scenario.mh.care_of if bound else None,
        )
        scenario.sim.events.schedule(
            3.5, lambda s=scenario: s.mh.move_to(s.net, "visited2"))
        scenario.sim.run_for(250)
        outcome = "survived" if session.survived else (
            f"broke ({session.failure_reason})")
        print(f"{label:<34} {outcome:<28} "
              f"echoes {session.echoes_received}/{session.keystrokes_sent}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Run canonical traffic with the full observability layer on."""
    from .experiment.runner import Runner
    from .experiment.spec import TrafficProgram

    traffic = None
    if args.datagrams > 0:
        traffic = TrafficProgram(port=7000, uniform={
            "datagrams": args.datagrams,
            "spacing": args.duration / args.datagrams,
            "size": 100,
            "direction": "ch->mh",
        })
    spec = spec_from_args(
        args,
        duration=args.duration + 5.0,
        traffic=traffic,
        observe=True,
        obs_cadence=args.cadence,
    )
    runner = Runner()
    result = runner.run(spec)
    report = result.obs
    if args.obs_out:
        args._obs.append(report)

    print(f"simulated {report['sim_time']:.1f}s, "
          f"{report['events_processed']} events processed")
    print("\nper-mode datagram summary:")
    for mode, stats in sorted(report["spans"]["per_mode"].items()):
        latency = stats["latency"]
        print(f"  {mode:<14} count={stats['count']:<5} "
              f"delivered={stats['delivered']:<5} "
              f"dropped={stats['dropped']:<4} "
              f"fragmented={stats['fragmented']}")
        if latency["count"]:
            print(f"  {'':<14} latency mean={latency['mean'] * 1e3:.2f}ms "
                  f"p50={latency['p50'] * 1e3:.2f}ms "
                  f"p99={latency['p99'] * 1e3:.2f}ms")
        overhead = stats["overhead_bytes"]
        if overhead["count"]:
            print(f"  {'':<14} overhead mean={overhead['mean']:.1f}B "
                  f"max={overhead['max']}B")
    engine = report["engine"]["summary"]
    print("\nengine:")
    if engine["samples"]:
        print(f"  samples={engine['samples']} "
              f"peak_pending={engine['peak_pending']} "
              f"peak_heap={engine['peak_heap']} "
              f"mean_cancelled_ratio={engine['mean_cancelled_ratio']:.3f}")
        peak_util = engine["peak_link_utilization"]
        busiest = max(peak_util.items(), key=lambda kv: kv[1]) if peak_util \
            else ("-", 0.0)
        print(f"  peak_reassembly_pending={engine['peak_reassembly_pending']} "
              f"busiest link {busiest[0]} at {busiest[1]:.1%} utilization")
    else:
        print("  (no samples)")
    if args.chrome_trace:
        count = runner.scenario.sim.obs.export_chrome_trace(args.chrome_trace)
        print(f"\nwrote {count} trace events to {args.chrome_trace} "
              f"(load in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run a fault-injection scenario and print the recovery report."""
    from .analysis.chaos import demo_plan, run_chaos
    from .netsim.faults import FaultError, FaultPlan

    if args.fault_script:
        try:
            plan = FaultPlan.from_file(args.fault_script)
        except (OSError, FaultError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        plan = demo_plan()
    if args.show_plan:
        print(plan.to_json())
        return 0
    overrides = {}
    if args.obs_out:
        # observe flows through chaos_spec into the spec, so the
        # Runner arms the full observability layer on the run itself.
        overrides["observe"] = True
    try:
        report = run_chaos(
            plan=plan,
            seed=args.seed,
            duration=args.duration,
            message_interval=args.interval,
            arm_invariants=True,
            flightrec_path=args.flightrec,
            **overrides,
        )
    except FaultError as exc:
        # A plan naming a segment/node the stage does not have.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.obs_out and report.obs is not None:
        args._obs.append(report.obs)
    print(report.render())
    if args.json_out:
        _write_json(args.json_out, report.to_dict(), "chaos report")
    # Nonzero exit when the run ended unhealthy: an invariant violated,
    # or the mobile host never recovered its registration.
    if report.invariant_violations:
        print(f"error: {report.invariant_violations} invariant "
              "violation(s) during the run", file=sys.stderr)
        return 1
    if not report.registered:
        print("error: mobile host did not recover its registration",
              file=sys.stderr)
        return 1
    return 0


def _cmd_congestion(args: argparse.Namespace) -> int:
    """Run the In-* congestion cells and print the ranking."""
    from .analysis.congestion import run_congestion

    report = run_congestion(
        seed=args.seed,
        datagrams=args.datagrams,
        spacing=args.spacing,
        size=args.size,
        bandwidth=args.bandwidth,
        queue=args.queue,
        observe=bool(args.obs_out),
    )
    args._obs.extend(report.obs)
    print(report.render())
    if args.json_out:
        _write_json(args.json_out, report.to_dict(), "congestion report")
    # Nonzero exit when the stage was dishonest: an invariant violated,
    # or the bottleneck never actually overflowed (no contention means
    # the cells measured nothing).
    if report.violation_count:
        print(f"error: {report.violation_count} invariant violation(s) "
              "across the cells", file=sys.stderr)
        return 1
    if not report.total_queue_dropped:
        print("error: the bottleneck never overflowed — no contention "
              "was exercised", file=sys.stderr)
        return 1
    return 0


def _progress_renderer():
    """A :data:`ProgressCallback` painting one stderr status line."""

    def render(event):
        failed_note = (
            f"fail {event['failures_total']} "
            if event.get("failures_total") else "")
        line = (
            f"[{event['completed']}/{event['total']}] "
            f"{event['cells_per_sec']:.2f} cells/s "
            f"eta {event['eta_sec']:5.1f}s "
            f"cache {event['cache_hit_rate']:.0%} "
            f"viol {event['violations_total']} "
            f"{failed_note}"
            f"{(event['label'] or '')[:28]}"
        )
        print(f"\r{line:<79}", end="", file=sys.stderr, flush=True)

    return render


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Expand a spec grid and fan the runs out across processes."""
    from .experiment.cache import ResultCache
    from .experiment.supervise import CellFailedError, SweepCheckpoint
    from .experiment.sweep import SpecGrid, SweepExecutor, demo_grid
    from .obs.ledger import RunLedger

    if args.spec and args.grid:
        print("error: --spec and --grid are mutually exclusive",
              file=sys.stderr)
        return 1
    try:
        if args.spec:
            specs = [ExperimentSpec.from_file(args.spec)]
        elif args.grid:
            specs = SpecGrid.from_file(args.grid).expand()
        else:
            specs = demo_grid().expand()
    except (OSError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.show_specs:
        print(json.dumps([spec.to_dict() for spec in specs], indent=2,
                         sort_keys=True))
        return 0
    cache = None
    if not args.no_cache:
        cache = ResultCache(root=args.cache_dir)
    ledger = RunLedger(args.ledger) if args.ledger else None
    # Both files are read before any cell runs: load() refuses a file
    # that is not a checkpoint, so a sweep never journals into it.
    resume_map = None
    try:
        if args.checkpoint:
            SweepCheckpoint.load(args.checkpoint)
        if args.resume:
            resume_map, torn = SweepCheckpoint.load(args.resume)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.resume:
        if resume_map or torn:
            print(f"resuming: {len(resume_map)} checkpointed cell(s) "
                  f"loaded from {args.resume}"
                  + (f" ({torn} torn line(s) skipped)" if torn else ""),
                  file=sys.stderr)
        else:
            print(f"resuming: no completed cells in {args.resume}; "
                  "running the full grid", file=sys.stderr)
    # --resume without --checkpoint keeps journaling to the same file,
    # so a sweep interrupted twice still converges.
    checkpoint_path = args.checkpoint or args.resume
    checkpoint = SweepCheckpoint(checkpoint_path) if checkpoint_path else None
    try:
        executor = SweepExecutor(
            jobs=args.jobs,
            cache=cache,
            ledger=ledger,
            progress=_progress_renderer() if args.progress else None,
            flightrec_path=args.flightrec,
            cell_timeout=args.cell_timeout,
            max_retries=args.max_retries,
            retry_backoff=args.retry_backoff,
            strict_cells=args.strict_cells,
            checkpoint=checkpoint,
            resume=resume_map,
        )
        result = executor.run(specs)
    except CellFailedError as exc:
        if args.progress:
            print(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if ledger is not None:
            ledger.close()
        if checkpoint is not None:
            checkpoint.close()
    if args.progress:
        print(file=sys.stderr)  # leave the \r status line behind
    print(result.render())
    if checkpoint is not None:
        print(f"sweep checkpoint: {checkpoint.appended} cell(s) journaled "
              f"to {checkpoint_path}")
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
              f"{stats['invalidations']} invalidation(s), "
              f"{stats['bytes_read']}B read / {stats['bytes_written']}B "
              f"written ({cache.root})")
    if ledger is not None:
        print(f"run ledger: {ledger.appended} record(s) appended "
              f"to {args.ledger}")
    for path in result.flightrec_dumps():
        print(f"flight recorder dumped to {path}")
    if args.json_out:
        _write_json(args.json_out, result.to_dict(), "sweep results")
    if args.obs_out:
        from .obs.metrics import MetricsRegistry

        # The report-side registry: worker processes are gone, so the
        # cache family reads the live parent-side cache.
        registry = MetricsRegistry()
        if cache is not None:
            cache.register_metrics(registry)
        args._obs.append({
            "command": "sweep",
            "runs": result.runs,
            "jobs": result.jobs,
            "elapsed": result.elapsed,
            "violation_count": result.violation_count,
            "metrics": registry.collect(),
        })
    if result.failed_count:
        # Quarantined cells are surfaced, not fatal: the exit status
        # reflects only real invariant violations (and interruption).
        print(f"warning: {result.failed_count} cell(s) quarantined after "
              "exhausting retries (see `failures` in --json-out / the "
              "ledger report)", file=sys.stderr)
    if result.interrupted:
        print("interrupted: sweep drained early; partial results "
              "written", file=sys.stderr)
        return 130
    if result.violation_count:
        violated = sorted({v["invariant"] for r in result.results
                           for v in r.violations})
        print(f"error: {result.violation_count} invariant violation(s) "
              f"across the sweep: {', '.join(violated)}", file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Property-based fuzzing with invariants armed; shrink on failure."""
    from .verify.fuzz import run_case, run_fuzz

    if args.repro:
        try:
            spec = ExperimentSpec.from_file(args.repro)
        except (OSError, SpecError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result = run_case(spec)
        if result.ok:
            print(f"repro {args.repro}: no violations "
                  f"({result.trace_entries} trace entries)")
            return 0
        violated = sorted({v["invariant"] for v in result.violations})
        print(f"repro {args.repro}: violations {violated}")
        for violation in result.violations[:10]:
            print(f"  [{violation['invariant']}] t={violation['time']:.3f} "
                  f"node={violation['node']}: {violation['message']}")
        return 1

    report = run_fuzz(
        iterations=args.iterations,
        seed=args.seed,
        out=args.out,
        shrink=not args.no_shrink,
        max_tunnel_depth=args.max_tunnel_depth,
        flightrec_path=args.flightrec,
    )
    print(report.render())
    if args.obs_out:
        args._obs.append({
            "command": "fuzz",
            "cases_run": report.cases_run,
            "failed": report.failed,
        })
    return 1 if report.failed else 0


def _cmd_mega(args: argparse.Namespace) -> int:
    """Build a pooled mega world, converse with one host, report."""
    from .analysis.mega import DEFAULT_TARGET_INDEX, run_mega

    target = args.target
    if target is None:
        target = min(DEFAULT_TARGET_INDEX, args.hosts - 1)
    elif not 0 <= target < args.hosts:
        print(f"error: --target must be in [0, {args.hosts}), got {target}",
              file=sys.stderr)
        return 1
    runner = None
    observe = bool(args.obs_out)
    try:
        from .experiment.runner import Runner

        runner = Runner()
        report = run_mega(
            hosts=args.hosts,
            domains=args.domains,
            mode=args.mode,
            seed=args.seed,
            duration=args.duration,
            datagrams=args.datagrams,
            target_index=target,
            verify=args.verify,
            observe=observe,
            runner=runner,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if observe and runner.scenario is not None \
            and runner.scenario.sim.obs is not None:
        args._obs.append(runner.scenario.sim.obs)
    print(report.render())
    if args.json_out:
        _write_json(args.json_out, report.to_dict(), "mega report")
    if args.verify and not report.verified:
        print("error: pooled and materialized digests differ — "
              "aggregation changed the wire", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a run ledger as markdown/JSON."""
    from .obs.ledger import (
        read_ledger,
        render_ledger_markdown,
        summarize_ledger,
        validate_record,
    )

    # read_ledger reads a missing file as an empty ledger; here it is
    # an error.
    try:
        open(args.path).close()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records, torn = read_ledger(args.path)
    valid = [record for record in records if not validate_record(record)]
    invalid = len(records) - len(valid) + torn
    if invalid and not valid:
        print(f"error: {args.path}: not a run ledger", file=sys.stderr)
        return 1
    summary = summarize_ledger(valid)
    summary["invalid_records"] = invalid
    rendered = render_ledger_markdown(summary)
    if invalid:
        rendered += f"\n\n{invalid} invalid or torn record(s) skipped.\n"
    output = (json.dumps(summary, indent=2, sort_keys=True) + "\n"
              if args.json else rendered)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(output)
        print(f"report written to {args.out}")
    else:
        print(output, end="" if output.endswith("\n") else "\n")
    if args.strict and invalid:
        print(f"error: {invalid} invalid ledger record(s)", file=sys.stderr)
        return 1
    return 0


def _add_json_out(parser: argparse.ArgumentParser, text: str) -> None:
    parser.add_argument("--json-out", metavar="PATH", default=None,
                        help=text)


def _add_flightrec(parser: argparse.ArgumentParser, when: str) -> None:
    """``--flightrec PATH`` (armed by default) and ``--no-flightrec``,
    which stores None into ``flightrec``; ``when`` ends the help text."""
    parser.add_argument("--flightrec", metavar="PATH",
                        default="flightrec.json",
                        help="flight-recorder dump path (armed by default; "
                             f"{when})")
    parser.add_argument("--no-flightrec", dest="flightrec",
                        action="store_const", const=None,
                        help="disarm the flight recorder")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mobility",
        description="Explore the Internet Mobility 4x4 reproduction.",
    )
    parser.add_argument("--seed", type=int, default=1996,
                        help="simulation seed (default 1996)")
    parser.add_argument("--obs-out", metavar="PATH", default=None,
                        help="enable the observability layer and write its "
                             "JSON report here when the command finishes")
    sub = parser.add_subparsers(dest="command", required=True)

    grid = sub.add_parser("grid", help="print Figure 10")
    grid.add_argument("--live", action="store_true",
                      help="also run all 16 cells as real conversations")
    grid.set_defaults(func=_cmd_grid)

    modes = sub.add_parser("modes", help="print the mode address tables")
    modes.set_defaults(func=_cmd_modes)

    topology = sub.add_parser("topology", help="sketch the standard stage")
    topology.set_defaults(func=_cmd_topology)

    trace = sub.add_parser("trace", help="traceroute the triangle")
    trace.set_defaults(func=_cmd_trace)

    durability = sub.add_parser("durability",
                                help="telnet across a move, both ways")
    durability.set_defaults(func=_cmd_durability)

    policy = sub.add_parser(
        "policy", help="parse a §7.1.2 policy config and query it")
    policy.add_argument("file", help="config file (prefix disposition lines)")
    policy.add_argument("address", nargs="*",
                        help="addresses to look up (prints dispositions)")
    policy.set_defaults(func=_cmd_policy)

    obs = sub.add_parser(
        "obs", help="run canonical traffic with full observability on")
    obs.add_argument("--datagrams", type=int, default=100,
                     help="datagrams to send (default 100)")
    obs.add_argument("--duration", type=float, default=10.0,
                     help="send window in simulated seconds (default 10)")
    obs.add_argument("--cadence", type=float, default=0.5,
                     help="engine sampling cadence in simulated seconds")
    obs.add_argument("--chrome-trace", metavar="PATH", default=None,
                     help="also export a Chrome trace_event JSON file")
    obs.set_defaults(func=_cmd_obs)

    chaos = sub.add_parser(
        "chaos", help="run a fault-injection scenario and report recovery")
    chaos.add_argument("--fault-script", metavar="PATH", default=None,
                       help="JSON FaultPlan (default: the built-in demo plan)")
    chaos.add_argument("--duration", type=float, default=260.0,
                       help="simulated seconds to run (default 260)")
    chaos.add_argument("--interval", type=float, default=2.0,
                       help="seconds between conversation messages (default 2)")
    chaos.add_argument("--show-plan", action="store_true",
                       help="print the plan as JSON and exit (no run)")
    _add_json_out(chaos, "also write the chaos report as JSON")
    _add_flightrec(chaos, "dumps on invariant violation or unrecovered "
                          "registration")
    chaos.set_defaults(func=_cmd_chaos)

    congestion = sub.add_parser(
        "congestion",
        help="rank the In-* modes under a throttled, bounded home uplink")
    congestion.add_argument("--datagrams", type=int, default=400,
                            help="datagrams per cell (default 400)")
    congestion.add_argument("--spacing", type=float, default=0.002,
                            help="seconds between sends (default 0.002)")
    congestion.add_argument("--size", type=int, default=1000,
                            help="datagram payload bytes (default 1000)")
    congestion.add_argument("--bandwidth", type=float, default=1.5e6,
                            help="bottleneck bandwidth in bits/s "
                                 "(default 1.5e6)")
    congestion.add_argument("--queue", type=int, default=8,
                            help="bottleneck transmit-queue frames "
                                 "(default 8)")
    _add_json_out(congestion, "also write the report as JSON")
    congestion.set_defaults(func=_cmd_congestion)

    sweep = sub.add_parser(
        "sweep",
        help="expand a spec grid and run it across worker processes")
    sweep.add_argument("--grid", metavar="PATH", default=None,
                       help="spec grid JSON ({\"base\": {...}, \"axes\": "
                            "{...}}); default: the built-in 4x4-coverage "
                            "grid")
    sweep.add_argument("--spec", metavar="PATH", default=None,
                       help="run a single experiment spec (also accepts a "
                            "fuzz repro file, replaying its embedded spec)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1: run inline; "
                            "per-run digests are identical at any --jobs)")
    _add_json_out(sweep, "write the full sweep results as JSON")
    sweep.add_argument("--show-specs", action="store_true",
                       help="print the expanded specs as JSON and exit "
                            "(no run)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="bypass the spec-digest result cache (runs are "
                            "deterministic, so cached cells are normally "
                            "byte-identical to live ones)")
    sweep.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="result-cache directory (default: "
                            "$XDG_CACHE_HOME/repro-mobility or "
                            "~/.cache/repro-mobility)")
    sweep.add_argument("--progress", action="store_true",
                       help="stream per-cell completion to stderr "
                            "(completed/total, cells/s, ETA, cache-hit "
                            "rate, violations)")
    sweep.add_argument("--ledger", metavar="PATH", default=None,
                       help="append one JSONL run-ledger record per cell "
                            "as it completes (plus sweep-start/sweep-end "
                            "bookends); render with `repro-mobility "
                            "report PATH`")
    _add_flightrec(sweep, "multi-cell sweeps write PATH-NNN.json per "
                          "violating cell")
    sweep.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SEC",
                       help="wall-clock seconds per cell before its worker "
                            "is killed and the cell retried (default: no "
                            "timeout; needs --jobs >= 2)")
    sweep.add_argument("--max-retries", type=int, default=2,
                       help="re-dispatches per failing cell before it is "
                            "quarantined as a failed result (default 2)")
    sweep.add_argument("--retry-backoff", type=float, default=0.5,
                       metavar="SEC",
                       help="base of the exponential retry backoff "
                            "(default 0.5: retries wait 0.5s, 1s, 2s...)")
    sweep.add_argument("--strict-cells", action="store_true",
                       help="fail fast: the first cell failure aborts the "
                            "sweep instead of retrying and quarantining")
    sweep.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="journal completed cells to this JSONL file "
                            "(atomic appends; survives SIGKILL; a file "
                            "that is not a checkpoint is refused)")
    sweep.add_argument("--resume", metavar="PATH", default=None,
                       help="skip cells already completed in this "
                            "checkpoint file, and keep journaling to it "
                            "(unless --checkpoint names another)")
    sweep.set_defaults(func=_cmd_sweep)

    fuzz = sub.add_parser(
        "fuzz",
        help="fuzz random topologies/traffic/faults with invariants armed")
    fuzz.add_argument("--iterations", type=int, default=200,
                      help="number of random cases to run (default 200)")
    fuzz.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                      help="fuzz campaign seed (defaults to the global "
                           "--seed)")
    fuzz.add_argument("--out", metavar="PATH", default=None,
                      help="write the shrunken repro JSON here on failure")
    fuzz.add_argument("--repro", metavar="PATH", default=None,
                      help="replay a previously-written repro file instead")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report the first failing case without shrinking")
    fuzz.add_argument("--max-tunnel-depth", type=int, default=None,
                      help="cap nested encapsulation depth for every case "
                           "(0 makes any tunnel a violation — a "
                           "deterministic failure for exercising the "
                           "shrinker and flight recorder)")
    _add_flightrec(fuzz, "on failure the shrunken case replays once with "
                         "the recorder on, so the dump matches the repro "
                         "JSON")
    fuzz.set_defaults(func=_cmd_fuzz)

    mega = sub.add_parser(
        "mega",
        help="build a flyweight million-host world and converse with it")
    mega.add_argument("--hosts", type=int, default=1_000_000,
                      help="pooled mobile hosts to build (default 1000000)")
    mega.add_argument("--domains", type=int, default=None,
                      help="visited domains to spread them over "
                           "(default: about one per 60k hosts)")
    mega.add_argument("--mode", choices=["pooled", "materialized"],
                      default="pooled",
                      help="pooled: flyweight arrays + timer wheel "
                           "(default); materialized: promote every host "
                           "to a full node (expensive — small --hosts "
                           "only)")
    mega.add_argument("--duration", type=float, default=30.0,
                      help="simulated seconds to run (default 30)")
    mega.add_argument("--datagrams", type=int, default=40,
                      help="conversation datagrams with the target host "
                           "(default 40; 0 builds the world silently)")
    mega.add_argument("--target", type=int, default=None,
                      help="pool index of the host the conversation "
                           "promotes and talks to, in [0, --hosts) "
                           "(default 123, or the last host when --hosts "
                           "is 123 or fewer)")
    mega.add_argument("--verify", action="store_true",
                      help="also run the materialized twin and require "
                           "byte-identical trace digests (keep --hosts "
                           "modest: every host becomes a full node)")
    _add_json_out(mega, "also write the mega report as JSON")
    mega.set_defaults(func=_cmd_mega)

    report = sub.add_parser(
        "report",
        help="render a run ledger as markdown/JSON")
    report.add_argument("path",
                        help="ledger JSONL (from sweep --ledger)")
    report.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of markdown")
    report.add_argument("--out", metavar="PATH", default=None,
                        help="write the report here instead of stdout")
    report.add_argument("--strict", action="store_true",
                        help="exit nonzero if any ledger record is "
                             "invalid or torn")
    report.set_defaults(func=_cmd_report)
    return parser


def _cmd_policy(args: argparse.Namespace) -> int:
    from .core.policy import MobilityPolicyTable
    from .netsim.addressing import IPAddress

    try:
        with open(args.file) as handle:
            table = MobilityPolicyTable.parse(handle.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(table.dump())
    for text in args.address:
        try:
            address = IPAddress(text)
        except Exception as exc:
            print(f"error: {text}: {exc}", file=sys.stderr)
            return 1
        print(f"{address} -> {table.lookup(address).value}")
    return 0


# Each command's numeric flags as (flag, op, bound).  A bound admits
# exactly what the command's own validation accepts, so an out-of-range
# value is refused here by the flag's name instead of deep in a spec.
# An optional flag left unset (None) is not checked.
FLAG_BOUNDS = {
    "obs": (("datagrams", ">=", 0), ("duration", ">=", 0),
            ("cadence", ">", 0)),
    "chaos": (("duration", ">", 0), ("interval", ">", 0)),
    "congestion": (("datagrams", ">=", 1), ("spacing", ">=", 0),
                   ("size", ">=", 1), ("bandwidth", ">", 0),
                   ("queue", ">=", 0)),
    "sweep": (("jobs", ">=", 1), ("max-retries", ">=", 0),
              ("cell-timeout", ">", 0), ("retry-backoff", ">=", 0)),
    "fuzz": (("iterations", ">=", 0), ("max-tunnel-depth", ">=", 0)),
    "mega": (("hosts", ">=", 1), ("domains", ">=", 1),
             ("duration", ">", 0), ("datagrams", ">=", 0)),
}
_OPS = {">": operator.gt, ">=": operator.ge}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, op, bound in FLAG_BOUNDS.get(args.command, ()):
        value = getattr(args, flag.replace("-", "_"))
        if value is not None and not _OPS[op](value, bound):
            print(f"error: --{flag} must be {op} {bound}, got {value}",
                  file=sys.stderr)
            return 1
    args._obs = []
    try:
        status = args.func(args)
        if args.obs_out and args._obs:
            reports = []
            for obs in args._obs:
                # Entries are live Observability handles (scenario-building
                # subcommands) or already-collected plain dicts (sweep's
                # merged counters, chaos's and congestion's run reports).
                if isinstance(obs, dict):
                    reports.append(obs)
                else:
                    obs.finish()
                    reports.append(obs.report())
            merged = reports[0] if len(reports) == 1 else {"runs": reports}
            _write_json(args.obs_out, merged, "observability report")
        # Flush here, not at exit, so a reader that went away surfaces
        # as the BrokenPipeError handled below.
        sys.stdout.flush()
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Long-running subcommands (sweep, chaos, fuzz) must not
        # traceback on Ctrl-C: one line, conventional 128+SIGINT exit.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # The reader of stdout exited early (`... | head`).  Point fd 1
        # at devnull so the exit-time flush of what is still buffered
        # cannot fail again, and exit quietly with 128+SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
