"""Command-line interface for the reproduction.

Three subcommands mirror the repository's main activities:

* ``repro compare`` — run the paper's six-policy comparison on a chosen
  workload × trace and print the Figure-9-style table;
* ``repro calibrate`` — collect fleet telemetry, calibrate wait
  thresholds, and write a ``ThresholdConfig`` JSON;
* ``repro fleet-analysis`` — run the Figure 2 change-event analysis over
  a synthetic tenant population;
* ``repro trace`` — capture, filter, summarize, and drill into
  structured decision traces (``capture`` / ``show`` / ``summary`` /
  ``explain``);
* ``repro fleet report`` — record (or load) a columnar fleet trace and
  render the fleet-wide summary as JSON or markdown;
* ``repro fleet sweep`` — time a closed-loop vectorized fleet sweep
  (optionally sharded across processes) and emit the timing/actuation
  digest as JSON;
* ``repro serve`` — run the durable controller service over a seeded
  multi-tenant fleet, checkpointing each interval (optionally killing
  and restoring the controller at chosen intervals);
* ``repro checkpoint inspect`` — summarize a checkpoint file.

Examples::

    python -m repro.cli compare --workload tpcc --trace 4 --goal-factor 1.25
    python -m repro.cli calibrate --tenants 40 --out thresholds.json
    python -m repro.cli fleet-analysis --tenants 300
    python -m repro.cli trace capture --scenario chaos --out chaos.jsonl
    python -m repro.cli trace show chaos.jsonl --component executor
    python -m repro.cli trace summary chaos.jsonl --json
    python -m repro.cli fleet report --tenants 8 --intervals 24 \\
        --save-store fleet.npz
    python -m repro.cli fleet sweep --tenants 50000 --intervals 20 \\
        --max-rss-gb 2
    python -m repro.cli trace explain --store fleet.npz --tenant 3 --interval 9
    python -m repro.cli serve --tenants 4 --intervals 20 \\
        --checkpoint-dir ckpts --kill-at 7,13
    python -m repro.cli checkpoint inspect ckpts/latest.json
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.thresholds import ThresholdConfig, default_thresholds
from repro.engine.containers import default_catalog
from repro.harness.experiment import ExperimentConfig, run_comparison
from repro.harness.report import comparison_table
from repro.obs.scenarios import SCENARIO_NAMES
from repro.workloads import cpuio_workload, ds2_workload, paper_trace, tpcc_workload

__all__ = ["main", "build_parser"]

_WORKLOADS = {
    "cpuio": cpuio_workload,
    "tpcc": tpcc_workload,
    "ds2": ds2_workload,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Automated Demand-driven Resource "
        "Scaling in Relational Database-as-a-Service' (SIGMOD 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="run the six-policy comparison on a workload x trace"
    )
    compare.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="cpuio",
        help="benchmark workload (default: cpuio)",
    )
    compare.add_argument(
        "--trace", type=int, choices=(1, 2, 3, 4), default=2,
        help="paper trace number (default: 2)",
    )
    compare.add_argument(
        "--goal-factor", type=float, default=1.25,
        help="latency goal as a multiple of the Max p95 (default: 1.25)",
    )
    compare.add_argument(
        "--intervals", type=int, default=240,
        help="billing intervals to simulate (default: 240)",
    )
    compare.add_argument(
        "--thresholds", type=str, default=None,
        help="path to a calibrated ThresholdConfig JSON (default: built-in)",
    )
    compare.add_argument("--seed", type=int, default=7)

    calibrate = sub.add_parser(
        "calibrate", help="calibrate wait thresholds from fleet telemetry"
    )
    calibrate.add_argument("--tenants", type=int, default=40)
    calibrate.add_argument("--intervals", type=int, default=12)
    calibrate.add_argument("--seed", type=int, default=7)
    calibrate.add_argument(
        "--out", type=str, required=True, help="output JSON path"
    )

    fleet = sub.add_parser(
        "fleet-analysis", help="Figure 2 change-event analysis over a fleet"
    )
    fleet.add_argument("--tenants", type=int, default=400)
    fleet.add_argument(
        "--days", type=float, default=7.0, help="analysis horizon (default: 7)"
    )
    fleet.add_argument("--seed", type=int, default=42)

    trace = sub.add_parser(
        "trace", help="capture / inspect structured decision traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    capture = trace_sub.add_parser(
        "capture", help="run a canonical scenario and write its trace"
    )
    capture.add_argument(
        "--scenario", choices=SCENARIO_NAMES, default="steady",
        help="canonical scenario to run (default: steady)",
    )
    capture.add_argument(
        "--out", type=str, required=True, help="output JSONL trace path"
    )
    capture.add_argument(
        "--metrics", type=str, default=None,
        help="also write the metrics snapshot to this JSON path",
    )
    capture.add_argument(
        "--level", choices=("decision", "debug"), default="debug",
        help="trace verbosity (default: debug, what the goldens pin)",
    )

    show = trace_sub.add_parser(
        "show", help="print a trace's events, optionally filtered"
    )
    show.add_argument("file", type=str, help="JSONL trace file")
    show.add_argument("--component", type=str, default=None)
    show.add_argument("--kind", type=str, default=None)
    show.add_argument("--interval", type=int, default=None)
    show.add_argument("--decision", type=str, default=None)
    show.add_argument(
        "--limit", type=int, default=None, help="print at most N events"
    )

    summary = trace_sub.add_parser(
        "summary", help="aggregate counts for a trace file"
    )
    summary.add_argument("file", type=str, help="JSONL trace file")
    summary.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    explain = trace_sub.add_parser(
        "explain",
        help="scalar-equivalent decision trace for one tenant-interval "
        "of a columnar fleet store (replayed + parity-checked)",
    )
    explain.add_argument(
        "--store", type=str, required=True,
        help="columnar fleet trace store (.npz, from 'fleet report "
        "--save-store')",
    )
    explain.add_argument("--tenant", type=int, required=True)
    explain.add_argument("--interval", type=int, required=True)
    explain.add_argument(
        "--level", choices=("decision", "debug"), default="debug",
        help="replay trace verbosity (default: debug)",
    )

    fleet_cmd = sub.add_parser(
        "fleet", help="columnar fleet trace pipeline commands"
    )
    fleet_sub = fleet_cmd.add_subparsers(dest="fleet_command", required=True)
    report = fleet_sub.add_parser(
        "report", help="summarize a fleet run as JSON or markdown"
    )
    report.add_argument(
        "--store", type=str, default=None,
        help="report on an existing store instead of recording a new run",
    )
    report.add_argument("--tenants", type=int, default=8)
    report.add_argument("--intervals", type=int, default=24)
    report.add_argument("--seed", type=int, default=7)
    report.add_argument(
        "--goal-ms", type=float, default=100.0,
        help="latency goal for the recorded run (<= 0 disables the goal)",
    )
    report.add_argument(
        "--format", choices=("json", "markdown"), default="json",
    )
    report.add_argument(
        "--out", type=str, default=None,
        help="write the report here instead of stdout",
    )
    report.add_argument(
        "--save-store", type=str, default=None,
        help="also persist the columnar store (.npz) for later drill-down",
    )

    sweep = fleet_sub.add_parser(
        "sweep",
        help="run a closed-loop vectorized fleet sweep (optionally "
        "sharded) and print the timing/actuation digest as JSON",
    )
    sweep.add_argument("--tenants", type=int, default=100_000)
    sweep.add_argument("--intervals", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument(
        "--goal-ms", type=float, default=100.0,
        help="latency goal for the sweep (<= 0 disables the goal)",
    )
    sweep.add_argument(
        "--shards", type=int, default=1,
        help="worker processes; shards are seed-consistent with the "
        "unsharded run",
    )
    sweep.add_argument(
        "--max-rss-gb", type=float, default=None,
        help="fail (exit 1) if peak RSS exceeds this many GB "
        "(sharded sweeps: the largest worker's peak)",
    )
    sweep.add_argument(
        "--max-interval-s", type=float, default=None,
        help="fail (exit 1) if the steady-state mean s/interval exceeds "
        "this (sharded sweeps: each interval's slowest shard)",
    )
    sweep.add_argument(
        "--out", type=str, default=None,
        help="write the JSON digest here instead of stdout",
    )

    serve = sub.add_parser(
        "serve",
        help="run the durable controller service over a seeded fleet",
    )
    serve.add_argument("--tenants", type=int, default=4)
    serve.add_argument("--intervals", type=int, default=20)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--checkpoint-dir", type=str, default=None,
        help="persist checkpoints here (checkpoint-<interval>.json + "
        "latest.json); in-memory only when omitted",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="intervals between checkpoints (default: 1)",
    )
    serve.add_argument(
        "--kill-at", type=str, default=None,
        help="comma-separated intervals after which the controller is "
        "killed and restored from its latest checkpoint",
    )
    serve.add_argument(
        "--goal-ms", type=float, default=100.0,
        help="latency goal for every tenant (<= 0 disables the goal)",
    )

    checkpoint = sub.add_parser(
        "checkpoint", help="inspect controller checkpoints"
    )
    checkpoint_sub = checkpoint.add_subparsers(
        dest="checkpoint_command", required=True
    )
    inspect_cmd = checkpoint_sub.add_parser(
        "inspect", help="summarize one checkpoint file"
    )
    inspect_cmd.add_argument("file", type=str, help="checkpoint JSON file")
    inspect_cmd.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    thresholds = (
        ThresholdConfig.load(args.thresholds)
        if args.thresholds
        else default_thresholds()
    )
    workload = _WORKLOADS[args.workload]()
    trace = paper_trace(args.trace, n_intervals=args.intervals)
    config = ExperimentConfig(thresholds=thresholds, seed=args.seed)
    result = run_comparison(
        workload, trace, goal_factor=args.goal_factor, config=config
    )
    print(comparison_table(result))
    print(
        "\ncost relative to Auto: "
        + ", ".join(
            f"{policy}={result.cost_ratio(policy):.2f}x"
            for policy in result.policies()
            if policy != "Auto"
        )
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.fleet.calibration import calibrate_thresholds, collect_fleet_telemetry

    telemetry = collect_fleet_telemetry(
        n_tenants=args.tenants,
        intervals_per_tenant=args.intervals,
        seed=args.seed,
    )
    thresholds = calibrate_thresholds(telemetry)
    thresholds.save(args.out)
    print(f"calibrated thresholds from {args.tenants} tenants -> {args.out}")
    print(thresholds.to_json())
    return 0


def _cmd_fleet_analysis(args: argparse.Namespace) -> int:
    from repro.fleet.analysis import analyze_fleet
    from repro.fleet.population import synthesize_population

    n_intervals = int(args.days * 288)  # 5-minute intervals
    population = synthesize_population(args.tenants, seed=args.seed)
    analysis = analyze_fleet(population, default_catalog(), n_intervals=n_intervals)
    print(f"fleet of {args.tenants} tenants over {args.days:g} days:")
    for minutes, share in analysis.iei_cdf().items():
        print(f"  IEI <= {minutes:>5g} min: {share:5.1f}% of change events")
    print(
        f"  tenants with >=1 change/day: "
        f"{100 * analysis.fraction_with_daily_change():.0f}%"
    )
    steps = analysis.step_size_distribution()
    print(
        f"  1-step resizes: {steps.get(1, 0.0):.0%}; "
        f"within 2 steps: {analysis.step_coverage(2):.1%}"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "capture": _cmd_trace_capture,
        "show": _cmd_trace_show,
        "summary": _cmd_trace_summary,
        "explain": _cmd_trace_explain,
    }
    return handlers[args.trace_command](args)


def _cmd_trace_capture(args: argparse.Namespace) -> int:
    from repro.obs.events import TraceLevel
    from repro.obs.scenarios import run_scenario

    level = TraceLevel.DEBUG if args.level == "debug" else TraceLevel.DECISION
    tracer = run_scenario(args.scenario, level=level)
    tracer.write(args.out)
    print(f"scenario {args.scenario!r}: {len(tracer)} events -> {args.out}")
    if args.metrics:
        tracer.metrics.write(args.metrics)
        print(f"metrics snapshot -> {args.metrics}")
    return 0


def _load_trace_or_fail(path: str):
    from repro.obs.tracer import load_events

    try:
        return load_events(path)
    except FileNotFoundError:
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return None
    except IsADirectoryError:
        print(f"error: {path} is a directory, not a trace file", file=sys.stderr)
        return None
    except UnicodeDecodeError:
        print(
            f"error: {path} is not a text file (binary or wrong encoding)",
            file=sys.stderr,
        )
        return None
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_trace_show(args: argparse.Namespace) -> int:
    events = _load_trace_or_fail(args.file)
    if events is None:
        return 2
    if not events:
        print(f"error: trace {args.file} contains no events", file=sys.stderr)
        return 1
    shown = 0
    for event in events:
        if args.component is not None and event.component != args.component:
            continue
        if args.kind is not None and event.kind.value != args.kind:
            continue
        if args.interval is not None and event.interval != args.interval:
            continue
        if args.decision is not None and event.decision_id != args.decision:
            continue
        decision = f" [{event.decision_id}]" if event.decision_id else ""
        fields = ", ".join(f"{k}={v}" for k, v in event.fields.items())
        print(
            f"#{event.seq:05d} i={event.interval:>3d}{decision} "
            f"{event.component}/{event.kind.value}: {fields}"
        )
        shown += 1
        if args.limit is not None and shown >= args.limit:
            break
    print(f"({shown} of {len(events)} events shown)")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    import json
    from collections import Counter

    events = _load_trace_or_fail(args.file)
    if events is None:
        return 2
    if not events:
        print(f"error: trace {args.file} contains no events", file=sys.stderr)
        return 1
    by_component: Counter[str] = Counter(e.component for e in events)
    by_kind: Counter[str] = Counter(e.kind.value for e in events)
    intervals = {e.interval for e in events}
    decisions = {e.decision_id for e in events if e.decision_id}
    # Ring-buffer drops leave a gap at the front: seq numbers are
    # tracer-wide and 0-based, so a capped trace starts above 0.
    dropped = events[-1].seq + 1 - len(events)
    summary = {
        "file": args.file,
        "events": len(events),
        "dropped": dropped,
        "intervals": len(intervals),
        "first_interval": min(intervals),
        "last_interval": max(intervals),
        "decisions": len(decisions),
        "by_component": dict(sorted(by_component.items())),
        "by_kind": dict(sorted(by_kind.items())),
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"{args.file}: {summary['events']} events over "
        f"{summary['intervals']} intervals "
        f"({summary['first_interval']}..{summary['last_interval']}), "
        f"{summary['decisions']} decisions"
    )
    if dropped:
        print(
            f"WARNING: {dropped} events were dropped by the tracer's "
            "ring buffer (capture with a larger capacity to keep them)"
        )
    print("by component:")
    for name, count in summary["by_component"].items():
        print(f"  {name:>12}: {count}")
    print("by kind:")
    for name, count in summary["by_kind"].items():
        print(f"  {name:>16}: {count}")
    return 0


def _load_store_or_fail(path: str):
    from repro.obs.fleet import FleetTraceStore

    try:
        return FleetTraceStore.load(path)
    except FileNotFoundError:
        print(f"error: no such fleet store: {path}", file=sys.stderr)
        return None
    except (ValueError, KeyError) as exc:
        print(f"error: not a fleet trace store: {exc}", file=sys.stderr)
        return None


def _cmd_trace_explain(args: argparse.Namespace) -> int:
    from repro.obs.events import TraceLevel
    from repro.obs.fleet import FleetParityError, explain

    store = _load_store_or_fail(args.store)
    if store is None:
        return 2
    level = TraceLevel.DEBUG if args.level == "debug" else TraceLevel.DECISION
    try:
        result = explain(store, args.tenant, args.interval, level=level)
    except IndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FleetParityError as exc:
        print(f"error: parity check failed: {exc}", file=sys.stderr)
        return 1
    # Events only on stdout (byte-comparable to a scalar capture);
    # bookkeeping on stderr.
    sys.stdout.write(result.jsonl)
    print(
        f"tenant {args.tenant} interval {args.interval}: "
        f"{len(result.events)} events, parity verified over "
        f"{result.intervals_replayed} replayed intervals",
        file=sys.stderr,
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    handlers = {"report": _cmd_fleet_report, "sweep": _cmd_fleet_sweep}
    return handlers[args.fleet_command](args)


def _cmd_fleet_sweep(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.fleet.vectorized import run_synthetic_sweep

    if args.tenants < 1 or args.intervals < 1:
        print("fleet sweep: --tenants and --intervals must be >= 1",
              file=sys.stderr)
        return 2
    if args.shards < 1:
        print("fleet sweep: --shards must be >= 1", file=sys.stderr)
        return 2
    digest = run_synthetic_sweep(
        args.tenants,
        args.intervals,
        seed=args.seed,
        goal_ms=args.goal_ms if args.goal_ms > 0 else None,
        n_shards=args.shards,
    )
    rendered = json.dumps(digest, indent=2, sort_keys=True, default=float) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"fleet sweep digest -> {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    failures = []
    peak = digest["peak_rss_gb"]
    if args.max_rss_gb is not None and peak > args.max_rss_gb:
        failures.append(
            f"peak RSS {peak:.2f} GB exceeds ceiling {args.max_rss_gb} GB"
        )
    if args.max_interval_s is not None:
        per = digest["per_interval_s"]
        steady = per[1:] if len(per) > 1 else per
        mean_s = sum(steady) / len(steady)
        if mean_s > args.max_interval_s:
            failures.append(
                f"mean {mean_s:.3f} s/interval exceeds ceiling "
                f"{args.max_interval_s} s"
            )
    for failure in failures:
        print(f"fleet sweep FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs.fleet import fleet_report, record_synthetic_fleet, render_markdown

    if args.store is not None:
        store = _load_store_or_fail(args.store)
        if store is None:
            return 2
    else:
        goal_ms = args.goal_ms if args.goal_ms > 0 else None
        store = record_synthetic_fleet(
            args.tenants, args.intervals, seed=args.seed, goal_ms=goal_ms
        )
    if args.save_store:
        store.save(args.save_store)
        print(f"columnar store -> {args.save_store}", file=sys.stderr)
    report = fleet_report(store)
    if args.format == "markdown":
        rendered = render_markdown(report)
    else:
        rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"fleet report -> {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    return 0


def _serve_specs(n_tenants: int, n_intervals: int, seed: int, goal_ms: float):
    """Seeded heterogeneous tenants for ``repro serve``: each gets its own
    base rate and burst window, so the service has real scaling work."""
    import numpy as np

    from repro.core.latency import LatencyGoal
    from repro.service import TenantSpec
    from repro.workloads import Trace

    goal = LatencyGoal(goal_ms) if goal_ms > 0 else None
    specs = []
    for i in range(n_tenants):
        rng = np.random.default_rng(seed * 1000 + i)
        base = float(rng.uniform(10.0, 40.0))
        rates = np.full(n_intervals, base)
        burst_len = min(n_intervals, int(rng.integers(4, 9)))
        start = int(rng.integers(0, max(n_intervals - burst_len, 1)))
        rates[start : start + burst_len] = base * float(rng.uniform(6.0, 12.0))
        specs.append(
            TenantSpec(
                tenant_id=f"tenant-{i:03d}",
                workload=cpuio_workload(),
                trace=Trace(name=f"serve-{i}", rates=rates),
                goal=goal,
            )
        )
    return specs


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import CheckpointError, ConfigurationError
    from repro.service import CheckpointStore, run_service

    if args.kill_at:
        try:
            kill_at = [int(v) for v in args.kill_at.split(",") if v.strip()]
        except ValueError:
            print(
                f"error: --kill-at must be comma-separated integers, "
                f"got {args.kill_at!r}",
                file=sys.stderr,
            )
            return 2
    else:
        kill_at = []
    specs = _serve_specs(args.tenants, args.intervals, args.seed, args.goal_ms)
    store = CheckpointStore(directory=args.checkpoint_dir)
    try:
        result = run_service(
            specs,
            config=ExperimentConfig(seed=args.seed),
            checkpoint_every=args.checkpoint_every,
            kill_at=kill_at,
            store=store,
        )
    except (CheckpointError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result.service.service_tracer.metrics.snapshot()
    counters = metrics["counters"]
    print(
        f"served {args.tenants} tenants for {args.intervals} intervals: "
        f"{int(counters.get('service.checkpoints', 0))} checkpoints, "
        f"{int(counters.get('service.restores', 0))} restores"
    )
    for runtime in result.runtimes:
        meter = runtime.meter
        print(
            f"  {runtime.spec.tenant_id}: final={runtime.containers[-1]} "
            f"cost={meter.total_cost:.1f} resizes={meter.resize_count}"
        )
    if args.checkpoint_dir:
        print(f"checkpoints -> {args.checkpoint_dir}/latest.json")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    handlers = {"inspect": _cmd_checkpoint_inspect}
    return handlers[args.checkpoint_command](args)


def _cmd_checkpoint_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.errors import CheckpointError
    from repro.service import Checkpoint, inspect_checkpoint

    try:
        checkpoint = Checkpoint.load(args.file)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = inspect_checkpoint(checkpoint)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"{args.file}: version {summary['version']} {summary['kind']} "
        f"checkpoint at interval {summary['interval']} "
        f"({summary['size_bytes']} bytes)"
    )
    for tenant_id, info in summary.get("tenants", {}).items():
        spent = info["budget_spent"]
        print(
            f"  {tenant_id}: container={info['container']} "
            f"decisions={info['decision_seq']} "
            f"budget_spent={spent:.1f} tokens={info['budget_tokens']:.1f} "
            f"trace_events={info['trace_events']} "
            f"scaler_bytes={info['scaler_bytes']} "
            f"tracer_bytes={info['tracer_bytes']}"
            + (" SAFE-MODE" if info["safe_mode"] else "")
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compare": _cmd_compare,
        "calibrate": _cmd_calibrate,
        "fleet-analysis": _cmd_fleet_analysis,
        "trace": _cmd_trace,
        "fleet": _cmd_fleet,
        "serve": _cmd_serve,
        "checkpoint": _cmd_checkpoint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
