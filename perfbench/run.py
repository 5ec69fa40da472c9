"""Control-loop benchmark: whole-interval time, cost and memory.

Run from the repository root (no build step; the package is imported
from ``src``):

    python3 perfbench/run.py --workload fleet_steady --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced windows;
``--trace 1`` alternates untraced and traced windows and prints the
per-layer split (self time per billing interval and share of the traced
interval, plus the workload's counts and decision digest).  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS/OpenMP thread, so every run is one
# process with no extra threads on a small host.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import ROOT_NAME, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Set-ups per run; ``setup_s`` sums each set-up step's fastest repeat.
SETUPS = 3

#: Untraced timed windows per run at the least; each interval position
#: is the fastest of its repeats over the run's windows.
MIN_WINDOWS = 3

#: Safety cap on a run's wall time: no window starts after this many
#: seconds, so a very slow host still exits in time.  It only trips when
#: the fixed plan does not fit; the run then says so.
CAP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "interval_ms_p50": "ms",
    "interval_ms_p90": "ms",
    "tenant_intervals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cost_per_tenant_interval": "cost",
    "goal_miss_frac": "fraction",
}

#: Layers whose self time the traced run reports, named after the
#: package's modules; ``residual`` is interval time no span covers.
LAYERS = (
    "stats.batched.trend",
    "stats.batched.spearman",
    "stats.batched.tail_median",
    "fleet.telemetry.signals",
    "fleet.telemetry.observe",
    "fleet.estimate",
    "fleet.actuation",
    "fleet.synth",
    "fleet.degraded.wave",
    "fleet.degraded.execute",
    "fleet.degraded.deliver",
    "engine.run_interval",
    "core.decide",
    "core.execute",
    "service.state_dict",
    "service.capture",
    "service.encode",
    "service.decode",
    "service.write",
    "residual",
)

COUNT_UNITS = {
    "fleet.stage.signals.ms": "ms",
    "fleet.stage.estimate_fleet.ms": "ms",
    "fleet.stage.actuation.ms": "ms",
    "fleet.stage.decide_batch.ms": "ms",
    "fleet.resize_rate": "1/tenant-int",
    "fleet.scale_up_rate": "1/tenant-int",
    "fleet.scale_down_rate": "1/tenant-int",
    "fleet.balloon_probe_rate": "1/tenant-int",
    "fleet.balloon_abort_rate": "1/tenant-int",
    "fleet.balloon_confirm_rate": "1/tenant-int",
    "fleet.budget_forced_rate": "1/tenant-int",
    "fleet.hold_latency_rate": "1/tenant-int",
    "fleet.degraded.waves_per_interval": "count",
    "faults.faulted_frac": "fraction",
    "fleet.degraded.guard.quarantined_rate": "1/tenant-int",
    "fleet.degraded.guard.missed_rate": "1/tenant-int",
    "fleet.degraded.guard.discarded_rate": "1/tenant-int",
    "fleet.degraded.executor.attempt_rate": "1/tenant-int",
    "fleet.degraded.executor.failure_rate": "1/tenant-int",
    "fleet.degraded.executor.circuit_opens": "count",
    "service.checkpoint.bytes_first": "B",
    "service.checkpoint.bytes_last": "B",
    "service.encode.calls_per_checkpoint": "count",
    "core.resize_rate": "1/tenant-int",
}


class WindowResult:
    """What one timed window leaves behind once its world is dropped."""

    def __init__(self, world, times: list[float], recorder):
        self.times = times
        self.recorder = recorder
        self.attempted = world.tenant_intervals
        self.failed = int(world.failed.sum())
        self.digest = world.digest.hexdigest()
        self.cost = world.cost
        self.goal_busy = world.goal_busy
        self.goal_miss = world.goal_miss
        self.counts = dict(world.counts)
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if recorder is not None:
            calls = {n: e["calls"] for n, e in recorder.self_times().items()}
            self.counts.update(world.traced_counts(calls))


def set_up(cls, seed: int, trace: bool):
    """Build and warm up one world; returns it with each step's seconds."""
    gc.collect()
    world = cls(seed, trace, OUT)
    steps: list[float] = []
    start = time.perf_counter()
    for _ in world.setup():
        steps.append(time.perf_counter() - start)
        start = time.perf_counter()
    steps.append(time.perf_counter() - start)
    return world, steps


def run_window(world, traced: bool) -> WindowResult:
    """Time ``world.TIMED`` whole billing intervals, then check outputs."""
    world.begin()
    recorder = SpanRecorder() if traced else None
    times: list[float] = []
    try:
        if recorder is not None:
            world.instrument(recorder)
            step = recorder.wrap(ROOT_NAME, world.interval)
        else:
            step = world.interval
        gc.collect()
        for k in range(world.TIMED):
            start = time.perf_counter()
            try:
                step(k)
            except Exception:
                traceback.print_exc()
                world.failed[k:] = True
                break
            times.append(time.perf_counter() - start)
            world.after_interval(k)
    finally:
        if recorder is not None:
            recorder.restore()
    world.finish()
    return WindowResult(world, times, recorder)


def plan(cls, seconds: float, trace: bool) -> list[list[bool]]:
    """The run's fixed plan: per set-up, its windows (``True`` = traced).

    The window count follows from ``--seconds`` and the workload's
    nominal costs alone, never from how fast this host or this commit
    runs, so every commit takes its fastest repeats over the same number
    of samples.  The first set-up gets one window, so ``peak_rss_mb`` is
    read before any copy of a world exists; the others share the rest,
    spreading the repeats over the run.
    """
    budget = seconds - SETUPS * cls.SETUP_S
    windows = max(MIN_WINDOWS, round(budget / cls.WINDOW_S))
    kinds = [False, True] * max(2, windows // 2) if trace else [False] * windows
    rest = kinds[1:]
    cuts = [len(rest) * i // (SETUPS - 1) for i in range(SETUPS)]
    return [kinds[:1]] + [rest[a:b] for a, b in zip(cuts, cuts[1:])]


def fastest_repeats(windows: list[WindowResult]) -> list[float]:
    """For each interval position, the fastest of its repeats (seconds).

    Interval ``k`` of every window of a run is the same deterministic
    computation.  On a shared host the same work runs up to 1.7x slower
    for seconds at a time, so taking each position's fastest repeat
    drops those phases while keeping the workload's own shape across
    positions (bursts, checkpoint growth).
    """
    width = max(len(w.times) for w in windows)
    return [
        min(w.times[k] for w in windows if k < len(w.times))
        for k in range(width)
    ]


def end_to_end(cls, setups: list[list[float]], untraced) -> dict[str, float]:
    times = fastest_repeats(untraced)
    first = untraced[0]
    return {
        # Each set-up step's fastest repeat, like the interval positions:
        # step k of every set-up is the same deterministic work.
        "setup_s": sum(map(min, zip(*setups))),
        "interval_ms_p50": 1e3 * statistics.median(times),
        # Inclusive, so the cut stays inside the data for few positions.
        "interval_ms_p90": 1e3
        * statistics.quantiles(times, n=10, method="inclusive")[8],
        "tenant_intervals_per_s": cls.N_TENANTS * len(times) / sum(times),
        # The first window's high-water mark in this fresh process: it
        # runs on its own world, before any copy of a world is made.
        "peak_rss_mb": first.peak_rss_mb,
        "cost_per_tenant_interval": first.cost / first.attempted,
        "goal_miss_frac": first.goal_miss / first.goal_busy,
    }


def per_layer(untraced, traced) -> dict[str, float]:
    n_intervals = 0
    interval_s = 0.0
    self_s = {name: 0.0 for name in LAYERS}
    for w in traced:
        roots = w.recorder.root_durations()
        n_intervals += len(roots)
        interval_s += sum(roots)
        for name, entry in w.recorder.self_times().items():
            self_s["residual" if name == ROOT_NAME else name] += entry["self_s"]
    metrics: dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}.ms"] = 1e3 * self_s[name] / n_intervals
        metrics[f"{name}.share"] = self_s[name] / interval_s
    metrics["trace.interval_ms"] = 1e3 * interval_s / n_intervals
    traced_p50 = statistics.median(fastest_repeats(traced))
    untraced_p50 = statistics.median(fastest_repeats(untraced))
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    for name in COUNT_UNITS:
        metrics[name] = float(traced[0].counts.get(name, 0.0))
    return metrics


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYERS:
        units[f"{name}.ms"] = "ms"
        units[f"{name}.share"] = "fraction"
    units["trace.interval_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    units.update(COUNT_UNITS)
    units["decision.digest52"] = "id"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    trace = bool(args.trace)
    setups: list[list[float]] = []
    untraced: list[WindowResult] = []
    traced: list[WindowResult] = []
    planned = plan(cls, args.seconds, trace)
    start = time.perf_counter()
    capped = False
    for chunk in planned:
        if capped:
            break
        world, steps = set_up(cls, args.seed, trace)
        setups.append(steps)
        for j, is_traced in enumerate(chunk):
            enough = len(untraced) >= 2 and (traced or not trace)
            if enough and time.perf_counter() - start > CAP_S:
                capped = True
                break
            # Every window but a set-up's last runs on a copy of its
            # warmed-up world; the last one uses up the world itself.
            window = world if j == len(chunk) - 1 else world.fork()
            (traced if is_traced else untraced).append(run_window(window, is_traced))
        del world
    elapsed = time.perf_counter() - start

    windows = untraced + traced
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    digests = {w.digest for w in windows}
    if len(digests) > 1:
        print(
            f"error: windows of one seed disagree ({len(digests)} digests)",
            file=sys.stderr,
        )
        failed = attempted

    digest = untraced[0].digest
    if trace:
        metrics = per_layer(untraced, traced)
        # The decision digest as a number, so two commits' results can be
        # compared: equal on one seed means the same decisions.
        metrics["decision.digest52"] = float(int(digest[:13], 16))
        units = per_layer_units()
        for i, w in enumerate(traced):
            w.recorder.write(OUT / f"spans-{cls.name}-seed{args.seed}-{i}.jsonl")
    else:
        metrics = end_to_end(cls, setups, untraced)
        units = END_TO_END_UNITS
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"intervals-{cls.name}-seed{args.seed}.json").write_text(
            json.dumps(
                {
                    "setup_s": setups,
                    "interval_s": [w.times for w in untraced],
                }
            )
        )
    planned_windows = sum(len(chunk) for chunk in planned)
    print(
        f"{cls.name} seed={args.seed}: {len(setups)} set-ups, "
        f"{len(untraced)} untraced + {len(traced)} traced windows of "
        f"{cls.TIMED} timed intervals in {elapsed:.1f} s"
        + (f" (CAPPED: {planned_windows} planned)" if capped else "")
        + f"; interval quantiles over {cls.TIMED} positions, each the "
        f"fastest of its {len(untraced)} untraced repeats"
    )
    print(
        f"  failed_frac={failed / attempted:g} ({failed}/{attempted} "
        f"tenant-intervals); decision digest {digest}"
    )
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
