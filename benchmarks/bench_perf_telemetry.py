"""Performance benchmark: the telemetry + control-loop hot path.

Unlike the figure-reproduction benchmarks, this one tracks the *speed* of
the per-interval control path.  :meth:`TelemetryManager.signals` and
:meth:`AutoScaler.decide` run every billing interval for every tenant, so
at the paper's fleet scale (§2, thousands of tenants) the estimation layer
itself must be cheap.  Measurements:

* **fleet_vectorized** — the headline: one scalar ``AutoScaler.decide``
  loop over every tenant vs. one :class:`VectorizedAutoScaler.decide_batch`
  sweep, on identical pre-built streams, with every decision asserted
  identical between the two arms before the speedup is reported.
* **sweep_100k** (full mode) — wall-clock per interval of a 100 000-tenant
  vectorized sweep, the paper-scale figure.
* **chaos_degraded** — the degraded-mode wave loop under a 5 % fault rate
  vs. the healthy vectorized sweep at the same scale; the fault-handling
  machinery (guard verdicts, held deliveries, masked injection) must stay
  within ``CHAOS_DEGRADED_MAX_RATIO`` of the healthy path.
* **tracing**, **fleet_observability**, **checkpoint** and **fleet_1m** —
  instrumentation and checkpoint overheads, and the closed-loop
  fleet-scale sweep.

All timed sections separate warm-up from measurement: the first
``signal_window`` intervals fill the rings untimed (cold-window appends
are cheaper than steady-state ones, so timing them *understates* the
per-interval cost).  Results are emitted machine-readable to
``BENCH_perf_telemetry.json`` at the repository root;
``benchmarks/check_perf_gate.py`` gates CI on the committed numbers.

Usage::

    python benchmarks/bench_perf_telemetry.py            # full fleet sweep
    python benchmarks/bench_perf_telemetry.py --smoke    # seconds, CI-sized
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from pathlib import Path

import numpy as np

from repro.core.autoscaler import AutoScaler
from repro.core.latency import LatencyGoal
from repro.core.thresholds import default_thresholds
from repro.engine.containers import default_catalog
from repro.engine.resources import SCALABLE_KINDS, ResourceKind
from repro.engine.server import EngineConfig
from repro.engine.telemetry import IntervalCounters
from repro.engine.waits import WaitClass, WaitProfile
from repro.fleet.vectorized import (
    VectorizedAutoScaler,
    counters_to_interval_arrays,
    run_synthetic_sweep,
)
from repro.harness.experiment import ExperimentConfig, run_policy
from repro.obs.events import TraceLevel
from repro.obs.tracer import Tracer
from repro.policies.auto import AutoPolicy
from repro.workloads import Trace, cpuio_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_perf_telemetry.json"

VECTORIZED_TARGET_SPEEDUP = 10.0  # vectorized sweep vs scalar decide loop

#: Ceilings for the 1M-tenant closed-loop sweep arm (laptop-class budget).
FLEET_1M_MAX_MEAN_INTERVAL_S = 25.0
FLEET_1M_MAX_PEAK_RSS_GB = 8.0
#: Distinct synthetic tenant profiles; tenants cycle through the pool so
#: fleet setup stays cheap while the managers still see varied streams.
STREAM_POOL = 16


# -- synthetic fleet ----------------------------------------------------------


def make_stream(seed: int, n_intervals: int) -> list[IntervalCounters]:
    """One tenant's stream of interval counters with bursty, noisy telemetry."""
    rng = np.random.default_rng(seed)
    catalog = default_catalog()
    container = catalog.at_level(int(rng.integers(1, len(catalog) - 1)))
    base_latency = rng.uniform(20.0, 120.0)
    burst_at = rng.integers(0, max(n_intervals - 10, 1))
    counters = []
    for i in range(n_intervals):
        bursting = burst_at <= i < burst_at + 10
        latency = base_latency * (3.0 if bursting else 1.0) * rng.uniform(0.8, 1.25)
        idle = rng.random() < 0.05
        latencies = (
            np.empty(0)
            if idle
            else rng.gamma(4.0, latency / 4.0, size=24)
        )
        waits = WaitProfile()
        waits.add(WaitClass.CPU, float(rng.uniform(50, 500) * (2.0 if bursting else 1.0)))
        waits.add(WaitClass.MEMORY, float(rng.uniform(0, 120)))
        waits.add(WaitClass.DISK, float(rng.uniform(0, 200)))
        waits.add(WaitClass.LOG, float(rng.uniform(0, 80)))
        waits.add(WaitClass.LOCK, float(rng.uniform(0, 40)))
        utilization = {
            kind: float(rng.uniform(0.05, 0.95)) for kind in ResourceKind
        }
        counters.append(
            IntervalCounters(
                interval_index=i,
                start_s=i * 60.0,
                end_s=(i + 1) * 60.0,
                container=container,
                latencies_ms=latencies,
                arrivals=latencies.size,
                completions=latencies.size,
                rejected=0,
                utilization_median=utilization,
                utilization_mean=utilization,
                waits=waits,
                memory_used_gb=float(rng.uniform(0.5, 8.0)),
                disk_physical_reads=float(rng.uniform(0, 1000)),
            )
        )
    return counters


# -- the vectorized sweep vs. the scalar decide loop --------------------------


def bench_fleet_vectorized(
    streams: list[list[IntervalCounters]], n_tenants: int
) -> dict:
    """Scalar ``AutoScaler.decide`` loop vs one vectorized fleet sweep.

    Both arms consume identical pre-built streams (tenant ``t`` cycles
    through the stream pool) and every decision — container level,
    resized flag, balloon limit, per-resource steps, and rule ids — is
    asserted identical before any speedup is reported.  Stream prep and
    counters→array conversion happen outside the timed regions; the
    vectorized arm runs with ``record_actions=False`` (its benchmark
    configuration; action-list identity is covered by the golden tests).
    """
    catalog = default_catalog()
    goal = LatencyGoal(100.0)
    thresholds = default_thresholds()
    warmup = thresholds.signal_window
    n_intervals = len(streams[0])
    measured = n_intervals - warmup
    pool = len(streams)

    # Counter rows per interval, then struct-of-arrays inputs: only the
    # pool's tenants are converted through the Python accessors; the rest
    # of the fleet is fancy-indexed from those columns.
    tenant_cols = np.arange(n_tenants) % pool
    interval_inputs = []
    for i in range(n_intervals):
        row = [streams[p][i] for p in range(pool)]
        arrays = counters_to_interval_arrays(row, goal)
        interval_inputs.append(
            {
                "t": arrays["t"],
                "latency_ms": arrays["latency_ms"][tenant_cols],
                "util_pct": arrays["util_pct"][:, tenant_cols],
                "wait_ms": arrays["wait_ms"][:, tenant_cols],
                "wait_pct": arrays["wait_pct"][:, tenant_cols],
                "memory_used_gb": arrays["memory_used_gb"][tenant_cols],
                "disk_physical_reads": arrays["disk_physical_reads"][tenant_cols],
                "billed_cost": arrays["billed_cost"][tenant_cols],
            }
        )

    # Scalar arm: one AutoScaler per tenant, warm-up untimed.
    scalers = [
        AutoScaler(catalog, goal=goal, thresholds=thresholds)
        for _ in range(n_tenants)
    ]
    scalar_decisions: list[list] = [[] for _ in range(n_tenants)]
    scalar_s = 0.0
    for t, scaler in enumerate(scalers):
        stream = streams[t % pool]
        for counters in stream[:warmup]:
            scalar_decisions[t].append(scaler.decide(counters))
        start = time.perf_counter()
        for counters in stream[warmup:]:
            scalar_decisions[t].append(scaler.decide(counters))
        scalar_s += time.perf_counter() - start

    # Vectorized arm: one engine, one decide_batch per interval.
    vec = VectorizedAutoScaler(
        catalog,
        n_tenants,
        goal=goal,
        thresholds=thresholds,
        record_actions=False,
    )
    vec_decisions = []
    vectorized_s = 0.0
    for i, inputs in enumerate(interval_inputs):
        start = time.perf_counter()
        decision = vec.decide_batch(
            inputs["t"],
            inputs["latency_ms"],
            inputs["util_pct"],
            inputs["wait_ms"],
            inputs["wait_pct"],
            inputs["memory_used_gb"],
            inputs["disk_physical_reads"],
            billed_cost=inputs["billed_cost"],
        )
        elapsed = time.perf_counter() - start
        if i >= warmup:
            vectorized_s += elapsed
        vec_decisions.append(decision)

    identical = _assert_decisions_identical(
        scalar_decisions, vec_decisions, n_tenants
    )
    # Release the per-interval input copies and both decision histories
    # before returning: they are the arm's largest allocations and must
    # not linger into the next arm's RSS.
    del interval_inputs, scalers, scalar_decisions, vec_decisions, vec
    scalar_rate_us = 1e6 * scalar_s / (n_tenants * measured)
    vec_rate_us = 1e6 * vectorized_s / (n_tenants * measured)
    return {
        "tenants": n_tenants,
        "intervals": n_intervals,
        "warmup_intervals": warmup,
        "measured_intervals": measured,
        "scalar_s": round(scalar_s, 4),
        "vectorized_s": round(vectorized_s, 4),
        "scalar_us_per_tenant_interval": round(scalar_rate_us, 2),
        "vectorized_us_per_tenant_interval": round(vec_rate_us, 3),
        "speedup": round(scalar_rate_us / vec_rate_us, 2),
        "target_speedup": VECTORIZED_TARGET_SPEEDUP,
        "decisions_identical": identical,
        "decisions_compared": n_tenants * n_intervals,
    }


def _assert_decisions_identical(scalar_decisions, vec_decisions, n_tenants) -> bool:
    """Every tenant-interval decision must match between the two arms."""
    n_intervals = len(vec_decisions)
    for i in range(n_intervals):
        fleet = vec_decisions[i]
        s_level = np.array(
            [scalar_decisions[t][i].container.level for t in range(n_tenants)]
        )
        s_resized = np.array(
            [scalar_decisions[t][i].resized for t in range(n_tenants)]
        )
        s_limit = np.array(
            [
                np.nan
                if scalar_decisions[t][i].balloon_limit_gb is None
                else scalar_decisions[t][i].balloon_limit_gb
                for t in range(n_tenants)
            ]
        )
        if not (
            np.array_equal(s_level, fleet.level)
            and np.array_equal(s_resized, fleet.resized)
            and np.array_equal(s_limit, fleet.balloon_limit_gb, equal_nan=True)
        ):
            raise AssertionError(
                f"vectorized sweep diverged from scalar decisions at "
                f"interval {i}"
            )
        for k, kind in enumerate(SCALABLE_KINDS):
            s_steps = np.array(
                [
                    scalar_decisions[t][i].demand.demand(kind).steps
                    for t in range(n_tenants)
                ]
            )
            if not np.array_equal(s_steps, fleet.steps[k]):
                raise AssertionError(
                    f"vectorized demand steps diverged at interval {i} "
                    f"for {kind.value}"
                )
    return True


def bench_sweep_100k(n_tenants: int = 100_000, n_intervals: int = 10) -> dict:
    """Paper-scale sweep: per-interval wall-clock at 100k tenants."""
    result = run_synthetic_sweep(n_tenants, n_intervals, seed=7)
    steady = result["per_interval_s"][1:]  # first interval pays allocation
    return {
        "tenants": n_tenants,
        "intervals": n_intervals,
        "total_s": round(result["total_s"], 3),
        "mean_interval_s": round(float(np.mean(steady)), 3),
        "max_interval_s": round(result["max_interval_s"], 3),
        "per_interval_s": [round(v, 3) for v in result["per_interval_s"]],
        "resizes": result["resizes"],
    }


def bench_fleet_1m(
    n_tenants: int = 1_000_000,
    n_intervals: int = 12,
) -> dict:
    """Million-tenant closed-loop sweep: s/interval + peak RSS, gated.

    Runs in a fresh ``spawn`` subprocess so the ``ru_maxrss`` high-water
    mark belongs to this arm alone rather than to whichever earlier arm
    allocated the most.  The engine runs its float64 rings over the whole
    fleet at once against the closed-loop synthesizer, so the timed path
    includes actuation: scale-up searches, budget settlement with real
    spend, and balloon probes.
    """
    from repro.fleet.vectorized import run_synthetic_sweep_subprocess

    result = run_synthetic_sweep_subprocess(
        n_tenants,
        n_intervals,
        seed=7,
        closed_loop=True,
    )
    steady = result["per_interval_s"][1:]  # first interval pays allocation
    counts = result["actuation"]
    actuated = (
        result["resizes"] > 0
        and result["budget_spent"] > 0.0
        and result["balloon_transitions"] > 0
    )
    return {
        "tenants": n_tenants,
        "intervals": n_intervals,
        "closed_loop": True,
        "total_s": round(result["total_s"], 3),
        "mean_interval_s": round(float(np.mean(steady)), 3),
        "max_interval_s": round(result["max_interval_s"], 3),
        "per_interval_s": [round(v, 3) for v in result["per_interval_s"]],
        "peak_rss_gb": round(result["peak_rss_gb"], 3),
        "resizes": result["resizes"],
        "budget_spent": round(result["budget_spent"], 2),
        "balloon_transitions": result["balloon_transitions"],
        "actuation": counts,
        "actuated": actuated,
        "max_mean_interval_s": FLEET_1M_MAX_MEAN_INTERVAL_S,
        "max_peak_rss_gb": FLEET_1M_MAX_PEAK_RSS_GB,
    }


# -- degraded-mode chaos sweep ------------------------------------------------

CHAOS_DEGRADED_MAX_RATIO = 2.0


def bench_chaos_degraded(
    n_tenants: int, n_intervals: int, fault_rate: float = 0.05
) -> dict:
    """Degraded wave loop under faults vs. the healthy vectorized sweep.

    Both arms run the same synthetic fleet at the same scale; the degraded
    arm adds randomized fault schedules (``fault_rate`` of tenant-intervals
    perturbed) compiled to masks, the per-wave telemetry guard, safe-mode
    gating, and the vectorized circuit breaker.  The ratio of steady-state
    per-interval means is the gated number: degraded-mode bookkeeping must
    not double the cost of fleet scaling.
    """
    from repro.fleet.degraded import run_degraded_synthetic_sweep

    healthy = run_synthetic_sweep(n_tenants, n_intervals, seed=7)
    degraded = run_degraded_synthetic_sweep(
        n_tenants, n_intervals, seed=7, fault_rate=fault_rate
    )
    # First interval pays allocation on both arms.
    healthy_mean = float(np.mean(healthy["per_interval_s"][1:]))
    degraded_mean = float(np.mean(degraded["per_interval_s"][1:]))
    return {
        "tenants": n_tenants,
        "intervals": n_intervals,
        "fault_rate": fault_rate,
        "faulted_tenant_intervals": degraded["faulted_tenant_intervals"],
        "healthy_total_s": round(healthy["total_s"], 3),
        "degraded_total_s": round(degraded["total_s"], 3),
        "healthy_mean_interval_s": round(healthy_mean, 4),
        "degraded_mean_interval_s": round(degraded_mean, 4),
        "degraded_over_healthy": round(degraded_mean / healthy_mean, 2),
        "max_ratio": CHAOS_DEGRADED_MAX_RATIO,
    }


# -- tracing overhead ---------------------------------------------------------

TRACING_OVERHEAD_TARGET_PCT = 10.0


def bench_tracing_overhead(smoke: bool = False, repeats: int = 3) -> dict:
    """Wall-clock cost of DECISION-level tracing on a full policy run.

    Runs the same workload x trace through ``run_policy`` with and without
    a tracer attached (best-of-``repeats`` each, interleaved so machine
    drift hits both arms) and verifies along the way that the traced run
    chooses identical containers and produces an identical bill — tracing
    must be pure observation.
    """
    n = 16 if smoke else 48
    rates = np.full(n, 25.0)
    rates[n // 4 : n // 2] = 220.0
    workload = cpuio_workload()

    def one_run(tracer: Tracer | None):
        config = ExperimentConfig(
            engine=EngineConfig(interval_ticks=10), warmup_intervals=4, seed=7
        )
        scaler = AutoScaler(
            catalog=config.catalog,
            goal=LatencyGoal(100.0),
            thresholds=config.thresholds,
        )
        trace = Trace(name="overhead", rates=rates)
        start = time.perf_counter()
        result = run_policy(workload, trace, AutoPolicy(scaler), config, tracer=tracer)
        return time.perf_counter() - start, result

    untraced_s = float("inf")
    traced_s = float("inf")
    baseline = None
    n_events = 0
    for _ in range(repeats):
        elapsed, result = one_run(None)
        untraced_s = min(untraced_s, elapsed)
        baseline = result

        tracer = Tracer("overhead", level=TraceLevel.DECISION)
        elapsed, traced = one_run(tracer)
        traced_s = min(traced_s, elapsed)
        n_events = len(tracer)
        assert traced.containers == baseline.containers, (
            "traced run diverged from untraced run: tracing is not invisible"
        )
        assert [r.cost for r in traced.meter.records] == [
            r.cost for r in baseline.meter.records
        ], "traced run billed differently from untraced run"

    overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s
    return {
        "intervals": n,
        "repeats": repeats,
        "untraced_s": round(untraced_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead_pct": round(overhead_pct, 2),
        "target_overhead_pct": TRACING_OVERHEAD_TARGET_PCT,
        "events_per_run": n_events,
        "byte_identical": True,
    }


# -- columnar fleet-pipeline overhead -----------------------------------------

FLEET_OBS_OVERHEAD_TARGET_PCT = 10.0


def bench_fleet_observability(
    n_tenants: int, n_intervals: int, repeats: int = 3
) -> dict:
    """Instrumented vs. uninstrumented vectorized sweep.

    Both arms consume the same pre-generated synthetic telemetry in the
    benchmark configuration (``record_actions=False``).  The instrumented
    arm carries the full fleet pipeline: a columnar
    :class:`~repro.obs.fleet.FleetTraceRecorder` (aux capture off, as in
    production), a DECISION-level tracer receiving the per-interval
    aggregate events, and a :class:`~repro.obs.fleet.FleetHealthMonitor`.
    Arms are interleaved best-of-``repeats`` so machine drift hits both,
    and final fleet state is asserted identical — recording must be pure
    observation.
    """
    from repro.fleet.vectorized import synthesize_fleet_telemetry
    from repro.obs.fleet import FleetHealthMonitor, FleetTraceRecorder

    catalog = default_catalog()
    goal = LatencyGoal(100.0)
    data = synthesize_fleet_telemetry(n_tenants, n_intervals, seed=7)
    try:
        return _bench_fleet_observability(
            data, catalog, goal, n_tenants, n_intervals, repeats
        )
    finally:
        del data


def _bench_fleet_observability(
    data, catalog, goal, n_tenants: int, n_intervals: int, repeats: int
) -> dict:
    from repro.obs.fleet import FleetHealthMonitor, FleetTraceRecorder

    def one_run(instrumented: bool):
        scaler = VectorizedAutoScaler(
            catalog, n_tenants, goal=goal, record_actions=False
        )
        tracer = None
        if instrumented:
            tracer = Tracer("fleet-obs", level=TraceLevel.DECISION)
            recorder = FleetTraceRecorder(
                tracer=tracer,
                health=FleetHealthMonitor(tracer=tracer),
                capture_aux=False,
            )
            scaler.attach_recorder(recorder)
        resizes = 0
        start = time.perf_counter()
        for i in range(n_intervals):
            decision = scaler.decide_batch(
                float(i),
                data.latency_ms[i],
                data.util_pct[i],
                data.wait_ms[i],
                data.wait_pct[i],
                data.memory_used_gb[i],
                data.disk_physical_reads[i],
            )
            resizes += int(np.count_nonzero(decision.resized))
        elapsed = time.perf_counter() - start
        return elapsed, resizes, scaler.level.copy(), tracer

    uninstrumented_s = float("inf")
    instrumented_s = float("inf")
    n_events = 0
    for _ in range(repeats):
        elapsed, base_resizes, base_levels, _ = one_run(False)
        uninstrumented_s = min(uninstrumented_s, elapsed)

        elapsed, resizes, levels, tracer = one_run(True)
        instrumented_s = min(instrumented_s, elapsed)
        n_events = len(tracer)
        assert resizes == base_resizes and np.array_equal(levels, base_levels), (
            "instrumented sweep diverged from uninstrumented sweep: "
            "recording is not pure observation"
        )

    overhead_pct = 100.0 * (instrumented_s - uninstrumented_s) / uninstrumented_s
    return {
        "tenants": n_tenants,
        "intervals": n_intervals,
        "repeats": repeats,
        "uninstrumented_s": round(uninstrumented_s, 4),
        "instrumented_s": round(instrumented_s, 4),
        "overhead_pct": round(overhead_pct, 2),
        "target_overhead_pct": FLEET_OBS_OVERHEAD_TARGET_PCT,
        "events_per_run": n_events,
        "decisions_identical": True,
    }


# -- checkpoint write/restore -------------------------------------------------

CHECKPOINT_OVERHEAD_TARGET_PCT = 10.0


def bench_checkpoint(n_tenants: int, n_intervals: int, repeats: int = 3) -> dict:
    """Checkpoint capture/write/restore vs. the sweep interval it shadows.

    The gated number is the **synchronous** cost: ``state_dict()`` is a
    copying snapshot, the only work the tick loop must wait for before
    the next interval can run.  Encoding to the JSON wire and writing out
    happen on the immutable snapshot off the hot path —
    ``snapshot_immutable`` proves a deferred encode (after the engine has
    moved on) produces the same bytes as an immediate one.  Full
    encode/decode/restore times are reported alongside, and the restored
    engine must finish the sweep with decisions identical to an
    uninterrupted twin (``restore_identical``).
    """
    from repro.fleet.vectorized import synthesize_fleet_telemetry
    from repro.service import decode_state, encode_state

    catalog = default_catalog()
    goal = LatencyGoal(100.0)
    data = synthesize_fleet_telemetry(n_tenants, n_intervals, seed=7)

    def build():
        return VectorizedAutoScaler(
            catalog, n_tenants, goal=goal, record_actions=False
        )

    def drive(scaler, lo, hi, collect=None):
        elapsed = []
        for i in range(lo, hi):
            start = time.perf_counter()
            decision = scaler.decide_batch(
                float(i),
                data.latency_ms[i],
                data.util_pct[i],
                data.wait_ms[i],
                data.wait_pct[i],
                data.memory_used_gb[i],
                data.disk_physical_reads[i],
            )
            elapsed.append(time.perf_counter() - start)
            if collect is not None:
                collect.append(decision)
        return elapsed

    # Uninterrupted twin: the whole sweep, timed per interval.
    twin = build()
    twin_decisions: list = []
    per_interval = drive(twin, 0, n_intervals, twin_decisions)
    mean_interval_s = float(np.mean(per_interval[1:]))  # first pays allocation

    # Checkpointed engine: stop at the halfway mark.
    half = n_intervals // 2
    engine = build()
    drive(engine, 0, half)

    capture_s = encode_s = float("inf")
    snapshot = wire = None
    for _ in range(repeats):
        start = time.perf_counter()
        snapshot = engine.state_dict()
        capture_s = min(capture_s, time.perf_counter() - start)
        start = time.perf_counter()
        wire = json.dumps(
            encode_state(snapshot), sort_keys=True, separators=(",", ":")
        )
        encode_s = min(encode_s, time.perf_counter() - start)

    # Deferred-write consistency: let the live engine run two more
    # intervals, then re-encode the snapshot captured above.
    drive(engine, half, min(half + 2, n_intervals))
    deferred = json.dumps(
        encode_state(snapshot), sort_keys=True, separators=(",", ":")
    )
    snapshot_immutable = deferred == wire

    restore_s = float("inf")
    restored = None
    for _ in range(repeats):
        fresh = build()
        start = time.perf_counter()
        fresh.load_state_dict(decode_state(json.loads(wire)))
        restore_s = min(restore_s, time.perf_counter() - start)
        restored = fresh

    resumed: list = []
    drive(restored, half, n_intervals, resumed)
    restore_identical = all(
        np.array_equal(got.level, want.level)
        and np.array_equal(got.resized, want.resized)
        and np.array_equal(
            got.balloon_limit_gb, want.balloon_limit_gb, equal_nan=True
        )
        and np.array_equal(got.steps, want.steps)
        for got, want in zip(resumed, twin_decisions[half:], strict=True)
    )
    # Drop the synthetic streams, both decision histories, and the
    # snapshot before returning so they cannot linger into the next arm.
    del twin_decisions, resumed, snapshot
    data = None  # noqa: F841 (closure cell released on purpose)

    overhead_pct = 100.0 * capture_s / mean_interval_s
    return {
        "tenants": n_tenants,
        "intervals": n_intervals,
        "repeats": repeats,
        "mean_interval_ms": round(1e3 * mean_interval_s, 3),
        "capture_ms": round(1e3 * capture_s, 4),
        "encode_ms": round(1e3 * encode_s, 3),
        "restore_ms": round(1e3 * restore_s, 3),
        "wire_bytes": len(wire),
        "overhead_pct": round(overhead_pct, 2),
        "target_overhead_pct": CHECKPOINT_OVERHEAD_TARGET_PCT,
        "write_pct_of_interval": round(
            100.0 * (capture_s + encode_s) / mean_interval_s, 1
        ),
        "snapshot_immutable": snapshot_immutable,
        "restore_identical": restore_identical,
    }


# -- driver -------------------------------------------------------------------


def run_benchmark(
    smoke: bool = False,
    tenants: int | None = None,
    intervals: int | None = None,
    result_path: Path = RESULT_PATH,
) -> dict:
    n_tenants = (24 if smoke else 1000) if tenants is None else tenants
    n_intervals = (40 if smoke else 200) if intervals is None else intervals
    if n_tenants < 1 or n_intervals < 1:
        raise ValueError("tenants and intervals must be >= 1")
    streams = [
        make_stream(seed, n_intervals) for seed in range(min(STREAM_POOL, n_tenants))
    ]

    def between_arms() -> None:
        # Each arm scopes its own large synthetic arrays; a collect at the
        # arm boundary frees any cycles holding them so the next arm's
        # allocations reuse the memory instead of stacking on top.
        gc.collect()

    result: dict = {
        "benchmark": "perf_telemetry",
        "mode": "smoke" if smoke else "full",
    }
    result["fleet_vectorized"] = bench_fleet_vectorized(streams, n_tenants)
    between_arms()
    result["chaos_degraded"] = bench_chaos_degraded(n_tenants, n_intervals)
    between_arms()
    result["tracing"] = bench_tracing_overhead(smoke=smoke)
    between_arms()
    result["fleet_observability"] = bench_fleet_observability(
        n_tenants, n_intervals
    )
    between_arms()
    result["checkpoint"] = bench_checkpoint(n_tenants, n_intervals)
    between_arms()
    if smoke:
        # Truncated fleet-scale arm: same closed-loop machinery and keys,
        # CI-sized geometry (the committed full-mode numbers carry the
        # real 1M readings; ceilings scale with the full geometry only).
        result["fleet_1m"] = bench_fleet_1m(n_tenants=20_000, n_intervals=6)
    else:
        result["sweep_100k"] = bench_sweep_100k()
        between_arms()
        result["fleet_1m"] = bench_fleet_1m()
    result_path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict) -> str:
    vec = result["fleet_vectorized"]
    lines = [
        f"vectorized sweep ({vec['tenants']} tenants x {vec['measured_intervals']} "
        "measured intervals, decisions byte-identical):",
        f"  scalar loop: {vec['scalar_us_per_tenant_interval']:8.1f} us/tenant-interval"
        f"  ({vec['scalar_s']:.2f}s total)",
        f"  vectorized:  {vec['vectorized_us_per_tenant_interval']:8.2f} us/tenant-interval"
        f"  ({vec['vectorized_s']:.2f}s total)",
        f"  speedup:     {vec['speedup']:.1f}x (target >= {vec['target_speedup']:.0f}x)",
    ]
    chaos = result["chaos_degraded"]
    lines.append(
        f"degraded chaos sweep ({chaos['tenants']} tenants x "
        f"{chaos['intervals']} intervals, {100 * chaos['fault_rate']:.0f}% "
        f"fault rate, {chaos['faulted_tenant_intervals']} faulted "
        "tenant-intervals):"
    )
    lines.append(
        f"  healthy {1e3 * chaos['healthy_mean_interval_s']:.1f} ms/interval"
        f"  degraded {1e3 * chaos['degraded_mean_interval_s']:.1f} ms/interval"
        f"  -> {chaos['degraded_over_healthy']:.2f}x "
        f"(ceiling {chaos['max_ratio']:.0f}x)"
    )
    if "sweep_100k" in result:
        sweep = result["sweep_100k"]
        lines.append(
            f"100k-tenant sweep: {sweep['mean_interval_s']:.2f}s/interval mean "
            f"(max {sweep['max_interval_s']:.2f}s, {sweep['intervals']} intervals, "
            f"{sweep['resizes']} resizes)"
        )
    tracing = result["tracing"]
    lines.append(
        f"tracing overhead ({tracing['intervals']} intervals, DECISION level, "
        f"best of {tracing['repeats']}):"
    )
    lines.append(
        f"  untraced {tracing['untraced_s']:.3f}s  traced {tracing['traced_s']:.3f}s"
        f"  -> {tracing['overhead_pct']:+.1f}% "
        f"(target < {tracing['target_overhead_pct']:.0f}%), "
        f"{tracing['events_per_run']} events, decisions and bills byte-identical"
    )
    obs = result["fleet_observability"]
    lines.append(
        f"fleet pipeline overhead ({obs['tenants']} tenants x "
        f"{obs['intervals']} intervals, best of {obs['repeats']}):"
    )
    lines.append(
        f"  uninstrumented {obs['uninstrumented_s']:.3f}s  "
        f"instrumented {obs['instrumented_s']:.3f}s"
        f"  -> {obs['overhead_pct']:+.1f}% "
        f"(target < {obs['target_overhead_pct']:.0f}%), "
        f"{obs['events_per_run']} events, fleet state identical"
    )
    ckpt = result["checkpoint"]
    lines.append(
        f"checkpoint ({ckpt['tenants']} tenants, best of {ckpt['repeats']}; "
        f"sweep interval {ckpt['mean_interval_ms']:.2f} ms):"
    )
    lines.append(
        f"  capture {ckpt['capture_ms']:.3f} ms synchronous"
        f"  -> {ckpt['overhead_pct']:+.1f}% of interval "
        f"(target < {ckpt['target_overhead_pct']:.0f}%); "
        f"encode {ckpt['encode_ms']:.1f} ms + restore {ckpt['restore_ms']:.1f} ms "
        f"off hot path ({ckpt['wire_bytes']} wire bytes), "
        "snapshot immutable, resumed decisions identical"
    )
    if "fleet_1m" in result:
        big = result["fleet_1m"]
        lines.append(
            f"fleet-scale closed loop ({big['tenants']} tenants x "
            f"{big['intervals']} intervals):"
        )
        lines.append(
            f"  {big['mean_interval_s']:.2f}s/interval mean "
            f"(max {big['max_interval_s']:.2f}s, "
            f"ceiling {big['max_mean_interval_s']:.0f}s at full scale), "
            f"peak RSS {big['peak_rss_gb']:.2f} GB "
            f"(ceiling {big['max_peak_rss_gb']:.0f} GB)"
        )
        lines.append(
            f"  actuation: {big['resizes']} resizes, "
            f"budget spent {big['budget_spent']:.0f}, "
            f"{big['balloon_transitions']} balloon transitions"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (seconds, not minutes)"
    )
    parser.add_argument("--tenants", type=int, default=None)
    parser.add_argument("--intervals", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=RESULT_PATH,
        help="where to write the JSON results (default: repo-root "
        "BENCH_perf_telemetry.json)",
    )
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    result = run_benchmark(
        smoke=args.smoke,
        tenants=args.tenants,
        intervals=args.intervals,
        result_path=args.out,
    )
    print(report(result))
    print(f"\nwrote {args.out}")
    vec = result["fleet_vectorized"]
    if vec["speedup"] < (2.0 if args.smoke else VECTORIZED_TARGET_SPEEDUP):
        print("WARNING: vectorized speedup below target")
        return 1
    return 0


def test_perf_telemetry(benchmark):
    """pytest-benchmark entry: smoke-sized run with the speedup assertion."""
    result = benchmark.pedantic(run_benchmark, kwargs={"smoke": True}, rounds=1, iterations=1)
    print(report(result))
    assert result["fleet_vectorized"]["decisions_identical"]
    assert result["chaos_degraded"]["degraded_over_healthy"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
