"""Live performance gates for the per-interval control path.

The paper's controller runs every billing interval for every tenant of
the service (§2), so recording, checkpointing and fault handling must stay
cheap next to the decision itself.  Each test times one contract live, on
the machine that runs it, and first asserts the truth check that makes the
timing mean something:

* vectorized sweep: every decision equals the scalar ``AutoScaler``'s,
  and the sweep is >= 10x faster per tenant-interval (1000 tenants);
* degraded chaos sweep: 5 % of tenant-intervals faulted, at most 2x the
  healthy sweep's steady-state interval (1000 x 200, seed 7);
* tracing: DECISION-level tracing costs <= 10 % of a policy run, with
  identical containers and bills (48 intervals, best of 3);
* fleet observability: recorder + tracer + health monitor cost <= 10 %
  of the sweep, with identical fleet state (1000 x 200, best of 3,
  interleaved);
* checkpoint: the synchronous ``state_dict`` capture costs <= 10 % of a
  sweep interval, a deferred encode is byte-identical, and a restored
  engine resumes bit-identically (1000 x 200, best of 3).

Warm-up intervals are untimed wherever a per-interval rate is taken.  The
100k- and 1M-tenant ceilings are ``repro fleet sweep --max-interval-s`` /
``--max-rss-gb`` runs, each in its own process.  Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_perf_gates.py
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.autoscaler import AutoScaler
from repro.core.latency import LatencyGoal
from repro.core.thresholds import default_thresholds
from repro.engine.containers import default_catalog
from repro.engine.resources import SCALABLE_KINDS, ResourceKind
from repro.engine.server import EngineConfig
from repro.engine.telemetry import IntervalCounters
from repro.engine.waits import WaitClass, WaitProfile
from repro.faults.schedule import FaultSchedule
from repro.faults.vectorized import compile_schedules
from repro.fleet.degraded import DegradedSyntheticFleet, DegradedVectorizedAutoScaler
from repro.fleet.vectorized import (
    VectorizedAutoScaler,
    counters_to_interval_arrays,
    synthesize_fleet_telemetry,
)
from repro.harness.experiment import ExperimentConfig, run_policy
from repro.obs.events import TraceLevel
from repro.obs.fleet import FleetHealthMonitor, FleetTraceRecorder
from repro.obs.tracer import Tracer
from repro.policies.auto import AutoPolicy
from repro.service import decode_state, encode_state
from repro.workloads import Trace, cpuio_workload

TENANTS = 1000
INTERVALS = 200
SEED = 7
#: The speedup is a per-tenant-interval rate, so a short sweep measures it:
#: the signal window of warm-up plus 8 timed intervals.
SPEEDUP_INTERVALS = 18
MIN_SPEEDUP = 10.0
MAX_DEGRADED_RATIO = 2.0
MAX_OVERHEAD_PCT = 10.0
FAULT_RATE = 0.05
#: Distinct synthetic tenant streams; the fleet cycles through the pool.
STREAM_POOL = 16
#: ``decide_batch``'s per-interval telemetry arguments, in order.
FIELDS = ("latency_ms", "util_pct", "wait_ms", "wait_pct", "memory_used_gb",
          "disk_physical_reads")


def _report(gate: str, value: float, bound: str) -> None:
    print(f"\ngate {gate}: {value:.3f} ({bound})")


@pytest.fixture(scope="module")
def fleet_data():
    return synthesize_fleet_telemetry(TENANTS, INTERVALS, seed=SEED)


def _decide(scaler, data, i):
    return scaler.decide_batch(float(i), *(getattr(data, f)[i] for f in FIELDS))


def make_stream(seed: int, n_intervals: int) -> list[IntervalCounters]:
    """One tenant's interval counters with bursty, noisy telemetry."""
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
        latencies = np.empty(0) if idle else rng.gamma(4.0, latency / 4.0, size=24)
        waits = WaitProfile()
        cpu = rng.uniform(50, 500) * (2.0 if bursting else 1.0)
        waits.add(WaitClass.CPU, float(cpu))
        waits.add(WaitClass.MEMORY, float(rng.uniform(0, 120)))
        waits.add(WaitClass.DISK, float(rng.uniform(0, 200)))
        waits.add(WaitClass.LOG, float(rng.uniform(0, 80)))
        waits.add(WaitClass.LOCK, float(rng.uniform(0, 40)))
        utilization = {kind: float(rng.uniform(0.05, 0.95)) for kind in ResourceKind}
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


def test_vectorized_sweep_matches_scalar_and_is_10x_faster():
    catalog, goal = default_catalog(), LatencyGoal(100.0)
    thresholds = default_thresholds()
    warmup = thresholds.signal_window
    streams = [make_stream(seed, SPEEDUP_INTERVALS) for seed in range(STREAM_POOL)]
    # Only the pool goes through the Python accessors; the fleet's
    # columns are fancy-indexed from it, outside the timed regions.
    cols = np.arange(TENANTS) % STREAM_POOL
    inputs = [
        {
            key: value if key == "t" else value[..., cols]
            for key, value in counters_to_interval_arrays(
                [stream[i] for stream in streams], goal
            ).items()
        }
        for i in range(SPEEDUP_INTERVALS)
    ]

    scalar_s, scalar = 0.0, []
    for t in range(TENANTS):
        scaler = AutoScaler(catalog, goal=goal, thresholds=thresholds)
        stream = streams[t % STREAM_POOL]
        decisions = [scaler.decide(counters) for counters in stream[:warmup]]
        start = time.perf_counter()
        decisions += [scaler.decide(counters) for counters in stream[warmup:]]
        scalar_s += time.perf_counter() - start
        scalar.append(decisions)

    vec = VectorizedAutoScaler(
        catalog, TENANTS, goal=goal, thresholds=thresholds, record_actions=False
    )
    vectorized_s, fleet = 0.0, []
    for i, kwargs in enumerate(inputs):
        start = time.perf_counter()
        decision = vec.decide_batch(**kwargs)
        if i >= warmup:
            vectorized_s += time.perf_counter() - start
        fleet.append(decision)

    for i, got in enumerate(fleet):
        want = [scalar[t][i] for t in range(TENANTS)]
        assert np.array_equal([d.container.level for d in want], got.level), i
        assert np.array_equal([d.resized for d in want], got.resized), i
        limits = [np.nan if d.balloon_limit_gb is None else d.balloon_limit_gb
                  for d in want]
        assert np.array_equal(limits, got.balloon_limit_gb, equal_nan=True), i
        steps = [[d.demand.demand(kind).steps for d in want] for kind in SCALABLE_KINDS]
        assert np.array_equal(steps, got.steps), i
    speedup = scalar_s / vectorized_s  # same tenant-interval count timed
    _report("vectorized_speedup", speedup, f">= {MIN_SPEEDUP}x")
    assert speedup >= MIN_SPEEDUP


def test_degraded_chaos_sweep_within_2x_of_healthy(fleet_data):
    healthy = VectorizedAutoScaler(
        default_catalog(), TENANTS, goal=LatencyGoal(100.0), record_actions=False
    )
    healthy_s = []
    for i in range(INTERVALS):
        fields = [getattr(fleet_data, f)[i] for f in FIELDS]
        start = time.perf_counter()
        healthy.decide_batch(float(i), *fields)
        healthy_s.append(time.perf_counter() - start)
    arrays = synthesize_fleet_telemetry(TENANTS, INTERVALS, seed=SEED)
    n_faults = max(1, int(round(FAULT_RATE * INTERVALS)))
    masks = compile_schedules(
        [
            FaultSchedule.random(
                seed=SEED + 17 * t, n_intervals=INTERVALS, n_faults=n_faults
            )
            for t in range(TENANTS)
        ],
        INTERVALS,
    )
    faulted = (
        masks.any_telemetry
        | masks.permanent
        | masks.partial
        | (masks.transient_magnitude > 0)
        | masks.balloon_fail
    )
    assert np.count_nonzero(faulted) > 0
    scaler = DegradedVectorizedAutoScaler(
        default_catalog(),
        TENANTS,
        goal=LatencyGoal(100.0),
        record_actions=False,
        record_guard_reasons=False,
        executor_seeds=SEED,
    )
    fleet = DegradedSyntheticFleet(scaler, arrays, masks)
    per_interval = []
    for _ in range(INTERVALS):
        start = time.perf_counter()
        fleet.step()
        per_interval.append(time.perf_counter() - start)
    # The first interval pays allocation on both sides.
    ratio = np.mean(per_interval[1:]) / np.mean(healthy_s[1:])
    _report("degraded_over_healthy", ratio, f"<= {MAX_DEGRADED_RATIO}x")
    assert ratio <= MAX_DEGRADED_RATIO


def test_tracing_overhead_under_10pct():
    n = 48
    rates = np.full(n, 25.0)
    rates[n // 4 : n // 2] = 220.0
    workload = cpuio_workload()

    def one_run(tracer):
        config = ExperimentConfig(
            engine=EngineConfig(interval_ticks=10), warmup_intervals=4, seed=SEED
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

    untraced_s = traced_s = float("inf")
    for _ in range(3):
        elapsed, baseline = one_run(None)
        untraced_s = min(untraced_s, elapsed)
        tracer = Tracer("overhead", level=TraceLevel.DECISION)
        elapsed, traced = one_run(tracer)
        traced_s = min(traced_s, elapsed)
        assert len(tracer) > 0
        assert traced.containers == baseline.containers
        assert [r.cost for r in traced.meter.records] == [
            r.cost for r in baseline.meter.records
        ]
    overhead = 100.0 * (traced_s - untraced_s) / untraced_s
    _report("tracing_overhead_pct", overhead, f"<= {MAX_OVERHEAD_PCT}%")
    assert overhead <= MAX_OVERHEAD_PCT


def test_fleet_observability_overhead_under_10pct(fleet_data):
    def one_run(instrumented):
        scaler = VectorizedAutoScaler(
            default_catalog(), TENANTS, goal=LatencyGoal(100.0), record_actions=False
        )
        if instrumented:
            tracer = Tracer("fleet-obs", level=TraceLevel.DECISION)
            scaler.attach_recorder(
                FleetTraceRecorder(
                    tracer=tracer, health=FleetHealthMonitor(tracer=tracer)
                )
            )
        resizes = 0
        start = time.perf_counter()
        for i in range(INTERVALS):
            resizes += int(np.count_nonzero(_decide(scaler, fleet_data, i).resized))
        return time.perf_counter() - start, resizes, scaler.level.copy()

    plain_s = instrumented_s = float("inf")
    for _ in range(3):
        elapsed, base_resizes, base_levels = one_run(False)
        plain_s = min(plain_s, elapsed)
        elapsed, resizes, levels = one_run(True)
        instrumented_s = min(instrumented_s, elapsed)
        assert resizes == base_resizes and np.array_equal(levels, base_levels)
    overhead = 100.0 * (instrumented_s - plain_s) / plain_s
    _report("fleet_observability_overhead_pct", overhead, f"<= {MAX_OVERHEAD_PCT}%")
    assert overhead <= MAX_OVERHEAD_PCT


def test_checkpoint_capture_under_10pct_of_interval(fleet_data):
    def build():
        return VectorizedAutoScaler(
            default_catalog(), TENANTS, goal=LatencyGoal(100.0), record_actions=False
        )

    def drive(scaler, lo, hi, decisions=None):
        elapsed = []
        for i in range(lo, hi):
            start = time.perf_counter()
            decision = _decide(scaler, fleet_data, i)
            elapsed.append(time.perf_counter() - start)
            if decisions is not None:
                decisions.append(decision)
        return elapsed

    def wire(snapshot):
        return json.dumps(encode_state(snapshot), sort_keys=True, separators=(",", ":"))

    twin_decisions = []
    interval_s = np.mean(drive(build(), 0, INTERVALS, twin_decisions)[1:])
    half = INTERVALS // 2
    engine = build()
    drive(engine, 0, half)
    capture_s = float("inf")
    for _ in range(3):  # best of 3, with an encode between captures
        start = time.perf_counter()
        snapshot = engine.state_dict()
        capture_s = min(capture_s, time.perf_counter() - start)
        encoded = wire(snapshot)
    # Deferred encode: the live engine moves on, the snapshot must not.
    drive(engine, half, half + 2)
    assert wire(snapshot) == encoded

    restored = build()
    restored.load_state_dict(decode_state(json.loads(encoded)))
    resumed = []
    drive(restored, half, INTERVALS, resumed)
    for got, want in zip(resumed, twin_decisions[half:], strict=True):
        assert np.array_equal(got.level, want.level)
        assert np.array_equal(got.resized, want.resized)
        assert np.array_equal(
            got.balloon_limit_gb, want.balloon_limit_gb, equal_nan=True
        )
        assert np.array_equal(got.steps, want.steps)
    overhead = 100.0 * capture_s / interval_s
    _report("checkpoint_capture_pct", overhead, f"<= {MAX_OVERHEAD_PCT}%")
    assert overhead <= MAX_OVERHEAD_PCT
