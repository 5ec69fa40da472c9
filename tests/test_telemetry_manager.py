"""Tests for the telemetry manager's signal extraction."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core.latency import LatencyGoal
from repro.core.signals import LatencyStatus, Level
from repro.core.telemetry_manager import TelemetryManager
from repro.core.thresholds import default_thresholds
from repro.engine.containers import default_catalog
from repro.engine.resources import SCALABLE_KINDS, ResourceKind
from repro.engine.telemetry import IntervalCounters
from repro.engine.waits import RESOURCE_WAIT_CLASS, WaitClass, WaitProfile
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    InsufficientDataError,
    ReproError,
)
from repro.fleet.vectorized import VectorizedTelemetry, counters_to_interval_arrays
from repro.service.checkpoint import CHECKPOINT_VERSION, Checkpoint, encode_state
from repro.stats.spearman import spearman
from repro.stats.theil_sen import detect_trend

CATALOG = default_catalog()


def make_counters(
    index: int,
    latency_ms: float = 50.0,
    cpu_util: float = 0.5,
    cpu_wait_ms: float = 100.0,
    lock_wait_ms: float = 0.0,
    n_latencies: int = 50,
) -> IntervalCounters:
    waits = WaitProfile()
    waits.add(WaitClass.CPU, cpu_wait_ms)
    waits.add(WaitClass.LOCK, lock_wait_ms)
    latencies = (
        np.full(n_latencies, latency_ms) if n_latencies else np.empty(0)
    )
    return IntervalCounters(
        interval_index=index,
        start_s=index * 60.0,
        end_s=(index + 1) * 60.0,
        container=CATALOG.at_level(3),
        latencies_ms=latencies,
        arrivals=n_latencies,
        completions=n_latencies,
        rejected=0,
        utilization_median={
            ResourceKind.CPU: cpu_util,
            ResourceKind.MEMORY: 0.5,
            ResourceKind.DISK_IO: 0.1,
            ResourceKind.LOG_IO: 0.05,
        },
        utilization_mean={
            ResourceKind.CPU: cpu_util,
            ResourceKind.MEMORY: 0.5,
            ResourceKind.DISK_IO: 0.1,
            ResourceKind.LOG_IO: 0.05,
        },
        waits=waits,
        memory_used_gb=2.0,
        disk_physical_reads=10.0,
    )


def manager(goal_ms: float | None = 100.0) -> TelemetryManager:
    goal = LatencyGoal(goal_ms) if goal_ms else None
    return TelemetryManager(default_thresholds(), goal)


class TestIngestion:
    def test_signals_before_observe_raises(self):
        # The typed error (not a bare ValueError) so API-boundary callers
        # can catch ReproError / InsufficientDataError specifically.
        with pytest.raises(InsufficientDataError):
            manager().signals()

    def test_signals_before_observe_error_is_catchable_at_boundary(self):
        with pytest.raises(ReproError):
            manager().signals()

    def test_idle_intervals_do_not_leak_nan(self):
        # Intervals with zero completions yield NaN latency by design, but
        # every other signal must stay finite and the NaN must surface as
        # UNKNOWN status, never as NaN-categorized levels.
        tm = manager()
        for i in range(6):
            tm.observe(make_counters(i, n_latencies=0))
        signals = tm.signals()
        assert math.isnan(signals.latency_ms)
        assert signals.latency_status is LatencyStatus.UNKNOWN
        assert math.isfinite(signals.latency_trend.slope)
        for kind in ResourceKind:
            res = signals.resource(kind)
            assert math.isfinite(res.utilization_pct)
            assert math.isfinite(res.wait_ms)
            assert math.isfinite(res.wait_pct)
            assert math.isfinite(res.utilization_trend.slope)
            assert math.isfinite(res.wait_trend.slope)
            assert math.isfinite(res.latency_correlation.rho)

    def test_idle_then_active_recovers_latency(self):
        tm = manager()
        for i in range(3):
            tm.observe(make_counters(i, n_latencies=0))
        tm.observe(make_counters(3, latency_ms=42.0))
        signals = tm.signals()
        assert signals.latency_ms == pytest.approx(42.0)
        assert signals.latency_status is LatencyStatus.GOOD

    def test_single_interval_signals(self):
        tm = manager()
        tm.observe(make_counters(0, latency_ms=50.0, cpu_util=0.5))
        signals = tm.signals()
        assert signals.interval_index == 0
        assert signals.latency_status is LatencyStatus.GOOD
        assert signals.resource(ResourceKind.CPU).utilization_level is Level.MEDIUM

    def test_latency_status_bad(self):
        tm = manager(goal_ms=40.0)
        tm.observe(make_counters(0, latency_ms=50.0))
        assert tm.signals().latency_status is LatencyStatus.BAD

    def test_no_goal_gives_unknown(self):
        tm = manager(goal_ms=None)
        tm.observe(make_counters(0))
        assert tm.signals().latency_status is LatencyStatus.UNKNOWN

    def test_idle_interval_gives_unknown(self):
        tm = manager()
        tm.observe(make_counters(0, n_latencies=0))
        signals = tm.signals()
        assert math.isnan(signals.latency_ms)
        assert signals.latency_status is LatencyStatus.UNKNOWN


class TestTrends:
    def test_rising_latency_detected(self):
        tm = manager()
        for i in range(8):
            tm.observe(make_counters(i, latency_ms=50.0 + 10.0 * i))
        signals = tm.signals()
        assert signals.latency_degrading
        assert signals.latency_trend.slope == pytest.approx(10.0, rel=0.2)

    def test_flat_latency_not_degrading(self):
        tm = manager()
        rng = np.random.default_rng(0)
        for i in range(8):
            tm.observe(make_counters(i, latency_ms=50.0 + rng.normal(0, 0.3)))
        # allow occasional false positive from tiny drifts, but slope tiny
        signals = tm.signals()
        assert abs(signals.latency_trend.slope) < 1.0

    def test_utilization_trend(self):
        tm = manager()
        for i in range(8):
            tm.observe(make_counters(i, cpu_util=0.1 + 0.08 * i))
        cpu = tm.signals().resource(ResourceKind.CPU)
        assert cpu.utilization_trend.direction == 1
        assert cpu.increasing_pressure


class TestCorrelation:
    def test_latency_wait_correlation(self):
        tm = manager()
        for i in range(10):
            wait = 1000.0 * (i + 1)
            tm.observe(make_counters(i, latency_ms=20.0 + wait / 100.0, cpu_wait_ms=wait))
        cpu = tm.signals().resource(ResourceKind.CPU)
        assert cpu.latency_correlation.rho > 0.9

    def test_uncorrelated_wait(self):
        tm = manager()
        rng = np.random.default_rng(1)
        for i in range(10):
            tm.observe(
                make_counters(
                    i,
                    latency_ms=50.0 + rng.normal(0, 5),
                    cpu_wait_ms=float(rng.uniform(0, 1000)),
                )
            )
        cpu = tm.signals().resource(ResourceKind.CPU)
        assert abs(cpu.latency_correlation.rho) < 0.8


class TestWaitMix:
    def test_wait_percentages_and_dominant(self):
        tm = manager()
        tm.observe(make_counters(0, cpu_wait_ms=100.0, lock_wait_ms=900.0))
        signals = tm.signals()
        assert signals.dominant_wait is WaitClass.LOCK
        assert signals.non_resource_wait_pct == pytest.approx(90.0)

    def test_resource_wait_levels(self):
        tm = manager()
        tm.observe(make_counters(0, cpu_wait_ms=100_000.0))
        cpu = tm.signals().resource(ResourceKind.CPU)
        assert cpu.wait_level is Level.HIGH

    def test_histories_accessible(self):
        tm = manager()
        for i in range(5):
            tm.observe(make_counters(i, cpu_util=0.3))
        assert len(tm.latency_history()) == 5
        assert len(tm.utilization_history(ResourceKind.CPU)) == 5
        assert len(tm.wait_history(ResourceKind.CPU)) == 5

    def test_container_level_passed_through(self):
        tm = manager()
        tm.observe(make_counters(0))
        assert tm.signals().container_level == 3


def random_counters(rng, index: int) -> IntervalCounters:
    """One interval with random waits and utilization; some intervals are
    idle (no latency sample) and some have constant latencies (ties)."""
    waits = WaitProfile()
    for wait_class in WaitClass:
        waits.add(wait_class, float(rng.uniform(0, 400)))
    idle = rng.random() < 0.2
    constant = rng.random() < 0.2
    latencies = (
        np.empty(0)
        if idle
        else (np.full(20, 80.0) if constant else rng.gamma(4.0, 30.0, size=20))
    )
    utilization = {kind: float(rng.uniform(0, 1)) for kind in ResourceKind}
    return IntervalCounters(
        interval_index=index,
        start_s=index * 60.0,
        end_s=(index + 1) * 60.0,
        container=CATALOG.at_level(3),
        latencies_ms=latencies,
        arrivals=latencies.size,
        completions=latencies.size,
        rejected=0,
        utilization_median=utilization,
        utilization_mean=utilization,
        waits=waits,
        memory_used_gb=2.0,
        disk_physical_reads=10.0,
    )


#: Streams the oracle tests replay: (thresholds overrides, goal, seed,
#: intervals).  Non-default geometry covers a smoothing tail wider than
#: the window, a trend tail as long as the window, and a strict alpha.
STREAMS = {
    "seed0": ({}, 100.0, 0, 80),
    "seed1": ({}, 100.0, 1, 80),
    "seed2": ({}, 100.0, 2, 80),
    "smooth3": ({"smooth_intervals": 3}, 100.0, 42, 50),
    "smooth25": ({"smooth_intervals": 25}, 100.0, 42, 50),
    "trend_is_window": (
        {"trend_window": 12, "signal_window": 6}, 100.0, 42, 50
    ),
    "alpha95": ({"trend_alpha": 0.95, "smooth_intervals": 2}, 100.0, 42, 50),
    "no_goal": ({}, None, 7, 40),
}


def _stream(name):
    overrides, goal_ms, seed, n = STREAMS[name]
    thresholds = dataclasses.replace(default_thresholds(), **overrides)
    goal = None if goal_ms is None else LatencyGoal(goal_ms)
    rng = np.random.default_rng(seed)
    return thresholds, goal, [random_counters(rng, i) for i in range(n)]


def _median_or(values, default: float) -> float:
    finite = values[~np.isnan(values)]
    return default if finite.size == 0 else float(np.median(finite))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestReferenceOracle:
    """At every interval the manager's signals equal the scalar references
    (:func:`detect_trend`, ``np.median``, :func:`spearman`) evaluated on
    series the test keeps itself from the same counters."""

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_signals_equal_references(self, name):
        thresholds, goal, stream = _stream(name)
        manager = TelemetryManager(thresholds, goal)
        window = thresholds.signal_window
        tw = min(thresholds.trend_window, window)
        smooth = min(thresholds.smooth_intervals, window)
        times, latency = [], []
        util = {kind: [] for kind in ResourceKind}
        wait = {kind: [] for kind in ResourceKind}
        wpct = {kind: [] for kind in ResourceKind}
        for counters in stream:
            manager.observe(counters)
            sig = manager.signals()
            times.append(float(counters.interval_index))
            if counters.latencies_ms.size == 0:
                latency.append(math.nan)
            elif goal is None:
                latency.append(float(counters.latency_percentile(95.0)))
            else:
                latency.append(goal.measure(counters.latencies_ms))
            for kind in ResourceKind:
                wait_class = RESOURCE_WAIT_CLASS[kind]
                util[kind].append(counters.utilization_percent(kind))
                wait[kind].append(counters.wait_ms(wait_class))
                wpct[kind].append(counters.wait_percent(wait_class))

            def tail(series, k):
                return np.asarray(series[-window:][-k:], dtype=float)

            alpha = thresholds.trend_alpha
            where = f"{name} interval {counters.interval_index}"
            assert _same(
                sig.latency_ms, _median_or(tail(latency, smooth), math.nan)
            ), where
            assert sig.latency_trend == detect_trend(
                tail(times, tw), tail(latency, tw), alpha
            ), where
            for kind in ResourceKind:
                res = sig.resource(kind)
                assert res.utilization_pct == _median_or(tail(util[kind], smooth), 0.0)
                assert res.wait_ms == _median_or(tail(wait[kind], smooth), 0.0)
                assert res.wait_pct == _median_or(tail(wpct[kind], smooth), 0.0)
                assert res.utilization_trend == detect_trend(
                    tail(times, tw), tail(util[kind], tw), alpha
                ), where
                assert res.wait_trend == detect_trend(
                    tail(times, tw), tail(wait[kind], tw), alpha
                ), where
                ref = spearman(tail(latency, window), tail(wait[kind], window))
                assert res.latency_correlation.n_points == ref.n_points, where
                # The manager's rho comes from the exact doubled-rank
                # integer identity; the reference is a float Pearson over
                # float ranks, whose sums run in another order, so the
                # two agree to rounding only.
                assert res.latency_correlation.rho == pytest.approx(
                    ref.rho, abs=1e-9
                ), where

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_signals_equal_fleet_column(self, name):
        thresholds, goal, stream = _stream(name)
        manager = TelemetryManager(thresholds, goal)
        fleet = VectorizedTelemetry(1, thresholds, goal)
        status = {LatencyStatus.GOOD: 0, LatencyStatus.BAD: 1, LatencyStatus.UNKNOWN: 2}
        level = {Level.LOW: 0, Level.MEDIUM: 1, Level.HIGH: 2}
        for counters in stream:
            manager.observe(counters)
            arrays = counters_to_interval_arrays([counters], goal)
            fleet.observe(
                arrays["t"], arrays["latency_ms"], arrays["util_pct"],
                arrays["wait_ms"], arrays["wait_pct"],
            )
            sig, col = manager.signals(), fleet.signals()
            where = f"{name} interval {counters.interval_index}"
            assert _same(sig.latency_ms, col.latency_ms[0]), where
            assert status[sig.latency_status] == col.latency_status[0], where
            lat = sig.latency_trend
            assert (lat.slope, lat.significant, lat.agreement, lat.n_points) == (
                col.lat_slope[0], col.lat_significant[0],
                col.lat_agreement[0], col.lat_n_points[0],
            ), where
            for k, kind in enumerate(SCALABLE_KINDS):
                res = sig.resource(kind)
                ut, wt = res.utilization_trend, res.wait_trend
                assert (
                    res.utilization_pct, res.wait_ms, res.wait_pct,
                    level[res.utilization_level], level[res.wait_level],
                    res.wait_significant,
                    ut.direction, ut.significant, ut.agreement,
                    wt.direction, wt.significant, wt.agreement,
                    res.latency_correlation.rho,
                    res.latency_correlation.n_points,
                ) == (
                    col.util_pct[k, 0], col.wait_ms[k, 0], col.wait_pct[k, 0],
                    col.util_level[k, 0], col.wait_level[k, 0],
                    col.wait_significant[k, 0],
                    col.util_direction[k, 0], col.util_significant[k, 0],
                    col.util_agreement[k, 0],
                    col.wait_direction[k, 0], col.wait_trend_significant[k, 0],
                    col.wait_agreement[k, 0],
                    col.rho[k, 0], col.corr_n_points[k, 0],
                ), f"{where} {kind}"


class TestCheckpoint:
    def _observed(self, n: int) -> TelemetryManager:
        tm = manager()
        rng = np.random.default_rng(3)
        for i in range(n):
            tm.observe(random_counters(rng, i))
        return tm

    @pytest.mark.parametrize(
        "field,value",
        [
            ("samples", np.zeros((10, 12))),  # one column short
            ("samples", np.zeros((9, 13))),  # one slot short
            ("t", np.zeros(11)),
            ("cursor", -1),
            ("cursor", 10),  # == window
            ("count", 11),  # more samples than slots
            ("count", 4),  # partial ring whose cursor is not at the count
        ],
    )
    def test_refuses_misshapen_ring_or_cursor(self, field, value):
        source = self._observed(5)  # partial ring: cursor 5, count 5
        state = source.state_dict()
        state[field] = value
        target = self._observed(12)  # wrapped ring
        before = json.dumps(encode_state(target.state_dict()), sort_keys=True)
        with pytest.raises(ConfigurationError):
            target.load_state_dict(state)
        after = json.dumps(encode_state(target.state_dict()), sort_keys=True)
        assert after == before  # refused before anything was replaced

    def test_refuses_last_interval_without_samples(self):
        state = manager().state_dict()
        state["last"] = self._observed(1).state_dict()["last"]
        with pytest.raises(ConfigurationError):
            manager().load_state_dict(state)

    def test_version_one_checkpoint_is_refused(self):
        # A version-1 file carried the manager's per-series windows and
        # incremental smoother/correlation state; this build cannot read
        # it and says so through the version check.
        text = Checkpoint.capture(
            "controller", 4, {"telemetry": self._observed(5).state_dict()}
        ).to_json()
        old = text.replace(
            f'"version":{CHECKPOINT_VERSION}', '"version":1'
        )
        assert CHECKPOINT_VERSION > 1 and old != text
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            Checkpoint.from_json(old)
