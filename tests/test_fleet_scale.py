"""Memory-tiered rings, tiled extraction, and the closed-loop fleet.

The 1M-tenant configuration changes *how* the vectorized engine stores
and walks telemetry — float32 rings, cache-sized signal tiles, shard
processes — without being allowed to change *what* it computes:

* **float64 stays exact** — the default dtype is float64 and, tiled or
  not, produces byte-identical signals and decisions (the parity suites
  in ``test_fleet_vectorized.py`` / ``test_fleet_degraded_parity.py``
  pin the scalar equivalence; here we pin tiling and the default).
* **float32 is a documented contract** — smoothed signals stay within
  :data:`FLOAT32_SIGNAL_RTOL` of the float64 path and closed-loop
  decisions diverge on at most :data:`FLOAT32_MAX_DECISION_DIVERGENCE`
  of tenant-intervals, across every configuration axis.
* **the closed loop actuates** — the reactive synthesizer drives real
  resizes, budget spend, and balloon transitions, sharded or not, and
  shards reproduce the unsharded run exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import BudgetManager
from repro.core.damper import OscillationDamper
from repro.core.latency import LatencyGoal
from repro.core.thresholds import ThresholdConfig, default_thresholds
from repro.engine.containers import default_catalog
from repro.engine.resources import SCALABLE_KINDS
from repro.errors import ConfigurationError
from repro.fleet.vectorized import (
    FLOAT32_MAX_DECISION_DIVERGENCE,
    FLOAT32_SIGNAL_RTOL,
    ClosedLoopFleetSynthesizer,
    VectorizedAutoScaler,
    VectorizedTelemetry,
    run_synthetic_sweep,
    sharded_synthetic_sweep,
)

K = len(SCALABLE_KINDS)

# Mirrors the axes the scalar-parity suite drives; the float32 contract
# must hold on every one of them, not just the default configuration.
CONFIG_AXES = [
    pytest.param(dict(goal_ms=100.0), id="goal"),
    pytest.param(dict(goal_ms=None), id="no-goal"),
    pytest.param(dict(goal_ms=100.0, budgeted=True), id="budgeted"),
    pytest.param(dict(goal_ms=100.0, damped=True), id="damped"),
    pytest.param(dict(goal_ms=100.0, use_waits=False), id="ablate-waits"),
    pytest.param(
        dict(goal_ms=100.0, use_trends=False, use_correlation=False),
        id="ablate-trends",
    ),
    pytest.param(dict(goal_ms=100.0, use_ballooning=False), id="no-balloon"),
    pytest.param(dict(goal_ms=80.0, budgeted=True, damped=True), id="kitchen-sink"),
]


def _observe_random_interval(rng, telemetries, t, n):
    """Feed one identical random interval into every telemetry given."""
    lat = rng.uniform(5.0, 400.0, n)
    lat[rng.random(n) < 0.1] = np.nan  # idle tenants
    util = rng.uniform(0.0, 100.0, (K, n))
    wait = rng.uniform(0.0, 50_000.0, (K, n))
    wait_pct = rng.uniform(0.0, 100.0, (K, n))
    for tel in telemetries:
        tel.observe(t, lat, util, wait, wait_pct)


def _drive_closed_loop(dtype, tile, config, n_tenants, n_intervals, seed):
    """Run a closed-loop fleet and return the (I, T) level history."""
    config = dict(config)
    goal_ms = config.pop("goal_ms")
    budgeted = config.pop("budgeted", False)
    damped = config.pop("damped", False)
    catalog = default_catalog()
    goal = LatencyGoal(goal_ms) if goal_ms else None
    budget = None
    if budgeted:
        budget = [
            BudgetManager(
                budget=catalog.min_cost * n_intervals * 2.0,
                n_intervals=n_intervals + 5,
                min_cost=catalog.min_cost,
                max_cost=catalog.max_cost,
            )
            for _ in range(n_tenants)
        ]
    vec = VectorizedAutoScaler(
        catalog,
        n_tenants,
        goal=goal,
        budget=budget,
        damper=OscillationDamper() if damped else None,
        dtype=dtype,
        tile=tile,
        **config,
    )
    synth = ClosedLoopFleetSynthesizer(n_tenants, catalog, seed)
    levels = []
    for i in range(n_intervals):
        fields = synth.interval(i, vec.level, vec.balloon_limit_gb)
        decision = vec.decide_batch(float(i), **fields)
        levels.append(decision.level.copy())
    return np.stack(levels)


# -- float64 stays exact ------------------------------------------------------


def test_float64_is_the_default_dtype():
    tel = VectorizedTelemetry(4, default_thresholds())
    assert tel.dtype == np.float64
    scaler = VectorizedAutoScaler(default_catalog(), 4)
    assert scaler.telemetry.dtype == np.float64
    digest = run_synthetic_sweep(8, 3, seed=3)
    assert digest["dtype"] == "float64"
    assert digest["tile"] is None


@pytest.mark.parametrize("tile", [1, 3, 16])
def test_tiled_signals_byte_identical_to_untiled(tile):
    thresholds = ThresholdConfig()
    goal = LatencyGoal(100.0)
    n = 11
    whole = VectorizedTelemetry(n, thresholds, goal)
    tiled = VectorizedTelemetry(n, thresholds, goal, tile=tile)
    rng = np.random.default_rng(17)
    for i in range(2 * thresholds.signal_window + 3):
        _observe_random_interval(rng, (whole, tiled), float(i), n)
        ref = whole.signals()
        got = tiled.signals()
        for field, want in zip(ref._fields, ref):
            have = getattr(got, field)
            assert np.array_equal(have, want, equal_nan=want.dtype.kind == "f"), (
                f"field {field} differs at interval {i} with tile={tile}"
            )


def test_tiled_closed_loop_decisions_identical():
    untiled = _drive_closed_loop(np.float64, None, dict(goal_ms=100.0), 40, 18, 23)
    tiled = _drive_closed_loop(np.float64, 7, dict(goal_ms=100.0), 40, 18, 23)
    assert np.array_equal(untiled, tiled)


# -- the float32 tolerance contract -------------------------------------------


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_float32_smoothed_signals_within_documented_rtol(seed):
    thresholds = ThresholdConfig()
    goal = LatencyGoal(100.0)
    n = 9
    t64 = VectorizedTelemetry(n, thresholds, goal)
    t32 = VectorizedTelemetry(n, thresholds, goal, dtype=np.float32, tile=4)
    rng = np.random.default_rng(seed)
    diverged = 0
    categorical = 0
    for i in range(thresholds.signal_window + 5):
        _observe_random_interval(rng, (t64, t32), float(i), n)
        ref = t64.signals()
        got = t32.signals()
        for field in ("latency_ms", "util_pct", "wait_ms", "wait_pct"):
            np.testing.assert_allclose(
                getattr(got, field),
                getattr(ref, field),
                rtol=FLOAT32_SIGNAL_RTOL,
                atol=1e-9,
                equal_nan=True,
                err_msg=f"{field} outside the float32 contract at interval {i}",
            )
        # Categorical signals may only flip when a value lands within one
        # float32 ulp of a threshold cut — bound the rate, don't forbid it.
        for field in ("util_level", "wait_level", "latency_status"):
            want = getattr(ref, field)
            diverged += int(np.count_nonzero(getattr(got, field) != want))
            categorical += want.size
    assert diverged / categorical <= FLOAT32_MAX_DECISION_DIVERGENCE


@pytest.mark.parametrize("config", CONFIG_AXES)
def test_float32_decision_divergence_bounded(config):
    n_tenants, n_intervals, seed = 48, 22, 37
    base = _drive_closed_loop(
        np.float64, None, dict(config), n_tenants, n_intervals, seed
    )
    tiered = _drive_closed_loop(
        np.float32, 16, dict(config), n_tenants, n_intervals, seed
    )
    divergence = np.mean(base != tiered)
    assert divergence <= FLOAT32_MAX_DECISION_DIVERGENCE, (
        f"{100 * divergence:.2f}% of tenant-interval decisions diverged, "
        f"contract allows {100 * FLOAT32_MAX_DECISION_DIVERGENCE:.0f}%"
    )


# -- the closed loop actuates -------------------------------------------------


def test_closed_loop_sweep_actuates():
    digest = run_synthetic_sweep(400, 12, seed=7, closed_loop=True)
    assert digest["closed_loop"] is True
    assert digest["resizes"] > 0
    assert digest["budget_spent"] > 0.0
    assert digest["balloon_transitions"] > 0
    counts = digest["actuation"]
    assert counts["scale_up"] > 0 and counts["scale_down"] > 0
    assert counts["probe_started"] > 0


def test_closed_loop_shards_match_unsharded_run():
    n_tenants, n_intervals, seed = 300, 10, 11
    whole = run_synthetic_sweep(n_tenants, n_intervals, seed=seed, closed_loop=True)
    sharded = sharded_synthetic_sweep(
        n_tenants, n_intervals, seed=seed, n_shards=3
    )
    assert sharded["n_shards"] == 3
    assert sharded["resizes"] == whole["resizes"]
    assert sharded["budget_spent"] == pytest.approx(whole["budget_spent"])
    assert sharded["balloon_transitions"] == whole["balloon_transitions"]
    summed = np.sum(
        [s["final_level_histogram"] for s in sharded["shards"]], axis=0
    )
    assert summed.tolist() == whole["final_level_histogram"]


# -- configuration and checkpoint guard rails ---------------------------------


def test_non_float_ring_dtype_rejected():
    with pytest.raises(ConfigurationError):
        VectorizedTelemetry(3, ThresholdConfig(), dtype=np.int32)


def test_non_positive_tile_rejected():
    with pytest.raises(ConfigurationError):
        VectorizedTelemetry(3, ThresholdConfig(), tile=0)


def test_checkpoint_dtype_mismatch_rejected():
    catalog = default_catalog()
    source = VectorizedAutoScaler(catalog, 6, dtype=np.float32)
    synth = ClosedLoopFleetSynthesizer(6, catalog, 3)
    for i in range(4):
        fields = synth.interval(i, source.level, source.balloon_limit_gb)
        source.decide_batch(float(i), **fields)
    state = source.state_dict()
    assert state["dtype"] == "float32"
    other = VectorizedAutoScaler(catalog, 6, dtype=np.float64)
    with pytest.raises(ConfigurationError):
        other.load_state_dict(state)
