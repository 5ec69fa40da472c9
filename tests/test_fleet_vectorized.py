"""The vectorized fleet engine vs. the scalar control plane.

Three layers of evidence that :mod:`repro.fleet.vectorized` is the same
controller, just struct-of-arrays:

* **Signal equivalence** — :class:`VectorizedTelemetry` matches the scalar
  :class:`TelemetryManager` to 1e-9 on every float signal and exactly on
  every categorical one, interval by interval.
* **Randomized decision identity** — fleets of scalar ``AutoScaler``\\ s and
  one ``VectorizedAutoScaler`` consume identical randomized streams across
  every configuration axis (goal, budget, damper, ablations); every
  decision field, including the ordered action list, must be identical.
* **Golden-scenario identity** — the canonical seeded ``steady`` and
  ``bursty-budget`` closed-loop scenarios are recorded (counters *and*
  decisions, warm-up included) and replayed through the vectorized engine,
  which must reproduce every ``run_policy`` decision byte-for-byte.  The
  ``chaos`` scenario is deliberately out of scope: it exercises the
  telemetry guard and safe mode, which stay scalar-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.autoscaler import AutoScaler
from repro.core.budget import BudgetManager, BurstStrategy
from repro.core.damper import OscillationDamper
from repro.core.latency import LatencyGoal
from repro.core.signals import LatencyStatus, Level
from repro.core.telemetry_manager import TelemetryManager
from repro.core.thresholds import ThresholdConfig
from repro.engine.containers import default_catalog
from repro.engine.resources import SCALABLE_KINDS, ResourceKind
from repro.engine.telemetry import IntervalCounters
from repro.engine.waits import WaitClass, WaitProfile
from repro.errors import CatalogError, InsufficientDataError
from repro.fleet.vectorized import (
    LAT_BAD,
    LAT_GOOD,
    LAT_UNKNOWN,
    RULE_NAMES,
    VectorizedAutoScaler,
    VectorizedTelemetry,
    counters_to_interval_arrays,
    replay_decisions,
    run_synthetic_sweep,
)
from repro.policies.auto import AutoPolicy

ATOL = 1e-9
_STATUS_CODE = {
    LatencyStatus.GOOD: LAT_GOOD,
    LatencyStatus.BAD: LAT_BAD,
    LatencyStatus.UNKNOWN: LAT_UNKNOWN,
}
_LEVEL_CODE = {Level.LOW: 0, Level.MEDIUM: 1, Level.HIGH: 2}


def make_streams(n_tenants, n_intervals, seed, catalog, levels):
    """Randomized per-tenant counter streams with occasional huge waits."""
    rng = np.random.default_rng(seed)
    streams = []
    for t in range(n_tenants):
        container = catalog.at_level(int(levels[t]))
        stream = []
        base = rng.uniform(20.0, 140.0)
        for i in range(n_intervals):
            lat = rng.gamma(4.0, base / 4.0, size=int(rng.integers(0, 40)))
            util = {k: float(rng.uniform(0.02, 1.0)) for k in ResourceKind}
            waits = WaitProfile()
            scale = 50_000.0 if rng.random() < 0.35 else 800.0
            for w in WaitClass:
                waits.add(w, float(rng.uniform(0, scale)))
            stream.append(
                IntervalCounters(
                    interval_index=i,
                    start_s=i * 60.0,
                    end_s=(i + 1) * 60.0,
                    container=container,
                    latencies_ms=np.asarray(lat, dtype=float),
                    arrivals=50,
                    completions=int(lat.size),
                    rejected=0,
                    utilization_median=util,
                    utilization_mean=util,
                    waits=waits,
                    memory_used_gb=float(rng.uniform(0.1, container.memory_gb)),
                    disk_physical_reads=float(rng.uniform(0.0, 800.0)),
                )
            )
        streams.append(stream)
    return streams


def assert_decisions_match(scalar_decisions, fleet_decisions, n_tenants):
    """Every field of every tenant-interval decision must be identical."""
    for i, fleet in enumerate(fleet_decisions):
        for t in range(n_tenants):
            sd = scalar_decisions[t][i]
            where = f"tenant {t} interval {i}"
            assert sd.container.level == fleet.level[t], where
            assert sd.resized == bool(fleet.resized[t]), where
            v_limit = fleet.balloon_limit_gb[t]
            if sd.balloon_limit_gb is None:
                assert np.isnan(v_limit), where
            else:
                assert sd.balloon_limit_gb == v_limit, where
            for k, kind in enumerate(SCALABLE_KINDS):
                demand = sd.demand.demand(kind)
                assert demand.steps == int(fleet.steps[k, t]), where
                assert demand.rule_id == RULE_NAMES[fleet.rules[k, t]], where
            actions = tuple(e.action.value for e in sd.explanations)
            assert actions == fleet.actions[t], where


# -- signal equivalence -------------------------------------------------------


@pytest.mark.parametrize("window,trend", [(10, 8), (64, 64)])
def test_vectorized_telemetry_matches_scalar_manager(window, trend):
    thresholds = ThresholdConfig(signal_window=window, trend_window=trend)
    goal = LatencyGoal(100.0)
    n_tenants, n_intervals = 8, 2 * window + 5
    catalog = default_catalog()
    rng = np.random.default_rng(21)
    levels = rng.integers(0, catalog.num_levels, n_tenants)
    streams = make_streams(n_tenants, n_intervals, 21, catalog, levels)

    managers = [TelemetryManager(thresholds, goal) for _ in range(n_tenants)]
    vec = VectorizedTelemetry(n_tenants, thresholds, goal)
    for i in range(n_intervals):
        row = [streams[t][i] for t in range(n_tenants)]
        arrays = counters_to_interval_arrays(row, goal)
        vec.observe(
            arrays["t"],
            arrays["latency_ms"],
            arrays["util_pct"],
            arrays["wait_ms"],
            arrays["wait_pct"],
        )
        sig = vec.signals()
        for t, manager in enumerate(managers):
            manager.observe(row[t])
            ref = manager.signals()
            where = f"tenant {t} interval {i}"
            np.testing.assert_allclose(
                sig.latency_ms[t], ref.latency_ms, atol=ATOL, err_msg=where
            )
            assert sig.latency_status[t] == _STATUS_CODE[ref.latency_status], where
            np.testing.assert_allclose(
                sig.lat_slope[t], ref.latency_trend.slope, atol=ATOL, err_msg=where
            )
            assert bool(sig.lat_significant[t]) == ref.latency_trend.significant
            assert sig.lat_n_points[t] == ref.latency_trend.n_points
            for k, kind in enumerate(SCALABLE_KINDS):
                res = ref.resource(kind)
                np.testing.assert_allclose(
                    sig.util_pct[k, t], res.utilization_pct, atol=ATOL,
                    err_msg=where,
                )
                np.testing.assert_allclose(
                    sig.wait_ms[k, t], res.wait_ms, atol=ATOL, err_msg=where
                )
                np.testing.assert_allclose(
                    sig.wait_pct[k, t], res.wait_pct, atol=ATOL, err_msg=where
                )
                assert sig.util_level[k, t] == _LEVEL_CODE[res.utilization_level]
                assert sig.wait_level[k, t] == _LEVEL_CODE[res.wait_level]
                assert bool(sig.wait_significant[k, t]) == res.wait_significant
                assert (
                    sig.util_direction[k, t] == res.utilization_trend.direction
                ), where
                assert (
                    bool(sig.util_significant[k, t])
                    == res.utilization_trend.significant
                )
                assert sig.wait_direction[k, t] == res.wait_trend.direction, where
                assert (
                    bool(sig.wait_trend_significant[k, t])
                    == res.wait_trend.significant
                )
                np.testing.assert_allclose(
                    sig.rho[k, t], res.latency_correlation.rho, atol=ATOL,
                    err_msg=where,
                )
                assert sig.corr_n_points[k, t] == res.latency_correlation.n_points


def test_signals_before_observe_raises():
    vec = VectorizedTelemetry(3, ThresholdConfig())
    with pytest.raises(InsufficientDataError):
        vec.signals()


# -- randomized decision identity ---------------------------------------------


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


@pytest.mark.parametrize("config", CONFIG_AXES)
def test_vectorized_decisions_identical_to_scalar(config):
    config = dict(config)
    goal_ms = config.pop("goal_ms")
    budgeted = config.pop("budgeted", False)
    damped = config.pop("damped", False)
    n_tenants, n_intervals, seed = 14, 40, 31

    catalog = default_catalog()
    rng = np.random.default_rng(seed + 999)
    levels = rng.integers(0, catalog.num_levels, n_tenants)
    streams = make_streams(n_tenants, n_intervals, seed, catalog, levels)
    goal = LatencyGoal(goal_ms) if goal_ms else None

    def budget_for(t):
        if not budgeted:
            return None
        return BudgetManager(
            budget=catalog.at_level(int(levels[t])).cost * n_intervals * 1.3
            + catalog.min_cost * 5,
            n_intervals=n_intervals + 5,
            min_cost=catalog.min_cost,
            max_cost=catalog.max_cost,
        )

    scalar_decisions = []
    for t in range(n_tenants):
        scaler = AutoScaler(
            catalog,
            initial_container=catalog.at_level(int(levels[t])),
            goal=goal,
            budget=budget_for(t),
            damper=OscillationDamper() if damped else None,
            **config,
        )
        scalar_decisions.append([scaler.decide(c) for c in streams[t]])

    vec = VectorizedAutoScaler(
        catalog,
        n_tenants,
        initial_level=levels,
        goal=goal,
        budget=[budget_for(t) for t in range(n_tenants)] if budgeted else None,
        damper=OscillationDamper() if damped else None,
        **config,
    )
    fleet_decisions = replay_decisions(streams, vec)
    assert_decisions_match(scalar_decisions, fleet_decisions, n_tenants)


# -- golden-scenario byte identity --------------------------------------------


class RecordingAutoPolicy(AutoPolicy):
    """AutoPolicy that also keeps every counters snapshot it decided on.

    ``run_policy`` discards warm-up intervals from its *results*, but the
    policy still decides on them — recording here captures the complete
    closed-loop input/output sequence, warm-up included.
    """

    def __init__(self, scaler):
        super().__init__(scaler)
        self.counters: list[IntervalCounters] = []

    def decide(self, counters):
        self.counters.append(counters)
        return super().decide(counters)


def _golden_config():
    from repro.engine.server import EngineConfig
    from repro.harness.experiment import ExperimentConfig

    return ExperimentConfig(
        engine=EngineConfig(interval_ticks=10), warmup_intervals=4, seed=7
    )


def _binding_budget(config, n_intervals, factor=0.30):
    min_cost = config.catalog.smallest.cost
    max_cost = config.catalog.max_cost
    per_interval = min_cost + factor * (max_cost - min_cost)
    return BudgetManager(
        budget=per_interval * n_intervals,
        n_intervals=n_intervals,
        min_cost=min_cost,
        max_cost=max_cost,
        strategy=BurstStrategy.AGGRESSIVE,
    )


def _run_recorded_scenario(name):
    """Run a canonical scenario closed-loop; return (policy, vec_scaler)."""
    from repro.harness.experiment import run_policy
    from repro.workloads import Trace, cpuio_workload

    config = _golden_config()
    goal = LatencyGoal(100.0)
    if name == "steady":
        trace = Trace(name="golden-steady", rates=np.full(16, 40.0))
        budget = None
        vec_budget = None
    elif name == "bursty-budget":
        rates = np.full(18, 15.0)
        rates[4:12] = 260.0
        trace = Trace(name="golden-bursty", rates=rates)
        budget = _binding_budget(config, 4 + 18 + 2)
        vec_budget = [_binding_budget(config, 4 + 18 + 2)]
    else:  # pragma: no cover - guard against typos
        raise ValueError(name)

    scaler = AutoScaler(
        catalog=config.catalog,
        goal=goal,
        budget=budget,
        thresholds=config.thresholds,
    )
    policy = RecordingAutoPolicy(scaler)
    run_policy(cpuio_workload(), trace, policy, config)

    vec = VectorizedAutoScaler(
        config.catalog,
        1,
        goal=goal,
        budget=vec_budget,
        thresholds=config.thresholds,
    )
    return policy, vec


@pytest.mark.parametrize("name", ["steady", "bursty-budget"])
def test_vectorized_replays_golden_scenario_byte_identically(name):
    policy, vec = _run_recorded_scenario(name)
    assert len(policy.counters) == len(policy.decisions) > 0
    fleet_decisions = replay_decisions([policy.counters], vec)
    assert_decisions_match([policy.decisions], fleet_decisions, n_tenants=1)


# -- guard rails and the synthetic sweep --------------------------------------


def test_dimension_scaled_catalog_is_rejected():
    catalog = default_catalog().with_dimension_scaling()
    with pytest.raises(CatalogError):
        VectorizedAutoScaler(catalog, 4)


def test_budget_sequence_length_must_match_fleet():
    from repro.core.budget import unconstrained_budget
    from repro.errors import BudgetError

    catalog = default_catalog()
    with pytest.raises(BudgetError):
        VectorizedAutoScaler(
            catalog, 3, budget=[unconstrained_budget(catalog.max_cost)] * 2
        )


def test_synthetic_sweep_is_deterministic():
    a = run_synthetic_sweep(50, 12, seed=5)
    b = run_synthetic_sweep(50, 12, seed=5)
    assert a["resizes"] == b["resizes"]
    assert a["final_level_histogram"] == b["final_level_histogram"]
    assert len(a["per_interval_s"]) == 12
