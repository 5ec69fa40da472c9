"""Chaos-parity differential suite: vectorized degraded fleet vs scalar twins.

The byte-identity contract for the struct-of-arrays degraded-mode path
(:mod:`repro.fleet.degraded`): a fleet of ``N`` tenants driven through
:func:`run_fleet_chaos` must be indistinguishable — decision traces,
per-delivery explanation streams, actuation reports, guard verdicts and
reason strings, circuit-breaker state, the budget ledger including
refunds, damper cooldowns, and safe-mode flags — from ``N`` independent
scalar :class:`~repro.core.autoscaler.AutoScaler` loops driven through
:func:`~repro.harness.chaos.run_chaos` with the same seeds, traces, and
fault schedules.

Coverage:

* every data-plane fault taxonomy kind, isolated per schedule;
* all eight config axes (goal / no-goal / budgeted / tight-breaker /
  ablations / kitchen-sink);
* ≥ 20 hypothesis-drawn randomized seeded schedules;
* empty-schedule identity between ``decide_wave`` and the existing
  healthy ``decide_batch`` path;
* dead tenants: a row whose scalar twin raises (its budget period ends
  mid-run) freezes at the raise point with the same error, and both
  sweep engines report it alike.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.latency import LatencyGoal
from repro.core.damper import OscillationDamper
from repro.engine.containers import default_catalog
from repro.engine.server import EngineConfig
from repro.errors import BudgetError, ConfigurationError
from repro.faults.schedule import (
    ACTUATION_KINDS,
    TELEMETRY_KINDS,
    FaultSchedule,
)
from repro.fleet.chaos import (
    _fleet_outcomes,
    _scalar_outcomes,
    _tenant_budget,
    _tenant_trace,
    chaos_population,
    chaos_sweep,
)
from repro.fleet.degraded import (
    CIRCUIT_CODES,
    DegradedVectorizedAutoScaler,
    run_fleet_chaos,
)
from repro.fleet.vectorized import (
    VectorizedAutoScaler,
    synthesize_fleet_telemetry,
)
from repro.harness.chaos import ChaosTenant, run_chaos
from repro.harness.experiment import ExperimentConfig
from repro.workloads import cpuio_workload

TICKS = 6
WARM = 3
N_INTERVALS = 12
WORKLOAD = cpuio_workload()

# The eight configuration axes the parity contract must hold on.  They
# mirror the healthy-path axes in test_fleet_vectorized.py, with the
# damper axis replaced by a tight circuit breaker (the chaos harness
# always attaches a damper, so "damped" is every axis here).
CHAOS_AXES = [
    ("goal", dict(goal_ms=100.0)),
    ("no-goal", dict(goal_ms=None)),
    ("budgeted", dict(goal_ms=100.0, budgeted=True)),
    (
        "tight-breaker",
        dict(
            goal_ms=100.0,
            executor_kwargs=dict(failure_threshold=2, open_intervals=3),
        ),
    ),
    ("ablate-waits", dict(goal_ms=100.0, scaler_kwargs=dict(use_waits=False))),
    (
        "ablate-trends",
        dict(
            goal_ms=100.0,
            scaler_kwargs=dict(use_trends=False, use_correlation=False),
        ),
    ),
    (
        "no-balloon",
        dict(goal_ms=100.0, scaler_kwargs=dict(use_ballooning=False)),
    ),
    (
        "kitchen-sink",
        dict(
            goal_ms=80.0,
            budgeted=True,
            executor_kwargs=dict(
                max_attempts=2, failure_threshold=2, open_intervals=4
            ),
        ),
    ),
]

DATA_PLANE_KINDS = TELEMETRY_KINDS + ACTUATION_KINDS


def _config(seed):
    return ExperimentConfig(
        engine=EngineConfig(interval_ticks=TICKS),
        warmup_intervals=WARM,
        seed=seed,
    )


def _population(n_tenants, base_seed, n_intervals, n_faults, kinds=None):
    """Seeds, traces, and schedules derived exactly as the sweep derives
    them (same RNG draw order as ``chaos_sweep``)."""
    last = max(n_intervals - max(n_intervals // 4, 2) - 1, 0)
    seeds, traces, schedules = [], [], []
    for t in range(n_tenants):
        seed = base_seed + t
        seeds.append(seed)
        rng = np.random.default_rng(seed)
        traces.append(_tenant_trace(rng, t, n_intervals))
        schedules.append(
            FaultSchedule.random(
                seed=seed,
                n_intervals=n_intervals,
                n_faults=n_faults,
                kinds=kinds,
                last=last,
            )
        )
    return seeds, traces, schedules


def _assert_tenant_parity(fleet, t, res):
    """One tenant of the vectorized fleet vs its scalar twin, byte for byte."""
    sc = fleet.scaler
    at = sc.catalog.at_level

    assert [
        at(int(level[t])).name for level in fleet.decided_levels
    ] == res.decision_trace(), f"tenant {t}: decision trace diverged"

    scalar_actions = [
        tuple(e.action.value for e in d.explanations) for d in res.decisions
    ]
    vector_actions = [
        w.actions[t]
        for waves in fleet.waves
        for w in waves
        if w.participants[t]
    ]
    assert scalar_actions == vector_actions, (
        f"tenant {t}: per-delivery action stream diverged"
    )

    assert [
        at(int(c[t])).name for c in fleet.containers
    ] == res.containers, f"tenant {t}: actuated containers diverged"

    for i, (r, fr) in enumerate(zip(res.reports, fleet.reports)):
        vector = (
            int(fr.requested_level[t]),
            int(fr.applied_level[t]),
            int(fr.attempts[t]),
            float(fr.backoff_ms[t]),
            bool(fr.succeeded[t]),
            float(fr.refund_scheduled[t]),
            CIRCUIT_CODES[fr.circuit[t]],
        )
        scalar = (
            r.requested.level,
            r.applied.level,
            r.attempts,
            float(r.backoff_ms),
            r.succeeded,
            float(r.refund_scheduled),
            r.circuit.value,
        )
        assert vector == scalar, f"tenant {t}: report {i} diverged"
        assert fr.explanations[t] == tuple(
            (e.action.value, e.reason) for e in r.explanations
        ), f"tenant {t}: report {i} explanations diverged"

    g = res.guard.stats
    assert (
        int(sc.g_admitted[t]),
        int(sc.g_admitted_late[t]),
        int(sc.g_quarantined[t]),
        int(sc.g_discarded[t]),
        int(sc.g_missed[t]),
        int(sc.g_consecutive[t]),
    ) == (
        g.admitted,
        g.admitted_late,
        g.quarantined,
        g.discarded,
        g.missed,
        g.consecutive_quarantined,
    ), f"tenant {t}: guard stats diverged"
    assert sc._g_reasons[t] == list(g.reasons), (
        f"tenant {t}: guard reason strings diverged"
    )

    ex = res.executor
    assert (
        CIRCUIT_CODES[sc._x_state[t]],
        int(sc._x_consec[t]),
        int(sc.x_total_attempts[t]),
        int(sc.x_total_failures[t]),
        float(sc.x_total_refunds[t]),
        int(sc.x_circuit_opens[t]),
    ) == (
        ex.circuit.value,
        ex.consecutive_failures,
        ex.total_attempts,
        ex.total_failures,
        float(ex.total_refunds),
        ex.circuit_opens,
    ), f"tenant {t}: executor state diverged"

    b = res.budget
    assert (
        float(sc._tokens[t]),
        float(sc._spent[t]),
        float(sc._refunded[t]),
    ) == (b.available, b.spent, b.refunded), (
        f"tenant {t}: budget ledger diverged"
    )

    assert int(sc._d_cooldown[t]) == res.scaler.damper.cooldown_remaining, (
        f"tenant {t}: damper cooldown diverged"
    )
    assert bool(sc._safe[t]) == res.scaler._safe_mode, (
        f"tenant {t}: safe-mode flag diverged"
    )


def _run_pair(
    n_tenants,
    base_seed,
    n_intervals=N_INTERVALS,
    n_faults=4,
    goal_ms=100.0,
    budgeted=False,
    scaler_kwargs=None,
    executor_kwargs=None,
    kinds=None,
):
    """Run the fleet and its scalar twins; assert parity for every tenant."""
    seeds, traces, schedules = _population(
        n_tenants, base_seed, n_intervals, n_faults, kinds=kinds
    )
    goal = LatencyGoal(goal_ms) if goal_ms is not None else None
    n_budget = WARM + n_intervals + 2

    fleet_budgets = None
    if budgeted:
        fleet_budgets = [
            _tenant_budget(_config(s), 0.35, n_budget) for s in seeds
        ]
    fleet = run_fleet_chaos(
        WORKLOAD,
        traces,
        schedules,
        config=_config(base_seed),
        seeds=seeds,
        goal=goal,
        budgets=fleet_budgets,
        scaler_kwargs=scaler_kwargs,
        executor_kwargs=executor_kwargs,
    )

    for t in range(n_tenants):
        budget = (
            _tenant_budget(_config(seeds[t]), 0.35, n_budget)
            if budgeted
            else None
        )
        res = run_chaos(
            WORKLOAD,
            traces[t],
            schedules[t],
            config=_config(seeds[t]),
            goal=goal,
            budget=budget,
            scaler_kwargs=scaler_kwargs,
            executor_kwargs=executor_kwargs,
        )
        _assert_tenant_parity(fleet, t, res)
    return fleet


class TestConfigAxes:
    @pytest.mark.parametrize(
        "name,axis", CHAOS_AXES, ids=[name for name, _ in CHAOS_AXES]
    )
    def test_axis_parity_under_chaos(self, name, axis):
        axis = dict(axis)
        _run_pair(
            n_tenants=3,
            base_seed=200 + 10 * [n for n, _ in CHAOS_AXES].index(name),
            goal_ms=axis.pop("goal_ms"),
            budgeted=axis.pop("budgeted", False),
            scaler_kwargs=axis.pop("scaler_kwargs", None),
            executor_kwargs=axis.pop("executor_kwargs", None),
        )
        assert not axis  # every axis key consumed


class TestFaultKinds:
    @pytest.mark.parametrize(
        "kind", DATA_PLANE_KINDS, ids=[k.value for k in DATA_PLANE_KINDS]
    )
    def test_each_fault_kind_in_isolation(self, kind):
        fleet = _run_pair(
            n_tenants=2,
            base_seed=400,
            n_faults=3,
            kinds=[kind],
        )
        # The schedules actually contained the kind under test.
        assert any(
            e.kind is kind for s in fleet.schedules for e in s.events
        )


class TestRandomizedSchedules:
    @settings(
        max_examples=20,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_seeded_schedule_parity(self, seed):
        # ≥ 20 independent randomized schedules (two tenants each, all
        # fault kinds in the pool) must hold byte-identity.
        _run_pair(n_tenants=2, base_seed=seed, n_faults=5)


class TestSweepParity:
    def test_vectorized_sweep_outcomes_match_scalar_sweep(self):
        kwargs = dict(
            n_tenants=6,
            base_seed=70,
            n_intervals=12,
            n_faults=4,
            interval_ticks=TICKS,
            warmup_intervals=WARM,
        )
        vec = chaos_sweep(engine="vectorized", **kwargs)
        sca = chaos_sweep(engine="scalar", **kwargs)
        for a, b in zip(vec.outcomes, sca.outcomes):
            assert (a.tenant_id, a.seed, a.schedule.events) == (
                b.tenant_id,
                b.seed,
                b.schedule.events,
            )
            assert (
                a.error,
                a.budget_overdrawn,
                a.spent,
                a.refunded,
                a.budget_total,
                a.resize_failures,
                a.circuit_opens,
                a.quarantined,
                a.missed,
                a.discarded,
                a.entered_safe_mode,
            ) == (
                b.error,
                b.budget_overdrawn,
                b.spent,
                b.refunded,
                b.budget_total,
                b.resize_failures,
                b.circuit_opens,
                b.quarantined,
                b.missed,
                b.discarded,
                b.entered_safe_mode,
            )


# -- a tenant whose scalar twin raises ----------------------------------------

DEAD_PERIODS = {1: WARM + 5, 3: WARM + 7}  # budget periods that end mid-run


def _dead_population(base_seed=90):
    """Four sweep tenants; two budgets' periods end before the run does."""
    draws = chaos_population(
        4,
        base_seed,
        N_INTERVALS,
        4,
        interval_ticks=TICKS,
        warmup_intervals=WARM,
        budget_factor=0.35,
    )
    return [
        dataclasses.replace(
            draw, budget=_tenant_budget(draw.config, 0.35, DEAD_PERIODS[t])
        )
        if t in DEAD_PERIODS
        else draw
        for t, draw in enumerate(draws)
    ]


def _outcome_fields(outcome):
    fields = dataclasses.asdict(outcome)
    fields["schedule"] = outcome.schedule.events
    return fields


class TestDeadTenants:
    def test_dead_row_freezes_where_its_scalar_twin_raised(self):
        population = _dead_population()
        goal = LatencyGoal(100.0)
        fleet = run_fleet_chaos(
            WORKLOAD,
            [d.trace for d in population],
            [d.schedule for d in population],
            config=population[0].config,
            seeds=[d.seed for d in population],
            goal=goal,
            budgets=[d.budget for d in population],
        )
        sc = fleet.scaler
        at = sc.catalog.at_level
        for t, draw in enumerate(population):
            if t not in DEAD_PERIODS:
                res = run_chaos(
                    WORKLOAD,
                    draw.trace,
                    draw.schedule,
                    config=draw.config,
                    goal=goal,
                    budget=draw.budget,
                )
                _assert_tenant_parity(fleet, t, res)
                assert not sc.dead[t]
                continue
            tenant = ChaosTenant(
                WORKLOAD,
                draw.trace,
                draw.schedule,
                draw.config,
                goal=goal,
                budget=draw.budget,
            )
            tenant.warmup()
            with pytest.raises(BudgetError) as raised:
                for _ in range(N_INTERVALS):
                    tenant.step()
            error = f"{type(raised.value).__name__}: {raised.value}"
            assert "budgeting period already finished" in error
            assert sc.dead[t] and sc.dead_error(t) == error
            decided = tenant.interval_decisions
            assert [
                at(int(level[t])).name
                for level in fleet.decided_levels[: len(decided)]
            ] == [d.container.name for d in decided], f"tenant {t}"
            assert [
                at(int(c[t])).name
                for c in fleet.containers[: len(tenant.containers)]
            ] == tenant.containers, f"tenant {t}"
            budget = draw.budget
            assert (
                float(sc.budget_spent[t]),
                float(sc.budget_refunded[t]),
            ) == (budget.spent, budget.refunded), f"tenant {t}"

    def test_sweep_engines_report_dead_tenants_alike(self):
        goal = LatencyGoal(100.0)
        vec = _fleet_outcomes(_dead_population(), WORKLOAD, goal)
        sca = _scalar_outcomes(_dead_population(), WORKLOAD, goal)
        assert [_outcome_fields(o) for o in vec] == [
            _outcome_fields(o) for o in sca
        ]
        for t, outcome in enumerate(vec):
            if t not in DEAD_PERIODS:
                assert outcome.error is None
                continue
            assert "budgeting period already finished" in outcome.error
            assert (
                outcome.resize_failures,
                outcome.circuit_opens,
                outcome.quarantined,
                outcome.missed,
                outcome.discarded,
                outcome.entered_safe_mode,
            ) == (0, 0, 0, 0, 0, False)
            assert outcome.spent > 0.0


def test_empty_sweep_is_empty_on_both_engines():
    for engine in ("vectorized", "scalar"):
        assert chaos_sweep(n_tenants=0, engine=engine).outcomes == []


class TestHealthyIdentity:
    def test_empty_schedule_decide_wave_matches_decide_batch(self):
        # With nothing failing, the degraded wave loop must be invisible:
        # the same synthesized telemetry driven through decide_wave (all
        # tenants present, clean, in lock step) and through the healthy
        # decide_batch path yields identical decisions every interval.
        catalog = default_catalog()
        n_tenants, n_intervals = 16, 30
        arrays = synthesize_fleet_telemetry(n_tenants, n_intervals, seed=9)
        base = VectorizedAutoScaler(
            catalog,
            n_tenants,
            goal=LatencyGoal(100.0),
            damper=OscillationDamper(),
        )
        deg = DegradedVectorizedAutoScaler(
            catalog,
            n_tenants,
            goal=LatencyGoal(100.0),
            damper=OscillationDamper(),
        )
        present = np.ones(n_tenants, dtype=bool)
        clean = np.zeros(n_tenants, dtype=bool)
        no_reasons = [()] * n_tenants
        for i in range(n_intervals):
            billed = deg._costs[deg.level].copy()
            bd = base.decide_batch(
                float(i),
                arrays.latency_ms[i],
                arrays.util_pct[i],
                arrays.wait_ms[i],
                arrays.wait_pct[i],
                arrays.memory_used_gb[i],
                arrays.disk_physical_reads[i],
            )
            wd = deg.decide_wave(
                present=present,
                index=np.full(n_tenants, i, dtype=np.int64),
                start_s=np.full(n_tenants, i * 60.0),
                end_s=np.full(n_tenants, (i + 1) * 60.0),
                anomalous=clean,
                anomaly_reasons=no_reasons,
                latency_ms=arrays.latency_ms[i],
                util_pct=arrays.util_pct[i],
                wait_ms=arrays.wait_ms[i],
                wait_pct=arrays.wait_pct[i],
                memory_used_gb=arrays.memory_used_gb[i],
                disk_physical_reads=arrays.disk_physical_reads[i],
                billed_cost=billed,
            )
            assert np.array_equal(bd.level, wd.level), f"interval {i}"
            assert np.array_equal(bd.resized, wd.resized), f"interval {i}"
            nan_b = np.isnan(bd.balloon_limit_gb)
            nan_w = np.isnan(wd.balloon_limit_gb)
            assert np.array_equal(nan_b, nan_w), f"interval {i}"
            assert np.array_equal(
                bd.balloon_limit_gb[~nan_b], wd.balloon_limit_gb[~nan_w]
            ), f"interval {i}"
            assert bd.actions == wd.actions, f"interval {i}"
        # The guard saw one unbroken healthy stream per tenant and the
        # degraded machinery never engaged.
        assert int(deg.g_admitted.sum()) == n_tenants * n_intervals
        assert int(deg.g_quarantined.sum()) == 0
        assert int(deg.g_discarded.sum()) == 0
        assert int(deg.g_missed.sum()) == 0
        assert not deg.safe_mode.any()
        assert not deg.dead.any()
        assert float(deg.budget_refunded.sum()) == 0.0
        # Both engines run one decision body, so its tallies agree;
        # "intervals" counts execute_interval calls on the degraded side.
        for key, value in base.action_counts.items():
            if key != "intervals":
                assert deg.action_counts[key] == value, key


# -- a wave touches only its participants -------------------------------------

WAVE_N = 23  # distinct from K, the ring window and the damper window


def _tenant_columns(state, n, path=""):
    """Every per-tenant column of a ``state_dict``, tenant axis first."""
    if isinstance(state, dict):
        for key, value in state.items():
            yield from _tenant_columns(value, n, f"{path}/{key}")
    elif isinstance(state, np.ndarray) and state.ndim:
        # Resource rings are (K, T, W) on the wire: tenants on axis 1.
        axis = 0 if state.shape[0] == n else 1
        if state.ndim > axis and state.shape[axis] == n:
            yield path, np.moveaxis(state, axis, 0)
    elif isinstance(state, list) and len(state) == n:
        yield path, state


def _wave(scaler, arrays, i, present, anomalous):
    n = scaler.n_tenants
    return scaler.decide_wave(
        present=present,
        index=np.full(n, i, dtype=np.int64),
        start_s=np.full(n, i * 60.0),
        end_s=np.full(n, (i + 1) * 60.0),
        anomalous=anomalous,
        anomaly_reasons=[("planted anomaly",)] * n,
        latency_ms=arrays.latency_ms[i],
        util_pct=arrays.util_pct[i],
        wait_ms=arrays.wait_ms[i],
        wait_pct=arrays.wait_pct[i],
        memory_used_gb=arrays.memory_used_gb[i],
        disk_physical_reads=arrays.disk_physical_reads[i],
        billed_cost=scaler._costs[scaler.level].copy(),
    )


def _planted_scaler(seed):
    """A warmed degraded scaler whose per-row control state is scrambled.

    Every balloon phase, damper cooldown, scale-down streak, safe-mode
    flag and token balance the body could step is present somewhere, so
    a mask that leaks onto a non-participant row changes its bytes.
    """
    n, warm = WAVE_N, 12
    arrays = synthesize_fleet_telemetry(n, warm + 1, seed=seed)
    catalog = default_catalog()
    scaler = DegradedVectorizedAutoScaler(
        catalog, n, goal=LatencyGoal(100.0), damper=OscillationDamper()
    )
    clean = np.zeros(n, dtype=bool)
    for i in range(warm):
        _wave(scaler, arrays, i, np.ones(n, dtype=bool), clean)

    rng = np.random.default_rng(seed)
    state = scaler.state_dict()
    n_levels = state["n_levels"]
    mem = scaler._mem
    level = rng.integers(1, n_levels, n)
    phase = rng.integers(0, 3, n).astype(np.int8)
    probing = phase == 1
    target = np.where(probing, mem[level - 1], np.nan)
    limit = np.where(probing, (mem[level] + mem[level - 1]) / 2, np.nan)
    state["level"] = level
    state["balloon"].update(
        phase=phase,
        target=target,
        limit=limit,
        limit_gb=limit.copy(),
        baseline=np.where(probing, rng.uniform(1.0, 500.0, n), np.nan),
        cooldown=np.where(phase == 2, rng.integers(1, 4, n), 0),
    )
    state["low_streak"] = rng.integers(0, 4, n)
    # Some rows cannot afford their container (a participant among them
    # dies at settlement); the rest can, with the cheapest one to spare.
    costs = scaler._costs
    state["budget"]["tokens"] = np.where(
        rng.random(n) < 0.3,
        0.9 * costs[level],
        costs[level] + costs[0] + rng.uniform(0.0, 50.0, n),
    )
    damper = state["damper"]
    damper["moves"] = rng.integers(-1, 2, damper["moves"].shape).astype(np.int8)
    damper["len"] = np.full(n, damper["window"])
    damper["cooldown"] = rng.integers(0, 3, n)
    state["degraded"]["safe_mode"] = rng.random(n) < 0.3
    scaler.load_state_dict(state)
    return scaler, arrays, warm


class TestWaveMasking:
    @settings(
        max_examples=20,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_partial_wave_leaves_non_participants_untouched(self, seed):
        scaler, arrays, i = _planted_scaler(seed)
        rng = np.random.default_rng(seed + 1)
        present = rng.random(WAVE_N) < 0.5
        anomalous = present & (rng.random(WAVE_N) < 0.3)
        before = dict(_tenant_columns(scaler.state_dict(), WAVE_N))
        wave = _wave(scaler, arrays, i, present, anomalous)
        after = dict(_tenant_columns(scaler.state_dict(), WAVE_N))

        assert np.array_equal(wave.participants, present & ~wave.died)
        assert before.keys() == after.keys()
        for r in np.flatnonzero(~present):
            assert wave.actions[r] is None
            assert not wave.resized[r]
            for path, column in before.items():
                if isinstance(column, list):
                    assert after[path][r] == column[r], (path, r)
                else:
                    assert after[path][r].tobytes() == column[r].tobytes(), (
                        path,
                        r,
                    )


class TestHealthyEntryPoints:
    def _scaler(self):
        return DegradedVectorizedAutoScaler(
            default_catalog(), 4, goal=LatencyGoal(100.0)
        )

    def test_decide_batch_refuses(self):
        arrays = synthesize_fleet_telemetry(4, 1, seed=1)
        scaler = self._scaler()
        with pytest.raises(ConfigurationError, match="decide_wave"):
            scaler.decide_batch(
                0.0,
                arrays.latency_ms[0],
                arrays.util_pct[0],
                arrays.wait_ms[0],
                arrays.wait_pct[0],
                arrays.memory_used_gb[0],
                arrays.disk_physical_reads[0],
            )

    def test_attach_recorder_refuses(self):
        from repro.obs.fleet import FleetTraceRecorder

        with pytest.raises(ConfigurationError, match="decide_wave"):
            self._scaler().attach_recorder(FleetTraceRecorder())
