"""Fleet-scale chaos sweep: many tenants, many randomized fault schedules.

The per-tenant chaos runner (:func:`~repro.harness.chaos.run_chaos`)
validates the control plane against *one* fault schedule;
:func:`chaos_sweep` is the service-operator view: a population of tenants
with heterogeneous demand shapes, each subjected to an independently
seeded random :class:`~repro.faults.schedule.FaultSchedule`, with the
degraded-mode invariants checked on every one:

* the loop never throws — every failure mode degrades into an explained
  decision;
* the budget is never overdrawn, and actuation-failure refunds are
  credited back;
* the breaker / guard diagnostics are surfaced per tenant so a sweep can
  be summarized in one table.

The population is drawn once (:func:`chaos_population`: each tenant's
seed, trace, schedule, config and budget) and handed to either engine:
the vectorized degraded fleet, or one scalar :func:`run_chaos` per
tenant.  Every tenant is deterministic given ``base_seed``; a failing
tenant can be replayed alone from its reported seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.budget import BudgetManager
from repro.core.latency import LatencyGoal
from repro.engine.server import EngineConfig
from repro.faults.schedule import FaultSchedule
from repro.fleet.degraded import run_fleet_chaos
from repro.harness.chaos import run_chaos
from repro.harness.experiment import ExperimentConfig
from repro.obs.metrics import MetricsRegistry
from repro.workloads import Trace, cpuio_workload
from repro.workloads.base import Workload

__all__ = [
    "TenantChaosOutcome",
    "ChaosSweepResult",
    "ChaosTenantDraw",
    "chaos_population",
    "chaos_sweep",
]


@dataclass(frozen=True)
class TenantChaosOutcome:
    """One tenant's verdict after a randomized chaos run.

    ``error`` holds the formatted exception if the control loop threw
    (it must never), ``budget_overdrawn`` flags a violated budget
    invariant; everything else is diagnostics.
    """

    tenant_id: int
    seed: int
    schedule: FaultSchedule
    error: str | None
    budget_overdrawn: bool
    spent: float
    refunded: float
    budget_total: float
    resize_failures: int
    circuit_opens: int
    quarantined: int
    missed: int
    discarded: int
    entered_safe_mode: bool

    @property
    def healthy(self) -> bool:
        return self.error is None and not self.budget_overdrawn


@dataclass(frozen=True)
class ChaosSweepResult:
    """The sweep's outcomes plus one-line aggregates."""

    outcomes: list[TenantChaosOutcome]

    @property
    def n_tenants(self) -> int:
        return len(self.outcomes)

    @property
    def errors(self) -> list[TenantChaosOutcome]:
        return [o for o in self.outcomes if o.error is not None]

    @property
    def overdrawn(self) -> list[TenantChaosOutcome]:
        return [o for o in self.outcomes if o.budget_overdrawn]

    @property
    def all_healthy(self) -> bool:
        return all(o.healthy for o in self.outcomes)

    @property
    def total_refunded(self) -> float:
        return sum(o.refunded for o in self.outcomes)


@dataclass(frozen=True)
class ChaosTenantDraw:
    """One sweep tenant, derived from ``base_seed + tenant_id`` alone;
    ``config`` carries its seed."""

    tenant_id: int
    seed: int
    trace: Trace
    schedule: FaultSchedule
    config: ExperimentConfig
    budget: BudgetManager


def chaos_population(
    n_tenants: int, base_seed: int, n_intervals: int, n_faults: int,
    interval_ticks: int, warmup_intervals: int, budget_factor: float,
) -> list[ChaosTenantDraw]:
    """Every tenant of a :func:`chaos_sweep`, whichever engine runs it."""
    # Leave fault-free tail room so runs have a chance to stabilize.
    last = max(n_intervals - max(n_intervals // 4, 2) - 1, 0)
    draws = []
    for tenant in range(n_tenants):
        seed = base_seed + tenant
        config = ExperimentConfig(
            engine=EngineConfig(interval_ticks=interval_ticks),
            warmup_intervals=warmup_intervals,
            seed=seed,
        )
        trace = _tenant_trace(np.random.default_rng(seed), tenant, n_intervals)
        schedule = FaultSchedule.random(
            seed=seed, n_intervals=n_intervals, n_faults=n_faults, last=last
        )
        budget = _tenant_budget(
            config, budget_factor, warmup_intervals + n_intervals + 2
        )
        draws.append(
            ChaosTenantDraw(tenant, seed, trace, schedule, config, budget)
        )
    return draws


def chaos_sweep(
    n_tenants: int = 20,
    base_seed: int = 0,
    n_intervals: int = 24,
    n_faults: int = 5,
    interval_ticks: int = 15,
    warmup_intervals: int = 6,
    goal_ms: float | None = 150.0,
    budget_factor: float = 0.35,
    workload: Workload | None = None,
    metrics: MetricsRegistry | None = None,
    engine: str = "vectorized",
) -> ChaosSweepResult:
    """Run ``n_tenants`` independent randomized chaos runs.

    Args:
        n_tenants: population size (one fault schedule each).
        base_seed: master seed; tenant ``t`` derives everything from
            ``base_seed + t`` (:func:`chaos_population`).
        n_intervals: measured billing intervals per tenant.
        n_faults: fault events drawn per schedule.
        interval_ticks: engine ticks per billing interval (small by
            default — chaos sweeps trade fidelity for breadth).
        warmup_intervals: fault-free warm-up intervals.
        goal_ms: tenant latency goal (None = demand-driven scaling only).
        budget_factor: position of each tenant's budget between the
            all-smallest (0) and all-largest (1) spend for the period.
        workload: benchmark workload; CPUIO when omitted.
        metrics: optional registry accumulating sweep-wide ``chaos.*``
            counters (tenants, errors, overdraws, resize failures,
            circuit opens, guard verdicts, safe-mode entries) and the
            ``chaos.total_refunded`` gauge, so sweeps feed the same
            exporters as the fleet pipeline.
        engine: ``"vectorized"`` (default) runs the whole population
            through the struct-of-arrays degraded fleet path
            (:func:`repro.fleet.degraded.run_fleet_chaos`), which is
            byte-identical to the scalar runs; ``"scalar"`` runs one
            :func:`run_chaos` per tenant, the reference the parity suite
            compares against.  Both engines run the same population.  To
            trace one tenant, replay it alone with :func:`run_chaos` from
            its reported seed.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown chaos sweep engine {engine!r}")
    population = chaos_population(
        n_tenants, base_seed, n_intervals, n_faults, interval_ticks,
        warmup_intervals, budget_factor,
    )
    goal = LatencyGoal(goal_ms) if goal_ms is not None else None
    outcomes = _ENGINES[engine](population, workload or cpuio_workload(), goal)
    result = ChaosSweepResult(outcomes=outcomes)
    if metrics is not None:
        _record_sweep_metrics(metrics, result)
    return result


def _scalar_outcomes(
    population: list[ChaosTenantDraw],
    workload: Workload,
    goal: LatencyGoal | None,
) -> list[TenantChaosOutcome]:
    """One :func:`run_chaos` per tenant; a raise is reported, not thrown."""
    outcomes = []
    for draw in population:
        error, stats = None, ()
        try:
            result = run_chaos(
                workload, draw.trace, draw.schedule, config=draw.config,
                goal=goal, budget=draw.budget,
            )
            guard, executor = result.guard.stats, result.executor
            stats = (
                executor.total_failures, executor.circuit_opens,
                guard.quarantined, guard.missed, guard.discarded,
            )
        except Exception as exc:  # noqa: BLE001 - the sweep *reports* failures
            error = f"{type(exc).__name__}: {exc}"
        budget = draw.budget
        outcomes.append(
            _outcome(
                draw, error, budget.spent, budget.refunded, budget.available,
                stats,
            )
        )
    return outcomes


def _fleet_outcomes(
    population: list[ChaosTenantDraw],
    workload: Workload,
    goal: LatencyGoal | None,
) -> list[TenantChaosOutcome]:
    """One :func:`run_fleet_chaos` over the population; a row whose
    scalar twin would raise is dead, with the same error."""
    if not population:  # run_fleet_chaos needs a tenant
        return []
    sc = run_fleet_chaos(
        workload, [d.trace for d in population],
        [d.schedule for d in population], config=population[0].config,
        seeds=[d.seed for d in population], goal=goal,
        budgets=[d.budget for d in population],
    ).scaler
    columns = (
        sc.x_total_failures, sc.x_circuit_opens,
        sc.g_quarantined, sc.g_missed, sc.g_discarded,
    )
    return [
        _outcome(
            draw, sc.dead_error(t), float(sc.budget_spent[t]),
            float(sc.budget_refunded[t]), float(sc.budget_available[t]),
            tuple(int(column[t]) for column in columns),
        )
        for t, draw in enumerate(population)
    ]


_ENGINES = {"vectorized": _fleet_outcomes, "scalar": _scalar_outcomes}


def _outcome(
    draw: ChaosTenantDraw, error: str | None, spent: float, refunded: float,
    available: float, stats: tuple[int, ...],
) -> TenantChaosOutcome:
    """``stats``: resize failures, circuit opens, then the quarantined,
    missed and discarded tallies; a tenant that raised reports none."""
    failures, opens, quarantined, missed, discarded = (
        stats if error is None else (0,) * 5
    )
    total = draw.budget.budget
    return TenantChaosOutcome(
        draw.tenant_id, draw.seed, draw.schedule, error,
        budget_overdrawn=spent > total + 1e-6 or available < -1e-9,
        spent=spent, refunded=refunded, budget_total=total,
        resize_failures=failures, circuit_opens=opens,
        quarantined=quarantined, missed=missed, discarded=discarded,
        entered_safe_mode=opens > 0,
    )


def _record_sweep_metrics(
    metrics: MetricsRegistry, result: ChaosSweepResult
) -> None:
    counts = {
        "chaos.tenants": result.n_tenants,
        "chaos.errors": len(result.errors),
        "chaos.budget_overdrawn": len(result.overdrawn),
        "chaos.resize_failures": sum(
            o.resize_failures for o in result.outcomes
        ),
        "chaos.circuit_opens": sum(o.circuit_opens for o in result.outcomes),
        "chaos.quarantined": sum(o.quarantined for o in result.outcomes),
        "chaos.missed": sum(o.missed for o in result.outcomes),
        "chaos.discarded": sum(o.discarded for o in result.outcomes),
        "chaos.safe_mode_entries": sum(
            1 for o in result.outcomes if o.entered_safe_mode
        ),
    }
    for name, value in counts.items():
        if value:
            metrics.counter(name).inc(float(value))
    metrics.gauge("chaos.total_refunded").set(result.total_refunded)


def _tenant_trace(rng: np.random.Generator, tenant: int, n_intervals: int) -> Trace:
    """A seeded bursty demand shape, different per tenant."""
    base = float(rng.uniform(15.0, 50.0))
    rates = np.full(n_intervals, base)
    for _ in range(int(rng.integers(1, 4))):
        start = int(rng.integers(0, max(n_intervals - 2, 1)))
        length = int(rng.integers(2, 7))
        rates[start : start + length] += float(rng.uniform(80.0, 220.0))
    return Trace(
        name=f"chaos-tenant-{tenant}",
        rates=rates,
        description="randomized bursty demand for a chaos sweep",
    )


def _tenant_budget(
    config: ExperimentConfig, budget_factor: float, n_budget_intervals: int
) -> BudgetManager:
    """A binding-but-feasible budget between all-smallest and all-largest."""
    min_cost = config.catalog.smallest.cost
    max_cost = config.catalog.max_cost
    per_interval = min_cost + budget_factor * (max_cost - min_cost)
    return BudgetManager(
        budget=per_interval * n_budget_intervals,
        n_intervals=n_budget_intervals,
        min_cost=min_cost,
        max_cost=max_cost,
    )
