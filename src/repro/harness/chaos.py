"""Chaos-mode experiment runner: the closed loop under injected faults.

:class:`ChaosTenant` is the one per-tenant driver of the full
production-shaped control loop —

    :class:`~repro.faults.chaos.FaultyServer` (unreliable telemetry +
    actuation) → :class:`~repro.core.telemetry_guard.TelemetryGuard`
    (admission) → :class:`~repro.core.autoscaler.AutoScaler` (decisions)
    → :class:`~repro.core.resize_executor.ResizeExecutor` (retries,
    refunds, circuit breaker) → back into the server

— for one tenant over one trace, under a seeded
:class:`~repro.faults.schedule.FaultSchedule`, one billing interval per
:meth:`~ChaosTenant.step`.  :func:`run_chaos` steps it to the end of the
trace; the controller service (:mod:`repro.service.controller`) steps
it tick by tick and checkpoints its controller.  The flow mirrors
:func:`~repro.harness.experiment.run_policy` step for step (same seeds,
same warm-up, same billing), so a run with an **empty** schedule produces
a byte-identical decision trace to the plain harness — the chaos suite's
ground truth.

Invariants the chaos suite asserts over :class:`ChaosResult`:

* no exception escapes the loop, whatever the schedule;
* the budget is never overdrawn, and failed-resize refunds are credited;
* after the last fault the decision trace reconverges to the fault-free
  twin's within a bounded number of intervals
  (:func:`reconvergence_interval`).
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dc_replace
from collections.abc import Sequence

from repro.core.autoscaler import AutoScaler, ScalingDecision
from repro.core.budget import BudgetManager
from repro.core.damper import OscillationDamper
from repro.core.latency import LatencyGoal
from repro.core.resize_executor import ActuationReport, ResizeExecutor
from repro.core.telemetry_guard import TelemetryGuard
from repro.engine.billing import BillingMeter
from repro.engine.containers import ContainerSpec
from repro.engine.server import DatabaseServer
from repro.engine.telemetry import IntervalCounters
from repro.faults.chaos import FaultyServer
from repro.faults.schedule import FaultSchedule
from repro.harness.experiment import ExperimentConfig
from repro.obs.events import EventKind
from repro.obs.tracer import Tracer
from repro.workloads.base import Workload
from repro.workloads.loadgen import LoadGenerator
from repro.workloads.traces import Trace

__all__ = ["ChaosResult", "ChaosTenant", "run_chaos", "reconvergence_interval"]


@dataclass(frozen=True)
class ChaosResult:
    """Everything observed during one chaos run.

    Attributes:
        schedule: the (measurement-relative) fault schedule that ran.
        decisions: every scaling decision, including per-delivery no-ops
            for duplicates and late redeliveries.
        interval_decisions: exactly one decision per measured interval —
            the one the executor actuated.
        reports: the executor's actuation report per measured interval.
        containers: container actually in force at the start of each
            measured interval (ground truth, read from the server).
        counters: every telemetry delivery the controller received.
        meter: per-interval billing at the container actually in force.
        server: the fault-injecting wrapper (injection tallies).
        scaler / executor: the live control-plane objects, for inspecting
            budget, guard statistics, circuit state, and safe mode.
    """

    schedule: FaultSchedule
    decisions: list[ScalingDecision]
    interval_decisions: list[ScalingDecision]
    reports: list[ActuationReport]
    containers: list[str]
    counters: list[IntervalCounters]
    meter: BillingMeter
    server: FaultyServer
    scaler: AutoScaler
    executor: ResizeExecutor

    @property
    def guard(self) -> TelemetryGuard | None:
        return self.scaler.guard

    @property
    def budget(self) -> BudgetManager:
        return self.scaler.budget

    def decision_trace(self) -> list[str]:
        """Chosen container per measured interval (for trace comparison)."""
        return [d.container.name for d in self.interval_decisions]


class ChaosTenant:
    """One tenant's closed loop under a fault schedule, one interval a step.

    The one per-tenant driver: :func:`run_chaos` builds it, warms it up
    and steps it to the end of the trace; the controller service's
    ``TenantRuntime`` subclasses it to step it tick by tick and
    checkpoint its controller.  Seeds derive from ``config.seed``: the
    engine takes it as is, the load generator ``+ 1``, the fault
    wrapper's corruption stream ``+ 2`` and the executor's jitter
    stream ``+ 3``.

    The *environment* (``server``, ``loadgen``, ``meter``) and the
    bookkeeping lists describe what ran; the *controller* (``scaler``,
    ``executor``, ``tracer``) is what a controller process would own.
    """

    def __init__(
        self,
        workload: Workload,
        trace: Trace,
        schedule: FaultSchedule,
        config: ExperimentConfig,
        goal: LatencyGoal | None = None,
        budget: BudgetManager | None = None,
        scaler_kwargs: dict | None = None,
        executor_kwargs: dict | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.goal = goal
        self._scaler_kwargs = scaler_kwargs or {}
        self._executor_kwargs = executor_kwargs or {}
        engine = dc_replace(config.engine, seed=config.seed)
        self.tracer = tracer
        self.scaler = self._build_scaler(budget)
        base = DatabaseServer(
            specs=workload.specs, dataset=workload.dataset,
            container=self.scaler.container, config=engine,
            n_hot_locks=workload.n_hot_locks,
        )
        self.server = FaultyServer(
            base, schedule.shifted(config.warmup_intervals), config.catalog,
            seed=config.seed + 2,
        )
        self.executor = self._build_executor(self.scaler, tracer)
        self.loadgen = LoadGenerator(
            trace, interval_ticks=engine.interval_ticks, seed=config.seed + 1
        )
        self.meter = BillingMeter()
        self.decisions: list[ScalingDecision] = []
        self.interval_decisions: list[ScalingDecision | None] = []
        self.reports: list[ActuationReport | None] = []
        self.containers: list[str] = []
        self.counters: list[IntervalCounters] = []
        self.env_interval = 0  # measured intervals the environment has run

    def _build_scaler(self, budget: BudgetManager | None) -> AutoScaler:
        """A fresh scaler with the default guard and damper."""
        return AutoScaler(
            catalog=self.config.catalog, goal=self.goal, budget=budget,
            thresholds=self.config.thresholds, guard=TelemetryGuard(),
            damper=OscillationDamper(), **self._scaler_kwargs,
        )

    def _build_executor(
        self, scaler: AutoScaler, tracer: Tracer | None
    ) -> ResizeExecutor:
        """Attach ``tracer`` to ``scaler`` and wire it to the server."""
        if tracer is not None:
            scaler.attach_tracer(tracer)
        return ResizeExecutor(
            scaler, self.server, seed=self.config.seed + 3, tracer=tracer,
            **self._executor_kwargs,
        )

    def warmup(self) -> None:
        """Fault-free warm-up, identical to ``run_policy``'s (the schedule
        is shifted past it, so deliveries arrive one per interval)."""
        warmup_rate = max(float(self.trace.rates[0]), self.trace.mean)
        for _ in range(self.config.warmup_intervals):
            deliveries = self.server.run_interval(warmup_rate)
            decision, _ = _decide(self.scaler, deliveries)
            self.executor.execute(decision)

    def _advance(self) -> tuple[int, ContainerSpec, list[IntervalCounters]]:
        """Run and bill the next measured interval; return its index, the
        container in force and the telemetry deliveries."""
        index = self.env_interval
        rates = self.loadgen.interval_rates(index)
        in_force = self.server.container
        self.containers.append(in_force.name)
        deliveries = self.server.run_interval_with_rates(rates)
        self.meter.charge(index, in_force)
        self.env_interval += 1
        return index, in_force, deliveries

    def step(self) -> ScalingDecision:
        """One measured interval: run, bill, decide, actuate."""
        index, in_force, deliveries = self._advance()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                "harness", EventKind.BILLING,
                interval=self.config.warmup_intervals + index,
                billed_interval=index,
                container=in_force.name,
                cost=in_force.cost,
            )
        self.counters.extend(deliveries)
        decision, per_delivery = _decide(self.scaler, deliveries)
        self.decisions.extend(per_delivery)
        self.interval_decisions.append(decision)
        self.reports.append(self.executor.execute(decision))
        return decision


def run_chaos(
    workload: Workload,
    trace: Trace,
    schedule: FaultSchedule,
    config: ExperimentConfig | None = None,
    goal: LatencyGoal | None = None,
    budget: BudgetManager | None = None,
    scaler_kwargs: dict | None = None,
    executor_kwargs: dict | None = None,
    tracer: Tracer | None = None,
) -> ChaosResult:
    """Run Auto against ``trace`` with ``schedule``'s faults injected.

    Args:
        workload / trace / config: as for
            :func:`~repro.harness.experiment.run_policy`.
        schedule: measurement-relative fault schedule (interval 0 = first
            measured interval; warm-up is always fault-free).
        goal: tenant latency goal.
        budget: tenant budget; when given, its period must cover the
            warm-up intervals too (they are billed).  Unconstrained when
            omitted.
        scaler_kwargs / executor_kwargs: extra keyword arguments for
            :class:`AutoScaler` / :class:`ResizeExecutor`.
        tracer: optional run tracer, threaded through the scaler, guard,
            estimator, budget, and executor; the harness adds one BILLING
            event per measured interval.
    """
    tenant = ChaosTenant(
        workload, trace, schedule, config or ExperimentConfig(), goal, budget,
        scaler_kwargs, executor_kwargs, tracer,
    )
    tenant.warmup()
    for _ in range(trace.n_intervals):
        tenant.step()
    t = tenant
    return ChaosResult(
        schedule=schedule, decisions=t.decisions,
        interval_decisions=t.interval_decisions, reports=t.reports,
        containers=t.containers, counters=t.counters, meter=t.meter,
        server=t.server, scaler=t.scaler, executor=t.executor,
    )


def _decide(
    scaler: AutoScaler, deliveries: list[IntervalCounters]
) -> tuple[ScalingDecision, list[ScalingDecision]]:
    """One interval's decisions: one per delivery, or a gap decision.

    The *actuated* decision is the last one — held/late redeliveries are
    delivered first, so on a healthy stream this is the fresh interval's
    decision.
    """
    if not deliveries:
        decision = scaler.decide_missing()
        return decision, [decision]
    per_delivery = [scaler.decide(counters) for counters in deliveries]
    return per_delivery[-1], per_delivery


def reconvergence_interval(
    faulted: Sequence[str],
    clean: Sequence[str],
    last_fault_interval: int,
) -> int | None:
    """Intervals after the last fault until the traces agree for good.

    Returns the smallest ``k >= 1`` such that from measured interval
    ``last_fault_interval + k`` onward the faulted run's per-interval trace
    equals the clean twin's, or ``None`` if they never reconverge within
    the run.  Pass container-name traces
    (:attr:`ChaosResult.containers` or ``decision_trace()``) from a
    faulted run and an empty-schedule twin.
    """
    n = min(len(faulted), len(clean))
    start = max(last_fault_interval + 1, 0)
    for j in range(start, n):
        if all(faulted[k] == clean[k] for k in range(j, n)):
            return j - last_fault_interval
    return None
