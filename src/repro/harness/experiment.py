"""Experiment runner (paper Section 7.1's methodology).

The flow mirrors the paper exactly:

1. **Profile** the workload under ``Max`` (the largest container).  This
   yields (a) the gold-standard latency from which latency goals are
   derived (e.g. 1.25× or 5× the Max p95) and (b) the per-interval
   absolute resource usage from which the offline baselines are sized.
2. **Build policies**: Peak / Avg statics from the usage percentiles, the
   Trace oracle from the per-interval usage, and the online Util and Auto
   controllers with the derived latency goal.
3. **Run** each policy against the same trace-driven workload and report
   95th-percentile latency and average cost per billing interval.

Runs include a warm-up phase (cache population) that is excluded from
metrics, as the paper's steady-state measurements are.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.autoscaler import AutoScaler
from repro.core.latency import LatencyGoal, LatencyMetric
from repro.core.thresholds import ThresholdConfig, default_thresholds
from repro.engine.billing import BillingMeter
from repro.engine.containers import ContainerCatalog, default_catalog
from repro.engine.resources import ResourceKind
from repro.engine.server import DatabaseServer, EngineConfig
from repro.engine.telemetry import IntervalCounters
from repro.harness.metrics import RunMetrics, compute_metrics
from repro.obs.events import EventKind
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.policies.auto import AutoPolicy
from repro.policies.base import ScalingPolicy
from repro.policies.oracle import TraceOraclePolicy, oracle_container_sequence
from repro.policies.static import MaxPolicy, StaticPolicy, static_container_for_usage
from repro.policies.util import UtilPolicy
from repro.workloads.base import Workload
from repro.workloads.loadgen import LoadGenerator
from repro.workloads.traces import Trace

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "ComparisonResult",
    "run_policy",
    "profile_workload",
    "run_comparison",
    "run_goal_sweep",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared settings for one experiment.

    Attributes:
        catalog: container sizes on offer.
        engine: engine simulation knobs.
        warmup_intervals: billing intervals run (and discarded) before
            measurement, so the buffer pool is warm.
        oracle_headroom: headroom factor for the Trace baseline.
        thresholds: Auto's categorization thresholds.
        seed: base RNG seed; each policy's run derives its own stream.
    """

    catalog: ContainerCatalog = field(default_factory=default_catalog)
    engine: EngineConfig = field(default_factory=EngineConfig)
    warmup_intervals: int = 12
    oracle_headroom: float = 1.25
    thresholds: ThresholdConfig = field(default_factory=default_thresholds)
    seed: int = 7


@dataclass(frozen=True)
class RunResult:
    """Everything observed during one policy's run."""

    policy: str
    metrics: RunMetrics
    counters: list[IntervalCounters]
    containers: list[str]
    meter: BillingMeter

    @property
    def latencies_ms(self) -> np.ndarray:
        if not self.counters:
            return np.empty(0)
        return np.concatenate([c.latencies_ms for c in self.counters])


def run_policy(
    workload: Workload,
    trace: Trace,
    policy: ScalingPolicy,
    config: ExperimentConfig,
    tracer: Tracer | None = None,
) -> RunResult:
    """Run one policy against a trace-driven workload.

    ``tracer`` (optional) is threaded through the policy's control plane
    when the policy supports it (``attach_tracer``); the harness itself
    records one BILLING event per measured interval.  Tracing is pure
    observation: traced and untraced runs make identical decisions and
    produce identical bills.
    """
    engine = replace(config.engine, seed=config.seed)
    server = DatabaseServer(
        specs=workload.specs,
        dataset=workload.dataset,
        container=policy.initial_container(),
        config=engine,
        n_hot_locks=workload.n_hot_locks,
    )
    loadgen = LoadGenerator(
        trace,
        interval_ticks=engine.interval_ticks,
        seed=config.seed + 1,
    )
    tracer = tracer if tracer is not None else NULL_TRACER
    if tracer.enabled and hasattr(policy, "attach_tracer"):
        policy.attach_tracer(tracer)

    # Warm-up: run at the trace's opening rate, let the policy adapt, and
    # discard the telemetry.
    # Warm at the trace's mean rate (not its possibly-idle opening rate)
    # so the cache population reflects steady history, then let the
    # opening rate re-establish itself.
    warmup_rate = max(float(trace.rates[0]), trace.mean)
    for _ in range(config.warmup_intervals):
        counters = server.run_interval(warmup_rate)
        if policy.adapts_during_warmup:
            _apply(policy, counters, server)

    meter = BillingMeter()
    all_counters: list[IntervalCounters] = []
    containers: list[str] = []
    for interval_index in range(trace.n_intervals):
        rates = loadgen.interval_rates(interval_index)
        containers.append(server.container.name)
        counters = server.run_interval_with_rates(rates)
        meter.charge(interval_index, counters.container)
        if tracer.enabled:
            tracer.emit(
                "harness", EventKind.BILLING,
                interval=counters.interval_index,
                billed_interval=interval_index,
                container=counters.container.name,
                cost=counters.container.cost,
            )
        all_counters.append(counters)
        _apply(policy, counters, server)

    latencies = (
        np.concatenate([c.latencies_ms for c in all_counters])
        if all_counters
        else np.empty(0)
    )
    metrics = compute_metrics(
        policy_name=policy.name,
        latencies_ms=latencies,
        costs=np.asarray([r.cost for r in meter.records]),
        resizes=meter.resize_count,
        completions=sum(c.completions for c in all_counters),
        rejected=sum(c.rejected for c in all_counters),
    )
    return RunResult(
        policy=policy.name,
        metrics=metrics,
        counters=all_counters,
        containers=containers,
        meter=meter,
    )


def _apply(
    policy: ScalingPolicy, counters: IntervalCounters, server: DatabaseServer
) -> None:
    next_container = policy.decide(counters)
    if next_container.name != server.container.name:
        server.set_container(next_container)
    server.set_balloon_limit(policy.balloon_limit_gb())


@dataclass(frozen=True)
class ProfileResult:
    """Output of the Max profiling run."""

    run: RunResult
    usage_history: list[dict[ResourceKind, float]]
    max_p95_ms: float

    def latency_goal(
        self, factor: float, metric: LatencyMetric = LatencyMetric.P95
    ) -> LatencyGoal:
        """Derive the goal the paper states as e.g. '1.25× Max'."""
        return LatencyGoal(target_ms=self.max_p95_ms * factor, metric=metric)


def profile_workload(
    workload: Workload, trace: Trace, config: ExperimentConfig
) -> ProfileResult:
    """Run under Max and extract absolute usage plus the latency floor."""
    policy = MaxPolicy(config.catalog)
    run = run_policy(workload, trace, policy, config)
    largest = config.catalog.largest
    usage_history = []
    for counters in run.counters:
        usage = {
            kind: counters.utilization_mean[kind] * largest.resources.get(kind)
            for kind in ResourceKind
        }
        # Memory is sized from the hot working set, not from however much
        # cold cache a 192 GB profiling container opportunistically fills.
        usage[ResourceKind.MEMORY] = counters.memory_hot_gb
        usage_history.append(usage)
    return ProfileResult(
        run=run,
        usage_history=usage_history,
        max_p95_ms=run.metrics.p95_latency_ms,
    )


@dataclass(frozen=True)
class ComparisonResult:
    """All six policies on one workload × trace, paper-figure style."""

    workload_name: str
    trace_name: str
    goal: LatencyGoal
    runs: dict[str, RunResult]

    def metrics(self, policy: str) -> RunMetrics:
        return self.runs[policy].metrics

    def cost_ratio(self, policy: str, reference: str = "Auto") -> float:
        return self.metrics(policy).cost_ratio_to(self.metrics(reference))

    def policies(self) -> list[str]:
        return list(self.runs)


def _policies(
    profile: ProfileResult, goal: LatencyGoal, config: ExperimentConfig,
    auto_kwargs: dict | None,
) -> dict[str, ScalingPolicy]:
    """Peak / Avg / Trace sized from the Max profile; Util / Auto for
    ``goal`` — every compared policy but Max, in report order."""
    catalog = config.catalog
    usage = profile.usage_history
    scaler = AutoScaler(
        catalog=catalog, goal=goal, thresholds=config.thresholds,
        **(auto_kwargs or {}),
    )
    return {
        "Peak": StaticPolicy(
            static_container_for_usage(catalog, usage, 95.0, headroom=1.45),
            name="Peak",
        ),
        "Avg": StaticPolicy(
            static_container_for_usage(catalog, usage, -1.0), name="Avg"
        ),
        "Trace": TraceOraclePolicy(
            oracle_container_sequence(
                catalog, usage, headroom=config.oracle_headroom
            )
        ),
        "Util": UtilPolicy(catalog, goal),
        "Auto": AutoPolicy(scaler),
    }


def run_goal_sweep(
    workload: Workload,
    trace: Trace,
    goal_factors: tuple[float, ...],
    config: ExperimentConfig | None = None,
    auto_kwargs: dict | None = None,
) -> dict[float, ComparisonResult]:
    """Run the full comparison for several latency-goal factors.

    The offline policies (Max, Peak, Avg, Trace) do not depend on the
    goal, so their runs are shared across factors; only the online
    policies (Util, Auto) re-run per goal.  This is how the paper's
    Figure 9(a)/(b) pair is produced.
    """
    config = config or ExperimentConfig()
    profile = profile_workload(workload, trace, config)
    runs: dict[str, RunResult] = {"Max": profile.run}
    results: dict[float, ComparisonResult] = {}
    for factor in goal_factors:
        goal = profile.latency_goal(factor)
        policies = _policies(profile, goal, config, auto_kwargs)
        for name, policy in policies.items():
            # Peak / Avg / Trace do not depend on the goal: run them once.
            if name in ("Util", "Auto") or name not in runs:
                runs[name] = run_policy(workload, trace, policy, config)
        results[factor] = ComparisonResult(
            workload_name=workload.name,
            trace_name=trace.name,
            goal=goal,
            runs=dict(runs),
        )
    return results


def run_comparison(
    workload: Workload,
    trace: Trace,
    goal_factor: float,
    config: ExperimentConfig | None = None,
    goal_metric: LatencyMetric = LatencyMetric.P95,
    include: tuple[str, ...] = ("Max", "Peak", "Avg", "Trace", "Util", "Auto"),
    auto_kwargs: dict | None = None,
) -> ComparisonResult:
    """Run the paper's full policy comparison on one workload × trace.

    Args:
        workload: the benchmark workload.
        trace: the demand trace.
        goal_factor: latency goal as a multiple of the Max p95 (the paper
            uses 1.25 and 5).
        config: experiment configuration.
        goal_metric: statistic the goal constrains.
        include: which policies to run (Max always runs — it provides the
            profile).
        auto_kwargs: extra keyword arguments for :class:`AutoScaler`
            (ablation switches, sensitivity, budget).
    """
    config = config or ExperimentConfig()
    profile = profile_workload(workload, trace, config)
    goal = profile.latency_goal(goal_factor, goal_metric)
    runs: dict[str, RunResult] = {"Max": profile.run}
    policies = _policies(profile, goal, config, auto_kwargs)
    for name, policy in policies.items():
        if name in include:
            runs[name] = run_policy(workload, trace, policy, config)
    return ComparisonResult(
        workload_name=workload.name,
        trace_name=trace.name,
        goal=goal,
        runs=runs,
    )
