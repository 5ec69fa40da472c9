"""Fleet-scale observability: the columnar trace/metrics pipeline.

The vectorized engine (:mod:`repro.fleet.vectorized`) decides for the
whole fleet in a handful of numpy kernels; emitting one
:class:`~repro.obs.events.TraceEvent` per tenant per layer would hand
back the speedup it exists for.  This module records *array-valued*
events instead: a :class:`FleetTraceRecorder` hooks
``VectorizedAutoScaler.decide_batch`` and appends one set of numpy
columns per interval — rule codes, budget spend/clamp masks,
balloon/damper transitions, level changes — into a
:class:`FleetTraceStore`.  A live perf gate allows the instrumented
1000×200 sweep 10 % over the uninstrumented one (DESIGN.md §7.4 gives
the current reading).

Three consumers sit on the store:

* :func:`explain` — per-tenant drill-down.  It rebuilds the tenant's
  :class:`~repro.engine.telemetry.IntervalCounters` stream from the
  columns and replays it through the *scalar*
  :class:`~repro.core.autoscaler.AutoScaler` with a real
  :class:`~repro.obs.tracer.Tracer` attached, asserting each replayed
  decision matches the recorded vectorized one
  (:class:`FleetParityError` otherwise).  The output is the full
  scalar-equivalent event trace for one ``(tenant, interval)`` — and the
  parity assertion doubles as a standing correctness oracle for the
  vectorized engine.
* :func:`fleet_metrics_registry` — the aggregate
  :class:`~repro.obs.metrics.MetricsRegistry` the fleet *would* have
  produced had every tenant run on the scalar path with a
  DECISION-level tracer.  Exactly equals the
  :func:`~repro.obs.exporters.merge_snapshots` of the per-tenant scalar
  registries (property-tested).
* :class:`FleetHealthMonitor` / :func:`fleet_report` — rolling SLO
  aggregates per interval (throttling percentiles, budget-exhaustion /
  oscillation / resize-failure / safe-mode rates) with
  threshold-crossing events, rendered into a deterministic JSON or
  markdown report by the ``repro fleet report`` CLI.

Determinism: columns derive only from decide_batch inputs and state —
no wall time — so stores, explains, reports, and the ``fleet_steady``
golden trace are byte-stable across hosts.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.autoscaler import AutoScaler, ScalingDecision
from repro.core.budget import SPEND_BUCKETS, BudgetManager, BurstStrategy
from repro.core.damper import OscillationDamper
from repro.core.demand_estimator import STEP_BUCKETS
from repro.core.latency import LatencyGoal, LatencyMetric, PerformanceSensitivity
from repro.core.thresholds import ThresholdConfig
from repro.engine.containers import ContainerCatalog, ContainerSpec
from repro.engine.resources import ResourceVector, SCALABLE_KINDS
from repro.engine.telemetry import IntervalCounters
from repro.engine.waits import RESOURCE_WAIT_CLASS, WaitClass, WaitProfile
from repro.errors import ReproError
from repro.fleet.vectorized import (
    K,
    RULE_NAMES,
    VectorizedAutoScaler,
    synthesize_fleet_telemetry,
)
from repro.obs.events import EventKind, TraceEvent, TraceLevel, json_safe
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer, events_to_jsonl

__all__ = [
    "FleetParityError",
    "FleetTraceRecorder",
    "FleetTraceStore",
    "ExplainResult",
    "explain",
    "fleet_metrics_registry",
    "FleetSloThresholds",
    "FleetHealthMonitor",
    "fleet_report",
    "render_markdown",
    "record_synthetic_fleet",
]


class FleetParityError(ReproError):
    """A scalar replay disagreed with the recorded vectorized decision.

    Raised by :func:`explain` — this is the correctness oracle firing:
    either the store is corrupt/mismatched, or the vectorized engine has
    diverged from the scalar reference.
    """


#: Columns with one float per tenant per interval, shape (I, T).
_FLOAT_TENANT_COLUMNS = (
    "latency_ms",
    "memory_used_gb",
    "disk_physical_reads",
    "billed_cost",
    "tokens",
    "spent",
    "balloon_limit_gb",
)
#: Columns with one float per resource per tenant, shape (I, K, T).
_FLOAT_RESOURCE_COLUMNS = ("util_pct", "wait_ms", "wait_pct")
#: Boolean masks, shape (I, T), in the scalar decision-path order.
_MASK_COLUMNS = (
    "resized",
    "needs_help",
    "wants_up",
    "hold_help",
    "up_clipped",
    "probe_started",
    "shrink",
    "suppressed",
    "budget_forced",
    "tripped",
    "balloon_aborted",
    "balloon_confirmed",
    "clamp_zero",
    "clamp_depth",
)
#: Optional reconstruction-aux columns (present when aux was captured).
_AUX_TENANT_COLUMNS = ("lock_ms", "system_ms", "start_s", "end_s")


class FleetTraceStore:
    """The columnar trace of one vectorized fleet run.

    Attributes:
        config: run configuration (catalog rows, thresholds JSON, goal,
            ablation switches, damper parameters, initial budget state)
            — everything :func:`explain` needs to rebuild a
            scalar-equivalent tenant.
        arrays: the columns, keyed by name; interval-major shapes
            ``(I,)``, ``(I, T)`` or ``(I, K, T)``.
        actions: per-interval tuples of per-tenant ordered action-kind
            lists, or None when the run had ``record_actions=False``.
    """

    def __init__(
        self,
        config: dict,
        arrays: dict[str, np.ndarray],
        actions: tuple[tuple[tuple[str, ...], ...], ...] | None = None,
    ) -> None:
        self.config = config
        self.arrays = arrays
        self.actions = actions

    @property
    def n_intervals(self) -> int:
        return int(self.arrays["latency_ms"].shape[0])

    @property
    def n_tenants(self) -> int:
        return int(self.arrays["latency_ms"].shape[1])

    @property
    def has_aux(self) -> bool:
        return "util_frac" in self.arrays

    # -- config rehydration ------------------------------------------------

    def catalog(self) -> ContainerCatalog:
        specs = [
            ContainerSpec(
                name=row[0],
                level=int(row[1]),
                resources=ResourceVector(
                    cpu=float(row[2]),
                    memory=float(row[3]),
                    disk_io=float(row[4]),
                    log_io=float(row[5]),
                ),
                cost=float(row[6]),
            )
            for row in self.config["catalog"]
        ]
        return ContainerCatalog(specs)

    def thresholds(self) -> ThresholdConfig:
        return ThresholdConfig.from_json(self.config["thresholds_json"])

    def goal(self) -> LatencyGoal | None:
        raw = self.config["goal"]
        if raw is None:
            return None
        return LatencyGoal(
            target_ms=float(raw["target_ms"]),
            metric=LatencyMetric(raw["metric"]),
        )

    def damper(self) -> OscillationDamper | None:
        raw = self.config["damper"]
        if raw is None:
            return None
        return OscillationDamper(
            window=int(raw["window"]),
            max_reversals=int(raw["max_reversals"]),
            cooldown_intervals=int(raw["cooldown_intervals"]),
        )

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist as a compressed ``.npz`` (config JSON rides inside)."""
        config = dict(self.config)
        config["actions"] = (
            None
            if self.actions is None
            else [[list(a) for a in row] for row in self.actions]
        )
        payload = dict(self.arrays)
        payload["__config__"] = np.array(
            json.dumps(config, sort_keys=True)
        )
        np.savez_compressed(Path(path), **payload)

    @classmethod
    def load(cls, path: str | Path) -> "FleetTraceStore":
        with np.load(Path(path), allow_pickle=False) as npz:
            config = json.loads(str(npz["__config__"]))
            arrays = {
                name: npz[name] for name in npz.files if name != "__config__"
            }
        raw_actions = config.pop("actions", None)
        actions = (
            None
            if raw_actions is None
            else tuple(
                tuple(tuple(a) for a in row) for row in raw_actions
            )
        )
        return cls(config=config, arrays=arrays, actions=actions)


#: Per-interval columns the fleet SLO inputs derive from, in
#: :func:`_observe_health` argument order.
_HEALTH_COLUMNS = (
    "wait_ms", "clamp_zero", "budget_forced", "suppressed", "tripped"
)


def _observe_health(
    monitor: "FleetHealthMonitor",
    interval: int,
    wait_ms,
    clamp_zero,
    budget_forced,
    suppressed,
    tripped,
) -> None:
    """Feed one interval's columns to ``monitor`` as SLO inputs.

    The live recorder and :func:`fleet_report` both go through here, so
    a report re-derived from a store equals the live monitor's summary.
    """
    wait_ms = np.asarray(wait_ms, dtype=float)
    never = np.zeros(wait_ms.shape[1], dtype=bool)
    monitor.observe(
        interval,
        throttling_ms=wait_ms.sum(axis=0),
        budget_exhausted=clamp_zero | budget_forced,
        resize_failed=never,
        oscillating=suppressed | tripped,
        safe_mode=never,
    )


def _rules_fired(rules) -> dict[str, int]:
    """Nonzero fire counts per rule id, sorted by id."""
    counts = np.bincount(np.asarray(rules).ravel(), minlength=len(RULE_NAMES))
    fired = {
        str(RULE_NAMES[code]): int(count)
        for code, count in enumerate(counts)
        if code > 0 and count > 0
    }
    return dict(sorted(fired.items()))


class FleetTraceRecorder:
    """Columnar per-interval recorder for a :class:`VectorizedAutoScaler`.

    Attach with ``scaler.attach_recorder(recorder)`` *before* the first
    ``decide_batch``; each interval then lands as one set of columns.
    The hot-path cost is a few array copies — no per-tenant Python
    objects.  With a tracer and a :class:`FleetHealthMonitor` attached,
    the live gate allows a 1000-tenant sweep 10 % overhead, which it
    does not meet yet (DESIGN.md §7.4 gives the reading).

    Args:
        tracer: optional tracer receiving one aggregate-only
            ``FLEET_INTERVAL`` event per interval (O(1) payload,
            never O(tenants)).
        health: optional :class:`FleetHealthMonitor` fed per-interval
            SLO inputs derived from the columns.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        health: "FleetHealthMonitor | None" = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.health = health
        self._scaler: VectorizedAutoScaler | None = None
        self._config: dict | None = None
        self._staged_aux: dict | None = None
        self._columns: dict[str, list[np.ndarray]] = {}
        self._t: list[float] = []
        self._actions: list[tuple[tuple[str, ...], ...]] | None = None
        self._n_levels = 0
        self._finished = False

    # -- wiring ------------------------------------------------------------

    def bind(self, scaler: VectorizedAutoScaler) -> None:
        """Capture the run configuration and pre-first-interval state."""
        if self._scaler is not None:
            raise ValueError("recorder is already bound to a scaler")
        self._scaler = scaler
        levels = [
            scaler.catalog.at_level(i)
            for i in range(scaler.catalog.num_levels)
        ]
        self._n_levels = len(levels)
        damper = scaler._damper
        goal = scaler.goal
        self._config = {
            "catalog": [
                [
                    c.name,
                    c.level,
                    c.resources.cpu,
                    c.resources.memory,
                    c.resources.disk_io,
                    c.resources.log_io,
                    c.cost,
                ]
                for c in levels
            ],
            "thresholds_json": scaler.thresholds.to_json(),
            "goal": (
                None
                if goal is None
                else {"target_ms": goal.target_ms, "metric": goal.metric.value}
            ),
            "sensitivity": scaler.sensitivity.value,
            "use_waits": scaler.use_waits,
            "use_trends": scaler.use_trends,
            "use_correlation": scaler.use_correlation,
            "use_ballooning": scaler.use_ballooning,
            "damper": (
                None
                if damper is None
                else {
                    "window": damper.window,
                    "max_reversals": damper.max_reversals,
                    "cooldown_intervals": damper.cooldown_intervals,
                }
            ),
            "record_actions": scaler._record_actions,
        }
        # Initial per-tenant state the drill-down replay starts from.
        self._initial = {
            "init_level": scaler.level.copy(),
            "budget0_tokens": scaler._tokens.copy(),
            "budget0_depth": scaler._depth.copy(),
            "budget0_fill": scaler._fill.copy(),
            "budget0_period_n": scaler._period_n.copy(),
            "budget0_interval_i": scaler._interval_i.copy(),
            "budget0_spent": scaler._spent.copy(),
        }
        if scaler._record_actions:
            self._actions = []

    def stage_aux(self, aux: dict) -> None:
        """Stage the next interval's reconstruction-aux arrays.

        Called by the replay/record driver *before* ``decide_batch``.
        The utilization fractions, lock/system waits and completions land
        as columns :func:`explain` needs for byte-exact counter rebuilds.
        """
        self._staged_aux = aux

    # -- the per-interval hook (called from decide_batch) ------------------

    def record_interval(self, **payload) -> None:
        if self._scaler is None:
            raise ValueError("recorder was never bound to a scaler")
        cols = self._columns

        def push(name: str, value: np.ndarray) -> None:
            cols.setdefault(name, []).append(np.array(value, copy=True))

        self._t.append(float(payload["t"]))
        for name in _FLOAT_TENANT_COLUMNS:
            push(name, payload[name])
        for name in _FLOAT_RESOURCE_COLUMNS:
            push(name, payload[name])
        push("level_before", payload["level_before"])
        push("level_after", payload["level_after"])
        push("steps", payload["steps"])
        push("rules", payload["rules"])
        for name in _MASK_COLUMNS:
            push(name, payload[name])
        if self._actions is not None:
            self._actions.append(payload["actions"])

        aux = self._staged_aux
        self._staged_aux = None
        if aux is not None:
            push("util_frac", aux["util_frac"])
            push("completions", aux["completions"])
            for name in _AUX_TENANT_COLUMNS:
                push(name, aux[name])

        interval = int(payload["t"])
        if self.health is not None:
            _observe_health(
                self.health, interval, *(payload[k] for k in _HEALTH_COLUMNS)
            )
        if self.tracer.enabled:
            self._emit_interval_event(interval, payload)

    def _emit_interval_event(self, interval: int, payload: dict) -> None:
        """One aggregate-only FLEET_INTERVAL event (never O(tenants))."""
        rules = np.asarray(payload["rules"])
        level_hist = np.bincount(
            np.asarray(payload["level_after"]), minlength=self._n_levels
        )
        self.tracer.set_interval(interval)
        self.tracer.emit(
            "fleet",
            EventKind.FLEET_INTERVAL,
            tenants=int(rules.shape[-1]),
            resizes=int(np.count_nonzero(payload["resized"])),
            scale_ups=int(np.count_nonzero(payload["wants_up"])),
            holds=int(np.count_nonzero(payload["hold_help"])),
            probes_started=int(np.count_nonzero(payload["probe_started"])),
            shrinks=int(np.count_nonzero(payload["shrink"])),
            balloon_aborts=int(np.count_nonzero(payload["balloon_aborted"])),
            balloon_confirms=int(
                np.count_nonzero(payload["balloon_confirmed"])
            ),
            suppressed=int(np.count_nonzero(payload["suppressed"])),
            tripped=int(np.count_nonzero(payload["tripped"])),
            budget_forced=int(np.count_nonzero(payload["budget_forced"])),
            up_clipped=int(np.count_nonzero(payload["up_clipped"])),
            budget_clamp_zero=int(np.count_nonzero(payload["clamp_zero"])),
            budget_clamp_depth=int(np.count_nonzero(payload["clamp_depth"])),
            tokens_total=float(np.sum(payload["tokens"])),
            spent_total=float(np.sum(payload["spent"])),
            rules_fired=_rules_fired(rules),
            level_histogram=[int(v) for v in level_hist],
        )

    # -- materialization ---------------------------------------------------

    def finish(self) -> FleetTraceStore:
        """Stack the per-interval columns into a :class:`FleetTraceStore`."""
        if self._scaler is None or self._config is None:
            raise ValueError("recorder was never bound to a scaler")
        if not self._t:
            raise ValueError("recorder saw no intervals")
        arrays: dict[str, np.ndarray] = {
            "t": np.array(self._t, dtype=float)
        }
        for name, chunks in self._columns.items():
            arrays[name] = np.stack(chunks)
        arrays.update(
            {name: value.copy() for name, value in self._initial.items()}
        )
        actions = None
        if self._actions is not None:
            actions = tuple(self._actions)
        return FleetTraceStore(
            config=dict(self._config), arrays=arrays, actions=actions
        )


# -- per-tenant drill-down ----------------------------------------------------


@dataclass(frozen=True)
class ExplainResult:
    """The scalar-equivalent trace for one ``(tenant, interval)``.

    Attributes:
        tenant / interval: the drill-down coordinates.
        events: the scalar tracer's events for that interval, in seq
            order — byte-identical (via :attr:`jsonl`) to what a scalar
            run over the same telemetry would have recorded.
        decision: the replayed scalar decision for the interval.
        intervals_replayed: prefix length replayed (and parity-checked)
            to reach the requested interval.
    """

    tenant: int
    interval: int
    events: tuple[TraceEvent, ...]
    decision: ScalingDecision
    intervals_replayed: int

    @property
    def jsonl(self) -> str:
        return events_to_jsonl(self.events)


def _rebuild_budget(store: FleetTraceStore, tenant: int) -> BudgetManager:
    """A BudgetManager resumed at the tenant's recorded initial state.

    Built without ``__init__``: the stored state *is* the configured
    bucket, and the decide path only reads the private token-bucket
    fields plus ``n_intervals`` (``exhausted_period``).  The
    constructor-only shaping fields are set to inert placeholders —
    they are read again only by ``start_new_period``, which a replay
    never calls.
    """
    manager = object.__new__(BudgetManager)
    manager.budget = 0.0
    manager.n_intervals = int(store.arrays["budget0_period_n"][tenant])
    manager.min_cost = 0.0
    manager.max_cost = 0.0
    manager.strategy = BurstStrategy.AGGRESSIVE
    manager.conservative_k = 1
    manager._depth = float(store.arrays["budget0_depth"][tenant])
    manager._fill_rate = float(store.arrays["budget0_fill"][tenant])
    manager._tokens = float(store.arrays["budget0_tokens"][tenant])
    manager._interval = int(store.arrays["budget0_interval_i"][tenant])
    manager._spent = float(store.arrays["budget0_spent"][tenant])
    manager._refunded = 0.0
    manager.tracer = NULL_TRACER
    return manager


def _rebuild_counters(
    store: FleetTraceStore,
    catalog: ContainerCatalog,
    costs: np.ndarray,
    tenant: int,
    interval: int,
) -> IntervalCounters:
    """Bit-exact IntervalCounters for one recorded (tenant, interval).

    Latency collapses to the recorded per-interval reduction — a
    singleton sample reproduces it exactly under both goal metrics (the
    mean and p95 of one value are that value).  Utilization fractions
    and the six wait classes come from the aux columns when captured,
    and from the percent columns otherwise (fraction = pct/100, exact up
    to one rounding that the parity oracle guards).
    """
    arrays = store.arrays
    billed = float(arrays["billed_cost"][interval, tenant])
    idx = int(np.searchsorted(costs, billed))
    if idx >= costs.size or costs[idx] != billed:
        raise FleetParityError(
            f"billed cost {billed!r} at interval {interval} matches no "
            "catalog container; cannot rebuild tenant counters"
        )
    container = catalog.at_level(idx)

    latency = float(arrays["latency_ms"][interval, tenant])
    latencies = (
        np.array([latency]) if np.isfinite(latency) else np.empty(0)
    )

    if store.has_aux:
        fractions = arrays["util_frac"][interval, :, tenant]
    else:
        fractions = arrays["util_pct"][interval, :, tenant] / 100.0
    utilization = {
        kind: float(fractions[k]) for k, kind in enumerate(SCALABLE_KINDS)
    }

    waits = WaitProfile()
    wait_row = arrays["wait_ms"][interval, :, tenant]
    for k, kind in enumerate(SCALABLE_KINDS):
        waits.add(RESOURCE_WAIT_CLASS[kind], float(wait_row[k]))
    if store.has_aux:
        waits.add(WaitClass.LOCK, float(arrays["lock_ms"][interval, tenant]))
        waits.add(
            WaitClass.SYSTEM, float(arrays["system_ms"][interval, tenant])
        )

    if store.has_aux:
        completions = int(arrays["completions"][interval, tenant])
        start_s = float(arrays["start_s"][interval, tenant])
        end_s = float(arrays["end_s"][interval, tenant])
    else:
        completions = int(latencies.size)
        start_s = interval * 60.0
        end_s = (interval + 1) * 60.0

    return IntervalCounters(
        interval_index=int(arrays["t"][interval]),
        start_s=start_s,
        end_s=end_s,
        container=container,
        latencies_ms=latencies,
        arrivals=completions,
        completions=completions,
        rejected=0,
        utilization_median=utilization,
        utilization_mean=dict(utilization),
        waits=waits,
        memory_used_gb=float(arrays["memory_used_gb"][interval, tenant]),
        disk_physical_reads=float(
            arrays["disk_physical_reads"][interval, tenant]
        ),
    )


def _check_parity(
    store: FleetTraceStore,
    tenant: int,
    interval: int,
    decision: ScalingDecision,
) -> None:
    arrays = store.arrays

    def fail(field: str, recorded, replayed) -> None:
        raise FleetParityError(
            f"tenant {tenant} interval {interval}: scalar replay disagrees "
            f"with the recorded vectorized decision on {field}: "
            f"recorded {recorded!r}, replayed {replayed!r}"
        )

    recorded_level = int(arrays["level_after"][interval, tenant])
    if decision.container.level != recorded_level:
        fail("container level", recorded_level, decision.container.level)
    recorded_resized = bool(arrays["resized"][interval, tenant])
    if decision.resized != recorded_resized:
        fail("resized", recorded_resized, decision.resized)
    recorded_limit = float(arrays["balloon_limit_gb"][interval, tenant])
    replayed_limit = decision.balloon_limit_gb
    if np.isnan(recorded_limit):
        if replayed_limit is not None:
            fail("balloon_limit_gb", None, replayed_limit)
    elif replayed_limit is None or replayed_limit != recorded_limit:
        fail("balloon_limit_gb", recorded_limit, replayed_limit)
    if decision.demand is not None:
        for k, kind in enumerate(SCALABLE_KINDS):
            demand = decision.demand.demand(kind)
            recorded_steps = int(arrays["steps"][interval, k, tenant])
            if demand.steps != recorded_steps:
                fail(f"{kind.value} steps", recorded_steps, demand.steps)
            recorded_rule = RULE_NAMES[int(arrays["rules"][interval, k, tenant])]
            if demand.rule_id != recorded_rule:
                fail(f"{kind.value} rule", recorded_rule, demand.rule_id)
    if store.actions is not None:
        recorded_actions = tuple(store.actions[interval][tenant])
        replayed_actions = tuple(
            e.action.value for e in decision.explanations
        )
        if replayed_actions != recorded_actions:
            fail("actions", recorded_actions, replayed_actions)


def explain(
    store: FleetTraceStore,
    tenant: int,
    interval: int,
    *,
    level: TraceLevel = TraceLevel.DEBUG,
) -> ExplainResult:
    """Reconstruct one tenant's scalar-equivalent decision trace.

    Replays the tenant's recorded telemetry from interval 0 through
    ``interval`` through a fresh scalar :class:`AutoScaler` carrying a
    real :class:`Tracer`, so sequence numbers, decision ids, and every
    event payload match what a scalar run over the same stream would
    have emitted — the returned events are the requested interval's
    slice, byte-comparable via :attr:`ExplainResult.jsonl`.

    Every replayed interval is parity-checked against the recorded
    vectorized decision (level, resized, balloon limit, per-resource
    steps and rules, and — when recorded — the ordered action list);
    any disagreement raises :class:`FleetParityError`.
    """
    if not 0 <= tenant < store.n_tenants:
        raise IndexError(
            f"tenant {tenant} outside the recorded fleet "
            f"(0..{store.n_tenants - 1})"
        )
    if not 0 <= interval < store.n_intervals:
        raise IndexError(
            f"interval {interval} outside the recorded run "
            f"(0..{store.n_intervals - 1})"
        )
    catalog = store.catalog()
    costs = np.array(
        [catalog.at_level(i).cost for i in range(catalog.num_levels)]
    )
    tracer = Tracer(
        run_id=f"explain-t{tenant}",
        level=level,
        capacity=max(65536, 64 * (interval + 2)),
    )
    scaler = AutoScaler(
        catalog,
        initial_container=catalog.at_level(
            int(store.arrays["init_level"][tenant])
        ),
        goal=store.goal(),
        budget=_rebuild_budget(store, tenant),
        thresholds=store.thresholds(),
        sensitivity=PerformanceSensitivity(store.config["sensitivity"]),
        use_waits=store.config["use_waits"],
        use_trends=store.config["use_trends"],
        use_correlation=store.config["use_correlation"],
        use_ballooning=store.config["use_ballooning"],
        damper=store.damper(),
        tracer=tracer,
    )
    decision: ScalingDecision | None = None
    for j in range(interval + 1):
        counters = _rebuild_counters(store, catalog, costs, tenant, j)
        decision = scaler.decide(counters)
        _check_parity(store, tenant, j, decision)
    assert decision is not None
    target = int(store.arrays["t"][interval])
    return ExplainResult(
        tenant=tenant,
        interval=interval,
        events=tuple(tracer.events(interval=target)),
        decision=decision,
        intervals_replayed=interval + 1,
    )


# -- fleet-aggregate metrics --------------------------------------------------


def _histogram_from_values(
    registry: MetricsRegistry,
    name: str,
    boundaries: tuple[float, ...],
    values: np.ndarray,
) -> None:
    """Populate one fixed-boundary histogram from an array in bulk."""
    hist = registry.histogram(name, boundaries)
    values = np.asarray(values, dtype=float).ravel()
    slots = np.searchsorted(np.asarray(boundaries), values, side="left")
    counts = np.bincount(slots, minlength=len(boundaries) + 1)
    hist.counts = [int(v) for v in counts]
    hist.count = int(values.size)
    hist.total = float(values.sum())


def fleet_metrics_registry(store: FleetTraceStore) -> MetricsRegistry:
    """The fleet-aggregate registry equivalent to per-tenant scalar runs.

    Produces exactly the counters and histograms a DECISION-level
    :class:`Tracer` accumulates on the scalar path, summed over the
    fleet — the property suite pins this to
    :func:`~repro.obs.exporters.merge_snapshots` of the per-tenant
    snapshots.  (DEBUG-only telemetry/signal events never reach the
    metrics registry at DECISION level, so they are rightly absent.)
    """
    arrays = store.arrays
    n_cells = store.n_intervals * store.n_tenants
    registry = MetricsRegistry()

    def bump(name: str, amount: int) -> None:
        if amount:
            registry.counter(name).inc(float(amount))

    rules = np.asarray(arrays["rules"])
    bump("events.scaler.decision", n_cells)
    bump(
        "events.scaler.resize-applied",
        int(np.count_nonzero(arrays["resized"])),
    )
    bump("events.estimator.estimate", n_cells)
    bump("events.estimator.rule-fired", int(np.count_nonzero(rules)))
    bump("events.budget.budget-check", n_cells)
    bump("events.budget.budget-spend", n_cells)
    bump("events.budget.budget-fill", n_cells)
    bump(
        "events.budget.budget-clamp",
        int(np.count_nonzero(arrays["clamp_zero"]))
        + int(np.count_nonzero(arrays["clamp_depth"])),
    )
    bump(
        "events.balloon.balloon",
        int(np.count_nonzero(arrays["balloon_aborted"]))
        + int(np.count_nonzero(arrays["balloon_confirmed"]))
        + int(np.count_nonzero(arrays["probe_started"])),
    )
    bump(
        "events.damper.damper",
        int(np.count_nonzero(arrays["suppressed"]))
        + int(np.count_nonzero(arrays["tripped"])),
    )
    for rule, count in _rules_fired(rules).items():
        registry.counter(f"estimator.rule.{rule}").inc(float(count))
    _histogram_from_values(
        registry, "estimator.steps", STEP_BUCKETS, arrays["steps"]
    )
    _histogram_from_values(
        registry, "budget.spend_cost", SPEND_BUCKETS, arrays["billed_cost"]
    )
    return registry


# -- fleet health -------------------------------------------------------------


@dataclass(frozen=True)
class FleetSloThresholds:
    """Crossing thresholds for the rolling fleet SLO aggregates."""

    throttling_p95_ms: float = 30000.0
    budget_exhausted_rate: float = 0.25
    resize_failure_rate: float = 0.05
    oscillation_rate: float = 0.25
    safe_mode_rate: float = 0.01


#: (summary metric, threshold attribute) pairs the monitor watches.
_WATCHED_METRICS = (
    ("throttling_p95_ms", "throttling_p95_ms"),
    ("budget_exhausted_rate", "budget_exhausted_rate"),
    ("resize_failure_rate", "resize_failure_rate"),
    ("oscillation_rate", "oscillation_rate"),
    ("safe_mode_rate", "safe_mode_rate"),
)


class FleetHealthMonitor:
    """Rolling fleet SLO aggregates with threshold-crossing events.

    Each interval, :meth:`observe` reduces per-tenant inputs to fleet
    aggregates (throttling percentiles and population rates), folds them
    into per-metric rolling windows, and emits one ``FLEET_HEALTH``
    event whenever a rolling mean crosses its threshold in either
    direction (``"above"`` on breach, ``"below"`` on recovery).
    """

    def __init__(
        self,
        window: int = 8,
        thresholds: FleetSloThresholds | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.thresholds = thresholds or FleetSloThresholds()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rolling: dict[str, deque] = {
            metric: deque(maxlen=window) for metric, _ in _WATCHED_METRICS
        }
        self._above: dict[str, bool] = {
            metric: False for metric, _ in _WATCHED_METRICS
        }
        self.history: list[dict] = []
        self.crossings: list[dict] = []

    def observe(
        self,
        interval: int,
        throttling_ms: np.ndarray,
        budget_exhausted: np.ndarray,
        resize_failed: np.ndarray,
        oscillating: np.ndarray,
        safe_mode: np.ndarray,
    ) -> dict:
        """Fold one interval's per-tenant inputs; returns the snapshot."""
        throttling_ms = np.asarray(throttling_ms, dtype=float)
        p50, p95, p99 = (
            float(v) for v in np.percentile(throttling_ms, [50.0, 95.0, 99.0])
        )
        snapshot = {
            "interval": int(interval),
            "throttling_p50_ms": p50,
            "throttling_p95_ms": p95,
            "throttling_p99_ms": p99,
            "budget_exhausted_rate": float(np.mean(budget_exhausted)),
            "resize_failure_rate": float(np.mean(resize_failed)),
            "oscillation_rate": float(np.mean(oscillating)),
            "safe_mode_rate": float(np.mean(safe_mode)),
        }
        rolling = {}
        for metric, attr in _WATCHED_METRICS:
            series = self._rolling[metric]
            series.append(snapshot[metric])
            value = float(np.mean(series))
            rolling[metric] = value
            threshold = getattr(self.thresholds, attr)
            above = value > threshold
            if above != self._above[metric]:
                self._above[metric] = above
                crossing = {
                    "interval": int(interval),
                    "metric": metric,
                    "direction": "above" if above else "below",
                    "value": value,
                    "threshold": threshold,
                }
                self.crossings.append(crossing)
                self.tracer.emit(
                    "fleet",
                    EventKind.FLEET_HEALTH,
                    interval=int(interval),
                    metric=metric,
                    direction=crossing["direction"],
                    value=value,
                    threshold=threshold,
                )
        snapshot["rolling"] = rolling
        self.history.append(snapshot)
        return snapshot

    def summary(self) -> dict:
        """Aggregate view for reports: last snapshot plus crossing log."""
        return {
            "window": self.window,
            "intervals": len(self.history),
            "thresholds": {
                attr: getattr(self.thresholds, attr)
                for _, attr in _WATCHED_METRICS
            },
            "last": self.history[-1] if self.history else None,
            "crossings": list(self.crossings),
        }


# -- reports ------------------------------------------------------------------


def fleet_report(store: FleetTraceStore) -> dict:
    """A deterministic JSON-ready summary of one recorded fleet run.

    Re-derives the SLO aggregates from the columns with a default
    :class:`FleetHealthMonitor` (8-interval window, default
    :class:`FleetSloThresholds`), so a store saved without a live
    monitor still reports health, then rolls up the decision, budget,
    balloon, and damper columns fleet wide.
    """
    arrays = store.arrays
    monitor = FleetHealthMonitor()
    for j in range(store.n_intervals):
        _observe_health(
            monitor,
            int(arrays["t"][j]),
            *(arrays[k][j] for k in _HEALTH_COLUMNS),
        )
    catalog_rows = store.config["catalog"]
    final_levels = np.asarray(arrays["level_after"][-1])
    level_hist = np.bincount(final_levels, minlength=len(catalog_rows))
    report = {
        "fleet": {
            "n_tenants": store.n_tenants,
            "n_intervals": store.n_intervals,
            "catalog_levels": len(catalog_rows),
            "goal": store.config["goal"],
            "sensitivity": store.config["sensitivity"],
            "ablations": {
                "use_waits": store.config["use_waits"],
                "use_trends": store.config["use_trends"],
                "use_correlation": store.config["use_correlation"],
                "use_ballooning": store.config["use_ballooning"],
            },
            "damped": store.config["damper"] is not None,
        },
        "decisions": {
            "resizes": int(np.count_nonzero(arrays["resized"])),
            "scale_ups": int(np.count_nonzero(arrays["wants_up"])),
            "scale_downs": int(np.count_nonzero(arrays["shrink"])),
            "holds": int(np.count_nonzero(arrays["hold_help"])),
            "rules_fired": _rules_fired(arrays["rules"]),
            "final_level_histogram": [int(v) for v in level_hist],
        },
        "budget": {
            "total_spent": float(arrays["spent"][-1].sum()),
            "tokens_remaining": float(arrays["tokens"][-1].sum()),
            "clamp_zero": int(np.count_nonzero(arrays["clamp_zero"])),
            "clamp_depth": int(np.count_nonzero(arrays["clamp_depth"])),
            "budget_forced": int(np.count_nonzero(arrays["budget_forced"])),
            "up_clipped": int(np.count_nonzero(arrays["up_clipped"])),
        },
        "balloon": {
            "probes_started": int(
                np.count_nonzero(arrays["probe_started"])
            ),
            "aborted_or_cancelled": int(
                np.count_nonzero(arrays["balloon_aborted"])
            ),
            "confirmed": int(
                np.count_nonzero(arrays["balloon_confirmed"])
            ),
        },
        "damper": {
            "suppressed": int(np.count_nonzero(arrays["suppressed"])),
            "tripped": int(np.count_nonzero(arrays["tripped"])),
        },
        "health": monitor.summary(),
    }
    return json_safe(report)


def render_markdown(report: dict) -> str:
    """Render a :func:`fleet_report` dict as a human-readable summary."""
    fleet = report["fleet"]
    decisions = report["decisions"]
    budget = report["budget"]
    health = report["health"]
    lines = [
        "# Fleet report",
        "",
        f"- tenants: {fleet['n_tenants']}",
        f"- intervals: {fleet['n_intervals']}",
        f"- goal: {fleet['goal']}",
        f"- sensitivity: {fleet['sensitivity']}",
        "",
        "## Decisions",
        "",
        f"- resizes: {decisions['resizes']}",
        f"- scale-ups: {decisions['scale_ups']}",
        f"- scale-downs: {decisions['scale_downs']}",
        f"- explained holds: {decisions['holds']}",
        f"- final level histogram: {decisions['final_level_histogram']}",
        "",
        "### Rules fired",
        "",
    ]
    if decisions["rules_fired"]:
        lines.extend(
            f"- `{rule}`: {count}"
            for rule, count in decisions["rules_fired"].items()
        )
    else:
        lines.append("- (none)")
    lines.extend(
        [
            "",
            "## Budget",
            "",
            f"- total spent: {budget['total_spent']}",
            f"- tokens remaining: {budget['tokens_remaining']}",
            f"- forced downgrades: {budget['budget_forced']}",
            f"- clamps (zero/depth): "
            f"{budget['clamp_zero']}/{budget['clamp_depth']}",
            "",
            "## Balloon / damper",
            "",
            f"- probes started: {report['balloon']['probes_started']}",
            f"- aborted or cancelled: "
            f"{report['balloon']['aborted_or_cancelled']}",
            f"- confirmed: {report['balloon']['confirmed']}",
            f"- damper suppressed/tripped: "
            f"{report['damper']['suppressed']}/{report['damper']['tripped']}",
            "",
            "## Health",
            "",
            f"- intervals observed: {health['intervals']}",
            f"- threshold crossings: {len(health['crossings'])}",
        ]
    )
    for crossing in health["crossings"]:
        lines.append(
            f"  - interval {crossing['interval']}: {crossing['metric']} "
            f"{crossing['direction']} {crossing['threshold']} "
            f"(value {crossing['value']})"
        )
    return "\n".join(lines) + "\n"


# -- seeded synthetic recording (CLI / golden scenario) -----------------------


def record_synthetic_fleet(
    n_tenants: int,
    n_intervals: int,
    seed: int = 7,
    *,
    goal_ms: float | None = 100.0,
    tracer: Tracer | None = None,
    health: FleetHealthMonitor | None = None,
) -> FleetTraceStore:
    """Run a seeded synthetic vectorized sweep under the recorder.

    The deterministic entry point behind ``repro fleet report`` and the
    ``fleet_steady`` golden scenario: open-loop
    :func:`~repro.fleet.vectorized.synthesize_fleet_telemetry` streams
    (the closed-loop ``run_synthetic_sweep`` does not use them), with the
    columnar pipeline (and optionally a tracer plus health monitor)
    attached.  The engine runs the default catalog
    and thresholds, records per-tenant action lists, and the recorder
    captures the auxiliary columns the drill-down replay needs.
    """
    from repro.engine.containers import default_catalog

    data = synthesize_fleet_telemetry(n_tenants, n_intervals, seed)
    goal = LatencyGoal(goal_ms) if goal_ms is not None else None
    scaler = VectorizedAutoScaler(default_catalog(), n_tenants, goal=goal)
    recorder = FleetTraceRecorder(tracer=tracer, health=health)
    scaler.attach_recorder(recorder)
    for i in range(n_intervals):
        completions = np.isfinite(data.latency_ms[i]).astype(np.int64)
        recorder.stage_aux(
            {
                "util_frac": data.util_pct[i] / 100.0,
                "lock_ms": data.lock_wait_ms[i],
                "system_ms": data.system_wait_ms[i],
                "completions": completions,
                "start_s": np.full(n_tenants, i * 60.0),
                "end_s": np.full(n_tenants, (i + 1) * 60.0),
            }
        )
        scaler.decide_batch(
            float(i),
            data.latency_ms[i],
            data.util_pct[i],
            data.wait_ms[i],
            data.wait_pct[i],
            data.memory_used_gb[i],
            data.disk_physical_reads[i],
        )
    return recorder.finish()
