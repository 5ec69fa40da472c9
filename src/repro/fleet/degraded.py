"""Vectorized degraded-mode fleet path: guards, safe mode, and the
circuit breaker as struct-of-arrays ops.

The healthy vectorized engine (:mod:`repro.fleet.vectorized`) covers the
lock-step fleet sweep; under fault injection tenants fall out of step —
deliveries drop, arrive late or twice, carry corrupt counters or skewed
clocks, and resizes fail.  The scalar control plane handles all of that
with per-tenant objects (:class:`~repro.core.telemetry_guard.TelemetryGuard`,
:class:`~repro.core.resize_executor.ResizeExecutor`); this module runs the
*same* degraded control loop for the whole fleet at once:

* :class:`DegradedVectorizedAutoScaler` — guard admission verdicts,
  safe-mode gating, the refund drain, and the resize executor's retry /
  backoff / circuit-breaker state, all as ``(T,)`` numpy arrays.  The
  rest is the healthy engine's: the per-row telemetry rings and the
  observe helper that feeds them, the ledger charge, and the decision
  body (balloon, scaling, damper, budget enforcement), run over each
  wave's row mask.
* **Waves** — one billing interval delivers 0..3 counters per tenant
  (held + fresh + duplicate).  :meth:`decide_wave` consumes one delivery
  *wave*: a boolean ``present`` mask plus per-tenant field arrays.  Each
  wave is the vectorized form of one ``AutoScaler.decide`` call per
  participating tenant, so per-tenant decision order is preserved.
* :func:`repro.faults.vectorized.compile_schedules` turns the per-tenant
  :class:`~repro.faults.schedule.FaultSchedule` s into ``(T, I)`` masks
  that :class:`MaskedFaultDataPlane` applies at the fleet's telemetry /
  actuation boundary — the scalar :class:`~repro.faults.chaos.FaultyServer`
  semantics (priority order, held buffers, per-interval transient
  budgets, corruption-mode RNG streams) reproduced over arrays of
  engines.

Byte-identity contract: driven by :func:`run_fleet_chaos` with the same
workload / trace / schedule / seeds, the fleet path reproduces ``N``
independent scalar :func:`~repro.harness.chaos.run_chaos` runs exactly —
container levels, action lists, guard verdict tallies and reason strings,
circuit states, the budget ledger including refunds, damper cooldowns,
and safe-mode flags.  Held by ``tests/test_fleet_degraded_parity.py``
across every fault kind, all config axes, and randomized seeded
schedules.

A tenant whose scalar twin would *raise* (budget exhaustion) is marked
dead instead of aborting the fleet: its state freezes at the raise point
(exactly where the scalar run stopped mutating) and the formatted error
is reported per tenant, as :func:`~repro.fleet.chaos.chaos_sweep` does.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.budget import BudgetManager
from repro.core.damper import OscillationDamper
from repro.core.explanations import ActionKind
from repro.core.latency import LatencyGoal
from repro.core.resize_executor import ResizeExecutor
from repro.core.telemetry_guard import TelemetryGuard
from repro.engine.containers import ContainerCatalog
from repro.engine.server import DatabaseServer
from repro.engine.telemetry import IntervalCounters
from repro.errors import (
    ActuationError,
    ConfigurationError,
    PermanentActuationError,
    TransientActuationError,
)
from repro.faults.schedule import FaultSchedule
from repro.faults.vectorized import (
    N_CORRUPTION_MODES,
    CompiledFaultMasks,
    compile_schedules,
    corrupt_counters,
)
from repro.fleet.vectorized import (
    _B_COOLDOWN,
    _B_PROBING,
    _INTERVAL_FIELDS,
    K,
    VectorizedAutoScaler,
    _checked_arrays,
    _counter_fields,
    estimate_fleet,  # noqa: F401 - kept importable here; perfbench wraps it
)
from repro.harness.experiment import ExperimentConfig
from repro.workloads.base import Workload
from repro.workloads.loadgen import LoadGenerator
from repro.workloads.traces import Trace

__all__ = [
    "CIRCUIT_CODES",
    "WaveDecisions",
    "FleetActuationReports",
    "DegradedVectorizedAutoScaler",
    "MaskedFaultDataPlane",
    "FleetChaosResult",
    "run_fleet_chaos",
    "fleet_chaos_sweep",
    "DegradedSyntheticFleet",
]

# Circuit-breaker codes (integer mirror of CircuitState, in
# CIRCUIT_CODES order: codes index into the tuple).
_C_CLOSED, _C_OPEN, _C_HALF = 0, 1, 2
CIRCUIT_CODES = ("closed", "open", "half-open")

#: The executor settings a fleet chooses; its backoff schedule and the
#: guard's tunables are the scalar defaults, so checkpoints omit them.
_EXECUTOR_OPTIONS = ("max_attempts", "failure_threshold", "open_intervals")

#: Per-row degraded arrays on the checkpoint wire: (section, key, attribute).
_DEGRADED_ARRAYS = (
    ("guard", "expected", "_g_expected"),
    ("guard", "last_end_s", "_g_last_end"),
    ("guard", "admitted", "g_admitted"),
    ("guard", "admitted_late", "g_admitted_late"),
    ("guard", "quarantined", "g_quarantined"),
    ("guard", "discarded", "g_discarded"),
    ("guard", "missed", "g_missed"),
    ("guard", "consecutive", "g_consecutive"),
    (None, "safe_mode", "_safe"),
    (None, "pending_refund", "_pending_refund"),
    (None, "refunded", "_refunded"),
    ("executor", "state", "_x_state"),
    ("executor", "consecutive_failures", "_x_consec"),
    ("executor", "open_left", "_x_open_left"),
    ("executor", "total_attempts", "x_total_attempts"),
    ("executor", "total_failures", "x_total_failures"),
    ("executor", "total_refunds", "x_total_refunds"),
    ("executor", "circuit_opens", "x_circuit_opens"),
    (None, "dead", "_dead"),
)


class WaveDecisions(NamedTuple):
    """One delivery wave's fleet decisions.

    ``participants`` marks rows that completed a decision this wave (a
    delivery or, on wave 0, a telemetry gap); ``died`` marks rows whose
    scalar twin would have raised mid-decide.  ``level`` / ``resized`` /
    ``balloon_limit_gb`` cover the whole fleet (non-participants simply
    keep their previous values); ``actions`` is per-tenant ordered
    action-kind values, ``None`` for non-participants.
    """

    participants: np.ndarray  # (T,) bool
    level: np.ndarray  # (T,) int64
    resized: np.ndarray  # (T,) bool
    balloon_limit_gb: np.ndarray  # (T,) float
    actions: tuple | None
    died: np.ndarray  # (T,) bool


class FleetActuationReports(NamedTuple):
    """One interval's fleet actuation, mirroring ``ActuationReport``.

    ``circuit`` holds post-execute breaker codes (see
    :data:`CIRCUIT_CODES`); ``explanations`` is per-tenant ordered
    ``(action_value, reason)`` pairs, ``None`` for dead rows.
    """

    participants: np.ndarray  # (T,) bool
    requested_level: np.ndarray  # (T,) int64
    applied_level: np.ndarray  # (T,) int64
    attempts: np.ndarray  # (T,) int64
    backoff_ms: np.ndarray  # (T,) float
    succeeded: np.ndarray  # (T,) bool
    refund_scheduled: np.ndarray  # (T,) float
    circuit: np.ndarray  # (T,) int8
    explanations: tuple


class DegradedVectorizedAutoScaler(VectorizedAutoScaler):
    """The degraded-mode control plane as struct-of-arrays state.

    Extends the healthy engine with the per-tenant state the scalar path
    keeps in ``TelemetryGuard`` / ``AutoScaler`` safe mode /
    ``ResizeExecutor``:

    * guard sequencing (``expected_next`` with -1 as the scalar's None,
      missing-interval sets, last admitted end timestamp) and tallies;
    * safe-mode flags and reasons;
    * the pending-refund ledger (the scalar holds at most one pending
      refund between settlements — passive decisions, the only
      no-settle intervals, request the current container and therefore
      never schedule one — so a single float per tenant is exact);
    * circuit-breaker state, retry tallies, and one backoff-jitter RNG
      stream per tenant (``ResizeExecutor``'s own seeds).

    Drive it with :meth:`decide_wave` (one call per delivery wave, plus
    the wave-0 gap mask) and :meth:`execute_interval` (once per billing
    interval).  Both engines share the telemetry rings, the observe
    helper, the ledger charge and the decision body; the healthy entry
    points :meth:`decide_batch` and :meth:`attach_recorder` raise here.

    The guard's tunables and the executor's backoff schedule are the
    scalar :class:`TelemetryGuard` and :class:`ResizeExecutor` defaults;
    ``max_attempts``, ``failure_threshold`` and ``open_intervals`` are
    validated by the scalar executor itself.
    """

    def __init__(
        self,
        catalog: ContainerCatalog,
        n_tenants: int,
        *,
        executor_seeds: int | Sequence[int] = 0,
        max_attempts: int = 3,
        failure_threshold: int = 3,
        open_intervals: int = 10,
        record_guard_reasons: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(catalog, n_tenants, **kwargs)
        # One source of truth with the scalar path, as for the balloon
        # tunables: reference objects that are read, never driven.
        self._guard = TelemetryGuard()
        self._executor = ResizeExecutor(
            None,
            None,
            max_attempts=max_attempts,
            failure_threshold=failure_threshold,
            open_intervals=open_intervals,
        )
        self._record_guard_reasons = record_guard_reasons
        self._g_expected = np.full(n_tenants, -1, dtype=np.int64)  # -1 = None
        self._g_last_end = np.full(n_tenants, np.nan)  # NaN = None
        self._g_missing: list[set[int]] = [set() for _ in range(n_tenants)]
        self.g_admitted = np.zeros(n_tenants, dtype=np.int64)
        self.g_admitted_late = np.zeros(n_tenants, dtype=np.int64)
        self.g_quarantined = np.zeros(n_tenants, dtype=np.int64)
        self.g_discarded = np.zeros(n_tenants, dtype=np.int64)
        self.g_missed = np.zeros(n_tenants, dtype=np.int64)
        self.g_consecutive = np.zeros(n_tenants, dtype=np.int64)
        self._g_reasons: list[list[str]] = [[] for _ in range(n_tenants)]

        self._safe = np.zeros(n_tenants, dtype=bool)
        self._safe_reason: list[str] = ["" for _ in range(n_tenants)]

        self._pending_refund = np.zeros(n_tenants)
        self._refunded = np.zeros(n_tenants)

        if isinstance(executor_seeds, (int, np.integer)):
            seeds = [int(executor_seeds)] * n_tenants
        else:
            seeds = [int(s) for s in executor_seeds]
            if len(seeds) != n_tenants:
                raise ConfigurationError(
                    f"need {n_tenants} executor seeds, got {len(seeds)}"
                )
        self._x_rngs = [np.random.default_rng(s) for s in seeds]
        self._x_state = np.zeros(n_tenants, dtype=np.int8)  # _C_CLOSED
        self._x_consec = np.zeros(n_tenants, dtype=np.int64)
        self._x_open_left = np.zeros(n_tenants, dtype=np.int64)
        self.x_total_attempts = np.zeros(n_tenants, dtype=np.int64)
        self.x_total_failures = np.zeros(n_tenants, dtype=np.int64)
        self.x_total_refunds = np.zeros(n_tenants)
        self.x_circuit_opens = np.zeros(n_tenants, dtype=np.int64)

        self._dead = np.zeros(n_tenants, dtype=bool)
        self._dead_error: list[str | None] = [None] * n_tenants

    # -- convenience views -------------------------------------------------

    @property
    def safe_mode(self) -> np.ndarray:
        return self._safe

    @property
    def dead(self) -> np.ndarray:
        return self._dead

    def dead_error(self, tenant: int) -> str | None:
        return self._dead_error[tenant]

    @property
    def budget_spent(self) -> np.ndarray:
        return self._spent

    @property
    def budget_refunded(self) -> np.ndarray:
        return self._refunded

    def telemetry_degraded(self) -> np.ndarray:
        return self.g_consecutive >= self._guard.degraded_after

    # -- the healthy entry points do not apply -----------------------------

    def decide_batch(self, *args, **kwargs):
        """Refused: lock-step input would bypass the guard and ledger."""
        raise ConfigurationError(
            "the degraded engine is driven by decide_wave(); decide_batch() "
            "would bypass its telemetry guard and refund ledger"
        )

    def attach_recorder(self, recorder) -> None:
        """Refused: waves do not feed a columnar trace recorder."""
        raise ConfigurationError(
            "decide_wave() does not record intervals; attach_recorder() is "
            "only supported on the healthy VectorizedAutoScaler"
        )

    # -- the wave loop -----------------------------------------------------

    def decide_wave(
        self,
        *,
        present: np.ndarray,
        index: np.ndarray,
        start_s: np.ndarray,
        end_s: np.ndarray,
        anomalous: np.ndarray,
        anomaly_reasons: Sequence,
        latency_ms: np.ndarray,
        util_pct: np.ndarray,
        wait_ms: np.ndarray,
        wait_pct: np.ndarray,
        memory_used_gb: np.ndarray,
        disk_physical_reads: np.ndarray,
        billed_cost: np.ndarray,
        gap: np.ndarray | None = None,
    ) -> WaveDecisions:
        """Consume one delivery wave; the vectorized ``decide`` per row.

        ``present`` marks rows with a delivery this wave; ``gap`` (wave 0
        only) marks rows whose interval passed with no delivery at all
        (the scalar ``decide_missing``).  Field arrays are full-width
        ``(T,)`` / ``(K, T)``; non-present rows' values are ignored.
        ``index`` / ``start_s`` / ``end_s`` / ``anomalous`` /
        ``anomaly_reasons`` describe each delivery as the scalar guard
        would see it (``counters.interval_index`` / timestamps /
        ``counters.anomalies()``); ``anomaly_reasons`` is indexed by row
        and read only for anomalous rows, and only when guard reasons
        are recorded.  ``billed_cost`` is each delivery's
        ``counters.container.cost``.
        """
        n = self.n_tenants
        was_dead = self._dead.copy()
        present = np.asarray(present, dtype=bool) & ~was_dead
        if gap is None:
            gap = np.zeros(n, dtype=bool)
        gap = np.asarray(gap, dtype=bool) & ~was_dead
        index = np.asarray(index, dtype=np.int64)
        start_s = np.asarray(start_s, dtype=float)
        end_s = np.asarray(end_s, dtype=float)
        anomalous = np.asarray(anomalous, dtype=bool)
        latency_ms = np.asarray(latency_ms, dtype=float)
        util_pct = np.asarray(util_pct, dtype=float)
        wait_ms = np.asarray(wait_ms, dtype=float)
        wait_pct = np.asarray(wait_pct, dtype=float)
        memory_used_gb = np.asarray(memory_used_gb, dtype=float)
        disk_reads = np.asarray(disk_physical_reads, dtype=float)

        # -- guard classification (one verdict per present row) ------------
        exp = self._g_expected
        has_exp = exp >= 0
        stale = present & anomalous & has_exp & (index < exp)
        quar_anom = present & anomalous & ~stale
        clean = present & ~anomalous
        admit_first = clean & ~has_exp
        old = clean & has_exp & (index < exp)
        late = np.zeros(n, dtype=bool)
        dup = np.zeros(n, dtype=bool)
        for r in np.flatnonzero(old):
            if int(index[r]) in self._g_missing[r]:
                late[r] = True
            else:
                dup[r] = True
        fresh = clean & has_exp & (index >= exp)
        with np.errstate(invalid="ignore"):
            skewed = (
                fresh
                & ~np.isnan(self._g_last_end)
                & (start_s < self._g_last_end - 1e-6)
            )
        admit_gap = fresh & ~skewed
        admit = admit_first | admit_gap
        missed = np.where(admit_gap, index - exp, 0)
        quarantine = quar_anom | skewed
        discard = stale | dup

        # The guard's reason strings, built only when they are kept.
        if self._record_guard_reasons:
            kept = self._g_reasons
            for r in np.flatnonzero(stale):
                kept[r].append(f"stale corrupt delivery for interval {int(index[r])}")
                kept[r].extend(anomaly_reasons[r])
            for r in np.flatnonzero(dup):
                kept[r].append(f"duplicate delivery for interval {int(index[r])}")
            for r in np.flatnonzero(quar_anom):
                kept[r].extend(anomaly_reasons[r])
            for r in np.flatnonzero(skewed):
                kept[r].append(
                    f"clock skew: interval {int(index[r])} starts at "
                    f"{start_s[r]:g}s, before the previous interval ended "
                    f"({self._g_last_end[r]:g}s)"
                )

        # -- guard state updates -------------------------------------------
        self.g_discarded[discard] += 1
        for r in np.flatnonzero(late):
            self._g_missing[r].discard(int(index[r]))
        self.g_admitted_late[late] += 1
        advance = quarantine & (~has_exp | (index >= exp))
        self._g_expected[advance] = index[advance] + 1
        self.g_quarantined[quarantine] += 1
        self.g_consecutive[quarantine] += 1
        for r in np.flatnonzero(admit_gap & (missed > 0)):
            for gap_index in range(int(exp[r]), int(index[r])):
                self._remember_missing(r, gap_index)
        self._g_expected[admit] = index[admit] + 1
        self._g_last_end[admit] = end_s[admit]
        self.g_admitted[admit] += 1
        self.g_missed[admit] += missed[admit]
        self.g_consecutive[admit] = 0
        gap_tracked = gap & has_exp
        for r in np.flatnonzero(gap_tracked):
            self._remember_missing(r, int(exp[r]))
        self._g_expected[gap_tracked] += 1
        self.g_missed[gap] += 1
        self.g_consecutive[gap] += 1

        # -- budget settlement, in scalar decide order ---------------------
        # ADMIT first pays the believed cost for each missed interval, then
        # observes, then pays the delivery's billed cost; QUARANTINE / GAP
        # pay the believed cost (the degraded decision); DISCARD / LATE
        # are passive (no ledger movement).
        believed = self._costs[self.level]
        k = 0
        while True:
            m = admit & (missed > k)
            if not np.any(m):
                break
            self._settle_rows(m, believed)
            k += 1

        self._observe(
            np.flatnonzero(late | (admit & ~self._dead)),
            index.astype(float),
            latency_ms,
            util_pct,
            wait_ms,
            wait_pct,
            disk_reads,
        )

        self._settle_rows(admit, np.asarray(billed_cost, dtype=float))
        self._settle_rows(quarantine | gap, believed)

        # -- decision bodies -----------------------------------------------
        alive = ~self._dead
        quar_alive = quarantine & alive
        gap_alive = gap & alive
        safe_admit = admit & alive & self._safe
        full = admit & alive & ~self._safe
        # Degraded and safe-mode decisions hold the container (subject to
        # the budget) and advance only the balloon's COOLDOWN clock.
        held = quar_alive | gap_alive | safe_admit
        self._tick_balloon_cooldown(held & (self._b_phase == _B_COOLDOWN))

        signals = self.telemetry.signals_rows(np.flatnonzero(full))
        participants = (present | gap) & alive
        decided = self._decide(
            signals,
            self._estimate(signals),
            util_pct,
            disk_reads,
            memory_used_gb,
            rows=full,
            held=held,
            prefix=[
                (ActionKind.TELEMETRY_DISCARDED.value, discard),
                (ActionKind.TELEMETRY_LATE.value, late),
                (ActionKind.TELEMETRY_QUARANTINED.value, quar_alive),
                (ActionKind.TELEMETRY_GAP.value, gap_alive),
                (
                    ActionKind.SAFE_MODE.value,
                    ((quar_alive | gap_alive) & self._safe) | safe_admit,
                ),
            ],
            participants=participants,
        )
        died = self._dead & ~was_dead

        c = self.metrics.counter
        for name, mask in (
            ("fleet.guard.admitted", admit),
            ("fleet.guard.admitted_late", late),
            ("fleet.guard.quarantined", quarantine),
            ("fleet.guard.discarded", discard),
            ("fleet.guard.missing", gap),
        ):
            count = int(np.count_nonzero(mask))
            if count:
                c(name).inc(float(count))
        n_died = int(np.count_nonzero(died))
        if n_died:
            c("fleet.tenants_died").inc(float(n_died))

        return WaveDecisions(
            participants=participants,
            level=self.level.copy(),
            resized=decided["resized"],
            balloon_limit_gb=self.balloon_limit_gb.copy(),
            actions=decided["actions"],
            died=died,
        )

    # -- wave helpers ------------------------------------------------------

    def _remember_missing(self, r: int, index: int) -> None:
        missing = self._g_missing[r]
        missing.add(index)
        while len(missing) > self._guard.max_tracked_gaps:
            missing.discard(min(missing))

    def _settle_rows(self, mask: np.ndarray, cost: np.ndarray) -> None:
        """Refund drain, then the shared ledger charge, for the masked rows.

        Mirrors the scalar ``AutoScaler._settle_budget``: pending refunds
        are credited first (and stick even if the charge then fails).
        """
        mask = mask & ~self._dead
        if not np.any(mask):
            return
        drain = mask & (self._pending_refund > 0)
        if np.any(drain):
            amount = self._pending_refund[drain]
            credited = (
                np.minimum(self._tokens[drain] + amount, self._depth[drain])
                - self._tokens[drain]
            )
            self._tokens[drain] += credited
            self._spent[drain] = np.maximum(self._spent[drain] - credited, 0.0)
            self._refunded[drain] += credited
            self._pending_refund[drain] = 0.0
        self._charge(cost, mask)

    def _refuse_charge(
        self, finished: np.ndarray, unaffordable: np.ndarray, cost: np.ndarray
    ) -> None:
        """Kill each refused row with its scalar twin's error message."""
        self._dead |= finished | unaffordable
        for r in np.flatnonzero(finished):
            self._dead_error[r] = "BudgetError: budgeting period already finished"
        for r in np.flatnonzero(unaffordable):
            self._dead_error[r] = (
                f"BudgetError: cost {cost[r]} exceeds available budget "
                f"{self._tokens[r]:.2f}"
            )

    # -- actuation ---------------------------------------------------------

    def execute_interval(self, actuator) -> FleetActuationReports:
        """One interval's fleet actuation: ``ResizeExecutor.execute`` per row.

        ``actuator`` supplies ``current_levels() -> (T,) int64``,
        ``current_level(r) -> int``, ``try_resize(r, level)`` (raising
        the actuation errors), and ``set_balloon_limits(limits, active)
        -> (T,) bool`` (NaN clears a cap; returns the rows whose cap was
        rejected).
        """
        n = self.n_tenants
        alive = ~self._dead
        self.action_counts["intervals"] += 1
        requested = self.level.copy()
        # The decision's balloon cap, captured before any adoption below
        # cancels the scaler-side probe (the scalar executor applies the
        # decision's value, not the post-adoption scaler state).
        limits = self.balloon_limit_gb.copy()
        current = np.asarray(actuator.current_levels(), dtype=np.int64).copy()
        attempts = np.zeros(n, dtype=np.int64)
        backoff = np.zeros(n)
        succeeded = np.zeros(n, dtype=bool)
        refunds = np.zeros(n)
        applied = current.copy()
        # Ordered (action, reason) pairs, kept only for rows that have one.
        explained: dict[int, list[tuple[str, str]]] = {}

        opened = alive & (self._x_state == _C_OPEN)
        if np.any(opened):
            self._x_open_left[opened] -= 1
            to_half = opened & (self._x_open_left <= 0)
            if np.any(to_half):
                self._x_state[to_half] = _C_HALF
                self._safe[to_half] = False
                for r in np.flatnonzero(to_half):
                    self._safe_reason[r] = ""
            mismatch = opened & (requested != current)
            for r in np.flatnonzero(mismatch):
                refunds[r] = self._schedule_refund_row(
                    r, int(requested[r]), int(current[r])
                )
                explained.setdefault(r, []).append(
                    (
                        ActionKind.SAFE_MODE.value,
                        f"circuit open ({max(int(self._x_open_left[r]), 0)} "
                        f"interval(s) left): resize "
                        f"{self._names[current[r]]} -> "
                        f"{self._names[requested[r]]} not attempted",
                    )
                )
                self._adopt_level(r, int(current[r]))
            succeeded[opened] = requested[opened] == current[opened]

        noop = alive & ~opened & (requested == current)
        succeeded[noop] = True

        resize = alive & ~opened & (requested != current)
        for r in np.flatnonzero(resize):
            req_lvl = int(requested[r])
            cur_lvl = int(current[r])
            att = 0
            error: Exception | None = None
            backoff_ms = 0.0
            while att < self._executor.max_attempts:
                att += 1
                self.x_total_attempts[r] += 1
                try:
                    actuator.try_resize(r, req_lvl)
                    error = None
                    break
                except TransientActuationError as exc:
                    error = exc
                    if att < self._executor.max_attempts:
                        backoff_ms += self._backoff_row(r, att)
                except PermanentActuationError as exc:
                    error = exc
                    break
            attempts[r] = att
            backoff[r] = backoff_ms
            app_lvl = int(actuator.current_level(r))
            applied[r] = app_lvl
            if error is None and app_lvl == req_lvl:
                succeeded[r] = True
                self._x_consec[r] = 0
                if self._x_state[r] == _C_HALF:
                    self._x_state[r] = _C_CLOSED
            else:
                self.x_total_failures[r] += 1
                refunds[r] = self._schedule_refund_row(r, req_lvl, app_lvl)
                if error is not None:
                    reason = (
                        f"resize {self._names[cur_lvl]} -> "
                        f"{self._names[req_lvl]} failed after {att} "
                        f"attempt(s) ({type(error).__name__}: {error}); "
                        f"running {self._names[app_lvl]}"
                    )
                else:
                    reason = (
                        f"resize {self._names[cur_lvl]} -> "
                        f"{self._names[req_lvl]} applied partially: "
                        f"running {self._names[app_lvl]}"
                    )
                notes = explained.setdefault(r, [])
                notes.append((ActionKind.ACTUATION_FAILED.value, reason))
                if app_lvl != int(self.level[r]):
                    self._adopt_level(r, app_lvl)
                self._on_failure_row(r, notes)

        # The balloon cap is applied every interval, even under an open
        # circuit or a no-op resize (the scalar always calls
        # _apply_balloon), and its failure can re-open an open breaker.
        for r in np.flatnonzero(actuator.set_balloon_limits(limits, alive)):
            notes = explained.setdefault(r, [])
            notes.append(
                (
                    ActionKind.ACTUATION_FAILED.value,
                    f"balloon adjustment failed "
                    f"({_balloon_rejection(limits[r])}); probe cancelled",
                )
            )
            # notify_balloon_actuation_failed: cancel the probe but keep
            # the scale-down streak.
            self._cancel_probe(r)
            self.x_total_failures[r] += 1
            self._on_failure_row(r, notes)

        explanations: list = [()] * n
        for r in np.flatnonzero(~alive):
            explanations[r] = None
        for r, notes in explained.items():
            explanations[r] = tuple(notes)
        return FleetActuationReports(
            participants=alive,
            requested_level=requested,
            applied_level=applied,
            attempts=attempts,
            backoff_ms=backoff,
            succeeded=succeeded & alive,
            refund_scheduled=refunds,
            circuit=self._x_state.copy(),
            explanations=tuple(explanations),
        )

    def _adopt_level(self, r: int, level: int) -> None:
        """``notify_actuation``: adopt ground truth, cancel stale probes."""
        self.level[r] = level
        self._on_resize(r)

    def _schedule_refund_row(self, r: int, requested: int, applied: int) -> float:
        extra = float(self._costs[applied] - self._costs[requested])
        if extra <= 0.0:
            return 0.0
        self._pending_refund[r] += extra
        self.x_total_refunds[r] += extra
        return extra

    def _backoff_row(self, r: int, attempt: int) -> float:
        x = self._executor
        base = x.backoff_base_ms * x.backoff_factor ** (attempt - 1)
        if x.jitter == 0.0:
            return base  # deterministic path draws nothing from the RNG
        return float(base * (1.0 + self._x_rngs[r].uniform(-x.jitter, x.jitter)))

    def _on_failure_row(
        self, r: int, explanations: list[tuple[str, str]]
    ) -> None:
        self._x_consec[r] += 1
        half_open_failed = self._x_state[r] == _C_HALF
        if not (
            half_open_failed or self._x_consec[r] >= self._executor.failure_threshold
        ):
            return
        reason = (
            "trial resize failed while half-open"
            if half_open_failed
            else f"{int(self._x_consec[r])} consecutive actuation failures"
        )
        self._x_state[r] = _C_OPEN
        self._x_open_left[r] = self._executor.open_intervals
        self.x_circuit_opens[r] += 1
        explanations.append(
            (
                ActionKind.SAFE_MODE.value,
                f"circuit breaker opened ({reason}); holding the current "
                f"container for {self._executor.open_intervals} interval(s)",
            )
        )
        self.metrics.counter("fleet.circuit_opens").inc()
        # enter_safe_mode: cancel a live probe, always reset the streak.
        self._safe[r] = True
        self._safe_reason[r] = reason
        if self._b_phase[r] == _B_PROBING:
            self._cancel_probe(r)
        self._low_streak[r] = 0

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        x = self._executor
        degraded = {
            "guard": {
                "missing": [sorted(s) for s in self._g_missing],
                "reasons": [list(r) for r in self._g_reasons],
            },
            "safe_reasons": list(self._safe_reason),
            "executor": {
                **{option: getattr(x, option) for option in _EXECUTOR_OPTIONS},
                "rng_states": [g.bit_generator.state for g in self._x_rngs],
            },
            "dead_errors": list(self._dead_error),
        }
        for section, key, attr in _DEGRADED_ARRAYS:
            part = degraded[section] if section else degraded
            part[key] = getattr(self, attr).copy()
        state["degraded"] = degraded
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a degraded engine built with the same configuration.

        The guard, ledger and executor columns are checked before the
        base engine loads, and nothing is assigned until every check has
        passed.
        """
        degraded = state["degraded"]
        guard, executor = degraded["guard"], degraded["executor"]
        config = {option: int(executor[option]) for option in _EXECUTOR_OPTIONS}
        live = {option: getattr(self._executor, option) for option in _EXECUTOR_OPTIONS}
        if config != live:
            raise ConfigurationError(
                f"executor configuration mismatch: checkpoint has "
                f"{config}, live executor has {live}"
            )
        arrays = _checked_arrays(
            self,
            {
                attr: (degraded[section] if section else degraded)[key]
                for section, key, attr in _DEGRADED_ARRAYS
            },
        )
        rows = {
            "missing": guard["missing"],
            "reasons": guard["reasons"],
            "safe_reasons": degraded["safe_reasons"],
            "rng_states": executor["rng_states"],
            "dead_errors": degraded["dead_errors"],
        }
        for name, values in rows.items():
            if len(values) != self.n_tenants:
                raise ConfigurationError(
                    f"fleet checkpoint {name!r} has {len(values)} rows, "
                    f"expected {self.n_tenants}"
                )
        rngs = []
        for raw in executor["rng_states"]:
            gen = np.random.default_rng(0)
            gen.bit_generator.state = raw
            rngs.append(gen)
        super().load_state_dict(state)
        for attr, value in arrays.items():
            setattr(self, attr, value)
        self._g_missing = [{int(i) for i in row} for row in guard["missing"]]
        self._g_reasons = [[str(r) for r in row] for row in guard["reasons"]]
        self._safe_reason = [str(r) for r in degraded["safe_reasons"]]
        self._x_rngs = rngs
        self._dead_error = [
            None if e is None else str(e) for e in degraded["dead_errors"]
        ]


# -- the fault boundary: compiled masks over an array of engines --------------


class MaskedFaultDataPlane:
    """Fault injection at the fleet boundary, driven by compiled masks.

    The scalar path wraps each engine in a
    :class:`~repro.faults.chaos.FaultyServer`; here one object owns the
    whole fleet's engines and a :class:`CompiledFaultMasks`, applying the
    same perturbations (same priority order, held-delivery buffers,
    per-interval transient budgets, corruption RNG streams) column by
    column.  Interval indexes count ``run_interval_rows`` calls, exactly
    like the scalar wrapper counts ``run_interval*`` calls.
    """

    def __init__(
        self,
        servers: Sequence[DatabaseServer],
        masks: CompiledFaultMasks,
        catalog: ContainerCatalog,
        corrupt_seeds: Sequence[int],
    ) -> None:
        n = len(servers)
        if masks.n_tenants != n or len(corrupt_seeds) != n:
            raise ConfigurationError(
                f"data plane needs matching servers/masks/seeds, got "
                f"{n}/{masks.n_tenants}/{len(corrupt_seeds)}"
            )
        self.servers = list(servers)
        self.masks = masks
        self.catalog = catalog
        self._rngs = [np.random.default_rng(s) for s in corrupt_seeds]
        self._index = -1
        self._held: list[list[IntervalCounters]] = [[] for _ in range(n)]
        self._transient_left = np.zeros(n, dtype=np.int64)
        self.dropped = np.zeros(n, dtype=np.int64)
        self.delayed = np.zeros(n, dtype=np.int64)
        self.duplicated = np.zeros(n, dtype=np.int64)
        self.corrupted = np.zeros(n, dtype=np.int64)
        self.skewed = np.zeros(n, dtype=np.int64)
        self.failed_resizes = np.zeros(n, dtype=np.int64)
        self.partial_resizes = np.zeros(n, dtype=np.int64)
        self.failed_balloons = np.zeros(n, dtype=np.int64)

    @property
    def interval_index(self) -> int:
        return self._index

    def run_interval_rows(
        self, rates_rows: Sequence[np.ndarray], active: np.ndarray
    ) -> list[list[IntervalCounters]]:
        """Run one interval on the ``active`` rows; deliveries per tenant."""
        self._index += 1
        i = self._index
        m = self.masks
        self._transient_left[:] = m.transient_magnitude[:, i]
        out: list[list[IntervalCounters]] = [[] for _ in self.servers]
        for r in np.flatnonzero(active):
            counters = self.servers[r].run_interval_with_rates(rates_rows[r])
            deliveries = self._held[r]
            self._held[r] = []
            if m.drop[r, i]:
                self.dropped[r] += 1
            elif m.late[r, i]:
                self.delayed[r] += 1
                self._held[r].append(counters)
            elif m.corrupt[r, i]:
                self.corrupted[r] += 1
                mode = int(self._rngs[r].integers(0, N_CORRUPTION_MODES))
                deliveries.append(corrupt_counters(counters, mode))
            elif m.skew[r, i]:
                self.skewed[r] += 1
                shift = m.skew_magnitude[r, i] * counters.duration_s
                deliveries.append(
                    dataclasses.replace(
                        counters,
                        start_s=counters.start_s - shift,
                        end_s=counters.end_s - shift,
                    )
                )
            else:
                deliveries.append(counters)
                if m.duplicate[r, i]:
                    self.duplicated[r] += 1
                    deliveries.append(counters)
            out[r] = deliveries
        return out

    # -- actuation surface (the executor's view) ---------------------------

    def current_levels(self) -> np.ndarray:
        return np.array(
            [s.container.level for s in self.servers], dtype=np.int64
        )

    def current_level(self, r: int) -> int:
        return self.servers[r].container.level

    def try_resize(self, r: int, level: int) -> None:
        current = self.servers[r].container.level
        name = self.catalog.at_level(level).name
        try:
            reached = _faulty_resize(
                self.masks, self._transient_left, r, self._index, current, level, name
            )
        except ActuationError:
            self.failed_resizes[r] += 1
            raise
        if reached != level:
            self.partial_resizes[r] += 1
            if reached == current:
                return  # A one-level resize that stalls "one short" does not move.
        self.servers[r].set_container(self.catalog.at_level(reached))

    def set_balloon_limits(
        self, limits: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Cap every ``active`` server at ``limits`` (NaN clears the cap).

        Returns the rows whose cap the broker rejected; those servers
        keep their previous cap, as ``FaultyServer`` leaves them.
        """
        failed = (
            active & ~np.isnan(limits) & self.masks.balloon_fail[:, self._index]
        )
        self.failed_balloons += failed
        for r in np.flatnonzero(active & ~failed):
            limit = limits[r]
            self.servers[r].set_balloon_limit(
                None if np.isnan(limit) else float(limit)
            )
        return failed

    def set_balloon_limit(self, r: int, limit_gb: float | None) -> None:
        """One server's cap, raising as ``FaultyServer.set_balloon_limit``."""
        if limit_gb is not None and self.masks.balloon_fail[r, self._index]:
            self.failed_balloons[r] += 1
            raise TransientActuationError(_balloon_rejection(limit_gb))
        self.servers[r].set_balloon_limit(limit_gb)


def _faulty_resize(
    masks: CompiledFaultMasks,
    transient_left: np.ndarray,
    r: int,
    i: int,
    current: int,
    level: int,
    name: str,
) -> int:
    """``FaultyServer.set_container``'s fault chain for row ``r``, interval ``i``.

    A permanent rejection, then the interval's transient budget (both
    raise), then a partial stall one level short of ``level``.  Returns
    the level the resize reaches.
    """
    if masks.permanent[r, i]:
        raise PermanentActuationError(
            f"placement service rejected resize to {name}"
        )
    if transient_left[r] > 0:
        transient_left[r] -= 1
        raise TransientActuationError(
            f"placement service busy; resize to {name} not applied"
        )
    if masks.partial[r, i] and level != current:
        return level - (1 if level > current else -1)
    return level


def _balloon_rejection(limit_gb: float) -> str:
    return f"memory broker rejected balloon cap {float(limit_gb):g} GB"


# -- chaos drivers ------------------------------------------------------------


class FleetChaosResult(NamedTuple):
    """Everything a vectorized chaos run observed.

    ``containers`` holds the in-force level per tenant at the start of
    each measured interval; ``decided_levels`` the actuated decision's
    level (the scalar ``interval_decisions``); ``waves`` and ``reports``
    the per-interval wave decisions and actuation reports.
    """

    scaler: DegradedVectorizedAutoScaler
    plane: MaskedFaultDataPlane
    schedules: list[FaultSchedule]
    containers: list[np.ndarray]
    decided_levels: list[np.ndarray]
    waves: list[list[WaveDecisions]]
    reports: list[FleetActuationReports]

    def decision_trace(self, tenant: int) -> list[str]:
        names = self.scaler._names
        return [names[int(levels[tenant])] for levels in self.decided_levels]


def _delivery_wave_arrays(
    deliveries_rows: Sequence[Sequence[IntervalCounters]],
    wave: int,
    present: np.ndarray,
    goal: LatencyGoal | None,
) -> dict:
    """Extract one wave's decide_wave inputs from per-tenant deliveries.

    The decide fields come from the extractor
    :func:`repro.fleet.vectorized.counters_to_interval_arrays` uses;
    the guard-facing fields (interval index, timestamps, anomalies) are
    added here.
    """
    n = len(deliveries_rows)
    out = {
        "index": np.zeros(n, dtype=np.int64),
        "start_s": np.zeros(n),
        "end_s": np.zeros(n),
        "anomalous": np.zeros(n, dtype=bool),
        "anomaly_reasons": {},
        "latency_ms": np.full(n, np.nan),
        "util_pct": np.zeros((K, n)),
        "wait_ms": np.zeros((K, n)),
        "wait_pct": np.zeros((K, n)),
        "memory_used_gb": np.full(n, np.nan),
        "disk_physical_reads": np.full(n, np.nan),
        "billed_cost": np.zeros(n),
    }
    for r in np.flatnonzero(present):
        c = deliveries_rows[r][wave]
        out["index"][r] = c.interval_index
        out["start_s"][r] = c.start_s
        out["end_s"][r] = c.end_s
        found = c.anomalies()
        if found:
            out["anomalous"][r] = True
            out["anomaly_reasons"][r] = tuple(found)
        (
            out["latency_ms"][r],
            out["util_pct"][:, r],
            out["wait_ms"][:, r],
            out["wait_pct"][:, r],
        ) = _counter_fields(c, goal)
        out["memory_used_gb"][r] = c.memory_used_gb
        out["disk_physical_reads"][r] = c.disk_physical_reads
        out["billed_cost"][r] = c.container.cost
    return out


def _drive_interval(
    scaler: DegradedVectorizedAutoScaler,
    deliveries_rows: Sequence[Sequence[IntervalCounters]],
    goal: LatencyGoal | None,
) -> list[WaveDecisions]:
    """All delivery waves of one interval, in scalar decide order."""
    n = scaler.n_tenants
    counts = np.array([len(d) for d in deliveries_rows], dtype=np.int64)
    alive = ~scaler.dead
    gap = alive & (counts == 0)
    waves: list[WaveDecisions] = []
    max_waves = int(counts.max(initial=0))
    for wave in range(max(max_waves, 1)):
        present = (counts > wave) & ~scaler.dead
        if wave > 0 and not np.any(present):
            break
        arrays = _delivery_wave_arrays(deliveries_rows, wave, present, goal)
        waves.append(
            scaler.decide_wave(
                present=present,
                gap=gap if wave == 0 else None,
                **arrays,
            )
        )
    return waves


def run_fleet_chaos(
    workload: Workload,
    traces: Sequence[Trace],
    schedules: Sequence[FaultSchedule],
    *,
    config: ExperimentConfig | None = None,
    seeds: Sequence[int] | None = None,
    goal: LatencyGoal | None = None,
    budgets: Sequence[BudgetManager] | None = None,
    damper: OscillationDamper | None = None,
    scaler_kwargs: dict | None = None,
    executor_kwargs: dict | None = None,
) -> FleetChaosResult:
    """The vectorized :func:`~repro.harness.chaos.run_chaos` over a fleet.

    Per-tenant construction mirrors the scalar runner exactly: engine
    seed ``seeds[t]``, load-generator seed ``seeds[t] + 1``, corruption
    stream ``seeds[t] + 2``, executor jitter stream ``seeds[t] + 3``,
    the schedule shifted past the warm-up, and a default
    :class:`OscillationDamper` (the chaos path's scalar default).
    """
    config = config or ExperimentConfig()
    n = len(traces)
    if len(schedules) != n:
        raise ConfigurationError(
            f"need one schedule per trace, got {len(schedules)}/{n}"
        )
    if seeds is None:
        seeds = [config.seed] * n
    seeds = [int(s) for s in seeds]
    if len(seeds) != n:
        raise ConfigurationError(f"need {n} seeds, got {len(seeds)}")
    catalog = config.catalog
    warmup = config.warmup_intervals
    n_intervals = max(t.n_intervals for t in traces)

    scaler = DegradedVectorizedAutoScaler(
        catalog,
        n,
        goal=goal,
        budget=budgets,
        thresholds=config.thresholds,
        damper=damper or OscillationDamper(),
        executor_seeds=[s + 3 for s in seeds],
        **(executor_kwargs or {}),
        **(scaler_kwargs or {}),
    )
    servers = [
        DatabaseServer(
            specs=workload.specs,
            dataset=workload.dataset,
            container=catalog.at_level(0),
            config=dataclasses.replace(config.engine, seed=seeds[t]),
            n_hot_locks=workload.n_hot_locks,
        )
        for t in range(n)
    ]
    masks = compile_schedules(
        [s.shifted(warmup) for s in schedules], warmup + n_intervals
    )
    plane = MaskedFaultDataPlane(
        servers, masks, catalog, corrupt_seeds=[s + 2 for s in seeds]
    )
    loadgens = [
        LoadGenerator(
            traces[t],
            interval_ticks=config.engine.interval_ticks,
            seed=seeds[t] + 1,
        )
        for t in range(n)
    ]

    ticks = config.engine.interval_ticks
    warmup_rates = [
        np.full(ticks, max(float(tr.rates[0]), tr.mean)) for tr in traces
    ]
    for _ in range(warmup):
        deliveries = plane.run_interval_rows(warmup_rates, ~scaler.dead)
        _drive_interval(scaler, deliveries, goal)
        scaler.execute_interval(plane)

    containers: list[np.ndarray] = []
    decided: list[np.ndarray] = []
    all_waves: list[list[WaveDecisions]] = []
    reports: list[FleetActuationReports] = []
    for interval_index in range(n_intervals):
        alive = ~scaler.dead
        rates = [loadgens[t].interval_rates(interval_index) for t in range(n)]
        containers.append(plane.current_levels())
        deliveries = plane.run_interval_rows(rates, alive)
        all_waves.append(_drive_interval(scaler, deliveries, goal))
        decided.append(scaler.level.copy())
        reports.append(scaler.execute_interval(plane))
        scaler.metrics.counter("fleet.chaos.intervals").inc()

    return FleetChaosResult(
        scaler=scaler,
        plane=plane,
        schedules=list(schedules),
        containers=containers,
        decided_levels=decided,
        waves=all_waves,
        reports=reports,
    )


def fleet_chaos_sweep(
    n_tenants: int = 20,
    base_seed: int = 0,
    n_intervals: int = 24,
    n_faults: int = 5,
    interval_ticks: int = 15,
    warmup_intervals: int = 6,
    goal_ms: float | None = 150.0,
    budget_factor: float = 0.35,
    workload: Workload | None = None,
    metrics=None,
):
    """One vectorized sweep equal to ``n_tenants`` scalar chaos runs.

    Derives each tenant's trace, schedule, budget, and seeds exactly as
    :func:`repro.fleet.chaos.chaos_sweep` does (same RNG draw order), so
    the returned outcomes are byte-comparable with the scalar sweep's.
    """
    from repro.fleet.chaos import (
        ChaosSweepResult,
        TenantChaosOutcome,
        _record_sweep_metrics,
        _tenant_budget,
        _tenant_trace,
    )
    from repro.workloads import cpuio_workload

    workload = workload or cpuio_workload()
    config = ExperimentConfig(
        engine=dataclasses.replace(
            ExperimentConfig().engine, interval_ticks=interval_ticks
        ),
        warmup_intervals=warmup_intervals,
        seed=base_seed,
    )
    goal = LatencyGoal(goal_ms) if goal_ms is not None else None
    seeds, traces, schedules, budgets = [], [], [], []
    last = max(n_intervals - max(n_intervals // 4, 2) - 1, 0)
    for tenant in range(n_tenants):
        seed = base_seed + tenant
        seeds.append(seed)
        rng = np.random.default_rng(seed)
        traces.append(_tenant_trace(rng, tenant, n_intervals))
        schedules.append(
            FaultSchedule.random(
                seed=seed, n_intervals=n_intervals, n_faults=n_faults, last=last
            )
        )
        budgets.append(
            _tenant_budget(
                config, budget_factor, warmup_intervals + n_intervals + 2
            )
        )

    result = run_fleet_chaos(
        workload,
        traces,
        schedules,
        config=config,
        seeds=seeds,
        goal=goal,
        budgets=budgets,
    )
    scaler = result.scaler
    outcomes = []
    for t in range(n_tenants):
        error = scaler.dead_error(t)
        overdrawn = bool(
            scaler.budget_spent[t] > budgets[t].budget + 1e-6
            or scaler.budget_available[t] < -1e-9
        )
        healthy_run = error is None
        outcomes.append(
            TenantChaosOutcome(
                tenant_id=t,
                seed=seeds[t],
                schedule=schedules[t],
                error=error,
                budget_overdrawn=overdrawn,
                spent=float(scaler.budget_spent[t]),
                refunded=float(scaler.budget_refunded[t]),
                budget_total=budgets[t].budget,
                resize_failures=(
                    int(scaler.x_total_failures[t]) if healthy_run else 0
                ),
                circuit_opens=(
                    int(scaler.x_circuit_opens[t]) if healthy_run else 0
                ),
                quarantined=int(scaler.g_quarantined[t]) if healthy_run else 0,
                missed=int(scaler.g_missed[t]) if healthy_run else 0,
                discarded=int(scaler.g_discarded[t]) if healthy_run else 0,
                entered_safe_mode=(
                    healthy_run and int(scaler.x_circuit_opens[t]) > 0
                ),
            )
        )
    sweep = ChaosSweepResult(outcomes=outcomes)
    if metrics is not None:
        _record_sweep_metrics(metrics, sweep)
    return sweep


# -- synthetic degraded sweep (benchmark / 100k recipe) -----------------------


class _ArrayActuator:
    """A placement service over a plain level array (no engine).

    Applies the compiled actuation masks with
    :class:`~repro.faults.chaos.FaultyServer` semantics; used by the
    synthetic degraded benchmark where no engines exist.
    """

    def __init__(
        self,
        masks: CompiledFaultMasks,
        names: Sequence[str],
        initial_level: int = 0,
    ) -> None:
        n = masks.n_tenants
        self.masks = masks
        self.names = list(names)
        self.level = np.full(n, initial_level, dtype=np.int64)
        self.balloon_limit_gb = np.full(n, np.nan)
        self._index = -1
        self._transient_left = np.zeros(n, dtype=np.int64)

    def begin_interval(self) -> None:
        self._index += 1
        self._transient_left[:] = self.masks.transient_magnitude[:, self._index]

    def current_levels(self) -> np.ndarray:
        return self.level

    def current_level(self, r: int) -> int:
        return int(self.level[r])

    def try_resize(self, r: int, level: int) -> None:
        self.level[r] = _faulty_resize(
            self.masks,
            self._transient_left,
            r,
            self._index,
            int(self.level[r]),
            level,
            self.names[level],
        )

    def set_balloon_limits(
        self, limits: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Cap the ``active`` rows (NaN clears); returns the rejected rows."""
        failed = (
            active & ~np.isnan(limits) & self.masks.balloon_fail[:, self._index]
        )
        applied = active & ~failed
        self.balloon_limit_gb[applied] = limits[applied]
        return failed

    def state_dict(self) -> dict:
        return {
            "index": self._index,
            "level": self.level.copy(),
            "balloon_limit_gb": self.balloon_limit_gb.copy(),
            "transient_left": self._transient_left.copy(),
        }

    def _checked_state(self, state: dict) -> dict:
        """``state`` as this actuator's attributes, checked, unassigned."""
        checked = _checked_arrays(
            self,
            {
                "level": state["level"],
                "balloon_limit_gb": state["balloon_limit_gb"],
                "_transient_left": state["transient_left"],
            },
        )
        level = checked["level"]
        if np.any((level < 0) | (level >= len(self.names))):
            raise ConfigurationError(
                "fleet checkpoint applied level outside the catalog"
            )
        checked["_index"] = int(state["index"])
        return checked

    def _assign_state(self, checked: dict) -> None:
        """Assign what :meth:`_checked_state` returned."""
        for attr, value in checked.items():
            setattr(self, attr, value)


#: Nominal wall-clock seconds per synthetic billing interval.
_SYNTHETIC_INTERVAL_S = 60.0


class DegradedSyntheticFleet:
    """Step a degraded fleet over synthetic telemetry and fault masks.

    The telemetry-side masks (drop / late / duplicate / corrupt / skew)
    are applied directly to the pre-generated
    :class:`~repro.fleet.vectorized.FleetTelemetryArrays` columns, with a
    one-delivery held buffer per tenant exactly like the scalar wrapper.
    Corruption is approximated by flagging the delivery anomalous (the
    guard quarantines it, which is the scalar outcome for three of the
    five corruption modes); the parity-exact corruption path lives in
    :class:`MaskedFaultDataPlane`.

    ``state_dict`` / ``load_state_dict`` cover the scaler, the actuator,
    the held buffers, and the interval cursor — a restore mid-sweep
    resumes byte-identically (held by ``tests/test_fleet_checkpoint.py``).
    """

    def __init__(
        self,
        scaler: DegradedVectorizedAutoScaler,
        arrays,
        masks: CompiledFaultMasks,
    ) -> None:
        n = scaler.n_tenants
        if masks.n_tenants != n or arrays.latency_ms.shape[1] != n:
            raise ConfigurationError("fleet geometry mismatch")
        self.scaler = scaler
        self.arrays = arrays
        self.masks = masks
        self.actuator = _ArrayActuator(masks, scaler._names)
        self.interval = 0
        self.n_intervals = arrays.latency_ms.shape[0]
        # The one-delivery held buffer: a late delivery's fields, its
        # interval index and billed cost, and which rows hold one.
        self._held = {
            "present": np.zeros(n, dtype=bool),
            "index": np.zeros(n, dtype=np.int64),
            "billed": np.zeros(n),
            "latency_ms": np.full(n, np.nan),
            "util_pct": np.zeros((K, n)),
            "wait_ms": np.zeros((K, n)),
            "wait_pct": np.zeros((K, n)),
            "memory_used_gb": np.full(n, np.nan),
            "disk_physical_reads": np.full(n, np.nan),
        }

    def step(self) -> list[WaveDecisions]:
        """One billing interval: delivery waves + actuation."""
        scaler = self.scaler
        n = scaler.n_tenants
        i = self.interval
        m = self.masks
        self.actuator.begin_interval()
        alive = ~scaler.dead

        drop = m.drop[:, i] & alive
        late = m.late[:, i] & ~drop & alive
        corrupt = m.corrupt[:, i] & ~drop & ~late & alive
        skew = m.skew[:, i] & ~drop & ~late & ~corrupt & alive
        dup = m.duplicate[:, i] & ~drop & ~late & ~corrupt & ~skew & alive
        delivered = alive & ~drop & ~late

        held = self._held["present"] & alive
        fresh = {name: getattr(self.arrays, name)[i] for name in _INTERVAL_FIELDS}
        billed = scaler._costs[self.actuator.level]
        start = np.full(n, i * _SYNTHETIC_INTERVAL_S)
        end = start + _SYNTHETIC_INTERVAL_S
        start = np.where(skew, start - m.skew_magnitude[:, i] * _SYNTHETIC_INTERVAL_S, start)
        end = np.where(skew, end - m.skew_magnitude[:, i] * _SYNTHETIC_INTERVAL_S, end)

        wave_plans = [
            (held | delivered, held),  # wave 0: held first, else fresh
            ((held & delivered) | (~held & dup), held & delivered),
            (held & dup, np.zeros(n, dtype=bool)),
        ]
        gap = alive & ~held & ~delivered
        waves = []
        corrupt_reason = ("synthetic corruption flag",)
        held_index = self._held["index"]
        for w, (present, use_held) in enumerate(wave_plans):
            present = present & ~scaler.dead
            if w > 0 and not np.any(present):
                break
            fields = {
                name: np.where(use_held, self._held[name], fresh_col)
                for name, fresh_col in fresh.items()
            }
            index = np.where(use_held, held_index, i)
            anomalous = corrupt & ~use_held
            reasons = {r: corrupt_reason for r in np.flatnonzero(anomalous)}
            waves.append(
                scaler.decide_wave(
                    present=present,
                    gap=gap if w == 0 else None,
                    index=index,
                    start_s=np.where(use_held, held_index * _SYNTHETIC_INTERVAL_S, start),
                    end_s=np.where(use_held, (held_index + 1) * _SYNTHETIC_INTERVAL_S, end),
                    anomalous=anomalous,
                    anomaly_reasons=reasons,
                    billed_cost=np.where(use_held, self._held["billed"], billed),
                    **fields,
                )
            )

        # Late deliveries are held clean (the scalar wrapper holds the
        # unperturbed counters); they surface next interval.
        self._held["present"] = late
        if np.any(late):
            self._held["index"][late] = i
            self._held["billed"][late] = billed[late]
            for name, fresh_col in fresh.items():
                self._held[name][..., late] = fresh_col[..., late]

        self.scaler.execute_interval(self.actuator)
        self.interval += 1
        return waves

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "interval": self.interval,
            "scaler": self.scaler.state_dict(),
            "actuator": self.actuator.state_dict(),
            "held": {name: value.copy() for name, value in self._held.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a fleet built over the same arrays and masks.

        The interval, the actuator and the held buffers are checked
        first, and the scaler checks itself before it assigns anything,
        so a refused state raises :class:`ConfigurationError` and leaves
        the whole fleet as it was.
        """
        interval = int(state["interval"])
        actuator = self.actuator._checked_state(state["actuator"])
        if not (
            0 <= interval <= self.n_intervals
            and actuator["_index"] == interval - 1
        ):
            raise ConfigurationError(
                f"fleet checkpoint interval {interval} / actuator index "
                f"{actuator['_index']} do not fit this "
                f"{self.n_intervals}-interval sweep"
            )
        held = _checked_arrays(
            SimpleNamespace(**self._held),
            {name: state["held"][name] for name in self._held},
        )
        self.scaler.load_state_dict(state["scaler"])
        self.interval = interval
        self.actuator._assign_state(actuator)
        self._held = held
