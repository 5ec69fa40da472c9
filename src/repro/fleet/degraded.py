"""Vectorized degraded-mode fleet path: guards, safe mode, and the
circuit breaker as struct-of-arrays ops.

Under fault injection tenants fall out of the healthy engine's lock
step: deliveries drop, arrive late or twice, carry corrupt counters or
skewed clocks, and resizes fail.  The scalar control plane handles that
with per-tenant objects (:class:`~repro.core.telemetry_guard.TelemetryGuard`,
:class:`~repro.core.resize_executor.ResizeExecutor`); this module runs
the *same* degraded loop for the whole fleet at once:

* :class:`DegradedVectorizedAutoScaler` adds guard verdicts, safe mode,
  the refund drain and the executor's retry / backoff / breaker state as
  ``(T,)`` arrays to the healthy engine's rings, ledger charge and
  decision body, and actuates the fleet as array ops.
* **Waves** — an interval delivers 0..3 counters per tenant (held +
  fresh + duplicate), one per delivery *wave*.  :func:`_decide_waves`
  admits every wave in order (guard, ledger, rings), then decides once:
  one signal read and one masked decision body for every row that owes
  one.  A row owing a decision whose next delivery would act takes it
  first, in a second pass over those rows only, so each tenant keeps
  its scalar decision order.
* One :class:`FaultPlane` applies the compiled ``(T, I)`` fault masks at
  the telemetry / actuation boundary with
  :class:`~repro.faults.chaos.FaultyServer`'s semantics;
  :class:`MaskedFaultDataPlane` adds engines and
  :class:`DegradedSyntheticFleet` feeds the waves from arrays.

Byte-identity contract: :func:`run_fleet_chaos` reproduces ``N``
independent scalar :func:`~repro.harness.chaos.run_chaos` runs exactly —
levels, action lists, guard tallies and reasons, circuit states, the
ledger with refunds, damper cooldowns and safe-mode flags
(``tests/test_fleet_degraded_parity.py``).  A tenant whose scalar twin
would *raise* (budget exhaustion) is marked dead instead: its state
freezes at the raise point and its error is kept as ``"Type: message"``.
"""

from __future__ import annotations

import dataclasses
import functools
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

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
    "RESIZE_OUTCOMES",
    "WaveDecisions",
    "FleetActuationReports",
    "DegradedVectorizedAutoScaler",
    "FaultPlane",
    "MaskedFaultDataPlane",
    "FleetChaosResult",
    "run_fleet_chaos",
    "DegradedSyntheticFleet",
]

# Circuit-breaker codes (integer mirror of CircuitState, in
# CIRCUIT_CODES order: codes index into the tuple).
_C_CLOSED, _C_OPEN, _C_HALF = 0, 1, 2
CIRCUIT_CODES = ("closed", "open", "half-open")

# Resize-attempt outcomes of FaultPlane.try_resizes (codes index into
# RESIZE_OUTCOMES), and the error the scalar FaultyServer raises for each
# rejection, as an explanation quotes it ({} is the target container).
_R_APPLIED, _R_PARTIAL, _R_TRANSIENT, _R_PERMANENT = 0, 1, 2, 3
RESIZE_OUTCOMES = ("applied", "partial", "transient", "permanent")
_RESIZE_ERRORS = {
    _R_TRANSIENT: f"{TransientActuationError.__name__}: placement service "
    "busy; resize to {} not applied",
    _R_PERMANENT: f"{PermanentActuationError.__name__}: placement service "
    "rejected resize to {}",
}

#: The telemetry actions that lead a wave's action list, in scalar order.
_PREFIX = (
    ActionKind.TELEMETRY_DISCARDED.value,
    ActionKind.TELEMETRY_LATE.value,
    ActionKind.TELEMETRY_QUARANTINED.value,
    ActionKind.TELEMETRY_GAP.value,
    ActionKind.SAFE_MODE.value,
)

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

    ``participants`` marks rows with a delivery (or, on wave 0, a gap)
    this wave; ``died`` rows whose scalar twin would have raised.
    ``level`` / ``resized`` / ``balloon_limit_gb`` cover the whole fleet;
    ``actions`` holds each tenant's ordered action values, ``None`` for
    non-participants.
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


class _OwedDecisions:
    """One interval's admitted waves and the decisions they still owe.

    ``full`` / ``held`` mark rows owing a full or a held decision, ``wave``
    the wave it is owed to, ``inputs`` a full decision's raw util /
    disk-read / memory columns.  ``waves`` keeps each wave's participants,
    deaths and action prefix, ``passes`` each decision pass's rows, their
    waves, its decision and the caps it left; ``level`` /
    ``balloon_limit_gb`` are the values before the first pass.
    """

    def __init__(self, scaler: DegradedVectorizedAutoScaler) -> None:
        n = scaler.n_tenants
        self.level = scaler.level.copy()
        self.balloon_limit_gb = scaler.balloon_limit_gb.copy()
        self.full = np.zeros(n, dtype=bool)
        self.held = np.zeros(n, dtype=bool)
        self.wave = np.zeros(n, dtype=np.int64)
        self.inputs = (np.zeros((K, n)), np.full(n, np.nan), np.full(n, np.nan))
        self.waves: list[tuple] = []
        self.passes: list[tuple] = []


class DegradedVectorizedAutoScaler(VectorizedAutoScaler):
    """The degraded-mode control plane as struct-of-arrays state.

    Adds to the healthy engine what the scalar path keeps in
    ``TelemetryGuard`` / ``AutoScaler`` safe mode / ``ResizeExecutor``:
    guard sequencing (``expected_next`` with -1 as None, missing-interval
    sets, the last admitted end) and tallies; safe-mode flags and
    reasons; one pending refund per tenant (exact: only passive
    decisions skip settlement, and they never schedule one); and the
    breaker state, retry tallies and one backoff-jitter stream per
    tenant.  The guard's tunables and the backoff schedule are the scalar
    defaults; the scalar executor validates the three options.

    Per interval: :func:`_decide_waves` (:meth:`decide_wave` is its
    one-wave case), then :meth:`execute_interval`.  The healthy entry
    points :meth:`decide_batch` and :meth:`attach_recorder` raise here.
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
        self._owed: _OwedDecisions | None = None

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

    def decide_wave(self, **wave) -> WaveDecisions:
        """Admit one delivery wave (:meth:`_admit_wave`'s fields) and
        decide it: the one-wave case of :func:`_decide_waves`."""
        self._admit_wave(**wave)
        return self._decide_admitted()[0]

    def _admit_wave(
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
    ) -> None:
        """Admit one delivery wave: the scalar ``decide`` up to its body.

        Guard verdicts and reasons, ledger settlement, ring writes and the
        held rows' cooldown tick run here; the decision body waits for
        :meth:`_decide_admitted`.  A row that already owes a decision
        this interval takes it first if this wave would act on it.

        ``present`` marks rows delivering this wave, ``gap`` (wave 0 only)
        rows whose interval passed with none (the scalar
        ``decide_missing``).  Fields are full-width ``(T,)`` / ``(K, T)``
        and read only for present rows: each delivery's interval index,
        timestamps and anomalies as the scalar guard sees them
        (``anomaly_reasons`` is indexed by row and read only when reasons
        are kept), its decide fields, and its container's billed cost.
        """
        if self._owed is None:
            self._owed = _OwedDecisions(self)
        owed = self._owed
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

        # -- an owed decision runs before the row's next active delivery ---
        # A discarded delivery moves no ledger, ring or decision: it waits.
        in_order = ((present & ~discard) | gap) & (owed.full | owed.held)
        if np.any(in_order):
            self._decide_owed(in_order)

        # -- budget settlement, in scalar decide order ---------------------
        # ADMIT pays the believed cost per missed interval, observes, then
        # pays the billed cost; QUARANTINE / GAP pay the believed cost;
        # DISCARD / LATE move no ledger.
        believed = self._costs[self.level]
        for k in range(int(missed.max(initial=0))):
            self._settle_rows(admit & (missed > k), believed)

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

        # -- the decisions this wave owes ----------------------------------
        alive = ~self._dead
        quar_alive = quarantine & alive
        gap_alive = gap & alive
        safe_admit = admit & alive & self._safe
        full = admit & alive & ~self._safe
        # Degraded and safe-mode decisions hold the container (subject to
        # the budget) and advance only the balloon's COOLDOWN clock.
        held = quar_alive | gap_alive | safe_admit
        self._tick_balloon_cooldown(held & (self._b_phase == _B_COOLDOWN))
        owed.full |= full
        owed.held |= held
        owed.wave[full | held] = len(owed.waves)
        for column, values in zip(owed.inputs, (util_pct, disk_reads, memory_used_gb)):
            np.copyto(column, values, where=full)
        died = self._dead & ~was_dead
        safe = ((quar_alive | gap_alive) & self._safe) | safe_admit
        prefix = (discard, late, quar_alive, gap_alive, safe)
        owed.waves.append(((present | gap) & alive, died, prefix))

        c = self.metrics.counter
        for name, mask in (
            ("fleet.guard.admitted", admit),
            ("fleet.guard.admitted_late", late),
            ("fleet.guard.quarantined", quarantine),
            ("fleet.guard.discarded", discard),
            ("fleet.guard.missing", gap),
            ("fleet.decide.in_order", in_order),
            ("fleet.tenants_died", died),
        ):
            count = int(np.count_nonzero(mask))
            if count:
                c(name).inc(float(count))

    def _decide_owed(self, rows: np.ndarray | None = None) -> None:
        """One signal read and one masked decision body over the owed
        decisions (of ``rows``, if given); kept for :meth:`_decide_admitted`."""
        owed = self._owed
        full, held = owed.full, owed.held
        if rows is not None:
            full, held = full & rows, held & rows
        signals = self.telemetry.signals_rows(np.flatnonzero(full))
        decided = self._decide(
            signals, self._estimate(signals), *owed.inputs, rows=full, held=held
        )
        owed.full, owed.held = owed.full & ~full, owed.held & ~held
        owed.passes.append(
            (full | held, owed.wave.copy(), decided, self.balloon_limit_gb.copy())
        )

    def _decide_admitted(self) -> list[WaveDecisions]:
        """Decide every owed row at once; one record per admitted wave, as
        if each wave had decided alone: its ``level`` / ``balloon_limit_gb``
        carry its own and earlier waves' decisions, ``resized`` and the
        actions only its own."""
        self._decide_owed()
        owed, self._owed = self._owed, None
        out = []
        for w, (participants, died, prefix) in enumerate(owed.waves):
            level, balloon = owed.level.copy(), owed.balloon_limit_gb.copy()
            resized = np.zeros(self.n_tenants, dtype=bool)
            slots = list(zip(_PREFIX, prefix))
            for rows, wave, decided, balloon_after in owed.passes:
                upto, now = rows & (wave <= w), rows & (wave == w)
                level[upto] = decided["level_after"][upto]
                balloon[upto] = balloon_after[upto]
                resized |= decided["resized"] & now
                if decided["slots"] is not None:
                    slots += [(value, mask & now) for value, mask in decided["slots"]]
            actions = None
            if self._record_actions:
                actions = self._assemble_actions(slots, participants)
            out.append(
                WaveDecisions(participants, level, resized, balloon, actions, died)
            )
        return out

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

    def execute_interval(self, plane: FaultPlane) -> FleetActuationReports:
        """One interval's fleet actuation: ``ResizeExecutor.execute`` per row.

        Reads the ``plane``'s applied levels, and resizes and caps
        balloons through its array surface.  Each resize attempt is one
        :meth:`FaultPlane.try_resizes` call over the rows still retrying,
        so at most ``max_attempts`` calls run; refunds, adoption, tallies
        and breaker steps are array ops over the rows they apply to.
        """
        n = self.n_tenants
        x = self._executor
        alive = ~self._dead
        self.action_counts["intervals"] += 1
        requested = self.level.copy()
        # The decision's balloon cap, captured before any adoption below
        # cancels the scaler-side probe (the scalar executor applies the
        # decision's value, not the post-adoption scaler state).
        limits = self.balloon_limit_gb.copy()
        current = plane.level.copy()
        attempts = np.zeros(n, dtype=np.int64)
        backoff = np.zeros(n)
        # Ordered (action, reason) pairs, kept only for rows that have one.
        explained: dict[int, list[tuple[str, str]]] = {}

        # Row sets are index arrays: on most intervals they are empty, and
        # an empty index costs nothing where a full-width mask would not.
        opened = alive & (self._x_state == _C_OPEN)
        open_rows = np.flatnonzero(opened)
        self._x_open_left[open_rows] -= 1
        to_half = open_rows[self._x_open_left[open_rows] <= 0]
        self._x_state[to_half] = _C_HALF
        self._safe[to_half] = False
        for r in to_half:
            self._safe_reason[r] = ""
        # An open circuit attempts nothing: the row keeps its container.
        held = open_rows[requested[open_rows] != current[open_rows]]
        for r in held:
            explained[r] = [
                (
                    ActionKind.SAFE_MODE.value,
                    f"circuit open ({max(int(self._x_open_left[r]), 0)} "
                    f"interval(s) left): resize "
                    f"{self._names[current[r]]} -> "
                    f"{self._names[requested[r]]} not attempted",
                )
            ]

        # One pass per attempt number over the rows still retrying: only
        # a transient rejection retries, and only a retry waits a backoff.
        resize = np.flatnonzero(alive & ~opened & (requested != current))
        outcome = np.full(n, _R_APPLIED, dtype=np.int8)
        rows = resize
        for attempt in range(1, x.max_attempts + 1):
            if not rows.size:
                break
            attempts[rows] = attempt
            outcome[rows] = codes = plane.try_resizes(rows, requested[rows])
            rows = rows[codes == _R_TRANSIENT]
            if attempt < x.max_attempts:
                backoff[rows] += self._backoff(rows, attempt)
        self.x_total_attempts[resize] += attempts[resize]
        applied = plane.level.copy()
        # A partial stall never lands on the requested level, so every
        # outcome but a clean apply is a failure.
        applied_cleanly = outcome[resize] == _R_APPLIED
        won, failed = resize[applied_cleanly], resize[~applied_cleanly]
        self._x_consec[won] = 0
        self._x_state[won[self._x_state[won] == _C_HALF]] = _C_CLOSED
        self.x_total_failures[failed] += 1

        # Stranded on a costlier container than chosen: refund the gap.
        stranded = np.concatenate([held, failed])
        extra = self._costs[applied[stranded]] - self._costs[requested[stranded]]
        refunds = np.zeros(n)
        refunds[stranded] = np.maximum(extra, 0.0)
        self._pending_refund[stranded] += refunds[stranded]
        self.x_total_refunds[stranded] += refunds[stranded]
        names = self._names
        for r in failed:
            cur, req, app = names[current[r]], names[requested[r]], names[applied[r]]
            if outcome[r] == _R_PARTIAL:
                reason = f"resize {cur} -> {req} applied partially: running {app}"
            else:
                reason = (
                    f"resize {cur} -> {req} failed after {attempts[r]} "
                    f"attempt(s) ({_RESIZE_ERRORS[outcome[r]].format(req)}); "
                    f"running {app}"
                )
            explained[r] = [(ActionKind.ACTUATION_FAILED.value, reason)]
        # notify_actuation: adopt ground truth, cancel stale probes.
        self.level[stranded] = applied[stranded]
        self._on_resize(stranded)
        self._on_failure(failed, explained)

        # The balloon cap is applied every interval, even under an open
        # circuit or a no-op resize (the scalar always calls
        # _apply_balloon), and its failure can re-open an open breaker.
        balloon_failed = np.flatnonzero(plane.set_balloon_limits(limits, alive))
        for r in balloon_failed:
            explained.setdefault(r, []).append(
                (
                    ActionKind.ACTUATION_FAILED.value,
                    f"balloon adjustment failed "
                    f"({_balloon_rejection(limits[r])}); probe cancelled",
                )
            )
        # notify_balloon_actuation_failed: cancel the probe but keep the
        # scale-down streak.
        self._cancel_probe(balloon_failed)
        self.x_total_failures[balloon_failed] += 1
        self._on_failure(balloon_failed, explained)

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
            succeeded=alive & (applied == requested),
            refund_scheduled=refunds,
            circuit=self._x_state.copy(),
            explanations=tuple(explanations),
        )

    def _backoff(self, rows: np.ndarray, attempt: int) -> np.ndarray:
        """The wait after ``rows``' failed ``attempt``, one jitter draw each."""
        x = self._executor
        base = x.backoff_base_ms * x.backoff_factor ** (attempt - 1)
        if x.jitter == 0.0:
            return np.full(rows.size, base)  # deterministic: draws nothing
        return np.array(
            [base * (1.0 + self._x_rngs[r].uniform(-x.jitter, x.jitter)) for r in rows]
        )

    def _on_failure(
        self, rows: np.ndarray, explained: dict[int, list[tuple[str, str]]]
    ) -> None:
        """``ResizeExecutor._on_failure`` for each of the distinct ``rows``.

        A failed half-open trial, or a streak reaching the threshold,
        opens the breaker and enters safe mode; each opened row's
        explanation gains the breaker's note.
        """
        x = self._executor
        self._x_consec[rows] += 1
        half_open_failed = self._x_state[rows] == _C_HALF
        opens = half_open_failed | (self._x_consec[rows] >= x.failure_threshold)
        trip = rows[opens]
        if not trip.size:
            return
        self._x_state[trip] = _C_OPEN
        self._x_open_left[trip] = x.open_intervals
        self.x_circuit_opens[trip] += 1
        # enter_safe_mode: cancel a live probe, always reset the streak.
        self._safe[trip] = True
        self._cancel_probe(trip[self._b_phase[trip] == _B_PROBING])
        self._low_streak[trip] = 0
        for r, half_open in zip(trip, half_open_failed[opens]):
            reason = (
                "trial resize failed while half-open"
                if half_open
                else f"{int(self._x_consec[r])} consecutive actuation failures"
            )
            self._safe_reason[r] = reason
            explained.setdefault(r, []).append(
                (
                    ActionKind.SAFE_MODE.value,
                    f"circuit breaker opened ({reason}); holding the current "
                    f"container for {x.open_intervals} interval(s)",
                )
            )
        self.metrics.counter("fleet.circuit_opens").inc(float(trip.size))

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


# -- the fault boundary: one planner, one actuation surface ------------------


class DeliveryWave(NamedTuple):
    """One delivery wave: the rows that deliver, and which of them
    deliver their held (late) counters rather than the fresh ones."""

    present: np.ndarray  # (T,) bool
    held: np.ndarray  # (T,) bool


class DeliveryPlan(NamedTuple):
    """One interval's deliveries under ``FaultyServer``'s semantics.

    The five priority masks are disjoint: each row's first active kind
    in the order drop → late → corrupt → skew → duplicate.  ``waves``
    run held → fresh → duplicate: wave ``w`` carries each row's ``w``-th
    delivery, so wave 0 holds every delivering row and only wave 0 ever
    delivers held counters.
    """

    drop: np.ndarray
    late: np.ndarray
    corrupt: np.ndarray
    skew: np.ndarray
    duplicate: np.ndarray
    waves: tuple[DeliveryWave, ...]


def _plan_deliveries(
    masks: CompiledFaultMasks, i: int, alive: np.ndarray, held: np.ndarray
) -> DeliveryPlan:
    """``FaultyServer.run_interval``'s delivery list for every row at once.

    ``held`` marks the rows holding a late delivery from the interval
    before; it surfaces first.  A dropped or late interval delivers
    nothing fresh, and only a plainly delivered one is duplicated.
    """
    drop = masks.drop[:, i] & alive
    late = masks.late[:, i] & alive & ~drop
    corrupt = masks.corrupt[:, i] & alive & ~drop & ~late
    skew = masks.skew[:, i] & alive & ~drop & ~late & ~corrupt
    duplicate = masks.duplicate[:, i] & alive & ~(drop | late | corrupt | skew)
    held = held & alive
    counts = held.astype(np.int8) + (alive & ~drop & ~late) + duplicate
    none = np.zeros_like(held)
    waves = tuple(
        DeliveryWave(counts > w, held if w == 0 else none) for w in range(3)
    )
    return DeliveryPlan(drop, late, corrupt, skew, duplicate, waves)


#: ``FaultyServer``'s injection tallies, one ``(T,)`` count column each.
_TALLIES = (
    "dropped",
    "delayed",
    "duplicated",
    "corrupted",
    "skewed",
    "failed_resizes",
    "partial_resizes",
    "failed_balloons",
)


class FaultPlane:
    """``FaultyServer`` for a whole fleet, over plain arrays.

    Holds the interval index, each row's transient-failure budget, the
    applied level and balloon cap, and the eight injection tallies.
    :meth:`begin_interval` plans an interval's deliveries;
    :meth:`try_resizes` and :meth:`set_balloon_limits` are the
    executor's array view of the resize chain and balloon rejections.
    """

    def __init__(
        self, masks: CompiledFaultMasks, catalog: ContainerCatalog, level=0
    ) -> None:
        n = masks.n_tenants
        self.masks = masks
        self.catalog = catalog
        self.level = np.zeros(n, dtype=np.int64) + level
        self.balloon_limit_gb = np.full(n, np.nan)  # NaN = no cap
        self._index = -1
        self._begin_level = self.level.copy()
        self._transient_left = np.zeros(n, dtype=np.int64)
        for name in _TALLIES:
            setattr(self, name, np.zeros(n, dtype=np.int64))

    @property
    def interval_index(self) -> int:
        return self._index

    def begin_interval(self, alive: np.ndarray, held: np.ndarray) -> DeliveryPlan:
        """Advance one interval: refill transient budgets, plan and tally."""
        self._index += 1
        i = self._index
        self._begin_level = self.level.copy()
        self._transient_left[:] = self.masks.transient_magnitude[:, i]
        plan = _plan_deliveries(self.masks, i, alive, held)
        self.dropped += plan.drop
        self.delayed += plan.late
        self.corrupted += plan.corrupt
        self.skewed += plan.skew
        self.duplicated += plan.duplicate
        return plan

    # -- actuation surface (the executor's view) ---------------------------

    def try_resizes(self, rows: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """``FaultyServer.set_container`` on each of the distinct ``rows``.

        Per row: a permanent rejection, then the interval's transient
        budget (neither moves the level), then a partial stall one level
        short of ``levels``; a one-level resize that stalls does not
        move.  Returns one :data:`RESIZE_OUTCOMES` code per row.
        """
        i = self._index
        current = self.level[rows]
        permanent = self.masks.permanent[rows, i]
        transient = ~permanent & (self._transient_left[rows] > 0)
        rejected = permanent | transient
        self._transient_left[rows[transient]] -= 1
        self.failed_resizes[rows[rejected]] += 1
        partial = ~rejected & self.masks.partial[rows, i] & (levels != current)
        self.partial_resizes[rows[partial]] += 1
        target = np.where(partial, levels - np.sign(levels - current), levels)
        moves = ~rejected & ~(partial & (target == current))
        self.level[rows[moves]] = target[moves]
        self._apply_levels(rows[moves])
        outcome = np.full(rows.size, _R_APPLIED, dtype=np.int8)
        outcome[partial] = _R_PARTIAL
        outcome[transient] = _R_TRANSIENT
        outcome[permanent] = _R_PERMANENT
        return outcome

    def set_balloon_limits(
        self, limits: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Cap every ``active`` row at ``limits`` (NaN clears the cap).

        Returns the rows the broker rejected; they keep their cap, as
        ``FaultyServer`` leaves them.  The hook sees only rows whose cap
        changed or whose level moved this interval: a server's cap call
        evicts to capacity, a no-op after its interval ran but not always,
        in the last bit, after a resize.
        """
        failed = (
            active & ~np.isnan(limits) & self.masks.balloon_fail[:, self._index]
        )
        self.failed_balloons += failed
        applied = active & ~failed
        before = self.balloon_limit_gb
        same = (before == limits) | (np.isnan(before) & np.isnan(limits))
        moved = self.level != self._begin_level
        self.balloon_limit_gb[applied] = limits[applied]
        self._apply_balloons(np.flatnonzero(applied & (~same | moved)))
        return failed

    def _apply_levels(self, rows: np.ndarray) -> None:
        """Hook: these rows' applied levels changed (no engine here)."""

    def _apply_balloons(self, rows: np.ndarray) -> None:
        """Hook: these rows' balloon caps were set (no engine here)."""


class MaskedFaultDataPlane(FaultPlane):
    """A :class:`FaultPlane` over engines: one
    :class:`~repro.faults.chaos.FaultyServer` per tenant, as arrays.

    Adds the servers, whose counters fill the planned waves, one
    corruption-mode RNG stream per tenant, the held (late) counters, and
    a mirror of each applied level and balloon cap onto its server.  The
    plane starts at each server's container with no cap; interval
    indexes count :meth:`run_interval_rows` calls, as the scalar wrapper
    counts ``run_interval*`` calls.
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
        super().__init__(masks, catalog, [s.container.level for s in servers])
        self.servers = list(servers)
        self._rngs = [np.random.default_rng(s) for s in corrupt_seeds]
        self._held: list[IntervalCounters | None] = [None] * n

    def run_interval_rows(
        self, rates_rows: Sequence[np.ndarray], active: np.ndarray
    ) -> tuple[DeliveryPlan, list[list[IntervalCounters]]]:
        """Run one interval on the ``active`` rows.

        Returns the interval's plan and each tenant's deliveries, in the
        order of the plan's waves.
        """
        held = np.array([c is not None for c in self._held], dtype=bool)
        plan = self.begin_interval(active, held)
        fresh: dict[int, IntervalCounters] = {}
        for r in np.flatnonzero(active):
            counters = self.servers[r].run_interval_with_rates(rates_rows[r])
            if plan.corrupt[r]:
                mode = int(self._rngs[r].integers(0, N_CORRUPTION_MODES))
                counters = corrupt_counters(counters, mode)
            elif plan.skew[r]:
                shift = self.masks.skew_magnitude[r, self._index] * counters.duration_s
                counters = dataclasses.replace(
                    counters,
                    start_s=counters.start_s - shift,
                    end_s=counters.end_s - shift,
                )
            fresh[r] = counters
        out: list[list[IntervalCounters]] = [[] for _ in self.servers]
        for wave in plan.waves:
            for r in np.flatnonzero(wave.present):
                out[r].append(self._held[r] if wave.held[r] else fresh[r])
        # A late interval is held unperturbed; it surfaces next interval.
        for r in fresh:
            self._held[r] = fresh[r] if plan.late[r] else None
        return plan, out

    def _apply_levels(self, rows: np.ndarray) -> None:
        for r in rows:
            self.servers[r].set_container(self.catalog.at_level(int(self.level[r])))

    def _apply_balloons(self, rows) -> None:
        for r in rows:
            limit = self.balloon_limit_gb[r]
            self.servers[r].set_balloon_limit(
                None if np.isnan(limit) else float(limit)
            )


def _balloon_rejection(limit_gb: float) -> str:
    return f"memory broker rejected balloon cap {float(limit_gb):g} GB"


# -- chaos drivers ------------------------------------------------------------


class FleetChaosResult(NamedTuple):
    """Everything a vectorized chaos run observed, per measured interval:
    the in-force level at its start (``containers``), the actuated
    decision's level (``decided_levels``, the scalar
    ``interval_decisions``), its wave decisions and actuation report."""

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
    goal: LatencyGoal | None,
    wave: int,
    present: np.ndarray,
) -> dict:
    """One wave's admission fields from per-tenant deliveries: the
    decide fields as :func:`_counter_fields` reads them, plus the guard's
    interval index, timestamps and anomalies."""
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


def _decide_waves(
    scaler: DegradedVectorizedAutoScaler,
    plan: DeliveryPlan,
    wave_inputs: Callable[[int, np.ndarray], dict],
) -> list[WaveDecisions]:
    """Admit one interval's delivery waves in order, then decide once.

    A wave delivers its planned rows still alive, the first later wave
    with none ends the interval, and wave 0 also carries the gap (live
    rows with no delivery).  ``wave_inputs(w, present)`` gives its fields.
    """
    gap = ~scaler.dead & ~plan.waves[0].present
    for w, wave in enumerate(plan.waves):
        present = wave.present & ~scaler.dead
        if w > 0 and not np.any(present):
            break
        scaler._admit_wave(
            present=present, gap=gap if w == 0 else None, **wave_inputs(w, present)
        )
    return scaler._decide_admitted()


def run_fleet_chaos(
    workload: Workload,
    traces: Sequence[Trace],
    schedules: Sequence[FaultSchedule],
    *,
    config: ExperimentConfig | None = None,
    seeds: Sequence[int] | None = None,
    goal: LatencyGoal | None = None,
    budgets: Sequence[BudgetManager] | None = None,
    scaler_kwargs: dict | None = None,
    executor_kwargs: dict | None = None,
) -> FleetChaosResult:
    """The vectorized :func:`~repro.harness.chaos.run_chaos` over a fleet.

    Each tenant is built as the scalar runner builds it: engine seed
    ``seeds[t]``, load-generator ``+ 1``, corruption ``+ 2`` and jitter
    ``+ 3`` streams, the schedule shifted past the warm-up, and a
    default :class:`OscillationDamper`.
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
        damper=OscillationDamper(),
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
    def drive(rates) -> list[WaveDecisions]:
        plan, deliveries = plane.run_interval_rows(rates, ~scaler.dead)
        inputs = functools.partial(_delivery_wave_arrays, deliveries, goal)
        return _decide_waves(scaler, plan, inputs)

    for _ in range(warmup):
        drive(warmup_rates)
        scaler.execute_interval(plane)

    containers: list[np.ndarray] = []
    decided: list[np.ndarray] = []
    all_waves: list[list[WaveDecisions]] = []
    reports: list[FleetActuationReports] = []
    for interval_index in range(n_intervals):
        rates = [loadgens[t].interval_rates(interval_index) for t in range(n)]
        containers.append(plane.level.copy())
        all_waves.append(drive(rates))
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


# -- synthetic degraded sweep (benchmark / 100k recipe) -----------------------


#: Nominal wall-clock seconds per synthetic billing interval.
_SYNTHETIC_INTERVAL_S = 60.0

#: The plane's per-row arrays on the checkpoint wire: (key, attribute).
_PLANE_ARRAYS = (
    ("level", "level"),
    ("balloon_limit_gb", "balloon_limit_gb"),
    ("transient_left", "_transient_left"),
    *((name, name) for name in _TALLIES),
)


class DegradedSyntheticFleet:
    """Step a degraded fleet over synthetic telemetry and fault masks.

    The fleet's :class:`FaultPlane` (``actuator``) plans each interval
    and actuates it; this class feeds the planned waves from the
    :class:`~repro.fleet.vectorized.FleetTelemetryArrays` columns and a
    one-delivery held buffer per tenant, billing the fresh interval at
    the applied level.  With no counters to corrupt, a corrupt delivery
    is only flagged anomalous, so the guard quarantines it: the scalar
    outcome for three of the five corruption modes.  A checkpoint covers
    the scaler, the plane, the held buffers and the interval cursor, and
    resumes byte-identically (``tests/test_fleet_checkpoint.py``).
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
        self.actuator = FaultPlane(masks, scaler.catalog)
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
        i = self.interval
        plan = self.actuator.begin_interval(~scaler.dead, self._held["present"])
        fresh = {name: getattr(self.arrays, name)[i] for name in _INTERVAL_FIELDS}
        billed = scaler._costs[self.actuator.level]
        shift = np.where(plan.skew, self.masks.skew_magnitude[:, i], 0.0)
        start = i * _SYNTHETIC_INTERVAL_S - shift * _SYNTHETIC_INTERVAL_S
        end = (i + 1) * _SYNTHETIC_INTERVAL_S - shift * _SYNTHETIC_INTERVAL_S
        corrupt_reason = ("synthetic corruption flag",)
        held_index = self._held["index"]

        def wave_inputs(w: int, present: np.ndarray) -> dict:
            use_held = plan.waves[w].held
            anomalous = plan.corrupt & ~use_held
            return dict(
                index=np.where(use_held, held_index, i),
                start_s=np.where(use_held, held_index * _SYNTHETIC_INTERVAL_S, start),
                end_s=np.where(use_held, (held_index + 1) * _SYNTHETIC_INTERVAL_S, end),
                anomalous=anomalous,
                anomaly_reasons={r: corrupt_reason for r in np.flatnonzero(anomalous)},
                billed_cost=np.where(use_held, self._held["billed"], billed),
                **{
                    name: np.where(use_held, self._held[name], fresh_col)
                    for name, fresh_col in fresh.items()
                },
            )

        waves = _decide_waves(scaler, plan, wave_inputs)

        # Late deliveries are held clean (the scalar wrapper holds the
        # unperturbed counters); they surface next interval.
        late = plan.late
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
        plane = self.actuator
        return {
            "interval": self.interval,
            "scaler": self.scaler.state_dict(),
            "actuator": {
                "index": plane.interval_index,
                **{key: getattr(plane, attr).copy() for key, attr in _PLANE_ARRAYS},
            },
            "held": {name: value.copy() for name, value in self._held.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a fleet built over the same arrays and masks.

        The interval, the plane and the held buffers are checked first,
        and the scaler checks itself before it assigns anything, so a
        refused state raises :class:`ConfigurationError` and leaves the
        whole fleet as it was.
        """
        interval = int(state["interval"])
        index = int(state["actuator"]["index"])
        if not (0 <= interval <= self.n_intervals and index == interval - 1):
            raise ConfigurationError(
                f"fleet checkpoint interval {interval} / actuator index "
                f"{index} do not fit this {self.n_intervals}-interval sweep"
            )
        plane = _checked_arrays(
            self.actuator,
            {attr: state["actuator"][key] for key, attr in _PLANE_ARRAYS},
        )
        level = plane["level"]
        if np.any((level < 0) | (level >= len(self.scaler.catalog))):
            raise ConfigurationError(
                "fleet checkpoint applied level outside the catalog"
            )
        held = _checked_arrays(
            SimpleNamespace(**self._held),
            {name: state["held"][name] for name in self._held},
        )
        self.scaler.load_state_dict(state["scaler"])
        self.interval = interval
        self.actuator._index = index
        for attr, value in plane.items():
            setattr(self.actuator, attr, value)
        self._held = held
