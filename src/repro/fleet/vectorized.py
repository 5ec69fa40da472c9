"""The vectorized fleet engine: struct-of-arrays control-loop sweep.

The scalar control plane (:class:`repro.core.autoscaler.AutoScaler` over
:class:`repro.core.telemetry_manager.TelemetryManager`) evaluates one
tenant per call; at fleet scale (the paper's service runs the loop for the
whole cluster each billing interval, and URSA-style capacity loops touch
every tenant per cycle) the Python-object dispatch dominates wall-clock.
This module runs the *same* control loop for all tenants at once:

* :class:`VectorizedTelemetry` — the fleet's signal windows as time-major
  ``(W, T)`` ring matrices with one clock and cursor per row, read
  through shared slots whenever the rows are in lock step, with signal
  extraction batched through :mod:`repro.stats.batched` (one Theil–Sen
  kernel call covers the latency + 4 utilization + 4 wait trends of
  every tenant).
* :func:`estimate_fleet` — the rule hierarchy as stacked boolean condition
  masks; first-match selection is an ``argmax`` over the stack.  Rule ids
  and step sizes are read from :func:`repro.core.rules.high_demand_rules`
  so the two implementations cannot silently diverge (a hierarchy edit
  trips the import-time layout check here and the differential tests).
* :class:`VectorizedAutoScaler` — budget settlement, the balloon state
  machine, the latency gate, scale-up container search (``searchsorted``
  over the lock-step allocation/cost tables), scale-down streaks, the
  oscillation damper, and budget enforcement as array ops over the whole
  fleet.

Scope and contracts:

* **Byte-identical decisions.**  Given the same per-interval inputs the
  vectorized sweep reproduces the scalar ``AutoScaler.decide`` outputs
  exactly — container level, ``resized``, balloon limit, per-resource
  steps, rule ids, and the ordered action-kind list.  The scalar
  manager runs the same batched kernels at width 1, so the signals
  match it exactly.  Held by ``tests/test_fleet_vectorized.py``, the
  golden replay test and ``tests/test_telemetry_manager.py``.
* **The scalar path remains the reference.**  This engine covers the
  healthy-telemetry fleet sweep, the hot path;
  :mod:`repro.fleet.degraded` extends it with telemetry guards, safe
  mode, the resize executor and fault injection, and drives the same
  decision body (:meth:`VectorizedAutoScaler._decide`) masked to each
  delivery wave's rows.
* **Lock-step catalogs only.**  Dimension-scaled variants break the
  level⇔cost monotonicity the ``searchsorted`` searches rely on;
  constructing with such a catalog raises.

Ordering does not matter to any signal: trends and correlations depend
only on the *set* of ``(t, value)`` samples and the tail medians on the
sample multiset, so ring slots are consumed unordered and the windows
never need rotation.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.ballooning import MIN_SHRINK_STEP_GB
from repro.core.budget import BudgetManager, unconstrained_budget
from repro.core.damper import OscillationDamper
from repro.core.demand_estimator import (
    COUPLED_RULE_ID,
    UTIL_ONLY_HIGH_RULE_ID,
    UTIL_ONLY_LOW_RULE_ID,
)
from repro.core.explanations import ActionKind
from repro.core.latency import LatencyGoal, PerformanceSensitivity
from repro.core.rules import MAX_STEP, high_demand_rules, low_demand_rules
from repro.core.thresholds import ThresholdConfig, default_thresholds
from repro.engine.bufferpool import engine_overhead_gb, usable_cache_gb
from repro.engine.containers import ContainerCatalog
from repro.engine.resources import SCALABLE_KINDS
from repro.engine.telemetry import IntervalCounters
from repro.engine.waits import RESOURCE_WAIT_CLASS, WaitClass
from repro.errors import (
    BudgetError,
    CatalogError,
    ConfigurationError,
    InsufficientDataError,
)
from repro.obs.metrics import MetricsRegistry
from repro.stats.batched import (
    BatchedTrend,
    batched_detect_trend,
    batched_spearman,
    batched_tail_median,
)

__all__ = [
    "RULE_NAMES",
    "LAT_GOOD",
    "LAT_BAD",
    "LAT_UNKNOWN",
    "FleetSignals",
    "FleetDemand",
    "FleetDecisions",
    "FleetTelemetryArrays",
    "VectorizedTelemetry",
    "VectorizedAutoScaler",
    "ClosedLoopFleetSynthesizer",
    "estimate_fleet",
    "counters_to_interval_arrays",
    "replay_decisions",
    "synthesize_fleet_telemetry",
    "run_synthetic_sweep",
    "sharded_synthetic_sweep",
]

K = len(SCALABLE_KINDS)  # resource dimensions, in SCALABLE_KINDS order
#: Telemetry rings, checkpointed under these keys with the time axis last.
_RINGS = ("t", "lat", "util", "wait", "wpct")
_CPU, _MEM, _DISK, _LOG = range(K)
_KINDS = np.arange(K)[:, None]

#: Latency-status codes (integer mirror of LatencyStatus).
LAT_GOOD, LAT_BAD, LAT_UNKNOWN = 0, 1, 2

# -- rule table ---------------------------------------------------------------
#
# The vectorized predicates below are hand-written mask expressions; their
# ids, step sizes, and evaluation order come from the scalar hierarchy so
# the two stay in lock step.  If the scalar hierarchy is edited, this
# layout check fails at import and points at the mask table to update.

_HIGH_RULES = high_demand_rules()
_LOW_RULES = low_demand_rules()
_EXPECTED_HIGH = (
    "H0-saturated-strong",
    "H1-strong-pressure-trending",
    "H2-strong-pressure",
    "H2b-saturated-high-waits",
    "H3-high-waits-trending",
    "H4-medium-waits-trending",
    "H5-correlated-bottleneck",
    "H7-moderate-pressure",
    "H6-saturated-with-waits",
)
_EXPECTED_LOW = ("L1-idle", "L2-quiet-moderate")
if tuple(r.rule_id for r in _HIGH_RULES) != _EXPECTED_HIGH or tuple(
    r.rule_id for r in _LOW_RULES
) != _EXPECTED_LOW:
    raise RuntimeError(
        "repro.core.rules hierarchy changed: update the vectorized rule "
        "masks in repro.fleet.vectorized.estimate_fleet to match"
    )

#: Rule-id strings by rule code; code 0 means "no rule fired".
RULE_NAMES: tuple[str | None, ...] = (
    (None,)
    + tuple(r.rule_id for r in _HIGH_RULES)
    + tuple(r.rule_id for r in _LOW_RULES)
    + (COUPLED_RULE_ID, UTIL_ONLY_HIGH_RULE_ID, UTIL_ONLY_LOW_RULE_ID)
)
_N_HIGH = len(_HIGH_RULES)
_RULE_L1 = _N_HIGH + 1
_RULE_L2 = _N_HIGH + 2
_RULE_M1 = _N_HIGH + 3
_RULE_U_HIGH = _N_HIGH + 4
_RULE_U_LOW = _N_HIGH + 5
_HIGH_STEPS = np.array([r.steps for r in _HIGH_RULES], dtype=np.int8)

# Balloon phases, integer mirror of BalloonPhase.
_B_IDLE, _B_PROBING, _B_COOLDOWN = 0, 1, 2

#: Ledger and balloon arrays on the checkpoint wire, keyed without their
#: attribute prefixes (``_`` and ``_b_``).
_BUDGET = ("tokens", "depth", "fill", "period_n", "interval_i", "spent")
_BALLOON = ("phase", "limit", "target", "baseline", "cooldown", "failed")


class FleetSignals(NamedTuple):
    """Struct-of-arrays :class:`repro.core.signals.WorkloadSignals`.

    Per-resource arrays are ``(K, T)`` in ``SCALABLE_KINDS`` order; levels
    are coded LOW=0 / MEDIUM=1 / HIGH=2 and latency status GOOD=0 / BAD=1
    / UNKNOWN=2.
    """

    latency_ms: np.ndarray  # (T,) smoothed; NaN when idle
    latency_status: np.ndarray  # (T,) int8
    lat_slope: np.ndarray  # (T,)
    lat_significant: np.ndarray  # (T,) bool
    lat_agreement: np.ndarray  # (T,)
    lat_n_points: np.ndarray  # (T,) int
    lat_direction: np.ndarray  # (T,) int8
    util_pct: np.ndarray  # (K, T) smoothed
    util_level: np.ndarray  # (K, T) int8
    wait_ms: np.ndarray  # (K, T) smoothed
    wait_level: np.ndarray  # (K, T) int8
    wait_pct: np.ndarray  # (K, T) smoothed
    wait_significant: np.ndarray  # (K, T) bool
    util_slope: np.ndarray  # (K, T)
    util_significant: np.ndarray  # (K, T) bool
    util_agreement: np.ndarray  # (K, T)
    util_direction: np.ndarray  # (K, T) int8
    wait_slope: np.ndarray  # (K, T)
    wait_trend_significant: np.ndarray  # (K, T) bool
    wait_agreement: np.ndarray  # (K, T)
    wait_direction: np.ndarray  # (K, T) int8
    rho: np.ndarray  # (K, T)
    corr_n_points: np.ndarray  # (K, T) int


class FleetDemand(NamedTuple):
    """Struct-of-arrays :class:`repro.core.demand_estimator.DemandEstimate`."""

    steps: np.ndarray  # (K, T) int8 in [-MAX_STEP, MAX_STEP]
    rules: np.ndarray  # (K, T) int8 index into RULE_NAMES
    any_high: np.ndarray  # (T,) bool
    all_low: np.ndarray  # (T,) bool — memory exempt, as in the scalar
    all_low_or_flat: np.ndarray  # (T,) bool


class FleetDecisions(NamedTuple):
    """One interval's decisions for the whole fleet.

    ``actions`` mirrors the scalar decision's ordered
    ``[e.action.value for e in explanations]`` list per tenant; it is
    ``None`` when the scaler was built with ``record_actions=False``
    (the fleet-benchmark configuration).
    """

    level: np.ndarray  # (T,) int — container level in force next interval
    resized: np.ndarray  # (T,) bool
    balloon_limit_gb: np.ndarray  # (T,) float; NaN means "no cap"
    steps: np.ndarray  # (K, T) int8
    rules: np.ndarray  # (K, T) int8
    actions: tuple[tuple[str, ...], ...] | None


def _check_shape(name: str, array: np.ndarray, expected: tuple[int, ...]) -> None:
    if array.shape != expected:
        raise ConfigurationError(
            f"fleet checkpoint {name!r} has shape {array.shape}, "
            f"expected {expected} for this engine's geometry"
        )


def _check_ring_dtype(what: str, state: dict) -> None:
    """Refuse a fleet checkpoint whose rings were not stored as float64.

    Checkpoints written before the dtype was recorded carry no key; they
    were float64.  Any other dtype (an old float32 file) is refused
    before anything is assigned.
    """
    dtype = str(state.get("dtype", "float64"))
    if dtype != "float64":
        raise ConfigurationError(
            f"{what} checkpoint ring dtype {dtype} is not supported: "
            "fleet rings are float64"
        )


def _checked_arrays(owner, raw: dict) -> dict[str, np.ndarray]:
    """Checkpoint arrays as copies in the dtype and shape of ``owner``'s.

    ``raw`` maps an array attribute of ``owner`` to its checkpointed
    value.  Nothing is assigned, so the caller can refuse the whole
    checkpoint before touching live state.
    """
    arrays = {}
    for attr, value in raw.items():
        live = getattr(owner, attr)
        arrays[attr] = np.asarray(value, dtype=live.dtype).copy()
        _check_shape(attr.lstrip("_"), arrays[attr], live.shape)
    return arrays


def _sign8(values: np.ndarray) -> np.ndarray:
    return np.sign(values).astype(np.int8)


def _empty_fleet_signals(n: int, inert: bool = False) -> FleetSignals:
    """Fleet-wide signal outputs, filled in one pass over the rows.

    Uninitialized by default, for callers that write every row.  With
    ``inert`` the rows start at the inert defaults (NaN latency, UNKNOWN
    status, zeros elsewhere) that a row-subset fill leaves in place;
    every consumer masks with the selected rows, so the filler never
    reaches a decision.
    """
    alloc = np.zeros if inert else np.empty
    out = FleetSignals(
        latency_ms=alloc(n),
        latency_status=alloc(n, dtype=np.int8),
        lat_slope=alloc(n),
        lat_significant=alloc(n, dtype=bool),
        lat_agreement=alloc(n),
        lat_n_points=alloc(n, dtype=np.int64),
        lat_direction=alloc(n, dtype=np.int8),
        util_pct=alloc((K, n)),
        util_level=alloc((K, n), dtype=np.int8),
        wait_ms=alloc((K, n)),
        wait_level=alloc((K, n), dtype=np.int8),
        wait_pct=alloc((K, n)),
        wait_significant=alloc((K, n), dtype=bool),
        util_slope=alloc((K, n)),
        util_significant=alloc((K, n), dtype=bool),
        util_agreement=alloc((K, n)),
        util_direction=alloc((K, n), dtype=np.int8),
        wait_slope=alloc((K, n)),
        wait_trend_significant=alloc((K, n), dtype=bool),
        wait_agreement=alloc((K, n)),
        wait_direction=alloc((K, n), dtype=np.int8),
        rho=alloc((K, n)),
        corr_n_points=alloc((K, n), dtype=np.int64),
    )
    if inert:
        out.latency_ms.fill(np.nan)
        out.latency_status.fill(LAT_UNKNOWN)
    return out


def _trend_into(out: FleetSignals, idx, trend: BatchedTrend) -> None:
    """Scatter one stacked latency + K util + K wait trend into ``out[idx]``."""
    series = (1 + 2 * K, -1)
    slope = trend.slope.reshape(series)
    sig = trend.significant.reshape(series)
    agree = trend.agreement.reshape(series)
    # TrendResult.direction: sign of the slope iff significant.
    direction = np.where(sig, _sign8(slope), np.int8(0)).astype(np.int8)
    out.lat_slope[idx] = slope[0]
    out.lat_significant[idx] = sig[0]
    out.lat_agreement[idx] = agree[0]
    out.lat_n_points[idx] = trend.n_points.reshape(series)[0]
    out.lat_direction[idx] = direction[0]
    out.util_slope[:, idx] = slope[1 : 1 + K]
    out.util_significant[:, idx] = sig[1 : 1 + K]
    out.util_agreement[:, idx] = agree[1 : 1 + K]
    out.util_direction[:, idx] = direction[1 : 1 + K]
    out.wait_slope[:, idx] = slope[1 + K :]
    out.wait_trend_significant[:, idx] = sig[1 + K :]
    out.wait_agreement[:, idx] = agree[1 + K :]
    out.wait_direction[:, idx] = direction[1 + K :]


class VectorizedTelemetry:
    """Fleet-wide signal windows as ring matrices, one clock and cursor per row.

    The rings are time-major — ``(W, T)`` for the clock and latency,
    ``(W, K, T)`` per resource — so the batched kernels read
    ``(W, series)`` views without a transposing copy; checkpoints keep
    the tenant-major wire layout (``(T, W)`` / ``(K, T, W)``).  Fault
    injection breaks lock step (a dropped delivery leaves a row a sample
    short, a late one admits two in one interval), so every row has its
    own clock and cursor; :meth:`observe` / :meth:`signals` are the
    all-rows cases of the wave calls :meth:`observe_rows` /
    :meth:`signals_rows`.

    Every write lands at each row's own cursor.  Lock step is a property
    of the input: a read whose rows share a cursor and a clock goes
    through shared slots under one clock, with slices for the whole
    fleet — every row of a healthy sweep, and cold rings, whose
    unwritten slots are NaN in every row.  Other reads address each row
    at its own slots and clock; both read the same samples, so signals
    are byte-identical.
    Ring order is irrelevant to every statistic (see module docstring),
    and unwritten NaN slots are dropped by the kernels exactly as the
    scalar paths drop absent samples.
    """

    def __init__(
        self,
        n_tenants: int,
        thresholds: ThresholdConfig,
        goal: LatencyGoal | None = None,
    ) -> None:
        if n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        self.n_tenants = n_tenants
        self.thresholds = thresholds
        self.goal = goal
        window = thresholds.signal_window
        self._window = window
        self._smooth = min(thresholds.smooth_intervals, window)
        self._t = np.full((window, n_tenants), np.nan)  # per-row clocks
        self._lat = np.full((window, n_tenants), np.nan)
        self._util = np.full((window, K, n_tenants), np.nan)
        self._wait = np.full((window, K, n_tenants), np.nan)
        self._wpct = np.full((window, K, n_tenants), np.nan)
        self._cursor_rows = np.zeros(n_tenants, dtype=np.int64)
        self._count_rows = np.zeros(n_tenants, dtype=np.int64)
        self._rows = np.arange(n_tenants)
        cuts = [thresholds.wait_thresholds[kind] for kind in SCALABLE_KINDS]
        self._wait_low = np.array([c.low_ms for c in cuts])[:, None]
        self._wait_high = np.array([c.high_ms for c in cuts])[:, None]
        # Persistent scratch: one flat backing array per name, grown to
        # the largest size ever requested and viewed in the shape asked
        # for.  Whatever mix of wave widths arrives, the pool holds one
        # largest request per name, and the per-interval np.empty churn
        # on the signal hot path disappears.
        self._scratch: dict[str, np.ndarray] = {}

    def _buf(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._scratch.get(name)
        if flat is None or flat.size < size:
            flat = np.empty(size)
            self._scratch[name] = flat
        return flat[:size].reshape(shape)

    def observe(
        self,
        t: float,
        latency_ms: np.ndarray,
        util_pct: np.ndarray,
        wait_ms: np.ndarray,
        wait_pct: np.ndarray,
    ) -> None:
        """Absorb one billing interval for every tenant.

        ``t`` is the shared interval clock (the scalar manager's
        ``float(counters.interval_index)``); per-resource inputs are
        ``(K, T)`` in ``SCALABLE_KINDS`` order, utilization in percent.
        """
        self._write(slice(None), float(t), latency_ms, util_pct, wait_ms, wait_pct)

    def observe_rows(
        self,
        rows: np.ndarray,
        t: np.ndarray,
        latency_ms: np.ndarray,
        util_pct: np.ndarray,
        wait_ms: np.ndarray,
        wait_pct: np.ndarray,
    ) -> None:
        """Absorb one admitted delivery for the ``rows`` subset.

        ``rows`` is a 1-D integer index array (no duplicates); ``t`` and
        ``latency_ms`` are ``(len(rows),)``, per-resource inputs are
        ``(K, len(rows))`` in ``SCALABLE_KINDS`` order.
        """
        if rows.size:
            self._write(rows, t, latency_ms, util_pct, wait_ms, wait_pct)

    def _write(self, idx, t, latency_ms, util_pct, wait_ms, wait_pct) -> None:
        """One sample per row of ``idx``, at each row's own cursor."""
        rows = self._rows[idx]
        c = self._cursor_rows[rows]
        self._t[c, rows] = t
        self._lat[c, rows] = latency_ms
        # [c, :, rows] is (n, K): the paired indices come first.
        self._util[c, :, rows] = np.transpose(util_pct)
        self._wait[c, :, rows] = np.transpose(wait_ms)
        self._wpct[c, :, rows] = np.transpose(wait_pct)
        self._cursor_rows[rows] = (c + 1) % self._window
        self._count_rows[rows] += 1

    def _lock_step(self, idx) -> int | None:
        """The cursor of rows that share one cursor and one clock, or None.

        Cold slots are NaN in every row's clock; NaN never compares
        equal, so they are matched by position.
        """
        cursors = self._cursor_rows[idx]
        c = int(cursors[0])
        if not (cursors == c).all():
            return None
        clock = self._t[:, idx]
        ref = clock[:, :1]
        same = clock == ref
        if not same.all():
            same |= np.isnan(clock) & np.isnan(ref)
        return c if same.all() else None

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Exact serializable state (ring matrices, per-row cursors, counts).

        Rings go out in the tenant-major wire layout, the time axis last:
        ``t``/``lat`` ``(T, W)``, ``util``/``wait``/``wpct`` ``(K, T, W)``.
        Each ring is copied in its own time-major layout (a memcpy, not a
        transposing copy) and returned as a tenant-major view of that
        copy; ``encode_state`` makes it contiguous off the hot path.  The
        returned dict is an immutable-by-convention snapshot, safe to
        serialize while the next interval's ``observe`` mutates the live
        rings.
        """
        state = {
            "n_tenants": self.n_tenants,
            "window": self._window,
            "smooth": self._smooth,
            "dtype": "float64",
            "cursor_rows": self._cursor_rows.copy(),
            "count_rows": self._count_rows.copy(),
        }
        for name in _RINGS:
            state[name] = np.moveaxis(getattr(self, "_" + name).copy(), 0, -1)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore rings and cursors; a bad state is refused before any
        assignment with :class:`ConfigurationError`."""
        if (
            state["n_tenants"] != self.n_tenants
            or state["window"] != self._window
            or state["smooth"] != self._smooth
        ):
            raise ConfigurationError(
                "fleet telemetry checkpoint geometry "
                f"(T={state['n_tenants']}, W={state['window']}, "
                f"S={state['smooth']}) does not match this engine "
                f"(T={self.n_tenants}, W={self._window}, S={self._smooth})"
            )
        _check_ring_dtype("fleet telemetry", state)
        if "cursor_rows" not in state:
            raise ConfigurationError(
                "fleet telemetry checkpoint has one shared clock and cursor; "
                "fleet rings keep one per row"
            )
        rings = {}
        for name in _RINGS:
            live = getattr(self, "_" + name)
            wire = np.asarray(state[name], dtype=np.float64)
            _check_shape(name, wire, live.shape[1:] + live.shape[:1])
            rings[name] = np.moveaxis(wire, -1, 0).copy()
        per_row = {}
        for name in ("cursor_rows", "count_rows"):
            per_row[name] = np.asarray(state[name], dtype=np.int64).copy()
            _check_shape(name, per_row[name], (self.n_tenants,))
        cursor, count = per_row["cursor_rows"], per_row["count_rows"]
        if np.any(
            (cursor < 0) | (cursor >= self._window) | (count < 0)
            | (cursor != count % self._window)
        ):
            raise ConfigurationError(
                "fleet telemetry checkpoint cursor_rows / count_rows are "
                f"not valid positions in a {self._window}-slot ring"
            )
        for name, ring in rings.items():
            setattr(self, "_" + name, ring)
        self._cursor_rows = cursor
        self._count_rows = count

    def _tail_slots(self, k: int, idx, c: int | None) -> np.ndarray:
        """Ring indices of the last ``min(k, window)`` written slots.

        A shared cursor ``c`` gives one vector, oldest first so the one
        clock ascends and the trend kernel takes the stack in place;
        otherwise each row's own slots form a ``(k, m)`` matrix.  Unwritten
        slots are NaN and dropped, leaving exactly the scalar window.
        """
        k = min(k, self._window)
        if c is not None:
            return (c - k + np.arange(k)) % self._window
        cursors = self._cursor_rows[idx]
        return (cursors - 1 - np.arange(k)[:, None]) % self._window

    def _gather(self, dst: np.ndarray, ring: np.ndarray, slots, idx) -> None:
        """Copy ``ring``'s ``slots`` for rows ``idx`` into ``dst`` (k, ..., m)."""
        if slots.ndim == 1:
            for row, c in zip(dst, slots):
                row[...] = ring[c][..., idx]
        elif ring.ndim == 2:
            dst[...] = ring[slots, self._rows[idx]]
        else:
            # [slot, kind, row] gathers land in (k, K, m) order.
            dst[...] = ring[slots[:, None], _KINDS, self._rows[idx]]

    def _trend_x(self, slots, idx, shape: tuple[int, ...]) -> np.ndarray:
        """The trend kernel's x axis: the rows' clock at ``slots``.

        Shared slots read the one clock of a lock-step read; per-row
        slots give each row its own clock, repeated across its stacked
        series.
        """
        rows = self._rows[idx]
        if slots.ndim == 1:
            return self._t[slots, rows[0]]
        x_rep = self._buf("trend_x", shape)
        x_rep[:] = self._t[slots, rows][:, None]
        return x_rep.reshape(shape[0], -1).T

    def signals(self) -> FleetSignals:
        """The categorized fleet signal set for the current interval."""
        if not self._count_rows.any():
            raise InsufficientDataError(
                "no telemetry observed yet: observe() at least one interval "
                "before requesting signals()"
            )
        n = self.n_tenants
        out = _empty_fleet_signals(n)
        self._signals_into(out, slice(0, n), n)
        return out

    def signals_rows(self, rows: np.ndarray) -> FleetSignals:
        """Fleet-width signal set with only the ``rows`` subset computed.

        Every other row holds the inert defaults (NaN latency, UNKNOWN
        status, zeros elsewhere).  Every selected row must have at least
        one observed sample (in the degraded sweep only tenants whose
        delivery was *admitted* this interval reach the full decision
        body, which guarantees it).  An empty ``rows`` (a wave whose
        deliveries were all quarantined) returns the inert set without
        reaching the kernels.
        """
        out = _empty_fleet_signals(self.n_tenants, inert=True)
        if rows.size:
            self._signals_into(out, rows, rows.size)
        return out

    def _signals_into(self, out: FleetSignals, idx, m: int) -> None:
        """Fill ``out[..., idx]`` from the ``m`` ring columns ``idx``.

        ``idx`` is a column slice (the whole fleet) or an array of row
        indices (a wave); a lock-step read gathers shared slots.
        """
        cfg = self.thresholds
        c = self._lock_step(idx)

        # Trends: one kernel call for latency + K utilization + K wait
        # series over the trend sub-window, stacked (tw, series, m) so its
        # transpose is the kernel's (series, tw) input without a copy.
        tslots = self._tail_slots(cfg.trend_window, idx, c)
        tw = len(tslots)
        stack = self._buf("trend", (tw, 1 + 2 * K, m))
        self._gather(stack[:, 0], self._lat, tslots, idx)
        self._gather(stack[:, 1 : 1 + K], self._util, tslots, idx)
        self._gather(stack[:, 1 + K :], self._wait, tslots, idx)
        trend = batched_detect_trend(
            self._trend_x(tslots, idx, stack.shape),
            stack.reshape(tw, -1).T,
            alpha=cfg.trend_alpha,
        )
        _trend_into(out, idx, trend)

        # Correlation: latency vs each resource's waits over the full
        # window (order-invariant; non-finite pairs drop per row).  The
        # kernel ranks each latency window once for all K resources.
        corr = batched_spearman(
            self._lat[:, idx].T, self._wait[..., idx].transpose(1, 2, 0)
        )
        out.rho[:, idx] = corr.rho
        out.corr_n_points[:, idx] = corr.n_points

        # Smoothed "current" values: tail medians (defaults: latency NaN,
        # resources 0.0 — the scalar manager's defaults).
        sslots = self._tail_slots(self._smooth, idx, c)
        sw = len(sslots)
        lat_stack = self._buf("smooth_lat", (sw, m))
        self._gather(lat_stack, self._lat, sslots, idx)
        out.latency_ms[idx] = batched_tail_median(
            lat_stack.T, sw, default=np.nan
        )
        res_stack = self._buf("smooth", (sw, 3 * K, m))
        self._gather(res_stack[:, :K], self._util, sslots, idx)
        self._gather(res_stack[:, K : 2 * K], self._wait, sslots, idx)
        self._gather(res_stack[:, 2 * K :], self._wpct, sslots, idx)
        smoothed = batched_tail_median(
            res_stack.reshape(sw, -1).T, sw, default=0.0
        ).reshape(3 * K, m)
        self._categorize_into(out, idx, smoothed)

    def _categorize_into(
        self, out: FleetSignals, idx, smoothed: np.ndarray
    ) -> None:
        """Threshold the smoothed medians into levels/status for ``idx``."""
        cfg = self.thresholds
        util_s, wait_s, wpct_s = (
            smoothed[:K],
            smoothed[K : 2 * K],
            smoothed[2 * K :],
        )
        out.util_pct[:, idx] = util_s
        out.wait_ms[:, idx] = wait_s
        out.wait_pct[:, idx] = wpct_s
        out.util_level[:, idx] = (
            (util_s >= cfg.util_low_pct).astype(np.int8)
            + (util_s >= cfg.util_high_pct)
        ).astype(np.int8)
        out.wait_level[:, idx] = (
            (wait_s >= self._wait_low).astype(np.int8)
            + (wait_s >= self._wait_high)
        ).astype(np.int8)
        out.wait_significant[:, idx] = wpct_s >= cfg.wait_pct_significant

        latency_ms = out.latency_ms[idx]
        if self.goal is None:
            out.latency_status[idx] = np.int8(LAT_UNKNOWN)
        else:
            out.latency_status[idx] = np.where(
                np.isnan(latency_ms),
                np.int8(LAT_UNKNOWN),
                np.where(
                    latency_ms <= self.goal.target_ms,
                    np.int8(LAT_GOOD),
                    np.int8(LAT_BAD),
                ),
            ).astype(np.int8)


def estimate_fleet(
    signals: FleetSignals,
    thresholds: ThresholdConfig,
    *,
    use_waits: bool = True,
    use_trends: bool = True,
    use_correlation: bool = True,
) -> FleetDemand:
    """The rule hierarchy as stacked masks; first match wins via argmax.

    Mirrors :meth:`repro.core.demand_estimator.DemandEstimator.estimate`
    exactly, including the memory/disk coupling and the ``use_waits``
    ablation (which replaces the hierarchy with utilization extremes but
    still applies the coupling afterwards, as the scalar does).
    """
    u_lvl, w_lvl = signals.util_level, signals.wait_level
    w_sig = signals.wait_significant
    n = u_lvl.shape[1]

    if not use_waits:
        steps = np.where(
            u_lvl == 2, np.int8(1), np.where(u_lvl == 0, np.int8(-1), np.int8(0))
        ).astype(np.int8)
        rules = np.where(
            u_lvl == 2,
            np.int8(_RULE_U_HIGH),
            np.where(u_lvl == 0, np.int8(_RULE_U_LOW), np.int8(0)),
        ).astype(np.int8)
    else:
        u_dir, w_dir = signals.util_direction, signals.wait_direction
        sat = signals.util_pct >= 95.0
        uH, uM, uL = u_lvl == 2, u_lvl == 1, u_lvl == 0
        wH, wM, wL = w_lvl == 2, w_lvl == 1, w_lvl == 0
        wMH = w_lvl >= 1
        if use_trends:
            trending = (u_dir > 0) | (w_dir > 0)
            not_trending = (u_dir <= 0) & (w_dir <= 0)
        else:
            trending = np.zeros_like(uH)
            not_trending = np.ones_like(uH)
        if use_correlation:
            correlated = np.abs(signals.rho) >= thresholds.correlation_strong
        else:
            correlated = np.zeros_like(uH)

        # The hierarchy, in _EXPECTED_HIGH order (checked at import).
        conds = np.stack(
            [
                sat & wH & w_sig,                       # H0-saturated-strong
                uH & wH & w_sig & trending,             # H1-strong-pressure-trending
                uH & wH & w_sig,                        # H2-strong-pressure
                sat & wH,                               # H2b-saturated-high-waits
                uH & wH & ~w_sig & trending,            # H3-high-waits-trending
                uH & wM & w_sig & trending,             # H4-medium-waits-trending
                uH & wMH & correlated,                  # H5-correlated-bottleneck
                uM & wMH & w_sig,                       # H7-moderate-pressure
                sat & wMH & w_sig,                      # H6-saturated-with-waits
            ]
        )
        fired = conds.any(axis=0)
        first = conds.argmax(axis=0)
        steps = np.where(fired, _HIGH_STEPS[first], np.int8(0)).astype(np.int8)
        rules = np.where(fired, (first + 1).astype(np.int8), np.int8(0)).astype(
            np.int8
        )

        # Low-demand rules: only where no high rule fired, never for memory.
        l1 = uL & wL & not_trending
        l2 = uM & wL & ~w_sig & use_trends & (u_dir < 0) & (w_dir <= 0)
        non_memory = np.ones((K, 1), dtype=bool)
        non_memory[_MEM] = False
        low = ~fired & non_memory & (l1 | l2)
        steps = np.where(low, np.int8(-1), steps).astype(np.int8)
        rules = np.where(
            low, np.where(l1, np.int8(_RULE_L1), np.int8(_RULE_L2)), rules
        ).astype(np.int8)

    # Memory/disk coupling (applies to both paths, as in the scalar).
    couple = (
        (steps[_DISK] > 0)
        & ~(steps[_MEM] > 0)
        & (signals.wait_level[_MEM] >= 1)
        & signals.wait_significant[_MEM]
    )
    steps[_MEM] = np.where(couple, steps[_DISK], steps[_MEM])
    rules[_MEM] = np.where(couple, np.int8(_RULE_M1), rules[_MEM])

    np.clip(steps, -MAX_STEP, MAX_STEP, out=steps)
    any_high = (steps > 0).any(axis=0)
    non_mem_rows = [i for i in range(K) if i != _MEM]
    return FleetDemand(
        steps=steps,
        rules=rules,
        any_high=any_high,
        all_low=(steps[non_mem_rows] < 0).all(axis=0),
        all_low_or_flat=~any_high,
    )


class VectorizedAutoScaler:
    """The whole-fleet closed loop: scalar ``AutoScaler.decide`` as array ops.

    One :meth:`decide_batch` call consumes one billing interval for every
    tenant and returns :class:`FleetDecisions`.  Per-tenant heterogeneity
    is supported where the scalar supports it (initial level, budget);
    thresholds, goal, sensitivity and ablation switches are fleet-wide.

    Degraded modes (telemetry guard, safe mode, resize-executor coupling)
    live in :class:`repro.fleet.degraded.DegradedVectorizedAutoScaler`,
    which runs this class's decision body over each wave's row mask.

    Args:
        catalog: a pure lock-step catalog (dimension-scaled variants raise).
        n_tenants: fleet size ``T``.
        initial_level: starting container level, scalar or ``(T,)``.
        goal / thresholds / sensitivity: as the scalar AutoScaler.
        budget: one :class:`BudgetManager` *template* applied to every
            tenant, a sequence of per-tenant managers, or None for the
            unconstrained default.  Managers are read for their bucket
            parameters and current state, never mutated.
        damper: an :class:`OscillationDamper` *template* supplying
            (window, max_reversals, cooldown_intervals); None disables
            damping, matching the scalar default.
        record_actions: keep the per-tenant ordered action lists on each
            decision (required for byte-identity checks; costs a Python
            loop over tenants, so the fleet benchmark turns it off).
        clock: optional monotonic clock (``time.perf_counter``-like).
            When set, each :meth:`decide_batch` records per-stage wall
            clock (signals / estimate_fleet / actuation / whole batch)
            into ``self.metrics`` histograms ``fleet.stage.*``; when
            None (the default) no clock is read and the loop is
            byte-stable across hosts.
    """

    def __init__(
        self,
        catalog: ContainerCatalog,
        n_tenants: int,
        *,
        initial_level: int | np.ndarray = 0,
        goal: LatencyGoal | None = None,
        budget: BudgetManager | Sequence[BudgetManager] | None = None,
        thresholds: ThresholdConfig | None = None,
        sensitivity: PerformanceSensitivity = PerformanceSensitivity.MEDIUM,
        use_waits: bool = True,
        use_trends: bool = True,
        use_correlation: bool = True,
        use_ballooning: bool = True,
        damper: OscillationDamper | None = None,
        record_actions: bool = True,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if len(catalog) != catalog.num_levels:
            raise CatalogError(
                "vectorized engine requires a pure lock-step catalog "
                "(dimension-scaled variants break the level/cost searches)"
            )
        self.catalog = catalog
        self.n_tenants = n_tenants
        self.goal = goal
        self.thresholds = thresholds or default_thresholds()
        self.sensitivity = sensitivity
        self.use_waits = use_waits
        self.use_trends = use_trends
        self.use_correlation = use_correlation
        self.use_ballooning = use_ballooning
        self._record_actions = record_actions
        #: Per-stage timing histograms land here when ``clock`` is set;
        #: recorders and health monitors may add their own instruments.
        self.metrics = MetricsRegistry()
        self._clock = clock
        self._recorder = None
        self._clamp_zero: np.ndarray | None = None
        self._clamp_depth: np.ndarray | None = None

        levels = [catalog.at_level(i) for i in range(catalog.num_levels)]
        self._costs = np.array([c.cost for c in levels])
        self._names = [c.name for c in levels]
        # (K, L) allocation table; nondecreasing by catalog dominance.
        self._res = np.array(
            [[c.resources.get(kind) for c in levels] for kind in SCALABLE_KINDS]
        )
        self._mem = self._res[_MEM]
        if use_ballooning and np.any(np.diff(self._mem) <= 0):
            raise CatalogError(
                "ballooning requires strictly increasing memory per level"
            )
        self._usable_cache = np.array([usable_cache_gb(m) for m in self._mem])
        self._overhead = np.array([engine_overhead_gb(m) for m in self._mem])
        self._n_levels = len(levels)

        self.level = np.broadcast_to(
            np.asarray(initial_level, dtype=np.int64), (n_tenants,)
        ).copy()
        if np.any((self.level < 0) | (self.level >= self._n_levels)):
            raise CatalogError("initial_level outside the catalog")

        self.telemetry = VectorizedTelemetry(n_tenants, self.thresholds, goal)
        self._init_budget(budget)

        #: Cumulative actuation tally, updated on every decide_batch.  The
        #: closed-loop sweep reads this to prove the controller actually
        #: resized/ballooned rather than estimating in a vacuum.
        self.action_counts: dict[str, int] = {
            "intervals": 0,
            "resizes": 0,
            "scale_up": 0,
            "scale_down": 0,
            "hold_latency": 0,
            "up_clipped": 0,
            "probe_started": 0,
            "balloon_aborted": 0,
            "balloon_confirmed": 0,
            "damper_suppressed": 0,
            "budget_forced": 0,
            "damper_tripped": 0,
        }

        # Balloon state machine, struct-of-arrays (NaN == scalar None).
        self._b_phase = np.zeros(n_tenants, dtype=np.int8)
        self._b_limit = np.full(n_tenants, np.nan)
        self._b_target = np.full(n_tenants, np.nan)
        self._b_baseline = np.full(n_tenants, np.nan)
        self._b_cooldown = np.zeros(n_tenants, dtype=np.int64)
        self._b_failed = np.full(n_tenants, np.nan)
        self.balloon_limit_gb = np.full(n_tenants, np.nan)  # scaler-side cap

        self._low_streak = np.zeros(n_tenants, dtype=np.int64)
        # Written at the telemetry rings' own row cursors (see _observe).
        self._disk_reads = np.full(
            (n_tenants, self.thresholds.signal_window), np.nan
        )

        self._damper = damper
        if damper is not None:
            self._d_moves = np.zeros((n_tenants, damper.window), dtype=np.int8)
            self._d_len = np.zeros(n_tenants, dtype=np.int64)
            self._d_cooldown = np.zeros(n_tenants, dtype=np.int64)
            self.damper_trips = 0

        # Balloon tunables come from one reference controller's defaults so
        # the two implementations share a single source of truth.
        from repro.core.ballooning import BalloonController

        ref = BalloonController()
        self._shrink_fraction = ref.shrink_step_fraction
        self._io_spike_ratio = ref.io_spike_ratio
        self._disk_pressure_pct = ref.disk_pressure_pct
        self._balloon_cooldown = ref.cooldown_intervals

    # -- setup helpers -----------------------------------------------------

    def _init_budget(
        self, budget: BudgetManager | Sequence[BudgetManager] | None
    ) -> None:
        n = self.n_tenants
        if budget is None:
            budget = unconstrained_budget(self.catalog.max_cost)
        if isinstance(budget, BudgetManager):
            managers: Sequence[BudgetManager] = [budget] * n
        else:
            managers = list(budget)
            if len(managers) != n:
                raise BudgetError(
                    f"need {n} budget managers, got {len(managers)}"
                )
        self._tokens = np.array([m.available for m in managers])
        self._depth = np.array([m.depth for m in managers])
        self._fill = np.array([m.fill_rate for m in managers])
        self._period_n = np.array([m.n_intervals for m in managers])
        self._interval_i = np.array(
            [m.n_intervals - m.remaining_intervals for m in managers]
        )
        self._spent = np.array([m.spent for m in managers])

    @property
    def budget_available(self) -> np.ndarray:
        return self._tokens

    def attach_recorder(self, recorder) -> None:
        """Attach a columnar trace recorder (duck-typed).

        The recorder receives one :meth:`record_interval` call per
        :meth:`decide_batch`; ``recorder.bind(self)`` runs immediately so
        it can capture the initial budget/level state the drill-down
        replay needs.  Must happen before the first interval — a recorder
        attached mid-run could not reconstruct the scalar-equivalent
        history.
        """
        if self.telemetry._count_rows.any():
            raise ValueError(
                "attach_recorder() before the first decide_batch: the "
                "columnar store must cover the run from interval 0"
            )
        self._recorder = recorder
        recorder.bind(self)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Exact serializable state of the whole-fleet control loop.

        Covers every mutable array: container levels, the token-bucket
        ledger, the balloon state machine, scale-down streaks, the disk
        read window, and the damper rings.  Every array is copied, so the
        result is a consistent point-in-time snapshot: the tick loop only
        pays for the memcpy, and encoding/writing can proceed on the
        snapshot while the next ``decide_batch`` mutates the live engine.
        The clamp scratch masks (``_clamp_zero`` / ``_clamp_depth``) are
        transient — rebuilt by the next ``_charge`` — and an
        attached recorder is the caller's to re-attach.
        """
        state = {
            "n_tenants": self.n_tenants,
            "n_levels": self._n_levels,
            "dtype": "float64",
            "action_counts": dict(self.action_counts),
            "level": self.level.copy(),
            "budget": {key: getattr(self, "_" + key).copy() for key in _BUDGET},
            "balloon": {
                **{key: getattr(self, "_b_" + key).copy() for key in _BALLOON},
                "limit_gb": self.balloon_limit_gb.copy(),
            },
            "low_streak": self._low_streak.copy(),
            "disk_reads": self._disk_reads.copy(),
            "telemetry": self.telemetry.state_dict(),
            "metrics": self.metrics.state_dict(),
            "damper": None,
        }
        if self._damper is not None:
            state["damper"] = {
                "window": self._damper.window,
                "moves": self._d_moves.copy(),
                "len": self._d_len.copy(),
                "cooldown": self._d_cooldown.copy(),
                "trips": self.damper_trips,
            }
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a scaler built with the same fleet configuration.

        Every array is checked against this engine's shapes, and every
        level against the catalog, before anything is assigned: a refused
        checkpoint raises :class:`ConfigurationError` and leaves the
        engine as it was.
        """
        if (
            state["n_tenants"] != self.n_tenants
            or state["n_levels"] != self._n_levels
        ):
            raise ConfigurationError(
                f"fleet checkpoint shape (T={state['n_tenants']}, "
                f"L={state['n_levels']}) does not match this engine "
                f"(T={self.n_tenants}, L={self._n_levels})"
            )
        if (state["damper"] is None) != (self._damper is None):
            raise ConfigurationError(
                "damper presence mismatch between checkpoint and live engine"
            )
        _check_ring_dtype("fleet", state)
        budget, balloon = state["budget"], state["balloon"]
        damper = state["damper"]
        raw = {
            "level": state["level"],
            "balloon_limit_gb": balloon["limit_gb"],
            "_low_streak": state["low_streak"],
            "_disk_reads": state["disk_reads"],
        }
        for key in _BUDGET:
            raw["_" + key] = budget[key]
        for key in _BALLOON:
            raw["_b_" + key] = balloon[key]
        if damper is not None:
            if damper["window"] != self._damper.window:
                raise ConfigurationError(
                    f"damper window {damper['window']} does not match "
                    f"this engine's {self._damper.window}"
                )
            for key in ("moves", "len", "cooldown"):
                raw["_d_" + key] = damper[key]
        arrays = _checked_arrays(self, raw)
        level = arrays["level"]
        if np.any((level < 0) | (level >= self._n_levels)):
            raise ConfigurationError(
                "fleet checkpoint level outside the catalog"
            )
        # The telemetry rings check themselves before assigning anything.
        self.telemetry.load_state_dict(state["telemetry"])
        self.metrics.load_state_dict(state["metrics"])
        for attr, value in arrays.items():
            setattr(self, attr, value)
        counts = state.get("action_counts")
        if counts is not None:
            self.action_counts = {k: int(v) for k, v in counts.items()}
        self._clamp_zero = None
        self._clamp_depth = None
        if damper is not None:
            self.damper_trips = int(damper["trips"])

    # -- the closed loop ---------------------------------------------------

    def decide_batch(
        self,
        t: float,
        latency_ms: np.ndarray,
        util_pct: np.ndarray,
        wait_ms: np.ndarray,
        wait_pct: np.ndarray,
        memory_used_gb: np.ndarray,
        disk_physical_reads: np.ndarray,
        billed_cost: np.ndarray | None = None,
    ) -> FleetDecisions:
        """Consume one interval's fleet telemetry; choose every container.

        Inputs mirror the fields the scalar loop reads off one
        :class:`IntervalCounters` (see :func:`counters_to_interval_arrays`);
        ``billed_cost`` defaults to the engine's own container belief,
        which is what a healthy closed loop bills.
        """
        clock = self._clock
        t_start = clock() if clock is not None else 0.0
        latency_ms = np.asarray(latency_ms, dtype=float)
        memory_used_gb = np.asarray(memory_used_gb, dtype=float)
        disk_physical_reads = np.asarray(disk_physical_reads, dtype=float)

        if billed_cost is None:
            billed_cost = self._costs[self.level]
        billed_cost = np.asarray(billed_cost, dtype=float)
        # The ledger refuses before anything is written, rings included.
        self._charge(billed_cost)
        self._observe(
            None, t, latency_ms, util_pct, wait_ms, wait_pct, disk_physical_reads
        )

        signals = self.telemetry.signals()
        t_signals = clock() if clock is not None else 0.0
        demand = self._estimate(signals)
        t_estimate = clock() if clock is not None else 0.0
        decided = self._decide(
            signals, demand, util_pct, disk_physical_reads, memory_used_gb
        )
        self.action_counts["intervals"] += 1

        if clock is not None:
            t_end = clock()
            h = self.metrics.histogram
            h("fleet.stage.signals").observe((t_signals - t_start) * 1e3)
            h("fleet.stage.estimate_fleet").observe(
                (t_estimate - t_signals) * 1e3
            )
            h("fleet.stage.actuation").observe((t_end - t_estimate) * 1e3)
            h("fleet.stage.decide_batch").observe((t_end - t_start) * 1e3)

        if self._recorder is not None:
            self._recorder.record_interval(
                t=t,
                latency_ms=latency_ms,
                util_pct=np.asarray(util_pct, dtype=float),
                wait_ms=np.asarray(wait_ms, dtype=float),
                wait_pct=np.asarray(wait_pct, dtype=float),
                memory_used_gb=memory_used_gb,
                disk_physical_reads=disk_physical_reads,
                billed_cost=billed_cost,
                steps=demand.steps,
                rules=demand.rules,
                clamp_zero=self._clamp_zero,
                clamp_depth=self._clamp_depth,
                tokens=self._tokens,
                spent=self._spent,
                balloon_limit_gb=self.balloon_limit_gb,
                **decided,
            )

        return FleetDecisions(
            level=decided["level_after"].copy(),
            resized=decided["resized"],
            balloon_limit_gb=self.balloon_limit_gb.copy(),
            steps=demand.steps.copy(),
            rules=demand.rules.copy(),
            actions=decided["actions"],
        )

    def _estimate(self, signals: FleetSignals) -> FleetDemand:
        return estimate_fleet(
            signals,
            self.thresholds,
            use_waits=self.use_waits,
            use_trends=self.use_trends,
            use_correlation=self.use_correlation,
        )

    def _decide(
        self,
        signals: FleetSignals,
        demand: FleetDemand,
        util_pct: np.ndarray,
        disk_reads: np.ndarray,
        memory_used_gb: np.ndarray,
        *,
        rows: np.ndarray | None = None,
        held: np.ndarray | None = None,
        prefix: Sequence[tuple[str, np.ndarray]] = (),
        participants: np.ndarray | None = None,
    ) -> dict:
        """The decision body, after budget settlement and signals.

        Latency gate, balloon step, scale-up / explained hold /
        scale-down, damper suppression, budget enforcement, damper
        observe, ``_on_resize`` and the action tally, in scalar-source
        order.  Without ``rows`` every tenant decides and nothing is
        masked.  A delivery wave passes ``rows``, the tenants that run
        the whole body, and ``held``, the degraded and safe-mode tenants
        that keep their container unless the budget forces it down;
        every other tenant is left untouched.  ``prefix`` slots lead
        each tenant's action list, and tenants outside ``participants``
        get ``None`` there.  Returns the interval's level arrays, masks and
        actions, keyed as the trace recorder's columns.
        """
        n = self.n_tenants
        previous = self.level
        needs_help = self._latency_needs_help(signals)
        if rows is not None:
            needs_help &= rows
        balloon_aborted, balloon_confirmed = self._handle_balloon(
            demand, needs_help, util_pct, disk_reads, rows
        )

        # Without a latency goal, scaling is driven by demand alone.
        if self.goal is None:
            wants_up = demand.any_high
        else:
            wants_up = demand.any_high & needs_help
        if rows is not None:
            wants_up = wants_up & rows  # not in place: may alias any_high
        hold_help = ~wants_up & needs_help
        down_path = ~wants_up & ~needs_help
        if rows is not None:
            down_path &= rows

        # From here on ``target`` differs from ``previous`` only on
        # deciding rows, so the damper and resize steps need no mask.
        target = previous.copy()
        # -- scale-up ------------------------------------------------------
        up_clipped = np.zeros(n, dtype=bool)
        if np.any(wants_up):
            up_target, up_clipped = self._scale_up_targets(previous, demand.steps)
            target = np.where(wants_up, up_target, target)
            up_clipped &= wants_up
            self._low_streak[wants_up] = 0
        # -- explained hold (latency bad, no resource demand) --------------
        self._low_streak[hold_help] = 0
        # -- scale-down ----------------------------------------------------
        probe_started = np.zeros(n, dtype=bool)
        shrink = np.zeros(n, dtype=bool)
        if np.any(down_path):
            down = self._maybe_scale_down(
                previous, signals, demand, balloon_confirmed, down_path, memory_used_gb
            )
            down_target, probe_started, shrink = down
            target = np.where(down_path, down_target, target)

        # -- damper cool-down suppresses discretionary moves ---------------
        suppressed = np.zeros(n, dtype=bool)
        if self._damper is not None:
            suppressed = (self._d_cooldown > 0) & (target != previous)
            target = np.where(suppressed, previous, target)

        # -- the hard budget constraint ------------------------------------
        budget_forced = ~(self._costs[target] <= self._tokens + 1e-9)
        if rows is not None:
            budget_forced &= rows | held
        if np.any(budget_forced):
            forced_level = (
                np.searchsorted(self._costs, self._tokens + 1e-9, side="right")
                - 1
            )
            if np.any(forced_level[budget_forced] < 0):
                raise BudgetError(
                    "no container affordable for some tenant (budget "
                    "invariant violated)"
                )
            target = np.where(budget_forced, forced_level, target)

        # -- damper observes the applied move ------------------------------
        tripped = np.zeros(n, dtype=bool)
        if self._damper is not None:
            tripped = self._damper_observe(previous, target, rows)

        resized = target != previous
        if np.any(resized):
            self._on_resize(resized)
        self.level = target

        c = self.action_counts
        c["resizes"] += int(np.count_nonzero(resized))
        c["scale_up"] += int(np.count_nonzero(resized & (target > previous)))
        c["scale_down"] += int(np.count_nonzero(resized & (target < previous)))
        c["hold_latency"] += int(np.count_nonzero(hold_help))
        c["up_clipped"] += int(np.count_nonzero(up_clipped))
        c["probe_started"] += int(np.count_nonzero(probe_started))
        c["balloon_aborted"] += int(np.count_nonzero(balloon_aborted))
        c["balloon_confirmed"] += int(np.count_nonzero(balloon_confirmed))
        c["damper_suppressed"] += int(np.count_nonzero(suppressed))
        c["budget_forced"] += int(np.count_nonzero(budget_forced))
        c["damper_tripped"] += int(np.count_nonzero(tripped))

        actions = None
        if self._record_actions:
            scale_up = ActionKind.SCALE_UP.value
            actions = self._assemble_actions(
                [
                    *prefix,
                    (ActionKind.BALLOON_ABORT.value, balloon_aborted),
                    (ActionKind.BALLOON_CONFIRM.value, balloon_confirmed),
                    *((scale_up, wants_up & (demand.steps[k] > 0)) for k in range(K)),
                    (ActionKind.BUDGET_CONSTRAINED.value, up_clipped),
                    (ActionKind.NO_CHANGE.value, hold_help),
                    (ActionKind.BALLOON_START.value, probe_started),
                    (ActionKind.SCALE_DOWN.value, shrink),
                    (ActionKind.OSCILLATION_DAMPED.value, suppressed),
                    (ActionKind.BUDGET_CONSTRAINED.value, budget_forced),
                    (ActionKind.OSCILLATION_DAMPED.value, tripped),
                ],
                participants,
            )

        return dict(
            level_before=previous,
            level_after=target,
            resized=resized,
            needs_help=needs_help,
            wants_up=wants_up,
            hold_help=hold_help,
            up_clipped=up_clipped,
            probe_started=probe_started,
            shrink=shrink,
            suppressed=suppressed,
            budget_forced=budget_forced,
            tripped=tripped,
            balloon_aborted=balloon_aborted,
            balloon_confirmed=balloon_confirmed,
            actions=actions,
        )

    # -- pieces of the loop, in scalar-source order ------------------------

    def _observe(
        self,
        rows: np.ndarray | None,
        t,
        latency_ms: np.ndarray,
        util_pct: np.ndarray,
        wait_ms: np.ndarray,
        wait_pct: np.ndarray,
        disk_reads: np.ndarray,
    ) -> None:
        """One sample per tenant of ``rows`` (all when None) into the windows.

        Inputs are full-width arrays; ``t`` is the shared interval clock
        without ``rows`` and a ``(T,)`` per-row clock with them.  The disk-read
        window is written at the telemetry rings' own row cursors, so the
        two windows advance together.
        """
        tel = self.telemetry
        idx = slice(None) if rows is None else rows
        self._disk_reads[tel._rows[idx], tel._cursor_rows[idx]] = disk_reads[idx]
        if rows is None:
            tel.observe(t, latency_ms, util_pct, wait_ms, wait_pct)
        else:
            tel.observe_rows(
                rows,
                t[rows],
                latency_ms[rows],
                util_pct[:, rows],
                wait_ms[:, rows],
                wait_pct[:, rows],
            )

    def _charge(self, cost: np.ndarray, rows: np.ndarray | None = None) -> None:
        """``BudgetManager.end_interval`` for ``rows`` (every tenant when None).

        As in the scalar ledger, a row whose period is over or whose cost
        exceeds its tokens is refused before it is charged: this engine
        raises :class:`BudgetError` from :meth:`_refuse_charge` before
        any row is charged, and a wave's engine kills the refused rows and
        charges the rest.
        """
        pay = np.ones(self.n_tenants, dtype=bool) if rows is None else rows.copy()
        finished = pay & (self._interval_i >= self._period_n)
        unaffordable = pay & ~finished & (cost > self._tokens + 1e-9)
        if np.any(finished) or np.any(unaffordable):
            self._refuse_charge(finished, unaffordable, cost)
            pay &= ~(finished | unaffordable)
        np.add(self._interval_i, 1, out=self._interval_i, where=pay)
        np.add(self._spent, cost, out=self._spent, where=pay)
        after = np.maximum(self._tokens - cost, 0.0)
        if self._recorder is not None:
            # The scalar ledger's clamp events, as masks, captured before
            # the in-place refill mutates the token array.
            self._clamp_zero = (self._tokens - cost) < 0.0
            self._clamp_depth = (after + self._fill) > self._depth
        np.minimum(after + self._fill, self._depth, out=self._tokens, where=pay)

    def _refuse_charge(
        self, finished: np.ndarray, unaffordable: np.ndarray, cost: np.ndarray
    ) -> None:
        if np.any(finished):
            raise BudgetError("budgeting period already finished")
        worst = int(np.argmax(cost - self._tokens))
        raise BudgetError(
            f"cost {cost[worst]} exceeds available budget "
            f"{self._tokens[worst]:.2f} (tenant {worst})"
        )

    def _latency_needs_help(self, signals: FleetSignals) -> np.ndarray:
        """BAD latency, or a significant *material* degrading trend."""
        if self.goal is None:
            return np.zeros(self.n_tenants, dtype=bool)
        bad = signals.latency_status == LAT_BAD
        degrading = (signals.lat_direction > 0) & ~np.isnan(signals.latency_ms)
        target = self.goal.target_ms
        near_goal = signals.latency_ms >= 0.6 * target
        material = (
            signals.lat_slope * self.thresholds.trend_window >= 0.10 * target
        )
        return bad | (degrading & near_goal & material)

    def _handle_balloon(
        self,
        demand: FleetDemand,
        needs_help: np.ndarray,
        util_pct: np.ndarray,
        disk_reads: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance active probes; returns (aborted/cancelled, confirmed).

        With ``rows`` only those tenants' probes and cooldown clocks move.
        """
        probing = self._b_phase == _B_PROBING
        was_cooling = self._b_phase == _B_COOLDOWN
        if rows is not None:
            probing &= rows
            was_cooling &= rows

        cancel = probing & (needs_help | demand.any_high)
        if np.any(cancel):
            self._cancel_probe(cancel)

        observe = probing & ~cancel
        confirmed = np.zeros(self.n_tenants, dtype=bool)
        aborted = np.zeros(self.n_tenants, dtype=bool)
        if np.any(observe):
            # The balloon judges disk pressure on the *raw* interval
            # utilization, not the smoothed signal (scalar: observe()
            # reads counters.utilization_median directly).  A wave's
            # absent rows carry NaN reads; they are never observed.
            with np.errstate(invalid="ignore"):
                spiked = disk_reads > self._b_baseline * self._io_spike_ratio
                aborted = (
                    observe
                    & spiked
                    & (util_pct[_DISK] >= self._disk_pressure_pct)
                )
            if np.any(aborted):
                self._b_phase[aborted] = _B_COOLDOWN
                self._b_cooldown[aborted] = self._balloon_cooldown
                self._b_failed[aborted] = self._b_target[aborted]
                self._b_limit[aborted] = np.nan
                self.balloon_limit_gb[aborted] = np.nan
            live = observe & ~aborted
            with np.errstate(invalid="ignore"):
                confirmed = live & (self._b_limit <= self._b_target + 1e-9)
            if np.any(confirmed):
                self._b_phase[confirmed] = _B_IDLE
                self._b_limit[confirmed] = np.nan
                self.balloon_limit_gb[confirmed] = np.nan
            shrinking = live & ~confirmed
            if np.any(shrinking):
                new_limit = self._next_limits(
                    self._b_limit[shrinking], self._b_target[shrinking]
                )
                self._b_limit[shrinking] = new_limit
                self.balloon_limit_gb[shrinking] = new_limit

        # Idle/cooldown tenants tick their cooldown clock.
        self._tick_balloon_cooldown(was_cooling)
        return cancel | aborted, confirmed

    def _tick_balloon_cooldown(self, tick: np.ndarray) -> None:
        """``BalloonController.tick_cooldown`` for the COOLDOWN rows ``tick``."""
        if np.any(tick):
            self._b_cooldown[tick] -= 1
            done = tick & (self._b_cooldown <= 0)
            self._b_phase[done] = _B_IDLE
            self._b_cooldown[done] = 0

    def _cancel_probe(self, rows) -> None:
        """Drop ``rows``' probes and caps: IDLE, no cooldown."""
        self._b_phase[rows] = _B_IDLE
        self._b_limit[rows] = np.nan
        self._b_cooldown[rows] = 0
        self.balloon_limit_gb[rows] = np.nan

    def _on_resize(self, rows) -> None:
        """Cancel probes keyed to the stale size; restart the down streak."""
        self._cancel_probe(rows)
        self._low_streak[rows] = 0

    def _next_limits(self, current_gb: np.ndarray, target_gb: np.ndarray):
        gap = current_gb - target_gb
        step = np.maximum(gap * self._shrink_fraction, MIN_SHRINK_STEP_GB)
        return np.maximum(target_gb, current_gb - step)

    def _scale_up_targets(
        self, level: np.ndarray, steps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized cheapest_covering_within over the lock-step tables."""
        top = self._n_levels - 1
        covering = np.zeros(self.n_tenants, dtype=np.int64)
        for k in range(K):
            stepped = np.minimum(level + steps[k], top)
            desired = np.where(
                steps[k] > 0, self._res[k, stepped], self._res[k, level]
            )
            # Smallest level whose allocation covers the desired amount;
            # clamps to the largest when nothing does (smallest_covering's
            # fallback).
            need = np.minimum(
                np.searchsorted(self._res[k], desired, side="left"), top
            )
            np.maximum(covering, need, out=covering)
        covering_cost = self._costs[covering]
        # cheapest_covering_within: plain <= (no epsilon) on the covering
        # check; fall back to the most expensive affordable container.
        afford_covering = covering_cost <= self._tokens
        fallback = np.maximum(
            np.searchsorted(self._costs, self._tokens, side="right") - 1, 0
        )
        chosen = np.where(afford_covering, covering, fallback)
        clipped = self._costs[chosen] < covering_cost
        # Never scale *down* as a side effect of a scale-up search.
        chosen = np.where(self._costs[chosen] < self._costs[level], level, chosen)
        return chosen, clipped

    def _maybe_scale_down(
        self,
        level: np.ndarray,
        signals: FleetSignals,
        demand: FleetDemand,
        balloon_confirmed: np.ndarray,
        down_path: np.ndarray,
        memory_used_gb: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        at_floor = level == 0
        allowed = self._scale_down_allowed(level, signals, demand)
        blocked = down_path & (at_floor | ~allowed)
        self._low_streak[blocked] = 0
        active = down_path & ~at_floor & allowed
        self._low_streak[active] += 1
        ready = active & (
            self._low_streak >= self.sensitivity.idle_intervals_before_scale_down
        )

        below = np.maximum(level - 1, 0)
        cached = np.maximum(memory_used_gb - self._overhead[level], 0.0)
        needs_probe = cached > self._usable_cache[below] + 1e-9
        gate = ready & needs_probe & ~balloon_confirmed

        probe_started = np.zeros(self.n_tenants, dtype=bool)
        if self.use_ballooning:
            can_probe = (
                (self._b_phase == _B_IDLE)
                & (self._b_cooldown == 0)
                & (
                    np.isnan(self._b_failed)
                    | (self._mem[below] > self._b_failed + 1e-9)
                )
            )
            probe_started = gate & can_probe
            if np.any(probe_started):
                rows = probe_started
                baseline = np.maximum(self._disk_baseline(rows), 1.0)
                self._b_phase[rows] = _B_PROBING
                self._b_target[rows] = self._mem[below[rows]]
                self._b_baseline[rows] = baseline
                limits = self._next_limits(
                    self._mem[level[rows]], self._mem[below[rows]]
                )
                self._b_limit[rows] = limits
                self.balloon_limit_gb[rows] = limits
            # Hold while probing / cooling down; the streak is deliberately
            # NOT reset (scalar returns early before the reset line).
            shrink = ready & ~gate
        else:
            # Ballooning ablated: shrink blindly (Figure 14 behaviour).
            shrink = ready
        self._low_streak[shrink] = 0
        target = np.where(shrink, below, level)
        return target, probe_started, shrink

    def _scale_down_allowed(
        self, level: np.ndarray, signals: FleetSignals, demand: FleetDemand
    ) -> np.ndarray:
        base_ok = ~demand.any_high & ~(signals.lat_direction > 0)
        if self.goal is None:
            return base_ok & demand.all_low
        unknown = signals.latency_status == LAT_UNKNOWN
        good = signals.latency_status == LAT_GOOD
        margin = self.sensitivity.scale_down_margin
        with np.errstate(invalid="ignore"):
            headroom = signals.latency_ms <= margin * self.goal.target_ms
        fits = self._fits_next_size_down(level, signals)
        return base_ok & (
            (unknown & demand.all_low_or_flat)
            | (
                good
                & headroom
                & (demand.all_low | (demand.all_low_or_flat & fits))
            )
        )

    def _fits_next_size_down(
        self, level: np.ndarray, signals: FleetSignals
    ) -> np.ndarray:
        below = np.maximum(level - 1, 0)
        allowed_pct = self._allowed_projected_utilization(signals)
        fits = level > 0
        for k in range(K):
            if k == _MEM:
                continue  # memory safety is the balloon probe's job
            alloc = self._res[k, below]
            positive = alloc > 0
            projected = np.divide(
                signals.util_pct[k] * self._res[k, level],
                alloc,
                out=np.full(self.n_tenants, np.inf),
                where=positive,
            )
            fits = fits & positive & (projected < allowed_pct)
        return fits

    def _allowed_projected_utilization(self, signals: FleetSignals):
        base = min(self.thresholds.util_high_pct * 1.15, 92.0)
        out = np.full(self.n_tenants, base)
        if self.goal is None:
            return out
        lat = signals.latency_ms
        finite = np.isfinite(lat)
        out[finite & (lat <= 0)] = 92.0
        pos = finite & (lat > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(pos, self.goal.target_ms / np.where(pos, lat, 1.0), 0.0)
        relax = pos & (ratio >= 1.8)
        if np.any(relax):
            out[relax] = np.minimum(92.0, base * np.sqrt(ratio[relax] / 1.3))
        return out

    def _disk_baseline(self, rows: np.ndarray) -> np.ndarray:
        """Median of the recent disk-read window (NaN-free) for ``rows``."""
        reads = self._disk_reads[rows]
        return batched_tail_median(reads, reads.shape[1], default=1.0)

    def _damper_observe(
        self,
        previous: np.ndarray,
        target: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Feed the applied moves to the damper; only ``rows`` when given."""
        damper = self._damper
        assert damper is not None
        cooling = self._d_cooldown > 0
        if rows is not None:
            cooling &= rows
        self._d_cooldown[cooling] -= 1
        finished = cooling & (self._d_cooldown == 0)
        # Leaving cool-down with a clean slate.
        self._d_len[finished] = 0
        self._d_moves[finished] = 0

        moved = ~cooling & (target != previous)
        if rows is not None:
            moved &= rows
        if np.any(moved):
            full = moved & (self._d_len == damper.window)
            if np.any(full):
                self._d_moves[full, :-1] = self._d_moves[full, 1:]
            move = np.where(target > previous, np.int8(1), np.int8(-1))
            slot = np.where(full, damper.window - 1, self._d_len)
            moved_rows = np.flatnonzero(moved)
            self._d_moves[moved_rows, slot[moved_rows]] = move[moved_rows]
            self._d_len[moved & ~full] += 1
        # Reversals: adjacent opposite-sign pairs (zero-padded tail never
        # matches, so no length masking is needed).
        prev_m = self._d_moves[:, :-1]
        next_m = self._d_moves[:, 1:]
        reversals = np.count_nonzero(
            (prev_m != 0) & (next_m == -prev_m), axis=1
        )
        tripped = moved & (reversals > damper.max_reversals)
        if np.any(tripped):
            self._d_cooldown[tripped] = damper.cooldown_intervals
            self._d_len[tripped] = 0
            self._d_moves[tripped] = 0
            self.damper_trips += int(np.count_nonzero(tripped))
        return tripped

    def _assemble_actions(
        self,
        slots: Sequence[tuple[str, np.ndarray]],
        participants: np.ndarray | None = None,
    ) -> tuple[tuple[str, ...] | None, ...]:
        """Per-tenant explanation actions, in the scalar append order.

        ``slots`` pairs each action value with its row mask, in append
        order.  A tenant that collected none reports NO_CHANGE; tenants
        outside ``participants`` (when given) report ``None``.
        """
        rows: list[list[str]] = [[] for _ in range(self.n_tenants)]
        for value, mask in slots:
            for i in np.flatnonzero(mask):
                rows[i].append(value)
        no_change = (ActionKind.NO_CHANGE.value,)
        actions: list = [tuple(r) if r else no_change for r in rows]
        if participants is not None:
            for i in np.flatnonzero(~participants):
                actions[i] = None
        return tuple(actions)


# -- replay: drive the vectorized loop from recorded IntervalCounters ---------


def _counter_fields(
    c: IntervalCounters, goal: LatencyGoal | None
) -> tuple[float, list[float], list[float], list[float]]:
    """One delivery's decide inputs: latency, then K util / wait / wait-%.

    Latency is reduced exactly as the scalar manager's
    ``_interval_latency`` does: the goal's metric when a goal is set,
    p95 otherwise, NaN when idle.
    """
    latency = math.nan
    if c.latencies_ms.size:
        if goal is not None:
            latency = goal.measure(c.latencies_ms)
        else:
            latency = c.latency_percentile(95.0)
    classes = [RESOURCE_WAIT_CLASS[kind] for kind in SCALABLE_KINDS]
    return (
        latency,
        [c.utilization_percent(kind) for kind in SCALABLE_KINDS],
        [c.wait_ms(w) for w in classes],
        [c.wait_percent(w) for w in classes],
    )


def counters_to_interval_arrays(
    counters_row: Sequence[IntervalCounters],
    goal: LatencyGoal | None,
    *,
    include_aux: bool = False,
) -> dict:
    """One interval's fleet telemetry, as decide_batch's array inputs.

    ``counters_row`` holds one :class:`IntervalCounters` per tenant for
    the *same* billing interval, each read by :func:`_counter_fields`.

    With ``include_aux`` the dict gains an ``"aux"`` entry carrying the
    raw pieces the columnar trace store needs to rebuild bit-identical
    :class:`IntervalCounters` for the per-tenant drill-down replay:
    utilization *fractions* (the scalar recomputes percent from these),
    the lock/system wait classes (the other four are the ``wait_ms``
    rows), and the completions / wall-clock bookkeeping fields.
    """
    n = len(counters_row)
    first = counters_row[0]
    if any(c.interval_index != first.interval_index for c in counters_row):
        raise ValueError("fleet replay needs one shared interval clock")
    latency = np.empty(n)
    util = np.empty((K, n))
    wait = np.empty((K, n))
    wpct = np.empty((K, n))
    for i, c in enumerate(counters_row):
        latency[i], util[:, i], wait[:, i], wpct[:, i] = _counter_fields(c, goal)
    out = {
        "t": float(first.interval_index),
        "latency_ms": latency,
        "util_pct": util,
        "wait_ms": wait,
        "wait_pct": wpct,
        "memory_used_gb": np.array([c.memory_used_gb for c in counters_row]),
        "disk_physical_reads": np.array(
            [c.disk_physical_reads for c in counters_row]
        ),
        "billed_cost": np.array([c.container.cost for c in counters_row]),
    }
    if include_aux:
        util_frac = np.empty((K, n))
        for k, kind in enumerate(SCALABLE_KINDS):
            for i, c in enumerate(counters_row):
                util_frac[k, i] = c.utilization_median[kind]
        out["aux"] = {
            "util_frac": util_frac,
            "lock_ms": np.array(
                [c.wait_ms(WaitClass.LOCK) for c in counters_row]
            ),
            "system_ms": np.array(
                [c.wait_ms(WaitClass.SYSTEM) for c in counters_row]
            ),
            "completions": np.array(
                [c.completions for c in counters_row], dtype=np.int64
            ),
            "start_s": np.array([c.start_s for c in counters_row]),
            "end_s": np.array([c.end_s for c in counters_row]),
        }
    return out


def replay_decisions(
    streams: Sequence[Sequence[IntervalCounters]],
    scaler: VectorizedAutoScaler,
) -> list[FleetDecisions]:
    """Replay per-tenant counter streams through a vectorized scaler.

    ``streams[tenant][interval]`` must form a rectangular fleet; the
    billed cost is taken from the recorded counters (the container the
    closed loop actually ran), so a replay of a healthy scalar run settles
    the budget identically.
    """
    lengths = {len(s) for s in streams}
    if len(lengths) != 1:
        raise ValueError("all tenant streams must have the same length")
    (n_intervals,) = lengths
    recorder = scaler._recorder
    out = []
    for i in range(n_intervals):
        arrays = counters_to_interval_arrays(
            [stream[i] for stream in streams],
            scaler.goal,
            include_aux=recorder is not None,
        )
        if recorder is not None:
            recorder.stage_aux(arrays["aux"])
        decision = scaler.decide_batch(
            arrays["t"],
            arrays["latency_ms"],
            arrays["util_pct"],
            arrays["wait_ms"],
            arrays["wait_pct"],
            arrays["memory_used_gb"],
            arrays["disk_physical_reads"],
            billed_cost=arrays["billed_cost"],
        )
        out.append(decision)
    return out


# -- synthetic fleet telemetry (benchmark / 100k sweep) -----------------------


#: One interval's per-tenant decide inputs, named as ``decide_batch``'s
#: keywords and the :class:`FleetTelemetryArrays` columns.
_INTERVAL_FIELDS = (
    "latency_ms",
    "util_pct",
    "wait_ms",
    "wait_pct",
    "memory_used_gb",
    "disk_physical_reads",
)


class FleetTelemetryArrays(NamedTuple):
    """Pre-generated open-loop fleet telemetry, indexed [interval].

    The trailing lock/system wait classes are optional: only the columnar
    trace recorder needs them (to rebuild full six-class
    :class:`~repro.engine.waits.WaitProfile` objects for the drill-down
    replay); the decide loop itself never reads them.
    """

    latency_ms: np.ndarray  # (I, T)
    util_pct: np.ndarray  # (I, K, T)
    wait_ms: np.ndarray  # (I, K, T)
    wait_pct: np.ndarray  # (I, K, T)
    memory_used_gb: np.ndarray  # (I, T)
    disk_physical_reads: np.ndarray  # (I, T)
    lock_wait_ms: np.ndarray | None = None  # (I, T)
    system_wait_ms: np.ndarray | None = None  # (I, T)


def synthesize_fleet_telemetry(
    n_tenants: int,
    n_intervals: int,
    seed: int = 7,
) -> FleetTelemetryArrays:
    """Seeded open-loop synthetic fleet telemetry.

    Per-tenant base latencies with a 10-interval 3x burst window, waits
    for the four resource classes as magnitude and percentage, and
    uniform utilization, drawn without simulating an engine, so
    generation stays cheap at 100k tenants.  Telemetry is open-loop: it
    does not react to the controller's decisions (see
    :class:`ClosedLoopFleetSynthesizer` for the reactive twin).  5% of
    tenant-intervals are idle (NaN latency).
    """
    rng = np.random.default_rng(seed)
    shape = (n_intervals, n_tenants)
    base = rng.uniform(20.0, 120.0, n_tenants)
    burst_start = rng.integers(0, max(n_intervals - 10, 1), n_tenants)
    intervals = np.arange(n_intervals)[:, None]
    bursting = (intervals >= burst_start) & (intervals < burst_start + 10)

    latency = base * rng.uniform(0.85, 1.35, shape)
    latency = np.where(bursting, latency * 3.0, latency)
    latency[rng.random(shape) < 0.05] = np.nan

    waits = np.empty((n_intervals, 6, n_tenants))
    waits[:, 0] = rng.uniform(50.0, 500.0, shape) * np.where(bursting, 2.0, 1.0)
    waits[:, 1] = rng.uniform(0.0, 120.0, shape)
    waits[:, 2] = rng.uniform(0.0, 200.0, shape)
    waits[:, 3] = rng.uniform(0.0, 80.0, shape)
    waits[:, 4] = rng.uniform(0.0, 40.0, shape)  # lock
    waits[:, 5] = rng.uniform(0.0, 20.0, shape)  # system
    total = waits.sum(axis=1)
    wait_ms = waits[:, :K].copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        wait_pct = np.where(
            total[:, None] > 0.0, 100.0 * wait_ms / total[:, None], 0.0
        )

    util = rng.uniform(5.0, 95.0, (n_intervals, K, n_tenants))
    memory_used = rng.uniform(0.2, 6.0, shape)
    disk_reads = rng.uniform(0.0, 300.0, shape)
    return FleetTelemetryArrays(
        latency_ms=latency,
        util_pct=util,
        wait_ms=wait_ms,
        wait_pct=wait_pct,
        memory_used_gb=memory_used,
        disk_physical_reads=disk_reads,
        lock_wait_ms=waits[:, 4].copy(),
        system_wait_ms=waits[:, 5].copy(),
    )


class ClosedLoopFleetSynthesizer:
    """Incremental synthetic fleet whose telemetry reacts to actuation.

    The open-loop generator above replays fixed streams, so a benchmark
    built on it never pays for scale-up searches, budget settlement with
    spend, or balloon probes — the controller estimates in a vacuum.
    This synthesizer closes the loop: each interval's telemetry is a
    function of each tenant's *current* container level (and balloon
    limit), so under-provisioned tenants show saturation and high waits
    until the controller scales them up, over-provisioned tenants go
    quiet until it scales them down, cache-heavy tenants trigger balloon
    probes, and IO-bound tenants answer a squeeze with a read storm that
    aborts the probe.

    The model per tenant: a latent per-resource demand (drawn around a
    "right-size" catalog level) times a periodic busy multiplier and
    per-interval noise.  With ``x = demand / allocation``:

    - ``util = 100 * min(x, 1)`` — saturates exactly when demand exceeds
      the container;
    - ``wait = high_cut * clip(x, 0, 3)^3`` — crosses the HIGH wait cut
      exactly at ``x = 1`` and collapses cubically once over-provisioned;
    - latency is a quiet base (18–42 ms, comfortably inside the MEDIUM
      scale-down margin of a 100 ms goal) inflated by overload.

    Every random draw is made at full fleet width and sliced to
    ``[lo, hi)``, so a shard sees byte-for-byte the rows an unsharded
    run would — the property the sharded-sweep parity test pins.  The
    generator is stateless across intervals given ``(i, level,
    balloon_limit_gb)``; checkpoints therefore need no RNG state.
    """

    #: Fraction of tenants that keep their cache full regardless of level
    #: (these trigger balloon probes on the way down).
    CACHE_HEAVY_FRACTION = 0.35
    #: Of all tenants, the fraction whose working set is IO-backed: when a
    #: balloon squeeze cuts into their cache they respond with a read
    #: storm and disk pressure, aborting the probe.
    IO_SPIKY_FRACTION = 0.5
    #: Fraction of tenant-intervals with no completed query (NaN latency).
    IDLE_FRACTION = 0.02

    def __init__(
        self,
        n_total: int,
        catalog: ContainerCatalog,
        seed: int = 7,
        *,
        lo: int = 0,
        hi: int | None = None,
    ) -> None:
        if n_total < 1:
            raise ValueError("n_total must be >= 1")
        hi = n_total if hi is None else hi
        if not 0 <= lo < hi <= n_total:
            raise ValueError(
                f"need 0 <= lo < hi <= n_total, got [{lo}, {hi}) of {n_total}"
            )
        self.n_total = n_total
        self.lo = lo
        self.hi = hi
        self.seed = int(seed)
        cfg = default_thresholds()

        levels = [catalog.at_level(i) for i in range(catalog.num_levels)]
        self._res = np.array(
            [[c.resources.get(kind) for c in levels] for kind in SCALABLE_KINDS]
        )
        mem = self._res[_MEM]
        self._usable_cache = np.array([usable_cache_gb(m) for m in mem])
        self._overhead = np.array([engine_overhead_gb(m) for m in mem])
        self._wait_high = np.array(
            [cfg.wait_thresholds[kind].high_ms for kind in SCALABLE_KINDS]
        )[:, None]

        n_levels = len(levels)
        rng = np.random.default_rng([self.seed, 0xF1EE7])
        if n_levels > 2:
            star = rng.integers(1, n_levels - 1, n_total)
        else:
            star = rng.integers(0, n_levels, n_total)
        sl = slice(lo, hi)
        self._demand_base = (
            self._res[:, star] * rng.uniform(0.45, 0.80, (K, n_total))
        )[:, sl]
        period = rng.integers(10, 26, n_total)
        self._period = period[sl]
        self._busy_len = rng.integers(3, 7, n_total)[sl]
        self._phase = (rng.integers(0, 1 << 30, n_total) % period)[sl]
        self._peak = rng.uniform(2.2, 4.0, n_total)[sl]
        self._cache_heavy = (rng.random(n_total) < self.CACHE_HEAVY_FRACTION)[sl]
        self._cache_fill = rng.uniform(0.90, 1.0, n_total)[sl]
        self._io_spiky = (rng.random(n_total) < self.IO_SPIKY_FRACTION)[sl]
        self._base_latency = rng.uniform(18.0, 42.0, n_total)[sl]
        self._base_reads = rng.uniform(20.0, 200.0, n_total)[sl]

    @property
    def n_tenants(self) -> int:
        return self.hi - self.lo

    def interval(
        self,
        i: int,
        level: np.ndarray,
        balloon_limit_gb: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """One interval's telemetry, reacting to the current allocations.

        Returns the keyword arrays :meth:`VectorizedAutoScaler.decide_batch`
        consumes (latency/memory/disk are ``(n,)``, per-resource arrays
        ``(K, n)``).
        """
        rng = np.random.default_rng([self.seed, int(i) + 1])
        sl = slice(self.lo, self.hi)
        noise = rng.uniform(0.88, 1.12, (K, self.n_total))[:, sl]
        lat_noise = rng.uniform(0.92, 1.18, self.n_total)[sl]
        idle = (rng.random(self.n_total) < self.IDLE_FRACTION)[sl]
        read_noise = rng.uniform(0.7, 1.4, self.n_total)[sl]

        level = np.asarray(level, dtype=np.int64)
        busy = ((int(i) + self._phase) % self._period) < self._busy_len
        mult = np.where(busy, self._peak, 1.0)
        demand = self._demand_base * (mult * noise)
        alloc = self._res[:, level]
        x = demand / alloc
        util = 100.0 * np.minimum(x, 1.0)
        wait_ms = self._wait_high * np.clip(x, 0.0, 3.0) ** 3
        wait_pct = 100.0 * wait_ms / (wait_ms.sum(axis=0) + 3000.0)

        overload = np.maximum(x - 0.9, 0.0).sum(axis=0)
        latency = self._base_latency * lat_noise * (1.0 + 4.0 * overload)
        latency = np.where(idle, np.nan, latency)

        usable = self._usable_cache[level]
        overhead = self._overhead[level]
        cached = np.where(
            self._cache_heavy,
            self._cache_fill * usable,
            np.minimum(x[_MEM], 1.0) * 0.4 * usable,
        )
        disk_reads = self._base_reads * read_noise
        if balloon_limit_gb is not None:
            limit = np.asarray(balloon_limit_gb, dtype=float)
            with np.errstate(invalid="ignore"):
                squeezed = np.isfinite(limit) & (limit - overhead < cached)
            spike = squeezed & self._io_spiky
            # Cooperative tenants release cache down to the limit;
            # IO-bound ones answer the squeeze with a read storm.
            cached = np.where(
                squeezed, np.maximum(limit - overhead, 0.0), cached
            )
            disk_reads = np.where(spike, self._base_reads * 25.0, disk_reads)
            util[_DISK] = np.where(
                spike, np.maximum(util[_DISK], 96.0), util[_DISK]
            )
        return {
            "latency_ms": latency,
            "util_pct": util,
            "wait_ms": wait_ms,
            "wait_pct": wait_pct,
            "memory_used_gb": overhead + cached,
            "disk_physical_reads": disk_reads,
        }


def _peak_rss_gb() -> float:
    """This process's high-water RSS in GB (ru_maxrss: KB on Linux)."""
    import resource
    import sys

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return rss / (1024.0**3)
    return rss / (1024.0**2)


def run_synthetic_sweep(
    n_tenants: int,
    n_intervals: int,
    seed: int = 7,
    *,
    goal_ms: float | None = 100.0,
    closed_loop: bool = False,
    lo: int = 0,
    n_total: int | None = None,
) -> dict:
    """Time a vectorized fleet sweep over seeded synthetic telemetry.

    Returns per-interval wall-clock (the acceptance metric for the
    100k/1M-tenant sweeps) plus a decision digest so results are
    comparable across runs.  The engine runs the default catalog and
    thresholds and records no per-tenant action lists.

    By default the telemetry is :func:`synthesize_fleet_telemetry`'s
    pre-built open-loop streams, which never react to the controller, so
    the fleet settles into holds.  ``closed_loop=True`` swaps them for the
    :class:`ClosedLoopFleetSynthesizer`, whose telemetry reacts to the
    controller's own levels and balloon limits — this is the mode that
    exercises actuation (resizes, budget spend, balloon transitions).
    Generation is excluded from the timed window either way; only
    ``decide_batch`` is measured.  ``lo``/``n_total`` place this engine
    at rows ``[lo, lo+n_tenants)`` of an ``n_total``-wide closed-loop
    fleet, which is how :func:`sharded_synthetic_sweep` keeps shard
    telemetry identical to an unsharded run.
    """
    from repro.engine.containers import default_catalog

    catalog = default_catalog()
    goal = LatencyGoal(goal_ms) if goal_ms is not None else None
    synth = data = None
    if closed_loop:
        total = n_total if n_total is not None else lo + n_tenants
        synth = ClosedLoopFleetSynthesizer(
            total, catalog, seed, lo=lo, hi=lo + n_tenants
        )
    else:
        data = synthesize_fleet_telemetry(n_tenants, n_intervals, seed)
    scaler = VectorizedAutoScaler(
        catalog, n_tenants, goal=goal, record_actions=False
    )
    per_interval = []
    resizes = 0
    for i in range(n_intervals):
        if synth is not None:
            fields = synth.interval(i, scaler.level, scaler.balloon_limit_gb)
        else:
            fields = {name: getattr(data, name)[i] for name in _INTERVAL_FIELDS}
        start = time.perf_counter()
        decision = scaler.decide_batch(float(i), **fields)
        per_interval.append(time.perf_counter() - start)
        resizes += int(np.count_nonzero(decision.resized))
    level_hist = np.bincount(scaler.level, minlength=catalog.num_levels)
    counts = dict(scaler.action_counts)
    return {
        "n_tenants": n_tenants,
        "n_intervals": n_intervals,
        "seed": seed,
        "closed_loop": closed_loop,
        "total_s": float(sum(per_interval)),
        "per_interval_s": [float(v) for v in per_interval],
        "mean_interval_s": float(np.mean(per_interval)),
        "max_interval_s": float(np.max(per_interval)),
        "resizes": resizes,
        "budget_spent": float(scaler._spent.sum()),
        "balloon_transitions": int(
            counts["probe_started"]
            + counts["balloon_aborted"]
            + counts["balloon_confirmed"]
        ),
        "actuation": counts,
        "final_level_histogram": [int(v) for v in level_hist],
        "peak_rss_gb": _peak_rss_gb(),
    }


def _shard_bounds(n_tenants: int, n_shards: int) -> list[tuple[int, int]]:
    sizes = [n_tenants // n_shards] * n_shards
    for i in range(n_tenants % n_shards):
        sizes[i] += 1
    bounds, lo = [], 0
    for size in sizes:
        if size > 0:
            bounds.append((lo, lo + size))
            lo += size
    return bounds


def _run_shard(args: tuple) -> dict:
    lo, hi, n_total, n_intervals, seed, goal_ms = args
    return run_synthetic_sweep(
        hi - lo,
        n_intervals,
        seed=seed,
        goal_ms=goal_ms,
        closed_loop=True,
        lo=lo,
        n_total=n_total,
    )


def sharded_synthetic_sweep(
    n_tenants: int,
    n_intervals: int,
    seed: int = 7,
    *,
    n_shards: int = 4,
    goal_ms: float | None = 100.0,
) -> dict:
    """Split a closed-loop fleet sweep across processes.

    Tenants are independent, so the sweep is embarrassingly parallel:
    each shard runs rows ``[lo, hi)`` of one global closed-loop fleet and
    regenerates its slice locally.  The synthesizer draws at full fleet
    width and slices, so shard telemetry, and therefore every shard
    decision, equals the same rows of
    ``run_synthetic_sweep(..., closed_loop=True)``.  Open-loop telemetry
    is not sharded: it never reacts to the controller, so it has no
    actuation to spread over workers.
    """
    import multiprocessing as mp

    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    bounds = _shard_bounds(n_tenants, n_shards)
    jobs = [
        (lo, hi, n_tenants, n_intervals, seed, goal_ms) for lo, hi in bounds
    ]
    start = time.perf_counter()
    if len(jobs) == 1:
        results = [_run_shard(jobs[0])]
    else:
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        with ctx.Pool(processes=len(jobs)) as pool:
            results = pool.map(_run_shard, jobs)
    wall = time.perf_counter() - start
    return {
        "n_tenants": n_tenants,
        "n_intervals": n_intervals,
        "n_shards": len(bounds),
        "closed_loop": True,
        "wall_s": float(wall),
        "wall_per_interval_s": float(wall / n_intervals),
        "resizes": int(sum(r["resizes"] for r in results)),
        "budget_spent": float(sum(r["budget_spent"] for r in results)),
        "balloon_transitions": int(
            sum(r["balloon_transitions"] for r in results)
        ),
        "shards": results,
    }
