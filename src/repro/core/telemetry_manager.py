"""The Telemetry Manager (paper Section 3).

Transforms the engine's raw per-interval counters into the categorized,
statistically-robust :class:`~repro.core.signals.WorkloadSignals` the
demand estimator consumes:

* **robust aggregates** — medians over rolling windows of per-interval
  counters, so outlier intervals (checkpoints, telemetry spikes) cannot
  flip a decision;
* **robust trends** — Theil–Sen slopes with the α-sign-agreement
  acceptance test, over latency, utilization, and waits;
* **robust correlation** — Spearman rank correlation between the latency
  series and each resource's wait series, identifying the bottleneck
  independently of scale or linearity.

The window is one time ring and one sample ring of ``1 + 3K`` columns
(latency, then utilization, wait ms and wait % per resource), sharing a
cursor.  :meth:`TelemetryManager.signals` reads the retained slots
oldest first and evaluates every signal with the width-1 batched
kernels of :mod:`repro.stats.batched` (one call each for the trends,
the correlations and the tail medians), the same kernels the fleet
engine runs over all tenants.  Those kernels equal the scalar
references in :mod:`repro.stats.theil_sen`, :mod:`repro.stats.spearman`
and ``np.median`` exactly, so the scalar control loop stays the
reference oracle for the fleet engines while sharing only the kernels
with them: the rings and gathers of :mod:`repro.fleet` are not used
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.signals import LatencyStatus, ResourceSignals, WorkloadSignals
from repro.core.thresholds import ThresholdConfig
from repro.errors import ConfigurationError, InsufficientDataError
from repro.engine.resources import ResourceKind
from repro.engine.telemetry import IntervalCounters
from repro.engine.waits import RESOURCE_WAIT_CLASS, WaitClass, WaitProfile
from repro.core.latency import LatencyGoal
from repro.obs.events import EventKind, TraceLevel
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.stats.batched import (
    batched_detect_trend,
    batched_spearman,
    batched_tail_median,
)
from repro.stats.spearman import CorrelationResult
from repro.stats.theil_sen import TrendResult

__all__ = ["TelemetryManager"]

_KINDS = tuple(ResourceKind)
_WAIT_CLASSES = tuple(RESOURCE_WAIT_CLASS[kind] for kind in _KINDS)
_K = len(_KINDS)
# Sample ring columns: latency, then one block of K per resource series.
_UTIL = 1
_WAIT = 1 + _K
_WPCT = 1 + 2 * _K
_COLUMNS = 1 + 3 * _K
#: Tail-median value of a column whose smoothing tail is all NaN: latency
#: is unknown (NaN), the resource series read as idle (0.0).
_SMOOTH_DEFAULT = np.array([math.nan] + [0.0] * (3 * _K))


@dataclass(frozen=True)
class _LastInterval:
    """What :meth:`TelemetryManager.signals` reads of the newest interval.

    Only these fields, not the whole :class:`IntervalCounters`: its
    per-request latency array is already folded into the sample ring, and
    keeping it would make every checkpoint carry it.
    """

    interval_index: int
    waits: WaitProfile
    memory_used_gb: float
    container_level: int
    throughput_per_s: float

    @classmethod
    def of(cls, counters: IntervalCounters) -> "_LastInterval":
        return cls(
            interval_index=counters.interval_index,
            waits=counters.waits.copy(),
            memory_used_gb=counters.memory_used_gb,
            container_level=counters.container.level,
            throughput_per_s=counters.throughput_per_s,
        )

    def state_dict(self) -> dict:
        return {
            "interval_index": self.interval_index,
            "waits": {
                wait_class.value: ms for wait_class, ms in self.waits.wait_ms.items()
            },
            "memory_used_gb": self.memory_used_gb,
            "container_level": self.container_level,
            "throughput_per_s": self.throughput_per_s,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "_LastInterval":
        waits = state["waits"]
        return cls(
            interval_index=int(state["interval_index"]),
            # Class order as a fresh profile has it: dominant_class breaks
            # ties by that order.
            waits=WaitProfile({w: float(waits[w.value]) for w in WaitClass}),
            memory_used_gb=float(state["memory_used_gb"]),
            container_level=int(state["container_level"]),
            throughput_per_s=float(state["throughput_per_s"]),
        )


class TelemetryManager:
    """Rolling signal extraction over a stream of interval counters.

    Args:
        thresholds: categorization thresholds and window geometry.
        goal: optional latency goal defining the latency metric.
    """

    def __init__(
        self,
        thresholds: ThresholdConfig,
        goal: LatencyGoal | None = None,
    ) -> None:
        self.thresholds = thresholds
        self.goal = goal
        window = thresholds.signal_window
        self._window = window
        # The smoothing tail can never reach past the signal window.
        self._smooth = min(thresholds.smooth_intervals, window)
        self._t = np.full(window, math.nan)
        self._samples = np.full((window, _COLUMNS), math.nan)
        self._cursor = 0
        self._count = 0  # retained samples, at most ``window``
        self._last: _LastInterval | None = None
        #: Attached by :meth:`AutoScaler.attach_tracer`; DEBUG-level events
        #: record each observation and the trend/correlation evidence behind
        #: every signal set.
        self.tracer: Tracer = NULL_TRACER

    # -- ingestion --------------------------------------------------------------

    def observe(self, counters: IntervalCounters) -> None:
        """Absorb one billing interval of telemetry."""
        latency = self._interval_latency(counters)
        c = self._cursor
        self._t[c] = float(counters.interval_index)
        self._samples[c] = [
            latency,
            *[counters.utilization_percent(kind) for kind in _KINDS],
            *[counters.wait_ms(wait_class) for wait_class in _WAIT_CLASSES],
            *[counters.wait_percent(wait_class) for wait_class in _WAIT_CLASSES],
        ]
        self._cursor = (c + 1) % self._window
        self._count = min(self._count + 1, self._window)
        self._last = _LastInterval.of(counters)
        if self.tracer.enabled_for(TraceLevel.DEBUG):
            self.tracer.emit(
                "telemetry", EventKind.TELEMETRY, level=TraceLevel.DEBUG,
                interval=counters.interval_index,
                latency_ms=latency, completions=counters.completions,
                window_len=self._count,
                signal_window=self.thresholds.signal_window,
                trend_window=self.thresholds.trend_window,
            )

    def _interval_latency(self, counters: IntervalCounters) -> float:
        """Latency in the goal's metric for one interval; NaN if idle."""
        if counters.latencies_ms.size == 0:
            return math.nan
        if self.goal is not None:
            return self.goal.measure(counters.latencies_ms)
        return float(
            counters.latency_percentile(95.0)
        )  # default metric when no goal is set

    def _slots(self) -> np.ndarray:
        """Ring slots of the retained samples, oldest first."""
        n = self._count
        return (self._cursor - n + np.arange(n)) % self._window

    # -- signal extraction ---------------------------------------------------------

    def signals(self) -> WorkloadSignals:
        """Produce the categorized signal set for the current interval.

        Raises:
            InsufficientDataError: if no interval has been observed yet —
                there is no telemetry to build signals from, and silently
                returning NaN-filled signals would poison downstream
                categorization.
        """
        last = self._last
        if last is None:
            raise InsufficientDataError(
                "no telemetry observed yet: observe() at least one interval "
                "before requesting signals()"
            )
        cfg = self.thresholds
        slots = self._slots()
        samples = self._samples[slots]  # (n, columns), oldest first

        # Trends over the trend tail: latency, K utilization, K wait ms.
        tail = slots[-cfg.trend_window :]
        trend = batched_detect_trend(
            self._t[tail],
            samples[-len(tail) :, :_WPCT].T,
            alpha=cfg.trend_alpha,
        )
        slope = trend.slope.tolist()
        significant = trend.significant.tolist()
        agreement = trend.agreement.tolist()
        n_points = trend.n_points.tolist()
        trends = [
            TrendResult(slope[i], significant[i], agreement[i], n_points[i])
            for i in range(_WPCT)
        ]
        # Latency against each resource's wait ms over the full window,
        # shaped as a one-tenant fleet: x (1, n), y (K, 1, n).
        corr = batched_spearman(
            samples[None, :, 0], samples[:, _WAIT:_WPCT].T[:, None, :]
        )
        rho = corr.rho.ravel().tolist()
        corr_points = corr.n_points.ravel().tolist()
        # Smoothed "current" value of every column: its tail median.
        smoothed = batched_tail_median(
            samples.T, self._smooth, default=_SMOOTH_DEFAULT
        ).tolist()

        resources: dict[ResourceKind, ResourceSignals] = {}
        for k, kind in enumerate(_KINDS):
            utilization = smoothed[_UTIL + k]
            wait_ms = smoothed[_WAIT + k]
            wait_pct = smoothed[_WPCT + k]
            resources[kind] = ResourceSignals(
                kind=kind,
                utilization_pct=utilization,
                utilization_level=cfg.categorize_utilization(utilization),
                wait_ms=wait_ms,
                wait_level=cfg.categorize_wait(kind, wait_ms),
                wait_pct=wait_pct,
                wait_significant=cfg.is_wait_significant(wait_pct),
                utilization_trend=trends[_UTIL + k],
                wait_trend=trends[_WAIT + k],
                latency_correlation=CorrelationResult(rho[k], corr_points[k]),
            )
        latency_ms = smoothed[0]
        result = WorkloadSignals(
            interval_index=last.interval_index,
            latency_ms=latency_ms,
            latency_status=self._latency_status(latency_ms),
            latency_trend=trends[0],
            resources=resources,
            wait_percentages=last.waits.percentages(),
            dominant_wait=last.waits.dominant_class(),
            memory_used_gb=last.memory_used_gb,
            container_level=last.container_level,
            throughput_per_s=last.throughput_per_s,
        )
        if self.tracer.enabled_for(TraceLevel.DEBUG):
            self._trace_signals(result)
        return result

    def _trace_signals(self, signals: WorkloadSignals) -> None:
        """DEBUG event: the full evidence behind one signal set."""
        per_resource = {}
        for kind, res in signals.resources.items():
            per_resource[kind.value] = {
                "util_pct": res.utilization_pct,
                "util_level": res.utilization_level.value,
                "wait_ms": res.wait_ms,
                "wait_level": res.wait_level.value,
                "wait_pct": res.wait_pct,
                "wait_significant": res.wait_significant,
                "util_trend_sig": res.utilization_trend.significant,
                "util_trend_agreement": res.utilization_trend.agreement,
                "wait_trend_sig": res.wait_trend.significant,
                "wait_trend_slope": res.wait_trend.slope,
                "wait_trend_agreement": res.wait_trend.agreement,
                "corr_rho": res.latency_correlation.rho,
            }
        self.tracer.emit(
            "telemetry", EventKind.SIGNALS, level=TraceLevel.DEBUG,
            interval=signals.interval_index,
            latency_ms=signals.latency_ms,
            latency_status=signals.latency_status.value,
            latency_trend_slope=signals.latency_trend.slope,
            latency_trend_sig=signals.latency_trend.significant,
            latency_trend_agreement=signals.latency_trend.agreement,
            trend_alpha=self.thresholds.trend_alpha,
            resources=per_resource,
        )

    def _latency_status(self, latency_ms: float) -> LatencyStatus:
        if self.goal is None or math.isnan(latency_ms):
            return LatencyStatus.UNKNOWN
        return (
            LatencyStatus.GOOD
            if latency_ms <= self.goal.target_ms
            else LatencyStatus.BAD
        )

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Exact serializable state: both rings, the cursor, the count and
        the newest interval's summary.

        Every signal is a pure function of the retained samples and that
        summary, so they are the whole state, and its size does not grow
        with the request rate.  Arrays are copies, safe to serialize while
        the next :meth:`observe` writes the live rings.
        """
        return {
            "signal_window": self.thresholds.signal_window,
            "trend_window": self.thresholds.trend_window,
            "smooth_intervals": self.thresholds.smooth_intervals,
            "t": self._t.copy(),
            "samples": self._samples.copy(),
            "cursor": self._cursor,
            "count": self._count,
            "last": None if self._last is None else self._last.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore from :meth:`state_dict`; a malformed state is refused
        with :class:`ConfigurationError` before anything is replaced."""
        geometry = (
            int(state["signal_window"]),
            int(state["trend_window"]),
            int(state["smooth_intervals"]),
        )
        live = (
            self.thresholds.signal_window,
            self.thresholds.trend_window,
            self.thresholds.smooth_intervals,
        )
        if geometry != live:
            raise ConfigurationError(
                f"telemetry window geometry mismatch: checkpoint has "
                f"{geometry}, live manager has {live}"
            )
        t = np.array(state["t"], dtype=float)
        samples = np.array(state["samples"], dtype=float)
        for name, ring, live_ring in (
            ("t", t, self._t),
            ("samples", samples, self._samples),
        ):
            if ring.shape != live_ring.shape:
                raise ConfigurationError(
                    f"telemetry checkpoint ring {name!r} has shape "
                    f"{ring.shape}, expected {live_ring.shape}"
                )
        cursor, count = int(state["cursor"]), int(state["count"])
        window = self._window
        if not (
            0 <= cursor < window
            and 0 <= count <= window
            and (count == window or cursor == count)
        ):
            raise ConfigurationError(
                f"telemetry checkpoint cursor {cursor} / count {count} is "
                f"not a valid position in a {window}-slot ring"
            )
        last = state["last"]
        if (last is None) != (count == 0):
            raise ConfigurationError(
                f"telemetry checkpoint holds {count} samples but "
                f"{'no' if last is None else 'a'} last interval"
            )
        if last is not None:
            last = _LastInterval.from_state_dict(last)
        self._t = t
        self._samples = samples
        self._cursor = cursor
        self._count = count
        self._last = last

    # Convenience accessors used by diagnostics/tests.

    def latency_history(self):
        return self._samples[self._slots(), 0]

    def utilization_history(self, kind: ResourceKind):
        return self._samples[self._slots(), _UTIL + _KINDS.index(kind)]

    def wait_history(self, kind: ResourceKind):
        return self._samples[self._slots(), _WAIT + _KINDS.index(kind)]
