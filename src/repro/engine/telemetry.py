"""Per-interval telemetry counters — the engine's "production telemetry".

Mature DBMSs expose hundreds of counters; the controller consumes the
curated surface below (paper Section 3.1): request latencies, per-resource
utilization, and wait statistics (magnitude and percentage per class).

Within each billing interval the server samples utilization at fine grain
(every tick) and the :class:`IntervalCounters` report *robust* medians of
those samples alongside the raw means, so the telemetry manager can choose
its aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.containers import ContainerSpec
from repro.engine.resources import ResourceKind
from repro.engine.waits import WaitClass, WaitProfile
from repro.errors import InsufficientDataError

__all__ = ["IntervalCounters", "CounterAccumulator"]


@dataclass(frozen=True)
class IntervalCounters:
    """Immutable snapshot of one billing interval's telemetry.

    Attributes:
        interval_index: 0-based billing-interval number.
        start_s / end_s: simulated time bounds of the interval.
        container: the container in force during the interval.
        latencies_ms: end-to-end latency of every request completed in the
            interval.
        arrivals / completions / rejected: request counts.
        utilization_median: median over per-tick utilization samples, as a
            fraction of the *container* allocation (0-1), per resource.
        utilization_mean: plain mean of the same samples (the naive signal
            the ``Util`` baseline uses).
        waits: accumulated wait ms per class for the interval.
        memory_used_gb: buffer-pool usage at interval end.
        memory_hot_gb: hot-working-set bytes cached (plus fixed engine
            overhead) — the demand-oriented memory measure offline sizing
            uses, immune to opportunistic cold-cache fill on big
            containers.
        disk_physical_reads: physical page reads served.
        balloon_limit_gb: the balloon cap active at interval end, if any.
    """

    interval_index: int
    start_s: float
    end_s: float
    container: ContainerSpec
    latencies_ms: np.ndarray
    arrivals: int
    completions: int
    rejected: int
    utilization_median: dict[ResourceKind, float]
    utilization_mean: dict[ResourceKind, float]
    waits: WaitProfile
    memory_used_gb: float
    disk_physical_reads: float
    memory_hot_gb: float = 0.0
    balloon_limit_gb: float | None = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over the interval's completions."""
        if self.latencies_ms.size == 0:
            raise InsufficientDataError(
                f"no completions in interval {self.interval_index}"
            )
        return float(np.percentile(self.latencies_ms, q))

    def latency_mean(self) -> float:
        if self.latencies_ms.size == 0:
            raise InsufficientDataError(
                f"no completions in interval {self.interval_index}"
            )
        return float(self.latencies_ms.mean())

    def utilization_percent(self, kind: ResourceKind) -> float:
        """Median utilization of ``kind`` as a percentage of allocation."""
        return 100.0 * self.utilization_median[kind]

    def wait_ms(self, wait_class: WaitClass) -> float:
        return self.waits.get(wait_class)

    def wait_percent(self, wait_class: WaitClass) -> float:
        return self.waits.percentage(wait_class)

    @property
    def throughput_per_s(self) -> float:
        duration = self.duration_s
        return self.completions / duration if duration > 0 else 0.0

    def anomalies(self) -> list[str]:
        """Describe every physically impossible value in this snapshot.

        A healthy engine can never emit any of these; telemetry pipelines
        can (bit flips, torn reads, unit bugs, clock resets).  The
        degraded-mode control plane quarantines any interval with a
        non-empty anomaly list instead of letting it poison the robust
        signal windows.  Returns an empty list for clean counters.
        """
        problems: list[str] = []
        if self.interval_index < 0:
            problems.append(f"negative interval_index {self.interval_index}")
        if not (np.isfinite(self.start_s) and np.isfinite(self.end_s)):
            problems.append("non-finite interval bounds")
        elif self.end_s <= self.start_s:
            problems.append(
                f"clock skew: interval ends at {self.end_s:g}s but starts "
                f"at {self.start_s:g}s"
            )
        lat = self.latencies_ms
        if lat.size and (not np.all(np.isfinite(lat)) or bool(np.any(lat <= 0.0))):
            problems.append("non-finite or non-positive latencies")
        for name, count in (
            ("arrivals", self.arrivals),
            ("completions", self.completions),
            ("rejected", self.rejected),
        ):
            if count < 0:
                problems.append(f"negative {name} count {count}")
        if self.completions > 0 and lat.size == 0:
            problems.append("completions reported but no latencies recorded")
        for label, samples in (
            ("median", self.utilization_median),
            ("mean", self.utilization_mean),
        ):
            for kind, fraction in samples.items():
                if not np.isfinite(fraction) or not -1e-9 <= fraction <= 1.0 + 1e-9:
                    problems.append(
                        f"{kind.value} {label} utilization {fraction!r} "
                        "outside [0, 1]"
                    )
        for wait_class, ms in self.waits.wait_ms.items():
            if not np.isfinite(ms) or ms < 0.0:
                problems.append(f"invalid {wait_class.value} wait {ms!r} ms")
        if not np.isfinite(self.memory_used_gb) or self.memory_used_gb < 0.0:
            problems.append(f"invalid memory_used_gb {self.memory_used_gb!r}")
        if not np.isfinite(self.disk_physical_reads) or self.disk_physical_reads < 0.0:
            problems.append(
                f"invalid disk_physical_reads {self.disk_physical_reads!r}"
            )
        return problems


class CounterAccumulator:
    """Mutable per-interval scratchpad the server writes into each tick."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.arrivals = 0
        self.completions = 0
        self.rejected = 0
        self.utilization_samples: dict[ResourceKind, list[float]] = {
            kind: [] for kind in ResourceKind
        }
        self.waits = WaitProfile()
        self.disk_physical_reads = 0.0

    def sample_utilization(self, kind: ResourceKind, fraction: float) -> None:
        """Record one tick's utilization sample (fraction of allocation)."""
        self.utilization_samples[kind].append(min(max(fraction, 0.0), 1.0))

    def snapshot(
        self,
        interval_index: int,
        start_s: float,
        end_s: float,
        container: ContainerSpec,
        memory_used_gb: float,
        memory_hot_gb: float,
        balloon_limit_gb: float | None,
    ) -> IntervalCounters:
        """Freeze the interval and reset for the next one."""
        medians = {}
        means = {}
        for kind, samples in self.utilization_samples.items():
            if samples:
                arr = np.asarray(samples)
                medians[kind] = float(np.median(arr))
                means[kind] = float(arr.mean())
            else:
                medians[kind] = 0.0
                means[kind] = 0.0
        counters = IntervalCounters(
            interval_index=interval_index,
            start_s=start_s,
            end_s=end_s,
            container=container,
            latencies_ms=np.asarray(self.latencies, dtype=float),
            arrivals=self.arrivals,
            completions=self.completions,
            rejected=self.rejected,
            utilization_median=medians,
            utilization_mean=means,
            waits=self.waits.copy(),
            memory_used_gb=memory_used_gb,
            disk_physical_reads=self.disk_physical_reads,
            memory_hot_gb=memory_hot_gb,
            balloon_limit_gb=balloon_limit_gb,
        )
        self._reset()
        return counters

    def _reset(self) -> None:
        self.latencies.clear()
        self.arrivals = 0
        self.completions = 0
        self.rejected = 0
        for samples in self.utilization_samples.values():
            samples.clear()
        self.waits = WaitProfile()
        self.disk_physical_reads = 0.0
