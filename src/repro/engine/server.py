"""The database server simulator.

A :class:`DatabaseServer` hosts one tenant's container and advances in
discrete ticks (default 1 s).  Each tick it:

1. admits Poisson arrivals at the trace-specified rate, sampling a
   transaction type from the workload mix;
2. services hot-lock queues (application-level serialization — lock waits);
3. arbitrates CPU among runnable requests (processor sharing; unmet demand
   becomes CPU signal waits);
4. resolves logical reads through the buffer pool, sends misses to a
   disk-I/O queue with an IOPS cap (shortfall becomes disk waits; capacity
   misses additionally charge memory waits);
5. flushes commit log writes through a bandwidth-capped log queue;
6. completes requests whose work and critical sections have finished,
   recording their end-to-end latency;
7. samples per-tick utilization and injects seeded noise (periodic
   checkpoints, occasional outlier wait spikes) so the controller's robust
   statistics earn their keep.

At each billing-interval boundary the server emits
:class:`~repro.engine.telemetry.IntervalCounters`, the telemetry surface
the auto-scaler consumes.  Container resizes and balloon adjustments apply
between ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.engine.bufferpool import BufferPool, DatasetSpec, PAGE_KB
from repro.engine.containers import ContainerSpec
from repro.engine.locks import HotLockManager
from repro.engine.requests import LOCK_HELD, RequestTable, TransactionSpec
from repro.engine.resources import ResourceKind
from repro.engine.telemetry import CounterAccumulator, IntervalCounters
from repro.engine.waits import WaitClass
from repro.errors import ConfigurationError, SimulationError

__all__ = ["EngineConfig", "DatabaseServer"]

_EPS = 1e-9


def _fair_share_allocate(
    want: np.ndarray, demand: float, capacity: float
) -> tuple[np.ndarray, float]:
    """Processor-sharing allocation of ``capacity`` across per-request demand.

    Each request first receives up to an equal share of the capacity; the
    slack left by requests that needed less than their share is then
    redistributed proportionally to the unmet remainder.  Unlike a
    proportional-to-demand grant, this lets nearly-finished requests
    complete under saturation (their tiny remainder fits inside the fair
    share), which is how real processor sharing behaves.

    ``demand`` is ``want``'s total.  Returns the grant and its total; a
    demand that fits is granted as it stands (``want`` itself, which
    callers only read), without summing it again.
    """
    if demand <= capacity:
        return want, demand
    active = int((want > _EPS).sum())
    fair = capacity / max(active, 1)
    first = np.minimum(want, fair)
    leftover = capacity - float(first.sum())
    residual = want - first
    residual_total = float(residual.sum())
    if leftover > _EPS and residual_total > _EPS:
        second = residual * (leftover / residual_total)
    else:
        second = 0.0
    grant = first + second
    return grant, float(grant.sum())


@dataclass(frozen=True)
class EngineConfig:
    """Simulation knobs.

    Attributes:
        tick_s: simulation step, seconds.
        interval_ticks: ticks per billing interval (60 × 1 s = the paper's
            compressed one-minute billing interval).
        max_concurrency: admission cap on in-flight requests; arrivals past
            the cap are rejected and counted.
        cached_read_rate: logical reads/second a single request can drive
            when fully cached (memory speed).
        base_cpu_wait_share: scheduler-overhead signal wait charged per
            ms of CPU actually used, so CPU waits are non-zero even
            without queueing (Figure 4's low-wait cloud).
        base_io_wait_ms: latch wait charged per *served* physical read, so
            waits are non-zero even without queueing.
        base_log_wait_ms_per_kb: analogous base wait for log writes.
        memory_wait_share: fraction of capacity-miss disk stall charged to
            the MEMORY wait class.
        prefetch_share: fraction of *spare* disk IOPS used to re-read
            evicted hot pages in the background (buffer-pool ramp-up).
        checkpoint_period_s / checkpoint_duration_s: periodic background
            checkpoint schedule.
        checkpoint_disk_share: fraction of disk IOPS a checkpoint consumes.
        system_wait_ms_scale: mean of the per-tick exponential SYSTEM wait
            noise.
        outlier_probability: per-tick chance of a large outlier wait spike
            (exercises the robust aggregation).
        outlier_scale_ms: magnitude scale of outlier spikes.
        seed: RNG seed; simulations are deterministic given a seed.
    """

    tick_s: float = 1.0
    interval_ticks: int = 60
    max_concurrency: int = 600
    cached_read_rate: float = 5000.0
    base_cpu_wait_share: float = 0.005
    base_io_wait_ms: float = 0.05
    base_log_wait_ms_per_kb: float = 0.002
    memory_wait_share: float = 0.7
    prefetch_share: float = 0.5
    checkpoint_period_s: float = 300.0
    checkpoint_duration_s: float = 10.0
    checkpoint_disk_share: float = 0.25
    system_wait_ms_scale: float = 5.0
    outlier_probability: float = 0.004
    outlier_scale_ms: float = 60_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ConfigurationError("tick_s must be positive")
        if self.interval_ticks < 1:
            raise ConfigurationError("interval_ticks must be >= 1")
        if self.max_concurrency < 1:
            raise ConfigurationError("max_concurrency must be >= 1")


class DatabaseServer:
    """Single-tenant database server simulation (see module docstring)."""

    def __init__(
        self,
        specs: Sequence[TransactionSpec],
        dataset: DatasetSpec,
        container: ContainerSpec,
        config: EngineConfig | None = None,
        n_hot_locks: int = 4,
    ) -> None:
        if not specs:
            raise ConfigurationError("need at least one transaction spec")
        self.config = config or EngineConfig()
        self.specs = tuple(specs)
        self.dataset = dataset
        self._rng = np.random.default_rng(self.config.seed)

        weights = np.asarray([s.weight for s in specs], dtype=float)
        # Cumulative mix for admission's type draw: searching it with
        # uniforms is what ``Generator.choice(len(specs), n, p=mix)`` does
        # after validating ``p``, so the draws and the stream are the
        # same, without validating a constant mix on every tick.
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._mix_cdf = cdf
        self._spec_lock_p = np.asarray([s.lock_probability for s in specs])
        self._spec_hold_ms = np.asarray([s.lock_hold_ms for s in specs])
        # Per-spec columns that admission gathers by transaction type.
        sigma = np.asarray([s.work_sigma for s in specs], dtype=float)
        self._spec_sigma = sigma
        self._spec_half_var = 0.5 * sigma * sigma
        self._spec_cpu_ms = np.asarray([s.cpu_ms for s in specs], dtype=float)
        self._spec_reads = np.asarray([s.logical_reads for s in specs], dtype=float)
        self._spec_log_kb = np.asarray([s.log_kb for s in specs], dtype=float)
        self._spec_read_iops = np.asarray(
            [s.max_read_iops for s in specs], dtype=float
        )
        self._spec_log_mb_s = np.asarray([s.max_log_mb_s for s in specs], dtype=float)

        self.table = RequestTable()
        self.locks = HotLockManager(n_hot_locks)
        self.bufferpool = BufferPool(dataset)
        self.bufferpool.set_memory(container.memory_gb)
        self._container = container
        self._balloon_limit: float | None = None

        self._now_s = 0.0
        self._tick_index = 0
        self._interval_index = 0
        self._interval_start_s = 0.0
        self._acc = CounterAccumulator()

        # Sub-tick interpolation state, refreshed by _progress_work each
        # tick: the runnable rows and, aligned with them, the work
        # remaining at tick start and the potential progress each request
        # could have made this tick.  _complete_requests uses these to
        # place completions at fractional positions inside the tick, so
        # latencies are not quantized to whole ticks.
        self._tick_rows = np.empty(0, dtype=np.int64)
        self._tick_rem0 = np.empty((0, 3), dtype=float)
        self._tick_potential = np.empty((0, 3), dtype=float)
        self._tick_hold0 = np.empty(0, dtype=float)

    # -- control surface ----------------------------------------------------

    @property
    def now_s(self) -> float:
        return self._now_s

    @property
    def container(self) -> ContainerSpec:
        return self._container

    def set_container(self, spec: ContainerSpec) -> None:
        """Resize the tenant's container (applies from the next tick)."""
        self._container = spec
        self.bufferpool.set_memory(spec.memory_gb)

    def set_balloon_limit(self, limit_gb: float | None) -> None:
        """Apply or clear a memory balloon below the container allocation."""
        self._balloon_limit = limit_gb
        self.bufferpool.set_balloon_limit(limit_gb)

    @property
    def balloon_limit_gb(self) -> float | None:
        return self._balloon_limit

    def in_flight(self) -> int:
        return len(self.table)

    def prewarm(self) -> None:
        """Populate the buffer pool as if the workload ran for a long time.

        Fills the hot working set (up to capacity) and lets cold data take
        the remaining room — the steady state a long-running tenant would
        have reached.  Used by fleet-scale studies and tests to skip the
        cold-start transient.
        """
        pool = self.bufferpool
        capacity = pool.effective_cache_gb
        pool.cached_hot_gb = min(self.dataset.working_set_gb, capacity)
        cold_size = max(self.dataset.data_gb - self.dataset.working_set_gb, 0.0)
        pool.cached_cold_gb = min(cold_size, capacity - pool.cached_hot_gb)

    # -- main loop ------------------------------------------------------------

    def run_interval(self, rate_per_s: float) -> IntervalCounters:
        """Run one billing interval at the given arrival rate."""
        rates = np.full(self.config.interval_ticks, float(rate_per_s))
        return self.run_interval_with_rates(rates)

    def run_interval_with_rates(self, rates: np.ndarray) -> IntervalCounters:
        """Run one billing interval with a per-tick arrival-rate profile."""
        if rates.shape != (self.config.interval_ticks,):
            raise SimulationError(
                f"expected {self.config.interval_ticks} per-tick rates, "
                f"got {rates.shape}"
            )
        for rate in rates:
            self._tick(float(rate))
        counters = self._acc.snapshot(
            interval_index=self._interval_index,
            start_s=self._interval_start_s,
            end_s=self._now_s,
            container=self._container,
            memory_used_gb=self.bufferpool.used_gb(),
            memory_hot_gb=self.bufferpool.cached_hot_gb + 0.2,
            balloon_limit_gb=self._balloon_limit,
        )
        self._interval_index += 1
        self._interval_start_s = self._now_s
        return counters

    # -- tick internals ---------------------------------------------------------

    def _tick(self, rate_per_s: float) -> None:
        cfg = self.config
        tick_ms = cfg.tick_s * 1000.0

        self._admit_arrivals(rate_per_s)
        self._service_locks(tick_ms)
        self._progress_work(tick_ms)
        self._complete_requests(tick_ms)
        self._inject_noise(tick_ms)

        self._now_s += cfg.tick_s
        self._tick_index += 1

    def _admit_arrivals(self, rate_per_s: float) -> None:
        cfg = self.config
        n = int(self._rng.poisson(max(rate_per_s, 0.0) * cfg.tick_s))
        if n == 0:
            return
        room = cfg.max_concurrency - len(self.table)
        admitted = min(n, max(room, 0))
        self._acc.arrivals += n
        self._acc.rejected += n - admitted
        if admitted == 0:
            return
        types = self._draw_types(admitted)
        needs_lock = self._rng.random(admitted) < self._spec_lock_p[types]
        lock_ids = np.where(
            needs_lock & (self.locks.n_locks > 0),
            self._rng.integers(0, max(self.locks.n_locks, 1), size=admitted),
            -1,
        )
        # Arrivals are spread uniformly inside the tick so sub-tick latency
        # interpolation has honest start times.
        offsets_ms = self._rng.random(admitted) * cfg.tick_s * 1000.0
        base_ms = self._now_s * 1000.0
        jitter = self._rng.standard_normal(admitted)
        # Lognormal with unit mean, so jitter never changes average load.
        multiplier = np.exp(
            self._spec_sigma[types] * jitter - self._spec_half_var[types]
        )
        rows = self.table.admit(
            types,
            base_ms + offsets_ms,
            self._spec_cpu_ms[types] * multiplier,
            self._spec_reads[types] * multiplier,
            self._spec_log_kb[types] * multiplier,
            lock_ids,
            self._spec_read_iops[types],
            self._spec_log_mb_s[types],
        )
        locked = lock_ids >= 0
        if locked.any():
            for row, lock_id in zip(rows[locked].tolist(), lock_ids[locked].tolist()):
                self.locks.enqueue(lock_id, row)

    def _draw_types(self, n: int) -> np.ndarray:
        """``n`` transaction types from the mix, as ``Generator.choice``
        would draw them."""
        return self._mix_cdf.searchsorted(self._rng.random(n), side="right")

    def _service_locks(self, tick_ms: float) -> None:
        granted = self.locks.serve_tick(
            tick_ms, lambda row: float(self._spec_hold_ms[self.table.txn_type[row]])
        )
        lock_wait_ms = 0.0
        for row, queue_delay_ms in granted:
            self.table.lock_state[row] = LOCK_HELD
            # The request's critical section completes after its queue
            # delay plus its own hold time; both are wall-clock floors.
            self.table.hold_rem_ms[row] = (
                queue_delay_ms + self._spec_hold_ms[self.table.txn_type[row]]
            )
            lock_wait_ms += queue_delay_ms
        blocked = self.locks.total_waiting()
        if blocked:
            lock_wait_ms += blocked * tick_ms
        if lock_wait_ms > 0:
            self._acc.waits.add(WaitClass.LOCK, lock_wait_ms)

    def _progress_work(self, tick_ms: float) -> None:
        cfg = self.config
        table = self.table
        rows = table.runnable_rows()
        container = self._container

        # Snapshot remaining work for sub-tick completion interpolation
        # (gathers copy, so these stay the tick-start values).
        cpu_rem = table.cpu_rem_ms[rows]
        reads_rem = table.reads_rem[rows]
        log_rem = table.log_rem_kb[rows]
        self._tick_rows = rows
        rem0 = np.empty((rows.size, 3), dtype=float)
        rem0[:, 0] = cpu_rem
        rem0[:, 1] = reads_rem
        rem0[:, 2] = log_rem
        self._tick_rem0 = rem0
        self._tick_hold0 = table.hold_rem_ms[rows]
        potential = np.zeros((rows.size, 3), dtype=float)

        # Critical-section countdown runs in wall time, container-independent.
        held = rows[table.lock_state[rows] == LOCK_HELD]
        if held.size:
            table.hold_rem_ms[held] -= tick_ms

        # --- CPU: processor sharing across runnable requests. ---------------
        cpu_capacity_ms = container.cpu_cores * tick_ms
        cpu_want = np.minimum(tick_ms, np.maximum(cpu_rem, 0.0))
        cpu_demand = float(cpu_want.sum())
        cpu_saturated = cpu_demand > cpu_capacity_ms
        cpu_progress, cpu_used_ms = _fair_share_allocate(
            cpu_want, cpu_demand, cpu_capacity_ms
        )
        cpu_left = cpu_rem - cpu_progress
        if rows.size:
            table.cpu_rem_ms[rows] = cpu_left
        if cpu_saturated:
            # Under saturation a finished request's effective rate was its
            # fair-share progress; the interpolated completion lands at the
            # tick end, which is where it actually finished.
            potential[:, 0] = np.maximum(cpu_progress, _EPS)
        else:
            potential[:, 0] = tick_ms
        cpu_wait_ms = cpu_used_ms * cfg.base_cpu_wait_share
        if cpu_saturated:
            cpu_wait_ms += cpu_demand - cpu_used_ms
        if cpu_wait_ms > 0:
            self._acc.waits.add(WaitClass.CPU, cpu_wait_ms)
        self._acc.sample_utilization(
            ResourceKind.CPU, cpu_used_ms / max(cpu_capacity_ms, _EPS)
        )

        # --- Disk reads through the buffer pool. -----------------------------
        checkpoint_active = self._checkpoint_active()
        disk_capacity = container.disk_iops * cfg.tick_s
        workload_disk_capacity = disk_capacity * (
            1.0 - cfg.checkpoint_disk_share if checkpoint_active else 1.0
        )
        hot_miss, cold_miss = self.bufferpool.expected_miss_split()
        miss_rate = hot_miss + cold_miss
        hit_rate = 1.0 - miss_rate
        # A request's read stream progresses at memory speed for cache
        # hits and at its physical-read rate for misses: with miss rate m
        # the sustainable logical rate is min(hit_speed, phys_speed / m).
        logical_rate = np.full(rows.size, cfg.cached_read_rate)
        if miss_rate > _EPS:
            logical_rate = np.minimum(
                logical_rate, table.max_read_iops[rows] / miss_rate
            )
        read_want = np.minimum(logical_rate * cfg.tick_s, np.maximum(reads_rem, 0.0))
        physical = read_want * miss_rate
        physical_demand = float(physical.sum())
        disk_saturated = physical_demand > workload_disk_capacity
        served_physical, served_total = _fair_share_allocate(
            physical, physical_demand, workload_disk_capacity
        )
        # logical progress = hits (always served) + physical reads served.
        logical_progress = read_want * hit_rate + served_physical
        reads_left = reads_rem - logical_progress
        if rows.size:
            table.reads_rem[rows] = reads_left
        if disk_saturated:
            potential[:, 1] = np.maximum(logical_progress, _EPS)
        else:
            potential[:, 1] = logical_rate * cfg.tick_s
        self._acc.disk_physical_reads += served_total

        disk_wait_ms = served_total * cfg.base_io_wait_ms
        if disk_saturated:
            stall = tick_ms * (physical - served_physical) / np.maximum(
                read_want, _EPS
            )
            disk_wait_ms += float(stall.sum())
        if disk_wait_ms > 0:
            self._acc.waits.add(WaitClass.DISK, disk_wait_ms)

        if served_total > 0:
            hot_share = hot_miss / miss_rate if miss_rate > _EPS else 0.0
            self.bufferpool.absorb_physical_reads(served_total, hot_share)

        capacity_miss = self.bufferpool.capacity_miss_fraction()
        if capacity_miss > 0 and disk_wait_ms > 0:
            self._acc.waits.add(
                WaitClass.MEMORY, disk_wait_ms * capacity_miss * cfg.memory_wait_share
            )

        # Background ramp-up prefetch: spare disk capacity re-reads evicted
        # hot pages (read-ahead after a shrink/balloon revert), so cache
        # recovery is bounded by disk bandwidth rather than by however
        # little foreground traffic happens to be arriving.
        prefetch_pages = 0.0
        if cfg.prefetch_share > 0:
            spare = workload_disk_capacity - physical_demand
            hot_deficit_gb = (
                min(self.dataset.working_set_gb, self.bufferpool.effective_cache_gb)
                - self.bufferpool.cached_hot_gb
            )
            if spare > 0 and hot_deficit_gb > 1e-3:
                deficit_pages = hot_deficit_gb * 1024.0 * 1024.0 / PAGE_KB
                prefetch_pages = min(spare * cfg.prefetch_share, deficit_pages)
                self.bufferpool.absorb_physical_reads(prefetch_pages, 1.0)

        checkpoint_ios = (
            disk_capacity * cfg.checkpoint_disk_share if checkpoint_active else 0.0
        )
        self._acc.sample_utilization(
            ResourceKind.DISK_IO,
            (served_total + prefetch_pages + checkpoint_ios)
            / max(disk_capacity, _EPS),
        )
        self._acc.sample_utilization(
            ResourceKind.MEMORY, self.bufferpool.memory_utilization()
        )

        # --- Log writes at commit (after CPU and reads finish). ---------------
        ready_mask = (cpu_left <= _EPS) & (reads_left <= _EPS) & (log_rem > _EPS)
        ready = rows[ready_mask]
        log_capacity_kb = container.log_mb_s * 1024.0 * cfg.tick_s
        log_served_kb = 0.0
        if ready.size:
            log_rate_kb = table.max_log_mb_s[ready] * 1024.0 * cfg.tick_s
            log_rem_ready = log_rem[ready_mask]
            log_want = np.minimum(log_rate_kb, log_rem_ready)
            log_demand = float(log_want.sum())
            log_saturated = log_demand > log_capacity_kb
            log_progress, log_served_kb = _fair_share_allocate(
                log_want, log_demand, log_capacity_kb
            )
            table.log_rem_kb[ready] = log_rem_ready - log_progress
            if log_saturated:
                potential[ready_mask, 2] = np.maximum(log_progress, _EPS)
            else:
                potential[ready_mask, 2] = log_rate_kb
            log_wait_ms = log_served_kb * cfg.base_log_wait_ms_per_kb
            if log_saturated:
                log_wait_ms += (
                    tick_ms
                    * float((log_want - log_progress).sum())
                    / max(log_demand, _EPS)
                    * ready.size
                )
            if log_wait_ms > 0:
                self._acc.waits.add(WaitClass.LOG, log_wait_ms)
        self._acc.sample_utilization(
            ResourceKind.LOG_IO, log_served_kb / max(log_capacity_kb, _EPS)
        )
        self._tick_potential = potential

    def _complete_requests(self, tick_ms: float) -> None:
        table = self.table
        rows = self._tick_rows
        if rows.size == 0:
            return
        done = table.work_done(rows) & (table.hold_rem_ms[rows] <= _EPS)
        positions = done.nonzero()[0]
        if positions.size == 0:
            return
        finished = rows[positions]

        # Each finished component c needed rem0_c out of potential_c of
        # progress, i.e. it completed at fraction rem0_c / potential_c of
        # the tick; the request completes when its *last* component does.
        rem0 = self._tick_rem0[positions]
        potential = np.maximum(self._tick_potential[positions], _EPS)
        fractions = np.where(rem0 > _EPS, rem0 / potential, 0.0)
        hold_fraction = np.maximum(self._tick_hold0[positions], 0.0) / tick_ms
        work_fraction = np.maximum(fractions.max(axis=1), hold_fraction)

        # Requests that arrived mid-tick only start working at their
        # arrival offset; older requests work from the tick start.
        now_ms = self._now_s * 1000.0
        arrival_ms = table.arrival_ms[finished]
        arrival_fraction = np.maximum((arrival_ms - now_ms) / tick_ms, 0.0)
        # Both terms are non-negative, so only the upper clip can bind.
        fraction = np.minimum(arrival_fraction + work_fraction, 1.0)

        end_ms = now_ms + fraction * tick_ms
        latencies = np.maximum(end_ms - arrival_ms, 1.0)
        self._acc.latencies.extend(latencies.tolist())
        self._acc.completions += int(finished.size)
        table.release(finished)

    def _checkpoint_active(self) -> bool:
        cfg = self.config
        if cfg.checkpoint_period_s <= 0:
            return False
        phase = self._now_s % cfg.checkpoint_period_s
        return phase < cfg.checkpoint_duration_s

    def _inject_noise(self, tick_ms: float) -> None:
        cfg = self.config
        if cfg.system_wait_ms_scale > 0:
            self._acc.waits.add(
                WaitClass.SYSTEM,
                float(self._rng.exponential(cfg.system_wait_ms_scale)),
            )
        if cfg.outlier_probability > 0 and self._rng.random() < cfg.outlier_probability:
            victim = self._rng.choice(
                [WaitClass.CPU, WaitClass.DISK, WaitClass.SYSTEM]
            )
            self._acc.waits.add(
                victim, float(self._rng.exponential(cfg.outlier_scale_ms))
            )
