"""Transaction specifications and the active-request table.

The engine is a fluid, discrete-time simulator: every active request is a
row in a structure-of-arrays :class:`RequestTable` so that each tick's
admission, resource arbitration and retirement are a handful of vectorized
numpy operations rather than a Python loop over requests.  A tick's
arrivals enter in one :meth:`RequestTable.admit` call and its completions
leave in one :meth:`RequestTable.release` call.  This keeps full
experiment runs (tens of thousands of ticks, hundreds of concurrent
requests) fast enough to sweep six scaling policies per benchmark.

Row placement is part of the simulator's determinism contract: float
sums over a tick's rows follow row order, so a batch takes rows from the
free list in exactly the order that one-at-a-time admission would.

A request carries remaining-work components (CPU ms, logical reads, log
KB) plus an optional *hot-lock critical section*: the application-level
serialization that the paper's TPC-C experiment shows cannot be relieved by
a larger container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

__all__ = ["TransactionSpec", "RequestTable", "LOCK_NONE", "LOCK_QUEUED", "LOCK_HELD"]

#: lock_state values.
LOCK_NONE = 0  #: no hot lock needed (or already released)
LOCK_QUEUED = 1  #: waiting in a hot-lock queue; no work progresses
LOCK_HELD = 2  #: inside the critical section


@dataclass(frozen=True)
class TransactionSpec:
    """Resource-demand profile of one transaction/query type.

    Attributes:
        name: label, e.g. ``"new_order"``.
        weight: relative frequency in the workload mix.
        cpu_ms: total CPU milliseconds of work.
        logical_reads: buffer-pool page accesses.
        log_kb: bytes (KB) written to the log at commit.
        lock_probability: chance the transaction enters a hot-lock critical
            section (application-level contention).
        lock_hold_ms: wall-clock length of the critical section; it does
            not shrink with container size — this floor is what makes
            lock-bound workloads insensitive to scaling.
        max_read_iops: per-request read-stream limit (a single query cannot
            saturate a large container's disk alone).
        max_log_mb_s: per-request log-write stream limit.
        work_sigma: lognormal sigma of the per-request work-size jitter
            (0 = every instance identical); gives latency distributions a
            realistic spread.
    """

    name: str
    weight: float
    cpu_ms: float
    logical_reads: float
    log_kb: float
    lock_probability: float = 0.0
    lock_hold_ms: float = 0.0
    max_read_iops: float = 400.0
    max_log_mb_s: float = 10.0
    work_sigma: float = 0.25

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError(f"{self.name}: weight must be positive")
        if min(self.cpu_ms, self.logical_reads, self.log_kb) < 0:
            raise WorkloadError(f"{self.name}: work components must be >= 0")
        if not 0.0 <= self.lock_probability <= 1.0:
            raise WorkloadError(
                f"{self.name}: lock_probability must be in [0, 1]"
            )
        if self.lock_probability > 0 and self.lock_hold_ms <= 0:
            raise WorkloadError(
                f"{self.name}: contended transactions need lock_hold_ms > 0"
            )

    @property
    def service_ms_estimate(self) -> float:
        """Rough uncontended service time, used for sizing sanity checks."""
        io_ms = 1000.0 * self.logical_reads / max(self.max_read_iops, 1e-9)
        log_ms = self.log_kb / 1024.0 / max(self.max_log_mb_s, 1e-9) * 1000.0
        return self.cpu_ms + io_ms + log_ms + self.lock_hold_ms


class RequestTable:
    """Structure-of-arrays store for in-flight requests.

    Rows are recycled through a free list; numpy column views over the
    ``active`` mask give the per-tick working sets.
    """

    _INITIAL_CAPACITY = 256

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        self._capacity = max(capacity, 16)
        self._allocate(self._capacity)
        self._free: list[int] = list(range(self._capacity))[::-1]
        self._active_count = 0

    def _allocate(self, capacity: int) -> None:
        self.active = np.zeros(capacity, dtype=bool)
        self.txn_type = np.zeros(capacity, dtype=np.int32)
        self.arrival_ms = np.zeros(capacity, dtype=float)
        self.cpu_rem_ms = np.zeros(capacity, dtype=float)
        self.reads_rem = np.zeros(capacity, dtype=float)
        self.log_rem_kb = np.zeros(capacity, dtype=float)
        self.lock_id = np.full(capacity, -1, dtype=np.int32)
        self.lock_state = np.zeros(capacity, dtype=np.int8)
        self.hold_rem_ms = np.zeros(capacity, dtype=float)
        self.max_read_iops = np.zeros(capacity, dtype=float)
        self.max_log_mb_s = np.zeros(capacity, dtype=float)

    def _grow(self) -> None:
        old_capacity = self._capacity
        new_capacity = old_capacity * 2
        for name in (
            "active",
            "txn_type",
            "arrival_ms",
            "cpu_rem_ms",
            "reads_rem",
            "log_rem_kb",
            "lock_id",
            "lock_state",
            "hold_rem_ms",
            "max_read_iops",
            "max_log_mb_s",
        ):
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=old.dtype)
            if name == "lock_id":
                grown[:] = -1
            grown[:old_capacity] = old
            setattr(self, name, grown)
        self._free.extend(range(new_capacity - 1, old_capacity - 1, -1))
        self._capacity = new_capacity

    def __len__(self) -> int:
        return self._active_count

    @property
    def capacity(self) -> int:
        return self._capacity

    def _take_rows(self, n: int) -> np.ndarray:
        """Pop ``n`` rows in the order ``n`` single pops would give.

        The free list is a stack: rows come off its end.  A batch larger
        than the free list takes every free row first, then grows the
        table (whose new rows pop in ascending order) and continues.
        """
        free = self._free
        taken: list[int] = []
        while True:
            k = min(n - len(taken), len(free))
            if k:
                taken.extend(free[: -k - 1 : -1])
                del free[-k:]
            if len(taken) == n:
                return np.asarray(taken, dtype=np.intp)
            self._grow()

    def admit(
        self,
        txn_type: np.ndarray,
        arrival_ms: np.ndarray,
        cpu_ms: np.ndarray,
        logical_reads: np.ndarray,
        log_kb: np.ndarray,
        lock_id: np.ndarray,
        max_read_iops: np.ndarray,
        max_log_mb_s: np.ndarray,
    ) -> np.ndarray:
        """Admit a batch of requests; returns their row indices in order.

        Every argument is aligned with the batch: the work columns are
        the request's total work (spec work times its size multiplier),
        and ``lock_id`` is ``-1`` for requests that need no hot lock.
        """
        rows = self._take_rows(len(txn_type))
        self.active[rows] = True
        self.txn_type[rows] = txn_type
        self.arrival_ms[rows] = arrival_ms
        self.cpu_rem_ms[rows] = cpu_ms
        self.reads_rem[rows] = logical_reads
        self.log_rem_kb[rows] = log_kb
        self.lock_id[rows] = lock_id
        self.lock_state[rows] = np.where(lock_id >= 0, LOCK_QUEUED, LOCK_NONE)
        self.hold_rem_ms[rows] = 0.0
        self.max_read_iops[rows] = max_read_iops
        self.max_log_mb_s[rows] = max_log_mb_s
        self._active_count += rows.size
        return rows

    def add(
        self,
        txn_type: int,
        arrival_ms: float,
        spec: TransactionSpec,
        lock_id: int,
        work_multiplier: float = 1.0,
    ) -> int:
        """Admit one request; returns its row index."""
        rows = self.admit(
            np.asarray([txn_type]),
            np.asarray([arrival_ms], dtype=float),
            np.asarray([spec.cpu_ms * work_multiplier]),
            np.asarray([spec.logical_reads * work_multiplier]),
            np.asarray([spec.log_kb * work_multiplier]),
            np.asarray([lock_id]),
            np.asarray([spec.max_read_iops]),
            np.asarray([spec.max_log_mb_s]),
        )
        return int(rows[0])

    def release(self, rows: np.ndarray) -> None:
        """Retire rows back to the free list, in the order given.

        Rows already inactive are skipped, and a row listed twice is
        freed once, at its first occurrence.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        live = rows[self.active[rows]]
        if live.size > 1 and not (live[1:] > live[:-1]).all():
            # Not strictly ascending, so duplicates are possible.
            _, first = np.unique(live, return_index=True)
            live = live[np.sort(first)]
        self.active[live] = False
        self.lock_id[live] = -1
        self.lock_state[live] = LOCK_NONE
        self._free.extend(live.tolist())
        self._active_count -= live.size

    def active_rows(self) -> np.ndarray:
        """Indices of all in-flight requests."""
        return np.flatnonzero(self.active)

    def runnable_rows(self) -> np.ndarray:
        """Indices of requests allowed to progress (not queued on a lock)."""
        return (self.active & (self.lock_state != LOCK_QUEUED)).nonzero()[0]

    def blocked_rows(self) -> np.ndarray:
        """Indices of requests queued on a hot lock."""
        return np.flatnonzero(self.active & (self.lock_state == LOCK_QUEUED))

    def work_done(self, rows: np.ndarray) -> np.ndarray:
        """Boolean mask over ``rows``: all work components finished."""
        return (
            (self.cpu_rem_ms[rows] <= 1e-9)
            & (self.reads_rem[rows] <= 1e-9)
            & (self.log_rem_kb[rows] <= 1e-9)
        )
