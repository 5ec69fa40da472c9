"""The fleet ring store's lock-step fast path reads what the per-row path reads.

One ring store serves both engines.  A read whose rows share one cursor
and one clock gathers shared slots under that one clock; any other read
gathers each row at its own slots and clock.  Here a lock-step fleet of
``N`` rows is mirrored by a twin that carries the same ``N`` rows plus
one row that is out of step from the first interval on: its clock is
offset and it misses every third delivery.  The twin's full-width reads
therefore take the per-row path, and at every interval, cold and warm,
their first ``N`` rows must equal the lock-step fleet's fast path byte
for byte.  Rows that share a cursor but not a clock, including a cold
row beside a warm one, are not in lock step.
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import LatencyGoal
from repro.core.thresholds import default_thresholds
from repro.engine.resources import SCALABLE_KINDS
from repro.fleet.vectorized import VectorizedTelemetry

K = len(SCALABLE_KINDS)
N = 40


def _inputs(rng, n):
    latency = rng.gamma(2.0, 30.0, n)
    latency[rng.random(n) < 0.1] = np.nan  # idle intervals
    return (
        latency,
        rng.uniform(0.0, 100.0, (K, n)),
        rng.gamma(2.0, 5.0, (K, n)),
        rng.uniform(0.0, 60.0, (K, n)),
    )


def _assert_first_rows_identical(wide, narrow, n):
    for field in narrow._fields:
        got = getattr(wide, field)[..., :n]
        want = getattr(narrow, field)
        assert got.tobytes() == want.tobytes(), field


def test_per_row_reads_equal_the_lock_step_fast_path():
    thresholds = default_thresholds()
    goal = LatencyGoal(100.0)
    lock = VectorizedTelemetry(N, thresholds, goal)
    twin = VectorizedTelemetry(N + 1, thresholds, goal)
    rng = np.random.default_rng(11)
    every = np.arange(N + 1)
    for i in range(3 * thresholds.signal_window):
        lat, util, wait, wpct = _inputs(rng, N + 1)
        lock.observe(float(i), lat[:N], util[:, :N], wait[:, :N], wpct[:, :N])
        rows = every if i % 3 != 1 else every[:N]
        t = np.where(rows == N, i + 0.5, float(i))
        twin.observe_rows(
            rows, t, lat[rows], util[:, rows], wait[:, rows], wpct[:, rows]
        )

        assert lock._lock_step(slice(0, N)) is not None
        assert twin._lock_step(every) is None
        fast = lock.signals()
        _assert_first_rows_identical(twin.signals_rows(every), fast, N)
        _assert_first_rows_identical(twin.signals(), fast, N)
        # The twin's first N rows on their own are a lock-step read again.
        assert twin._lock_step(every[:N]) is not None
        _assert_first_rows_identical(twin.signals_rows(every[:N]), fast, N)


def test_shared_cursor_with_distinct_clocks_is_not_lock_step():
    thresholds = default_thresholds()
    tel = VectorizedTelemetry(3, thresholds, LatencyGoal(100.0))
    rng = np.random.default_rng(5)
    tel.observe_rows(np.arange(3), np.array([0.0, 0.0, 1.0]), *_inputs(rng, 3))
    assert (tel._cursor_rows == 1).all()
    assert tel._lock_step(slice(None)) is None
    assert tel._lock_step(np.array([0, 1])) == 1


def test_cold_row_beside_warm_row_is_not_lock_step():
    # Both rows sit at one cursor with equal clocks wherever both are
    # written; the cold row's unwritten slots are NaN where the warm
    # row holds samples, so each row must be read under its own clock.
    thresholds = default_thresholds()
    window = thresholds.signal_window
    tel = VectorizedTelemetry(2, thresholds, LatencyGoal(100.0))
    rng = np.random.default_rng(7)
    for i in range(window + 3):
        rows = np.arange(2) if i >= window else np.array([1])
        t = np.full(rows.size, float(i))
        tel.observe_rows(rows, t, *_inputs(rng, rows.size))
    assert (tel._cursor_rows == 3).all()
    assert tel._lock_step(slice(None)) is None
    both = tel.signals()
    for r in range(2):
        alone = tel.signals_rows(np.array([r]))
        for field in both._fields:
            got = getattr(both, field)[..., r]
            assert got.tobytes() == getattr(alone, field)[..., r].tobytes(), field
