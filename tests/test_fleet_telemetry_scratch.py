"""The fleet telemetry's scratch pool stays bounded and never leaks values.

Signal extraction gathers ring columns into persistent scratch
(``VectorizedTelemetry._buf``).  Degraded-mode waves ask for a new row
count almost every call, so a pool keyed by shape would grow without
bound; the pool keeps one flat array per name, sized to the largest
request.
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import LatencyGoal
from repro.core.thresholds import default_thresholds
from repro.engine.resources import SCALABLE_KINDS
from repro.fleet.vectorized import LAT_UNKNOWN, VectorizedTelemetry

K = len(SCALABLE_KINDS)
N = 300


def _fed(cls, n=N, seed=0):
    """A telemetry ring past its first full window, with idle gaps."""
    thresholds = default_thresholds()
    tel = cls(n, thresholds, LatencyGoal(100.0))
    rng = np.random.default_rng(seed)
    for i in range(thresholds.signal_window + 3):
        latency = rng.gamma(2.0, 30.0, n)
        latency[rng.random(n) < 0.05] = np.nan  # idle intervals
        tel.observe(
            float(i),
            latency,
            rng.uniform(0.0, 100.0, (K, n)),
            rng.gamma(2.0, 5.0, (K, n)),
            rng.uniform(0.0, 60.0, (K, n)),
        )
    return tel


def _scratch_bytes(tel):
    return {name: buf.nbytes for name, buf in tel._scratch.items()}


def _assert_signals_equal(a, b):
    for field in a._fields:
        assert np.array_equal(
            getattr(a, field), getattr(b, field), equal_nan=True
        ), field


def test_wave_scratch_is_one_largest_request_per_name():
    tel = _fed(VectorizedTelemetry)
    rng = np.random.default_rng(1)
    widths = [37, N, 5, 120, N - 1, 1, 64, 211]
    for width in widths:
        tel.signals_rows(np.sort(rng.choice(N, width, replace=False)))
    widest = _fed(VectorizedTelemetry)
    widest.signals_rows(np.arange(N))
    assert _scratch_bytes(tel) == _scratch_bytes(widest)


def test_empty_wave_returns_inert_signals(monkeypatch):
    """A wave whose deliveries were all quarantined selects no rows."""
    tel = _fed(VectorizedTelemetry)

    def no_kernels(*args):
        raise AssertionError("an empty wave reached the signal kernels")

    monkeypatch.setattr(tel, "_signals_into", no_kernels)
    out = tel.signals_rows(np.empty(0, dtype=np.int64))
    assert np.isnan(out.latency_ms).all()
    assert (out.latency_status == LAT_UNKNOWN).all()
    for field in out._fields:
        if field not in ("latency_ms", "latency_status"):
            assert not getattr(out, field).any(), field
    assert out.util_pct.shape == (K, N)
    assert tel._scratch == {}


def test_reused_scratch_does_not_change_signals():
    tel = _fed(VectorizedTelemetry)
    rng = np.random.default_rng(2)
    for width in (N, 13, 190):
        tel.signals_rows(np.sort(rng.choice(N, width, replace=False)))
    rows = np.sort(rng.choice(N, 77, replace=False))
    fresh = _fed(VectorizedTelemetry)
    _assert_signals_equal(tel.signals_rows(rows), fresh.signals_rows(rows))


def _out_of_step(tel):
    """Give row 0 one extra delivery: reads that include it go per row."""
    rng = np.random.default_rng(9)
    tel.observe_rows(
        np.array([0]),
        np.array([99.0]),
        rng.gamma(2.0, 30.0, 1),
        rng.uniform(0.0, 100.0, (K, 1)),
        rng.gamma(2.0, 5.0, (K, 1)),
        rng.uniform(0.0, 60.0, (K, 1)),
    )
    return tel


def test_per_row_wave_scratch_is_one_largest_request_per_name():
    tel = _out_of_step(_fed(VectorizedTelemetry))
    rng = np.random.default_rng(3)
    for width in [37, N, 5, 120, N - 1, 64, 211]:
        tel.signals_rows(np.union1d(rng.choice(N, width, replace=False), [0]))
    widest = _out_of_step(_fed(VectorizedTelemetry))
    widest.signals_rows(np.arange(N))
    assert "trend_x" in tel._scratch  # the per-row clock was gathered
    assert _scratch_bytes(tel) == _scratch_bytes(widest)


def test_reused_per_row_scratch_does_not_change_signals():
    # Every read includes the out-of-step row 0, so each one gathers per
    # row into the reused scratch, the per-row clock (trend_x) included.
    tel = _out_of_step(_fed(VectorizedTelemetry))
    rng = np.random.default_rng(2)
    for width in (N, 13, 190):
        tel.signals_rows(np.union1d(rng.choice(N, width, replace=False), [0]))
    rows = np.union1d(rng.choice(N, 77, replace=False), [0])
    assert tel._lock_step(rows) is None
    fresh = _out_of_step(_fed(VectorizedTelemetry))
    _assert_signals_equal(tel.signals_rows(rows), fresh.signals_rows(rows))
