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
from repro.fleet.vectorized import MaskedVectorizedTelemetry, VectorizedTelemetry

K = len(SCALABLE_KINDS)
N = 300


def _fed(cls, n=N, seed=0, **kwargs):
    """A telemetry ring past its first full window, with idle gaps."""
    thresholds = default_thresholds()
    tel = cls(n, thresholds, LatencyGoal(100.0), **kwargs)
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
    tel = _fed(MaskedVectorizedTelemetry)
    rng = np.random.default_rng(1)
    widths = [37, N, 5, 120, N - 1, 1, 64, 211]
    for width in widths:
        tel.signals_rows(np.sort(rng.choice(N, width, replace=False)))
    widest = _fed(MaskedVectorizedTelemetry)
    widest.signals_rows(np.arange(N))
    assert _scratch_bytes(tel) == _scratch_bytes(widest)


def test_tiles_keep_one_full_tile_of_scratch():
    tiled = _fed(VectorizedTelemetry, tile=70)  # tiles of 70, 70, 70, 70, 20
    tiled.signals()
    one_tile = _fed(VectorizedTelemetry, n=70)
    one_tile.signals()
    assert _scratch_bytes(tiled) == _scratch_bytes(one_tile)


def test_reused_scratch_does_not_change_signals():
    tel = _fed(MaskedVectorizedTelemetry)
    rng = np.random.default_rng(2)
    for width in (N, 13, 190):
        tel.signals_rows(np.sort(rng.choice(N, width, replace=False)))
    rows = np.sort(rng.choice(N, 77, replace=False))
    fresh = _fed(MaskedVectorizedTelemetry)
    _assert_signals_equal(tel.signals_rows(rows), fresh.signals_rows(rows))
