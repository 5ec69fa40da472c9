"""Differential tests for the batched (struct-of-arrays) statistics kernels.

Every kernel in :mod:`repro.stats.batched` must agree with its scalar
reference on arbitrary inputs — including NaN-polluted and too-short rows,
which is exactly how the vectorized telemetry rings encode idle intervals
and cold windows.  Agreement is exact (``np.array_equal`` with
``equal_nan=True``): trend against :func:`detect_trend` on each compacted
row, tail median against ``np.nanmedian`` on each row, Spearman against
the doubled-rank integer identity evaluated per row and against the
incremental path.  The one tolerance left is Spearman against the float
Pearson reference, which sums in a different order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import batched
from repro.stats.batched import (
    BatchedCorrelation,
    BatchedTrend,
    batched_detect_trend,
    batched_spearman,
    batched_tail_median,
    fractional_ranks,
)
from repro.stats.incremental import IncrementalSpearman
from repro.stats.spearman import rankdata, spearman
from repro.stats.theil_sen import detect_trend

RTOL = 0.0
ATOL = 0.0
#: ``spearman`` is a float Pearson over float ranks; its sums run in
#: another order than the batched integer identity, so the two agree to
#: rounding, not bit for bit.
SPEARMAN_FLOAT_ATOL = 1e-9

#: Windows around every size-dependent branch: the 2-point minimum, the
#: fleet's trend (8) and signal (10) windows, the counted-rank crossover
#: (32 | 33) and the long window the sort path serves.
WINDOWS = (2, 3, 8, 10, 32, 33, 64)

#: Tie-heavy values, signed zeros, extremes and non-finite markers.
POOL = np.array(
    [-3.0, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 7.5, 1e6, np.nan, np.inf, -np.inf]
)


def _random_matrix(rng, rows, cols, nan_fraction):
    y = rng.normal(50.0, 20.0, size=(rows, cols))
    mask = rng.random((rows, cols)) < nan_fraction
    y[mask] = np.nan
    return y


def _messy_matrix(rng, rows, cols):
    """Continuous values mixed with pool draws; one all-NaN row."""
    y = rng.normal(0.0, 10.0, size=(rows, cols))
    pick = rng.random((rows, cols)) < 0.4
    y[pick] = rng.choice(POOL, size=int(pick.sum()))
    y[0] = np.nan
    return y


def _trend_reference(x, y, alpha=0.70, min_points=4):
    x = np.broadcast_to(x, y.shape)
    rows = []
    for xr, yr in zip(x, y):
        keep = np.isfinite(xr) & np.isfinite(yr)
        rows.append(detect_trend(xr[keep], yr[keep], alpha, min_points))
    return BatchedTrend(
        np.array([r.slope for r in rows]),
        np.array([r.significant for r in rows]),
        np.array([r.agreement for r in rows]),
        np.array([r.n_points for r in rows]),
    )


def _spearman_reference(x, y, min_points=4):
    """Per-row doubled ranks from ``rankdata``, identity in Python ints."""
    rho, n_points = [], []
    for xr, yr in zip(x, y):
        keep = np.isfinite(xr) & np.isfinite(yr)
        n = int(keep.sum())
        n_points.append(n)
        if n < min_points:
            rho.append(0.0)
            continue
        u = [int(v) for v in 2 * rankdata(xr[keep]) - 1]
        v = [int(w) for w in 2 * rankdata(yr[keep]) - 1]
        a = sum(p * p for p in u) - n**3
        b = sum(q * q for q in v) - n**3
        c = sum(p * q for p, q in zip(u, v)) - n**3
        rho.append(c / math.sqrt(a * b) if a * b > 0 else 0.0)
    return BatchedCorrelation(np.array(rho), np.array(n_points))


def _median_reference(values, k, default):
    out = []
    for row in values[:, -k:]:
        kept = row[~np.isnan(row)]
        out.append(default if kept.size == 0 else float(np.nanmedian(row)))
    return np.array(out)


def _assert_fields_equal(out, ref):
    for field in type(ref)._fields:
        got, want = getattr(out, field), getattr(ref, field)
        assert np.array_equal(got, want, equal_nan=True), (
            f"{field}: rows {np.flatnonzero(~_equal_nan(got, want))}"
        )


def _equal_nan(a, b):
    return (a == b) | (np.isnan(a) & np.isnan(b))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cols", [5, 10, 64])
def test_batched_trend_matches_scalar(seed, cols):
    rng = np.random.default_rng(seed)
    rows = 40
    x = np.arange(cols, dtype=float)
    y = _random_matrix(rng, rows, cols, nan_fraction=0.15)
    # A few pathological rows: all-NaN, constant, near-empty.
    y[0] = np.nan
    y[1] = 7.0
    y[2, :-2] = np.nan

    out = batched_detect_trend(x, y)
    for t in range(rows):
        finite = np.isfinite(y[t])
        ref = detect_trend(x[finite], y[t][finite])
        assert out.n_points[t] == ref.n_points, f"row {t}"
        assert bool(out.significant[t]) == ref.significant, f"row {t}"
        np.testing.assert_allclose(
            out.slope[t], ref.slope, rtol=RTOL, atol=ATOL, err_msg=f"row {t}"
        )
        np.testing.assert_allclose(
            out.agreement[t], ref.agreement, rtol=RTOL, atol=ATOL,
            err_msg=f"row {t}",
        )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("window", WINDOWS)
def test_trend_exact_on_every_window(window, seed):
    """Shared, repeated, descending and per-row x over messy rows."""
    rng = np.random.default_rng(100 + seed)
    rows = 30
    y = _messy_matrix(rng, rows, window)
    # Even and odd valid counts: drop a varying number of samples.
    for t in range(1, rows):
        y[t, rng.permutation(window)[: t % 4]] = np.nan
    axes = {
        "ascending": np.arange(window, dtype=float),
        "descending": np.arange(window, 0, -1, dtype=float),
        "repeated": np.floor(np.arange(window) / 2.0),  # dx == 0 pairs
        "ring-clock": np.roll(np.arange(window, dtype=float), 3)[::-1],
    }
    for name, x in axes.items():
        _assert_fields_equal(batched_detect_trend(x, y), _trend_reference(x, y))
    per_row = rng.choice([0.0, 1.0, 2.0, 5.0, np.nan], size=(rows, window))
    per_row[1::2] = np.arange(window, dtype=float)
    _assert_fields_equal(
        batched_detect_trend(per_row, y), _trend_reference(per_row, y)
    )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_trend_extreme_magnitudes_match_scalar():
    """Quotients that underflow to zero or overflow go the scalar way."""
    x = np.arange(8, dtype=float)
    y = np.array(
        [
            [0.0, 5e-324, 1e-323, 0.0, 5e-324, 2e-323, 3e-323, 4e-323],
            [1e308, -1e308, 1e308, -1e308, 1e308, 0.0, 1.0, 2.0],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        ]
    )
    _assert_fields_equal(batched_detect_trend(x, y), _trend_reference(x, y))
    wide = np.array([0.0, 1e308, -1e308, 2.0, 3.0, 4.0, 5.0, 6.0])
    _assert_fields_equal(batched_detect_trend(wide, y), _trend_reference(wide, y))


def test_trend_handles_non_finite_shared_axis():
    """A cold ring clock: NaN and inf slots are excluded for every row."""
    rng = np.random.default_rng(21)
    x = np.array([9.0, np.nan, 7.0, -np.inf, 5.0, 4.0, np.inf, 2.0, 1.0, 0.0])
    y = _messy_matrix(rng, 25, x.size)
    _assert_fields_equal(batched_detect_trend(x, y), _trend_reference(x, y))


def test_trend_leaves_inputs_untouched():
    """A one-row matrix transposes to a contiguous view of the input."""
    rng = np.random.default_rng(8)
    y = rng.normal(size=(1, 8))
    y[0, 5] = np.nan
    x = np.arange(8, dtype=float)[None, :]
    x[0, 2] = np.inf
    y_before, x_before = y.copy(), x.copy()
    batched_detect_trend(x, y)
    batched_spearman(x, y)
    assert np.array_equal(y, y_before, equal_nan=True)
    assert np.array_equal(x, x_before, equal_nan=True)


def test_trend_chunking_does_not_change_values(monkeypatch):
    rng = np.random.default_rng(4)
    x = np.arange(10, dtype=float)
    y = _messy_matrix(rng, 50, 10)
    whole = batched_detect_trend(x, y)
    monkeypatch.setattr(batched, "SLOPE_CHUNK_ELEMENTS", 7 * 45)
    _assert_fields_equal(batched_detect_trend(x, y), whole)
    _assert_fields_equal(batched_detect_trend(np.tile(x, (50, 1)), y), whole)


def test_batched_trend_shared_x_equals_per_row_x():
    rng = np.random.default_rng(5)
    x = np.arange(12, dtype=float)
    y = _random_matrix(rng, 20, 12, nan_fraction=0.1)
    shared = batched_detect_trend(x, y)
    tiled = batched_detect_trend(np.tile(x, (20, 1)), y)
    np.testing.assert_array_equal(shared.slope, tiled.slope)
    np.testing.assert_array_equal(shared.significant, tiled.significant)
    np.testing.assert_array_equal(shared.n_points, tiled.n_points)


def test_batched_trend_respects_alpha():
    x = np.arange(10, dtype=float)
    y = np.tile(x * 2.0, (3, 1))  # perfectly increasing
    strict = batched_detect_trend(x, y, alpha=1.0)
    assert strict.significant.all()
    noisy = y.copy()
    noisy[:, ::2] *= -1.0  # destroy the sign agreement
    out = batched_detect_trend(x, noisy, alpha=0.95)
    assert not out.significant.any()


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("cols", [6, 10, 64])
def test_batched_spearman_matches_scalar(seed, cols):
    rng = np.random.default_rng(seed)
    rows = 40
    x = _random_matrix(rng, rows, cols, nan_fraction=0.12)
    y = 0.6 * np.nan_to_num(x) + rng.normal(0.0, 10.0, size=(rows, cols))
    y[rng.random((rows, cols)) < 0.1] = np.nan
    # Tie-heavy rows exercise the rank-averaging path.
    x[3] = np.round(np.nan_to_num(x[3]) / 20.0) * 20.0
    x[4] = np.nan  # no data at all
    out = batched_spearman(x, y)
    _assert_fields_equal(out, _spearman_reference(x, y))
    for t in range(rows):
        ref = spearman(x[t], y[t])
        assert out.n_points[t] == ref.n_points, f"row {t}"
        np.testing.assert_allclose(
            out.rho[t], ref.rho, rtol=RTOL, atol=SPEARMAN_FLOAT_ATOL,
            err_msg=f"row {t}",
        )


@pytest.mark.parametrize("window", WINDOWS)
def test_spearman_exact_on_every_window(window, monkeypatch):
    """Counted and sorted ranks give the same rho, both exact."""
    rng = np.random.default_rng(window)
    x = _messy_matrix(rng, 30, window)
    y = _messy_matrix(rng, 30, window)
    y[5] = x[5]  # rho = 1 with ties
    ref = _spearman_reference(x, y)
    _assert_fields_equal(batched_spearman(x, y), ref)
    for limit in (0, 10**6):  # force each rank method in turn
        monkeypatch.setattr(batched, "PAIRWISE_RANK_MAX_WINDOW", limit)
        _assert_fields_equal(batched_spearman(x, y), ref)


def test_batched_spearman_bit_identical_to_incremental():
    """Same integer-rank formulation => exactly equal floats, no tolerance."""
    rng = np.random.default_rng(11)
    for window in (24, 32, 64):  # >= VECTOR_MIN_CAPACITY: the vector path
        x = rng.normal(100.0, 15.0, size=window)
        y = 0.7 * x + rng.normal(0.0, 5.0, size=window)
        inc = IncrementalSpearman(window)
        for a, b in zip(x, y):
            inc.append(a, b)
        ref = inc.result()
        out = batched_spearman(x[None, :], y[None, :])
        assert float(out.rho[0]) == ref.rho
        assert int(out.n_points[0]) == ref.n_points


def test_batched_tail_median_matches_reference():
    rng = np.random.default_rng(9)
    values = _random_matrix(rng, 30, 16, nan_fraction=0.2)
    values[0] = np.nan
    for k in (1, 5, 16):
        out = batched_tail_median(values[:, -k:], k, default=-1.0)
        for t in range(values.shape[0]):
            tail = values[t, -k:]
            finite = tail[np.isfinite(tail)]
            expected = -1.0 if finite.size == 0 else float(np.median(finite))
            np.testing.assert_allclose(
                out[t], expected, rtol=RTOL, atol=ATOL, err_msg=f"row {t} k={k}"
            )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("k", [1, 2, 3, 8, 10, 33])
def test_tail_median_exact_with_infinities_and_ties(k):
    rng = np.random.default_rng(k)
    values = _messy_matrix(rng, 40, 40)
    values[1, -k:] = np.inf
    values[2, -k:] = [np.inf, -np.inf] * (k // 2) + [np.nan] * (k % 2)
    values[3, -k:] = 1.5e308  # a middle pair's sum overflows
    for default in (0.0, np.nan):
        assert np.array_equal(
            batched_tail_median(values, k, default=default),
            _median_reference(values, k, default),
            equal_nan=True,
        )


def test_fractional_ranks_are_doubled_tie_averaged_ranks():
    rng = np.random.default_rng(13)
    values = rng.integers(0, 6, size=(8, 12)).astype(float)  # heavy ties
    out = fractional_ranks(values)
    for t in range(values.shape[0]):
        expected = 2.0 * rankdata(values[t]) - 1.0
        np.testing.assert_array_equal(out[t], expected)


@pytest.mark.parametrize("window", WINDOWS)
def test_counted_ranks_equal_fractional_ranks(window):
    rng = np.random.default_rng(30 + window)
    values = rng.choice([-1.0, 0.0, 2.0, 3.5, np.inf], size=(25, window))
    values[:5] = rng.normal(size=(5, window))
    counted = batched._pairwise_ranks(np.ascontiguousarray(values.T)).T
    assert np.array_equal(counted, fractional_ranks(values))


@st.composite
def _kernel_inputs(draw):
    """(x, y) over a fleet-like window: ties, holes, infinities, x repeats."""
    window = draw(st.sampled_from(WINDOWS))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(
        st.lists(st.sampled_from(list(POOL)), min_size=1, max_size=6)
    )
    y = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e4])), (rows, window))
    pick = rng.random((rows, window)) < draw(st.floats(0.0, 1.0))
    y[pick] = rng.choice(pool, size=int(pick.sum()))
    x_kind = draw(st.sampled_from(["shared", "repeated", "per-row"]))
    if x_kind == "shared":
        x = np.arange(window, dtype=float)[:: draw(st.sampled_from([1, -1]))]
    elif x_kind == "repeated":
        x = np.floor(np.arange(window) / draw(st.integers(1, 3))).astype(float)
    else:
        x = rng.choice(np.array([0.0, 1.0, 2.0, 3.0, np.nan]), (rows, window))
        x[rng.random(rows) < 0.5] = np.arange(window, dtype=float)
    return x, y


@settings(max_examples=60, deadline=None)
@given(_kernel_inputs(), st.sampled_from([0.6, 0.7, 1.0]), st.integers(1, 5))
def test_kernels_match_scalar_references_exactly(inputs, alpha, k):
    x, y = inputs
    _assert_fields_equal(
        batched_detect_trend(x, y, alpha=alpha), _trend_reference(x, y, alpha)
    )
    x_rows = np.broadcast_to(x, y.shape)
    _assert_fields_equal(batched_spearman(x_rows, y), _spearman_reference(x_rows, y))
    k = min(k, y.shape[1])
    assert np.array_equal(
        batched_tail_median(y, k, default=-1.0),
        _median_reference(y, k, -1.0),
        equal_nan=True,
    )
