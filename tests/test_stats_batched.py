"""Differential tests for the batched (struct-of-arrays) statistics kernels.

Every kernel in :mod:`repro.stats.batched` must agree with its scalar
reference on arbitrary inputs — including NaN-polluted and too-short rows,
which is exactly how the vectorized telemetry rings encode idle intervals
and cold windows.  Agreement is exact (``np.array_equal`` with
``equal_nan=True``): trend against :func:`detect_trend` on each compacted
row, tail median against ``np.nanmedian`` on each row, Spearman against
the doubled-rank integer identity evaluated per row.  The one tolerance left is Spearman against the float
Pearson reference, which sums in a different order.
"""

from __future__ import annotations

import math
import warnings
from unittest import mock

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
        with np.errstate(all="ignore"):  # extreme rows over- and underflow
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


def _layouts(a):
    """``a`` as given (C order), as the transpose of a time-major buffer
    (F order), and as a tile sliced out of a wider time-major buffer."""
    time_major = np.moveaxis(a, -1, 0)
    wide = np.full(time_major.shape[:-1] + (a.shape[-2] + 5,), -7.0)
    wide[..., 2 : 2 + a.shape[-2]] = time_major
    tile = np.moveaxis(wide[..., 2 : 2 + a.shape[-2]], 0, -1)
    return {
        "C": a,
        "F": np.moveaxis(np.ascontiguousarray(time_major), 0, -1),
        "tile": tile,
    }


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
    per_row = rng.choice([0.0, 1.0, 2.0, 5.0, np.nan], size=(rows, window))
    per_row[1::2] = np.arange(window, dtype=float)
    for layout, y_in in _layouts(y).items():
        for name, x in axes.items():
            _assert_fields_equal(
                batched_detect_trend(x, y_in), _trend_reference(x, y)
            )
        for x_in in _layouts(per_row).values():
            _assert_fields_equal(
                batched_detect_trend(x_in, y_in), _trend_reference(per_row, y)
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
    """Contiguous views of the input must be copied before a NaN write.

    A one-row matrix transposes to a contiguous view, and so does the
    F-order transpose of a time-major buffer; ±inf samples (and samples
    paired with a non-finite x) are the entries the kernels overwrite.
    """
    rng = np.random.default_rng(8)
    y = rng.normal(size=(1, 8))
    y[0, 5] = np.nan
    x = np.arange(8, dtype=float)[None, :]
    x[0, 2] = np.inf
    time_major = rng.normal(size=(8, 6))
    time_major[1, 0], time_major[4, 3], time_major[6, 5] = np.inf, -np.inf, np.nan
    clock = rng.normal(size=(8, 6))
    clock[3, 2], clock[5, 4] = np.nan, -np.inf
    cases = [
        (x, y),
        (np.arange(8.0), time_major.T),  # ascending axis: read in place
        (clock.T, time_major.T),
    ]
    for x_in, y_in in cases:
        y_before, x_before = y_in.copy(), x_in.copy()
        batched_detect_trend(x_in, y_in)
        batched_spearman(x_in, y_in)
        batched_tail_median(y_in, 3)
        assert np.array_equal(y_in, y_before, equal_nan=True)
        assert np.array_equal(x_in, x_before, equal_nan=True)


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
    for x_in, y_in in zip(_layouts(x).values(), _layouts(y).values()):
        _assert_fields_equal(batched_spearman(x_in, y_in), ref)
    for limit in (0, 10**6):  # force each rank method in turn
        monkeypatch.setattr(batched, "PAIRWISE_RANK_MAX_WINDOW", limit)
        _assert_fields_equal(batched_spearman(x, y), ref)


@pytest.mark.parametrize("window", WINDOWS)
def test_spearman_ranks_broadcast_x_once(window):
    """x ``(m, W)`` against stacked y ``(K, m, W)`` equals each 2-D call.

    y-only exclusions send x to the pair-mask re-rank; x-only exclusions
    and ties take the rank-once path.
    """
    rng = np.random.default_rng(200 + window)
    n_kinds, rows = 3, 24
    x = _messy_matrix(rng, rows, window)
    x[2] = np.round(x[2])  # ties
    y = rng.normal(size=(n_kinds, rows, window))
    y[1, :, ::3] = np.round(y[1, :, ::3])
    drop = rng.random(y.shape) < 0.15
    y[drop] = rng.choice([np.nan, np.inf, -np.inf], size=int(drop.sum()))
    y[0, 7:] = np.where(np.isfinite(x[7:]), y[0, 7:], np.nan)  # x-only drops
    rerank = (np.isfinite(x)[None] & ~np.isfinite(y)).any(axis=-1)
    assert rerank.any() and not rerank.all()
    for x_in, y_in in zip(_layouts(x).values(), _layouts(y).values()):
        out = batched_spearman(x_in, y_in)
        assert out.rho.shape == out.n_points.shape == (n_kinds, rows)
        for k in range(n_kinds):
            pair = batched_spearman(x, y[k])
            _assert_fields_equal(BatchedCorrelation(out.rho[k], out.n_points[k]), pair)
            _assert_fields_equal(pair, _spearman_reference(x, y[k]))


def test_spearman_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        batched_spearman(np.zeros((3, 5)), np.zeros((2, 4, 5)))
    with pytest.raises(ValueError):
        batched_spearman(np.zeros(5), np.zeros(5))


def test_batched_tail_median_matches_reference():
    rng = np.random.default_rng(9)
    values = _random_matrix(rng, 30, 16, nan_fraction=0.2)
    values[0] = np.nan
    values[1] = np.nan
    # One default for every row, or one per row.
    per_row = np.arange(values.shape[0], dtype=float)
    for k, default in ((1, -1.0), (5, -1.0), (16, -1.0), (1, per_row), (5, per_row)):
        out = batched_tail_median(values[:, -k:], k, default=default)
        for t in range(values.shape[0]):
            tail = values[t, -k:]
            finite = tail[np.isfinite(tail)]
            empty = np.broadcast_to(default, per_row.shape)[t]
            expected = empty if finite.size == 0 else float(np.median(finite))
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
    values[4, -1], values[5, -1] = -0.0, -np.inf  # a one-sample tail selects
    for default in (0.0, np.nan):
        ref = _median_reference(values, k, default)
        for layout in _layouts(values).values():
            out = batched_tail_median(layout, k, default=default)
            assert np.array_equal(out, ref, equal_nan=True)


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


def test_trend_routes_only_extreme_rows_to_the_scalar_reference(monkeypatch):
    """One 1e308 row and one 1e-320 row in a wide matrix.

    Outputs equal the reference exactly, and the scalar reference runs
    for those two rows only, under every layout, shared and per-row x,
    and with the rows split over many blocks.
    """
    rng = np.random.default_rng(41)
    rows, window = 3000, 8
    y = _random_matrix(rng, rows, window, nan_fraction=0.05)
    extreme = {123: (3, 1e308), 2777: (5, 1e-320)}
    for r, (c, value) in extreme.items():
        y[r, c] = value
    shared = np.arange(window, dtype=float)
    clocks = np.tile(shared[::-1], (rows, 1))  # rings read newest first
    messy = clocks.copy()
    messy[::7, 2] = np.nan  # no common clock direction
    row_of = {y[r].tobytes(): r for r in range(rows)}
    calls = []

    def counting(xr, yr, *args):
        calls.append(row_of[np.asarray(yr).tobytes()])
        return detect_trend(xr, yr, *args)

    monkeypatch.setattr(batched, "detect_trend", counting)
    for budget in (batched.SLOPE_CHUNK_ELEMENTS, 50 * 28):
        monkeypatch.setattr(batched, "SLOPE_CHUNK_ELEMENTS", budget)
        for x in (shared, clocks, messy):
            ref = _trend_reference(x, y)
            for layout in _layouts(y).values():
                calls.clear()
                _assert_fields_equal(batched_detect_trend(x, layout), ref)
                assert sorted(calls) == sorted(extreme)


@pytest.mark.parametrize("window", [127, 128, 129, 130])
def test_spearman_exact_past_the_byte_count_range(window, monkeypatch):
    """Counted ranks reach 2W - 1 > 255 from W = 129 on; both rank
    methods must still give the exact rho."""
    rng = np.random.default_rng(window)
    x = _messy_matrix(rng, 12, window)
    y = _messy_matrix(rng, 12, window)
    y[5] = x[5]  # rho = 1 with ties
    x[6] = np.arange(window)  # no exclusions: every rank up to 2W - 1
    y[6] = -x[6]
    ref = _spearman_reference(x, y)
    assert ref.rho[6] == -1.0
    for limit in (0, 10**6):  # force each rank method in turn
        monkeypatch.setattr(batched, "PAIRWISE_RANK_MAX_WINDOW", limit)
        _assert_fields_equal(batched_spearman(x, y), ref)
    counted = batched._pairwise_ranks(np.ascontiguousarray(x[6:7].T)).T
    assert np.array_equal(counted, fractional_ranks(x[6:7]))


def _assert_bytes_equal(out, ref):
    for got, want in zip(out, ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def _blocked_inputs(draw):
    """Kernel inputs plus a block budget from 1 element to past the whole call."""
    window = draw(st.sampled_from(WINDOWS))
    rows = draw(st.integers(1, 30))
    n_kinds = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = _messy_matrix(rng, rows, window)
    x_kind = draw(st.sampled_from(["shared", "repeated", "clocks", "per-row"]))
    if x_kind == "shared":
        x = np.arange(window, dtype=float)[:: draw(st.sampled_from([1, -1]))]
    elif x_kind == "repeated":
        x = np.floor(np.arange(window) / 2.0)
    elif x_kind == "clocks":  # one clock direction per block: y-only counts
        clock = np.arange(window, dtype=float)[:: draw(st.sampled_from([1, -1]))]
        x = np.tile(clock, (rows, 1))
    else:
        x = rng.choice(np.array([0.0, 1.0, 2.0, 3.0, np.nan]), (rows, window))
    # Spearman: a latency-like x against K stacked y; row 0's y drops a
    # sample its x keeps, which forces the pair-mask re-rank.
    x_sp = _messy_matrix(rng, rows, window)
    x_sp[0] = np.arange(window)
    y_sp = rng.normal(size=(n_kinds, rows, window))
    y_sp[rng.random(y_sp.shape) < 0.2] = np.nan
    y_sp[:, 0, 0] = np.nan
    k = draw(st.integers(2, window))
    whole = rows * window * window * n_kinds  # past every kernel's scratch
    budget = draw(st.integers(1, whole + 1))
    return x, y, x_sp, y_sp, k, budget


@settings(max_examples=60, deadline=None)
@given(_blocked_inputs())
def test_block_budget_never_changes_a_byte(inputs):
    """Every kernel's output under any block budget and any input layout
    is byte-equal to its single-block call."""
    x, y, x_sp, y_sp, k, budget = inputs
    with mock.patch.object(batched, "SLOPE_CHUNK_ELEMENTS", 2**40):
        trend = batched_detect_trend(x, y)
        corr = batched_spearman(x_sp, y_sp)
        median = batched_tail_median(y, k, default=-1.0)
    x_layouts = _layouts(x).values() if x.ndim == 2 else [x]
    with mock.patch.object(batched, "SLOPE_CHUNK_ELEMENTS", budget):
        for y_in in _layouts(y).values():
            for x_in in x_layouts:
                _assert_bytes_equal(batched_detect_trend(x_in, y_in), trend)
            _assert_bytes_equal(
                [batched_tail_median(y_in, k, default=-1.0)], [median]
            )
        for x_in, y_in in zip(_layouts(x_sp).values(), _layouts(y_sp).values()):
            _assert_bytes_equal(batched_spearman(x_in, y_in), corr)


#: Magnitudes whose quotients may underflow to zero or reach ``inf/inf``:
#: the kernel routes their rows to the scalar reference.
EXTREMES = np.array([1e308, -1e308, 1e300, 1e-320, -5e-324, 2.0**-1060])


@st.composite
def _trend_rows(draw):
    """Trend inputs with every clock shape the kernel branches on.

    y mixes continuous draws, integer ties, :data:`POOL` markers and
    :data:`EXTREMES`; x is a shared axis (ascending or permuted, with
    ties or holes) or per-row clocks that all ascend, all descend (the
    count swap) or mix directions, holes and extreme spans.
    """
    window = draw(st.sampled_from((2, 3, 4, 5, 8, 10)))
    rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e4])), (rows, window))
    ties = rng.random((rows, window)) < draw(st.floats(0.0, 1.0))
    y[ties] = np.round(y[ties])
    marked = rng.random((rows, window)) < draw(st.floats(0.0, 0.5))
    y[marked] = rng.choice(POOL, size=int(marked.sum()))
    extreme = rng.random((rows, window)) < draw(st.sampled_from([0.0, 0.02, 0.2]))
    y[extreme] = rng.choice(EXTREMES, size=int(extreme.sum()))
    clock = np.arange(window, dtype=float)
    kind = draw(
        st.sampled_from(["ascending", "permuted", "up", "down", "mixed"])
    )
    if kind == "ascending":
        x = np.floor(clock / draw(st.integers(1, 3)))
    elif kind == "permuted":
        x = rng.permutation(clock)
        if draw(st.booleans()):
            x[rng.integers(window)] = draw(st.sampled_from([np.nan, np.inf]))
    elif kind in ("up", "down"):
        step = rng.uniform(0.5, 3.0, (rows, 1))
        x = rng.normal(0.0, 100.0, (rows, 1)) + step * clock
        if kind == "down":
            x = x[:, ::-1].copy()
    else:
        x = np.tile(clock, (rows, 1))
        x[rng.random(rows) < 0.5] = clock[::-1]
        holes = rng.random((rows, window)) < 0.1
        x[holes] = rng.choice([0.0, 1.0, np.nan, -np.inf], size=int(holes.sum()))
        x[rng.random(rows) < 0.1] = np.linspace(-1.0, 1.0, window) * 1e308
    alpha = draw(st.floats(0.5, 1.0, exclude_min=True))
    return x, y, alpha


def _median_set(draw, rows):
    """A median-row set as the kernel takes it, plus its boolean mask."""
    form = draw(st.sampled_from(["mask", "indices", "slice"]))
    if form == "slice":
        lo = draw(st.integers(0, rows))
        index = slice(lo, draw(st.integers(lo, rows)))
        mask = np.zeros(rows, dtype=bool)
        mask[index] = True
        return index, mask
    mask = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    return (mask if form == "mask" else np.flatnonzero(mask)), mask


@settings(max_examples=80, deadline=None)
@given(_trend_rows(), st.data())
def test_trend_direction_and_median_rows_match_the_reference(inputs, data):
    """Direction equals ``detect_trend(row).direction`` on every row.

    Rows in the median set equal the reference in every field; the
    others report slope 0 and the reference's significance, agreement,
    point count and direction.  Neither the median set nor the block
    budget changes any other row's output.
    """
    x, y, alpha = inputs
    rows = y.shape[0]
    x_rows = np.broadcast_to(x, y.shape)
    with np.errstate(all="ignore"):  # extreme rows over- and underflow
        scalar = [detect_trend(xr, yr, alpha) for xr, yr in zip(x_rows, y)]
    direction = np.array([r.direction for r in scalar], dtype=np.int8)
    with mock.patch.object(batched, "SLOPE_CHUNK_ELEMENTS", 2**40):
        whole = batched_detect_trend(x, y, alpha=alpha)
    _assert_fields_equal(whole, _trend_reference(x, y, alpha))
    assert whole.direction.dtype == np.int8
    assert np.array_equal(whole.direction, direction)
    for _ in range(2):
        median_rows, mask = _median_set(data.draw, rows)
        budget = data.draw(st.integers(1, rows * 50), label="budget")
        with mock.patch.object(batched, "SLOPE_CHUNK_ELEMENTS", budget):
            out = batched_detect_trend(x, y, alpha=alpha, median_rows=median_rows)
        want = whole._replace(slope=np.where(mask, whole.slope, 0.0))
        _assert_bytes_equal(out, want)


_EXTREME_ROW = np.array([1.0, 1e308, 2.0, -1e308, 3.0, 4.0, 5.0, 6.0])


@pytest.mark.parametrize(
    "x,y",
    [
        # Per-row clocks whose span overflows.
        (np.array([[-1e308, 1e308]]), np.array([[0.0, 1.0]])),
        (np.linspace(-1.0, 1.0, 8)[None, :] * 1e308, _EXTREME_ROW[None, :]),
        # A shared clock whose span overflows.
        (np.linspace(-1.0, 1.0, 8) * 1e308, np.arange(16.0).reshape(2, 8)),
        # An ordinary clock against a row the scalar reference decides.
        (np.arange(8.0), np.stack([_EXTREME_ROW, np.arange(8.0)])),
    ],
    ids=["row-span-2", "row-span-8", "shared-span", "extreme-row"],
)
def test_extreme_rows_and_clocks_raise_no_floating_point_warning(x, y):
    """Extreme magnitudes stay inside the kernel's errstate.

    Their outputs equal the scalar reference's, and no overflow or
    invalid-operation warning escapes the call.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = batched_detect_trend(x, y)
    _assert_fields_equal(out, _trend_reference(x, y))
