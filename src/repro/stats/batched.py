"""Batched signal kernels over ``(tenants, window)`` matrices.

The scalar statistics in :mod:`repro.stats.theil_sen`,
:mod:`repro.stats.spearman` and :mod:`repro.stats.incremental` evaluate one
tenant's window per call.  At fleet scale (the paper's service operates on
the whole DBaaS cluster every billing interval, and URSA-style capacity
loops evaluate every tenant per cycle) the per-call Python and numpy
dispatch overhead dominates: 100k tenants × a handful of signals is
~1M interpreter round-trips per interval.

This module computes the same statistics for *all tenants at once*:

* :func:`batched_detect_trend` — Theil–Sen trend with the paper's
  α-sign-agreement acceptance rule, over every row of a ``(T, W)`` matrix.
* :func:`batched_spearman` — tie-averaged Spearman rank correlation per
  row, via an exact integer reformulation (no per-row re-ranking loops).
* :func:`batched_tail_median` — NaN-dropping tail median with a default
  for all-NaN rows, the batched :class:`repro.stats.incremental.TailMedian`.

Semantics contract (held by ``tests/test_stats_batched.py``): every
output equals the scalar reference row-for-row under
``np.array_equal(..., equal_nan=True)`` — the same floats, bools and
counts, with NaN/inf handling, minimum-point rules, tie averaging and
agreement thresholds included.  The references are
:func:`repro.stats.theil_sen.detect_trend` on each row, the doubled-rank
integer identity of :func:`repro.stats.spearman.spearman` evaluated per
row (bit-identical to the incremental vector path; the float Pearson of
``spearman`` itself agrees to 1e-9), and ``np.median`` of each row's
non-NaN tail.

How each kernel stays exact without the per-row reference's work:

* Trend signs come from comparisons, not quotients.  For finite values
  ``y_j - y_i`` is zero exactly when ``y_j == y_i`` and otherwise has
  the sign of ``y_j > y_i``, so a pair's slope sign is read from two
  comparisons.  Quotients are formed only for the rows whose trend was
  accepted, and only to take their median.  The one case where a
  quotient's sign differs from its operands' (underflow to zero, or
  ``inf/inf``) needs magnitudes beyond ~1e±300; such inputs are routed
  to the scalar reference instead.
* Medians are a sort (NaN sorts last) followed by a gather of the middle
  pair at positions chosen from each row's non-NaN count — the same
  order statistics ``np.median`` selects, and the same ``(lo + hi) / 2``.
* Spearman's doubled ranks come from one ``(W, W, T)`` comparison cube
  for windows of at most :data:`PAIRWISE_RANK_MAX_WINDOW` and from a sort
  (:func:`fractional_ranks`) for longer ones; both give the same
  integers, so the choice only moves time.

Memory: the pairwise stages (the accepted rows' slope matrix, Spearman's
rank comparisons) materialise ``(chunk, W(W-1)/2)`` and ``(W, W,
chunk)`` scratch, so tenants are processed in chunks bounded by
:data:`SLOPE_CHUNK_ELEMENTS` elements rather than all at once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.stats.theil_sen import detect_trend

__all__ = [
    "BatchedTrend",
    "BatchedCorrelation",
    "PAIRWISE_RANK_MAX_WINDOW",
    "SLOPE_CHUNK_ELEMENTS",
    "batched_detect_trend",
    "batched_spearman",
    "batched_tail_median",
    "fractional_ranks",
]

#: Upper bound on elements in one pairwise scratch matrix.  The trend
#: then holds at most two float64 ``(pairs, chunk)`` matrices at once
#: (the accepted columns' slopes plus their transposed copy, or plus the
#: per-row dx): 64 MB, e.g. at window 64 (2016 pairs, ~2000 tenants per
#: chunk).  Spearman's boolean ``(W, W, chunk)`` comparison cube stays
#: within 4 MB.
SLOPE_CHUNK_ELEMENTS = 4_000_000

#: Longest window whose Spearman ranks are counted pairwise.  Counting
#: costs O(W²) per row against the sort's O(W log W) plus its fixed
#: gather/scatter passes; on a 2-core x86 VM counting measured 5x faster
#: at W=10, 2x at W=32, even at W=48 and 40% slower at W=64.
PAIRWISE_RANK_MAX_WINDOW = 32

#: Slope signs equal the comparison signs while every finite magnitude is
#: at most this (differences stay finite) — see ``_quotient_signs_exact``.
_MAGNITUDE_CAP = 2.0**1022


class BatchedTrend(NamedTuple):
    """Struct-of-arrays :class:`repro.stats.theil_sen.TrendResult`."""

    slope: np.ndarray  # (T,) float — 0.0 where not significant
    significant: np.ndarray  # (T,) bool
    agreement: np.ndarray  # (T,) float
    n_points: np.ndarray  # (T,) int


class BatchedCorrelation(NamedTuple):
    """Struct-of-arrays :class:`repro.stats.spearman.CorrelationResult`."""

    rho: np.ndarray  # (T,) float — 0.0 where undefined / too few points
    n_points: np.ndarray  # (T,) int


def _as_matrix_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"y must be (tenants, window), got shape {y.shape}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = np.broadcast_to(x, y.shape)
    if x.shape != y.shape:
        raise ValueError(f"x shape {x.shape} does not match y shape {y.shape}")
    return x, y


def _middle(sorted_rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.median`` of each row's first ``counts`` entries (rows sorted).

    Odd counts return the middle entry itself, even counts the mean of the
    middle pair, exactly as ``np.median`` does.  ``counts`` must be >= 1.
    """
    flat = sorted_rows.ravel()
    base = np.arange(0, flat.size, sorted_rows.shape[1])
    lo = flat[base + ((counts - 1) >> 1)]
    hi = flat[base + (counts >> 1)]
    with np.errstate(invalid="ignore", over="ignore"):
        mean = (lo + hi) / 2
    return np.where(counts & 1 == 1, lo, mean)


def _quotient_signs_exact(x_t: np.ndarray, y_t: np.ndarray) -> bool:
    """Whether every valid pair's ``dy/dx`` has the sign of ``dy·dx``.

    ``x_t``/``y_t`` hold NaN at every excluded sample.  With all
    magnitudes at most 2^1022 the differences are finite, so no quotient
    is ``inf/inf``.  A nonzero ``dy`` is at least ``m·2^-53`` for the
    smallest nonzero ``|y|`` ``m`` (both operands are multiples of that
    value's ulp), and ``|dx|`` is at most the x span, so ``m·2^1021 >=
    span`` keeps every nonzero quotient at or above the smallest
    subnormal: none rounds to zero.
    """
    x_span = float(np.fmax.reduce(x_t, axis=None)) - float(np.fmin.reduce(x_t, axis=None))
    abs_y = np.abs(y_t)
    y_max = float(np.fmax.reduce(abs_y, axis=None))
    y_min = float(np.fmin.reduce(abs_y, axis=None, where=abs_y > 0, initial=np.inf))
    if math.isnan(x_span) or math.isnan(y_max):
        return True  # no finite sample at all: no valid pair either
    return (
        x_span <= _MAGNITUDE_CAP
        and y_max <= _MAGNITUDE_CAP
        and y_min * 2.0**1021 >= x_span
    )


def _trend_by_rows(
    x: np.ndarray, y: np.ndarray, alpha: float, min_points: int
) -> BatchedTrend:
    """The scalar reference, row by row (inputs of extreme magnitude)."""
    rows = [detect_trend(xr, yr, alpha, min_points) for xr, yr in zip(x, y)]
    return BatchedTrend(
        np.array([r.slope for r in rows], dtype=float),
        np.array([r.significant for r in rows], dtype=bool),
        np.array([r.agreement for r in rows], dtype=float),
        np.array([r.n_points for r in rows], dtype=np.intp),
    )


def batched_detect_trend(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float = 0.70,
    min_points: int = 4,
) -> BatchedTrend:
    """Row-wise :func:`repro.stats.theil_sen.detect_trend` over ``(T, W)``.

    ``x`` may be a shared ``(W,)`` axis (the common case: one interval
    clock for the whole fleet) or per-tenant ``(T, W)``.  Samples with a
    non-finite coordinate on either axis are excluded from that row's
    estimate, and pairs with identical x are skipped, exactly as the
    scalar reference does.
    """
    if not 0.5 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0.5, 1.0], got {alpha}")
    shared_x = np.asarray(x, dtype=float).ndim == 1
    x, y = _as_matrix_pair(x, y)
    n_tenants, window = y.shape

    # Work transposed: a (W, T) matrix makes every sample a contiguous
    # row, so each pair block below is one broadcast op over all tenants.
    # A shared axis is first sorted ascending (non-finite last): Theil–Sen
    # does not depend on the order of the points and a swapped pair has
    # the same slope, so afterwards every pair i < j has dx >= 0, and the
    # pairs with dx > 0 are j >= first_right[i].
    if shared_x:
        x_row = np.where(np.isfinite(x[0]), x[0], np.nan)
        order = np.argsort(x_row, kind="stable")
        x_t = x_row[order][:, None]
        y_t = y.T[order]
        first_right = np.searchsorted(x_t[:, 0], x_t[:, 0], side="right")
        blocks = [(i, int(j0)) for i, j0 in enumerate(first_right) if j0 < window]
    else:
        x_t = x.T.copy()
        y_t = y.T.copy()
        blocks = [(i, i + 1) for i in range(window - 1)]
    finite_t = np.isfinite(y_t)
    finite_t &= np.isfinite(x_t)
    n_points = np.add.reduce(finite_t, axis=0, dtype=np.intp)

    slope = np.zeros(n_tenants)
    agreement = np.zeros(n_tenants)
    significant = np.zeros(n_tenants, dtype=bool)
    if not blocks:  # fewer than two distinct x: no pair has a slope
        return BatchedTrend(slope, significant, agreement, n_points)
    if not finite_t.all():
        # Excluded samples become NaN: they compare false both ways, so
        # pairs touching them count nowhere and their slopes are NaN.
        excluded = ~finite_t
        np.copyto(y_t, np.nan, where=excluded)
        if not shared_x:
            np.copyto(x_t, np.nan, where=excluded)
    if not _quotient_signs_exact(x_t, y_t):
        return _trend_by_rows(x, y, alpha, min_points)

    n_pairs = sum(window - j0 for _, j0 in blocks)
    count_t = np.min_scalar_type(n_pairs)
    if shared_x:
        xs = x_t[:, 0]
        dx_pairs = np.concatenate([xs[j0:] - xs[i] for i, j0 in blocks])[:, None]
    chunk = max(1, SLOPE_CHUNK_ELEMENTS // max(1, n_pairs))
    for start in range(0, n_tenants, chunk):
        stop = min(start + chunk, n_tenants)
        yc, fc = y_t[:, start:stop], finite_t[:, start:stop]
        if not shared_x:
            xc = x_t[:, start:stop]
        pos = np.zeros(stop - start, dtype=count_t)
        neg = np.zeros_like(pos)
        n_valid = np.zeros_like(pos)
        if shared_x:
            # after[j]: finite samples at positions >= j, per column.
            after = [np.zeros_like(pos)]
            for row in fc[::-1]:
                after.append(after[-1] + row)
            after.reverse()
        # A slope is positive exactly when dy and dx share a sign, and
        # for finite values sign(y_j - y_i) is the comparison's sign.
        for i, j0 in blocks:
            up, down = yc[j0:] > yc[i], yc[j0:] < yc[i]
            if shared_x:
                pos += np.add.reduce(up, axis=0, dtype=count_t)
                neg += np.add.reduce(down, axis=0, dtype=count_t)
                n_valid += fc[i] * after[j0]
            else:
                right, left = xc[j0:] > xc[i], xc[j0:] < xc[i]
                pos += np.add.reduce(
                    (up & right) | (down & left), axis=0, dtype=count_t
                )
                neg += np.add.reduce(
                    (up & left) | (down & right), axis=0, dtype=count_t
                )
                n_valid += np.add.reduce(right | left, axis=0, dtype=count_t)
        n_valid = n_valid.astype(np.intp)
        # Columns with too few finite samples (or no valid pairs) report
        # the scalar early-return shape: slope 0, agreement 0, and never
        # significant.
        usable = (n_points[start:stop] >= min_points) & (n_valid > 0)
        majority = np.maximum(pos, neg).astype(np.intp)
        agree = np.where(usable, majority / np.maximum(n_valid, 1), 0.0)
        sig = usable & (agree >= alpha)
        agreement[start:stop] = agree
        significant[start:stop] = sig

        # Medians only where a trend was accepted: those columns' pair
        # slopes (NaN where excluded), sorted per tenant.
        cols = np.flatnonzero(sig)
        if not cols.size:
            continue
        yw = yc[:, cols]
        slopes = np.empty((n_pairs, cols.size))
        if not shared_x:
            xw = xc[:, cols]
            dx = np.empty_like(slopes)
        offset = 0
        for i, j0 in blocks:
            block = slice(offset, offset + window - j0)
            offset = block.stop
            np.subtract(yw[j0:], yw[i], out=slopes[block])
            if not shared_x:
                np.subtract(xw[j0:], xw[i], out=dx[block])
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            if shared_x:
                slopes /= dx_pairs
            else:
                dx[dx == 0.0] = np.nan
                slopes /= dx
                del dx
        slopes = np.ascontiguousarray(slopes.T)
        slopes.sort(axis=1)
        slope[start + cols] = _middle(slopes, n_valid[cols])
    return BatchedTrend(slope, significant, agreement, n_points)


def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Row-wise doubled tie-averaged ranks of a ``(T, W)`` matrix.

    Returns integer ``u`` with ``u[t, i] = 2 * rank(values[t, i]) - 1``
    where ``rank`` is the 1-based fractional (tie-averaged) rank within
    row ``t`` — i.e. ``u = count(< v) + count(<= v)``, the doubled-rank
    form whose sums stay exact integers.  Rows must be NaN-free; callers
    replace excluded entries with a ``+inf`` sentinel beforehand (ranks of
    the remaining entries are unaffected because the sentinel sorts last).
    """
    n_tenants, window = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=1)
    positions = np.arange(window, dtype=np.int64)
    # A "run" is a maximal block of equal sorted values.  run_start carries
    # each run's first position forward; run_end carries the last position
    # backward (via the flipped cumulative minimum).
    new_run = np.empty((n_tenants, window), dtype=bool)
    new_run[:, 0] = True
    np.not_equal(sorted_vals[:, 1:], sorted_vals[:, :-1], out=new_run[:, 1:])
    run_start = np.maximum.accumulate(np.where(new_run, positions, 0), axis=1)
    run_end = np.flip(
        np.minimum.accumulate(
            np.flip(np.where(np.roll(new_run, -1, axis=1), positions, window - 1), axis=1),
            axis=1,
        ),
        axis=1,
    )
    # 0-based run bounds [s, e] ⇒ 1-based ranks s+1 .. e+1 ⇒ doubled
    # tie-averaged rank u = (s+1) + (e+1) - 1 = s + e + 1.
    u_sorted = run_start + run_end + 1
    u = np.empty_like(u_sorted)
    np.put_along_axis(u, order, u_sorted, axis=1)
    return u


def _pairwise_ranks(values_t: np.ndarray) -> np.ndarray:
    """:func:`fractional_ranks` of a NaN-free ``(W, T)`` matrix, by counting.

    ``u_i = #{j: v_j < v_i} + #{j: v_j <= v_i} = W + #{v_j < v_i} -
    #{v_j > v_i}``, read off one ``(W, W, T)`` comparison cube; entries
    stay below ``2W`` so ``uint8`` holds them for ``W <= 127``.
    """
    window, n_tenants = values_t.shape
    u = np.empty((window, n_tenants), dtype=np.uint8)
    chunk = max(1, SLOPE_CHUNK_ELEMENTS // (window * window))
    for start in range(0, n_tenants, chunk):
        v = values_t[:, start : start + chunk]
        below = v[:, None, :] < v[None, :, :]  # [j, i] = v_j < v_i
        out = u[:, start : start + chunk]
        np.add.reduce(below, axis=0, dtype=np.uint8, out=out)
        out += np.uint8(window)
        out -= np.add.reduce(below, axis=1, dtype=np.uint8)
    return u


def batched_spearman(
    x: np.ndarray,
    y: np.ndarray,
    min_points: int = 4,
) -> BatchedCorrelation:
    """Row-wise :func:`repro.stats.spearman.spearman` over ``(T, W)``.

    Pairs with a non-finite value on either axis are dropped per row;
    rows with fewer than ``min_points`` surviving pairs (or a constant
    axis) report ``rho = 0.0``.

    Uses the doubled-rank integer identity (see
    :class:`repro.stats.incremental.IncrementalSpearman`): with
    ``u = 2·rank(x) − 1`` and ``v = 2·rank(y) − 1`` over the ``n`` valid
    pairs, ``Σu = n²`` exactly, so

        rho = (Σuv − n³) / sqrt((Σu² − n³)(Σv² − n³))

    in *exact integer arithmetic* — bit-identical to the incremental
    vector path.
    """
    x, y = _as_matrix_pair(x, y)
    n_tenants, window = y.shape
    # Counted ranks work on (W, T): one comparison block per sample.
    pairwise = window <= PAIRWISE_RANK_MAX_WINDOW
    x, y = (x.T.copy(), y.T.copy()) if pairwise else (x.copy(), y.copy())
    valid = np.isfinite(x) & np.isfinite(y)
    n_points = np.add.reduce(valid, axis=0 if pairwise else 1, dtype=np.intp)
    rho = np.zeros(n_tenants)
    if window == 0:
        return BatchedCorrelation(rho, n_points)

    # Excluded entries become +inf sentinels: they sort after every finite
    # value, so the valid entries' fractional ranks are exactly the ranks
    # they would get in the compacted row.  Their own ranks are zeroed.
    excluded = ~valid
    np.copyto(x, np.inf, where=excluded)
    np.copyto(y, np.inf, where=excluded)
    ranks = _pairwise_ranks if pairwise else fractional_ranks
    ux = ranks(x) * valid
    uy = ranks(y) * valid
    spec = "wt,wt->t" if pairwise else "tw,tw->t"
    n3 = n_points.astype(np.int64) ** 3
    a = np.einsum(spec, ux, ux, dtype=np.int64) - n3
    b = np.einsum(spec, uy, uy, dtype=np.int64) - n3
    c = np.einsum(spec, ux, uy, dtype=np.int64) - n3
    ab = a * b
    compute = (n_points >= min_points) & (ab > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(compute, c / np.sqrt(np.where(compute, ab, 1)), 0.0)
    return BatchedCorrelation(rho, n_points)


def batched_tail_median(
    values: np.ndarray,
    k: int,
    default: float = 0.0,
) -> np.ndarray:
    """Row-wise NaN-dropping median of the last ``k`` columns.

    The batched :class:`repro.stats.incremental.TailMedian`: NaN entries
    are excluded, and rows whose tail is entirely NaN report ``default``.
    ``±inf`` propagates through the median exactly as ``np.median`` does.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be (tenants, window), got {values.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tail = np.sort(values[:, -k:], axis=1)  # NaN sorts last
    counts = tail.shape[1] - np.count_nonzero(np.isnan(tail), axis=1)
    out = np.full(values.shape[0], default, dtype=float)
    rows = np.flatnonzero(counts)
    if rows.size:
        out[rows] = _middle(tail[rows], counts[rows])
    return out
