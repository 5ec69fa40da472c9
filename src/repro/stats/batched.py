"""Batched signal kernels over ``(tenants, window)`` matrices.

The scalar statistics in :mod:`repro.stats.theil_sen` and
:mod:`repro.stats.spearman` evaluate one series per call.  At fleet
scale (the paper's service operates on the whole DBaaS cluster every
billing interval, and URSA-style capacity loops evaluate every tenant
per cycle) the per-call Python and numpy dispatch overhead dominates:
100k tenants × a handful of signals is ~1M interpreter round-trips per
interval.

This module computes the same statistics for *all tenants at once*:

* :func:`batched_detect_trend` — Theil–Sen trend with the paper's
  α-sign-agreement acceptance rule, over every row of a ``(T, W)`` matrix.
* :func:`batched_spearman` — tie-averaged Spearman rank correlation per
  row, via an exact integer reformulation (no per-row re-ranking loops);
  one x row may be paired with a stack of y rows (``(m, W)`` against
  ``(K, m, W)``).
* :func:`batched_tail_median` — NaN-dropping tail median with a default
  for all-NaN rows.

Semantics contract (held by ``tests/test_stats_batched.py``): every
output equals the scalar reference row-for-row under
``np.array_equal(..., equal_nan=True)`` — the same floats, bools and
counts, with NaN/inf handling, minimum-point rules, tie averaging and
agreement thresholds included.  The references are
:func:`repro.stats.theil_sen.detect_trend` on each row, the doubled-rank
integer identity of :func:`repro.stats.spearman.spearman` evaluated per
row (the float Pearson of ``spearman`` itself agrees to 1e-9), and
``np.median`` of each row's non-NaN tail.  The scalar
:class:`repro.core.telemetry_manager.TelemetryManager` runs these
kernels at width 1, so its signals are the references' too.

Memory order: callers may pass any layout.  Every kernel works on the
time-major ``(W, rows)`` transpose, so a caller holding time-major
buffers (the fleet's telemetry rings) passes ``buf.T`` and the kernel
reads the buffer in place; other layouts are copied one block at a
time.  No kernel writes its inputs: a sentinel write goes to a private
copy.

How each kernel stays exact without the per-row reference's work:

* Trend signs come from comparisons, not quotients.  For finite values
  ``y_j - y_i`` is zero exactly when ``y_j == y_i`` and otherwise has
  the sign of ``y_j > y_i``, so a pair's slope sign is read from two
  comparisons.  Quotients are formed only for the rows whose trend was
  accepted and whose median the caller reads (``median_rows``), and
  only to take that median.  The one case where a quotient's sign
  differs from its operands' (underflow to zero, or ``inf/inf``) needs
  magnitudes beyond ~1e±300; each block bounds every row's magnitudes
  and routes only the rows that fail to the scalar reference.  When
  every clock in a block runs one way (a shared axis, or rings read
  oldest or newest first) only y is compared.
* A trend's direction needs no quotient either.  With α > ½ an
  accepted trend's sign is held by a strict majority of the row's n
  pair slopes, so both middle order statistics (sorted positions
  ``(n - 1) // 2`` and ``n // 2``) carry it, and so does their mean: the
  median's sign is the sign of the positive count minus the negative
  count.  Rows whose quotients may lose their operands' sign still go
  to the scalar reference, direction included.
* Medians are a sort (NaN sorts last) followed by a gather of the middle
  pair at positions chosen from each series' non-NaN count — the same
  order statistics ``np.median`` selects, and the same ``(lo + hi) / 2``.
* Spearman's doubled ranks come from one ``(W, W, T)`` comparison cube
  for windows of at most :data:`PAIRWISE_RANK_MAX_WINDOW` and from a sort
  (:func:`fractional_ranks`) for longer ones; both give the same
  integers, so the choice only moves time.  An x row shared by K y rows
  is ranked once; ranks depend on the valid pair set, so only a pair
  whose y drops a sample that x keeps re-ranks x over the pair mask.
* A one-column tail median is a select: the sample itself, or the
  default where it is NaN — the entry the sort-and-gather would pick.

Memory: each kernel walks its rows in blocks and runs its whole per-row
pipeline on one block before it starts the next: masks, exclusions, the
magnitude check, counts and the accepted rows' slope medians for the
trend; ranks, the pair-mask re-rank and the integer sums for Spearman;
the sort and middle gather for a tail median.  A block's widest scratch
(the trend's ``(W(W-1)/2, block)`` slopes, Spearman's boolean ``(W, W,
K·block)`` comparison cube, the tail's ``(block, k)`` sort) is bounded by
:data:`SLOPE_CHUNK_ELEMENTS` float64 elements, so it stays in a core's
L2 cache instead of streaming fleet-wide temporaries through memory.
Rows are independent, so the block size moves only time, never a value.
"""

from __future__ import annotations

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

#: Budget of one row block, in float64 elements (2 MiB).  Every kernel
#: walks its rows in blocks and runs its whole per-row pipeline on one
#: block before it starts the next, so a block's scratch stays in a
#: core's L2 cache instead of streaming fleet-wide temporaries through
#: memory.  A block's widest scratch fits the budget: the trend's
#: ``W(W-1)/2`` float64 pair slopes per row, Spearman's ``K·W²``
#: one-byte rank comparisons per tenant, the tail median's ``k`` samples
#: per row.  On a 2-core x86 VM (2 MiB L2 per core), over the fleet's
#: steady-state inputs (90k trend series at W = 8; 10k tenants, K = 4,
#: W = 10), the trend was fastest at 2-4 MiB, taking a quarter less time
#: than one whole-fleet block; 0.5 MiB blocks took 38% more.  Spearman
#: was flat from 0.5 MiB up.
SLOPE_CHUNK_ELEMENTS = 262_144

#: Longest window whose Spearman ranks are counted pairwise.  Counting
#: costs O(W²) per row against the sort's O(W log W) plus its fixed
#: gather/scatter passes; on a 2-core x86 VM counting measured 5x faster
#: at W=10, 2x at W=32, even at W=48 and 40% slower at W=64.
PAIRWISE_RANK_MAX_WINDOW = 32

#: Slope signs equal the comparison signs while every finite magnitude is
#: at most this (differences stay finite) — see ``_inexact_columns``.
_MAGNITUDE_CAP = 2.0**1022


class _TrendFields(NamedTuple):
    slope: np.ndarray  # (T,) float — 0.0 where not significant
    significant: np.ndarray  # (T,) bool
    agreement: np.ndarray  # (T,) float
    n_points: np.ndarray  # (T,) int
    direction: np.ndarray  # (T,) int8 — TrendResult.direction


class BatchedTrend(_TrendFields):
    """Struct-of-arrays :class:`repro.stats.theil_sen.TrendResult`.

    Built from the four result fields alone, ``direction`` is derived
    from them as :attr:`TrendResult.direction` is: 0 unless significant
    with a nonzero slope, else +1 for a positive slope and -1 otherwise.
    """

    __slots__ = ()

    def __new__(cls, slope, significant, agreement, n_points, direction=None):
        if direction is None:
            slope = np.asarray(slope)
            live = np.asarray(significant) & (slope != 0.0)
            direction = np.where(live, np.where(slope > 0.0, 1, -1), 0).astype(np.int8)
        return super().__new__(cls, slope, significant, agreement, n_points, direction)


class BatchedCorrelation(NamedTuple):
    """Struct-of-arrays :class:`repro.stats.spearman.CorrelationResult`."""

    rho: np.ndarray  # (T,) float — 0.0 where undefined / too few points
    n_points: np.ndarray  # (T,) int


def _as_matrix_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``y`` as a ``(T, W)`` array and ``x`` as a float ``(W,)`` axis or ``(T, W)``.

    Neither is converted or copied beyond that: the kernels read blocks
    of them and convert each block (see :func:`_cols`).
    """
    y = np.asarray(y)
    if y.ndim != 2:
        raise ValueError(f"y must be (tenants, window), got shape {y.shape}")
    x = np.asarray(x)
    if x.ndim == 1:
        return np.broadcast_to(x.astype(float, copy=False), y.shape[1:]), y
    if x.shape != y.shape:
        raise ValueError(f"x shape {x.shape} does not match y shape {y.shape}")
    return x, y


def _row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive row slices whose scratch fits the block budget.

    ``row_bytes`` is one row's share of the kernel's widest scratch; a
    block holds at most :data:`SLOPE_CHUNK_ELEMENTS` float64 elements'
    worth of it, and at least one row.
    """
    step = max(1, 8 * SLOPE_CHUNK_ELEMENTS // max(1, row_bytes))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _cols(values_t: np.ndarray, cols: slice, order=None) -> np.ndarray:
    """Columns ``cols`` of a time-major array as float64 with unit-stride rows.

    A view of the caller's buffer when it already is one (read in place);
    otherwise a private copy.  ``order`` first gathers the samples (axis 0).
    """
    block = values_t[..., cols]
    if order is not None:
        block = block[order]
    if block.dtype != np.float64 or block.strides[-1] != block.itemsize:
        block = np.array(block, dtype=np.float64, order="C")
    return block


def _middle(sorted_t: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.median`` of each column's first ``counts`` entries (columns sorted).

    Odd counts return the middle entry itself, even counts the mean of the
    middle pair, exactly as ``np.median`` does.  ``counts`` must be >= 1.
    """
    n = sorted_t.shape[1]
    flat = sorted_t.ravel()  # a view when C-contiguous
    cols = np.arange(n)
    lo = flat[((counts - 1) >> 1) * n + cols]
    hi = flat[(counts >> 1) * n + cols]
    with np.errstate(invalid="ignore", over="ignore"):
        mean = (lo + hi) / 2
    return np.where(counts & 1 == 1, lo, mean)


def _count(mask: np.ndarray) -> np.ndarray:
    """True entries down each column of a boolean ``(rows, n)`` matrix.

    Summed as bytes in the narrowest type that holds ``rows``: a reduce
    that casts each boolean to a wide integer costs several times more.
    """
    return np.add.reduce(
        mask.view(np.uint8), axis=0, dtype=np.min_scalar_type(mask.shape[0])
    )


def _inexact_columns(x_span, y_t: np.ndarray, lo=None, hi=None) -> np.ndarray | None:
    """Columns of ``y_t`` where some ``dy/dx`` may lack the sign of ``dy·dx``.

    ``y_t`` holds NaN at every excluded sample; ``x_span`` bounds each
    column's x span (one value for all, or one per column); ``lo``/``hi``
    are ``y_t``'s least and greatest non-NaN entries, if known.  With all
    magnitudes at most 2^1022 the differences are finite, so no quotient
    is ``inf/inf``.  A nonzero ``dy`` is at least ``m·2^-53`` for the
    smallest nonzero ``|y|`` ``m`` (both operands are multiples of that
    value's ulp), and ``|dx|`` is at most the span, so ``m·2^1021 >=
    span`` keeps every nonzero quotient at or above the smallest
    subnormal: none rounds to zero.  Returns ``None`` when every column
    passes; a block whose samples share one sign settles that from
    ``lo`` and ``hi`` alone.
    """
    if lo is None:
        lo, hi = np.fmin.reduce(y_t, axis=None), np.fmax.reduce(y_t, axis=None)
    if np.isnan(lo):
        return None  # no finite sample: no valid pair either
    # The smallest nonzero |y| each span allows, rounded up so the test
    # stays conservative; a NaN span (no finite x) admits everything.
    tiny = np.nextafter(np.multiply(x_span, 2.0**-1021), np.inf)
    tiny_max = np.fmax.reduce(tiny, axis=None)
    if (
        max(-lo, hi) <= _MAGNITUDE_CAP
        and not np.any(x_span > _MAGNITUDE_CAP)
        and (lo >= tiny_max or hi <= -tiny_max)
    ):
        return None
    abs_y = np.abs(y_t)
    small = abs_y < tiny
    small &= y_t != 0
    bad = small.any(axis=0)
    bad |= (abs_y > _MAGNITUDE_CAP).any(axis=0)
    bad |= x_span > _MAGNITUDE_CAP
    cols = np.flatnonzero(bad)
    return cols if cols.size else None


def _trend_by_rows(
    x: np.ndarray, y: np.ndarray, alpha: float, min_points: int
) -> BatchedTrend:
    """The scalar reference, row by row (rows of extreme magnitude)."""
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
    *,
    median_rows: slice | np.ndarray | None = None,
) -> BatchedTrend:
    """Row-wise :func:`repro.stats.theil_sen.detect_trend` over ``(T, W)``.

    ``x`` may be a shared ``(W,)`` axis (the common case: one interval
    clock for the whole fleet) or per-tenant ``(T, W)``.  Samples with a
    non-finite coordinate on either axis are excluded from that row's
    estimate, and pairs with identical x are skipped, exactly as the
    scalar reference does.  Inputs may be in any memory order; a
    time-major buffer passed as its transpose (``buf.T``) is read in
    place, and neither input is ever written.

    ``median_rows`` indexes the rows (a slice, indices or a boolean
    mask) whose slope median a caller reads; by default every row.  The
    other rows report slope 0 and skip the median, the trend's costliest
    step; their direction, significance, agreement and point count are
    the reference's all the same.
    """
    if not 0.5 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0.5, 1.0], got {alpha}")
    x, y = _as_matrix_pair(x, y)
    n_tenants, window = y.shape

    # Work transposed: a (W, block) matrix makes every sample a contiguous
    # row, so each pair block below is one broadcast op over the block.
    # A shared axis is first sorted ascending (non-finite last): Theil–Sen
    # does not depend on the order of the points and a swapped pair has
    # the same slope, so afterwards every pair i < j has dx >= 0, and the
    # pairs with dx > 0 are j >= first_right[i].  An axis that is already
    # ascending needs no gather.  An axis whose finite span exceeds the
    # magnitude cap is treated as per-row, so each row's own span decides
    # whether it needs the scalar reference.
    shared_x = x.ndim == 1
    if shared_x:
        x_row = np.where(np.isfinite(x), x, np.nan)
        order = np.argsort(x_row, kind="stable")
        xs = x_row[order]
        n_finite_x = int(np.count_nonzero(np.isfinite(xs)))
        with np.errstate(over="ignore"):
            x_span = xs[n_finite_x - 1] - xs[0] if n_finite_x else np.nan
        if x_span > _MAGNITUDE_CAP:
            shared_x, x = False, np.broadcast_to(x, y.shape)
    if shared_x:
        if np.array_equal(order, np.arange(window)):
            order = None
        x_finite = None if n_finite_x == window else np.isfinite(xs)[:, None]
        # With distinct finite x every pair of valid samples has dx > 0.
        distinct = bool(np.all(xs[1:n_finite_x] > xs[: n_finite_x - 1]))
        first_right = np.searchsorted(xs, xs, side="right")
        blocks = [(i, int(j0)) for i, j0 in enumerate(first_right) if j0 < window]
        if blocks:
            dx_pairs = np.concatenate([xs[j0:] - xs[i] for i, j0 in blocks])[:, None]
    else:
        order = None
        blocks = [(i, i + 1) for i in range(window - 1)]

    slope = np.zeros(n_tenants)
    agreement = np.zeros(n_tenants)
    significant = np.zeros(n_tenants, dtype=bool)
    n_points = np.zeros(n_tenants, dtype=np.intp)
    trend_sign = np.zeros(n_tenants, dtype=np.int8)
    wanted = None
    if median_rows is not None:
        wanted = np.zeros(n_tenants, dtype=bool)
        wanted[median_rows] = True
    n_pairs = sum(window - j0 for _, j0 in blocks)
    row_blocks = _row_blocks(n_tenants, 8 * n_pairs)
    # One scratch set per call, reused by every block: the comparison
    # masks (y up/down, plus x right/left for per-row x) and the accepted
    # columns' pair-major slopes (plus their dx for per-row x).
    width = row_blocks[0].stop if row_blocks else 0
    n_masks = 2 if shared_x else 4
    mask_buf = np.empty(n_masks * n_pairs * width, dtype=bool)
    slope_buf = np.empty((1 if shared_x else 2) * n_pairs * width)
    for rows in row_blocks:
        yb = _cols(y.T, rows, order)
        m = yb.shape[1]
        finite = np.isfinite(yb)
        if shared_x:
            # Every pair i < j has dx >= 0; with distinct x, dx > 0.
            direction = 1
            if x_finite is not None:
                finite &= x_finite
        else:
            xb = _cols(x.T, rows)
            x_fin = np.isfinite(xb)
            finite &= x_fin
            # A block whose clocks all run one way (rings read oldest or
            # newest first) has one dx sign for every pair i < j.
            direction = 0
            if blocks and x_fin.all():
                if (xb[1:] > xb[:-1]).all():
                    direction = 1
                elif (xb[1:] < xb[:-1]).all():
                    direction = -1
        n_b = _count(finite).astype(np.intp)
        n_points[rows] = n_b
        if not blocks:  # fewer than two distinct x: no pair has a slope
            continue
        # Excluded samples become NaN (in a private copy): they compare
        # false both ways, so pairs touching them count nowhere and their
        # slopes are NaN.  With one dx sign only y is compared, and a NaN
        # sample is excluded already: infinities and excluded x remain.
        lo = hi = None
        if direction:
            lo, hi = np.fmin.reduce(yb, axis=None), np.fmax.reduce(yb, axis=None)
            if (shared_x and x_finite is not None) or lo == -np.inf or hi == np.inf:
                yb = np.where(finite, yb, np.nan)
                lo = hi = None
        elif not finite.all():
            xb = np.where(finite, xb, np.nan)
            yb = np.where(finite, yb, np.nan)
        if not shared_x:
            with np.errstate(over="ignore"):
                x_span = np.fmax.reduce(xb, axis=0) - np.fmin.reduce(xb, axis=0)
        inexact = _inexact_columns(x_span, yb, lo, hi)

        # A slope is positive exactly when dy and dx share a sign, and for
        # finite values sign(y_j - y_i) is the comparison's sign.  Each
        # pair block writes its comparisons into one (pairs, block) mask.
        masks = mask_buf[: n_masks * n_pairs * m].reshape(n_masks, n_pairs, m)
        up, down = masks[0], masks[1]
        offset = 0
        for i, j0 in blocks:
            pairs = slice(offset, offset + window - j0)
            offset = pairs.stop
            np.greater(yb[j0:], yb[i], out=up[pairs])
            np.less(yb[j0:], yb[i], out=down[pairs])
            if not direction:
                np.greater(xb[j0:], xb[i], out=masks[2, pairs])
                np.less(xb[j0:], xb[i], out=masks[3, pairs])
        if direction:
            pos, neg = _count(up), _count(down)
            if direction < 0:
                pos, neg = neg, pos
            if not shared_x or distinct:
                n_valid = n_b * (n_b - 1) // 2
            else:
                # after[j]: valid samples at positions >= j, per column.
                after = np.zeros((window + 1, m), dtype=np.intp)
                np.cumsum(finite[::-1], axis=0, out=after[-2::-1])
                n_valid = sum(finite[i] * after[j0] for i, j0 in blocks)
        else:
            right, left = masks[2], masks[3]
            concordant = up & right
            concordant |= down & left
            up &= left
            down &= right
            up |= down
            right |= left
            pos, neg = _count(concordant), _count(up)
            n_valid = _count(right).astype(np.intp)
        # Columns with too few finite samples (or no valid pairs) report
        # the scalar early-return shape: slope 0, agreement 0, and never
        # significant.
        usable = (n_b >= min_points) & (n_valid > 0)
        majority = np.maximum(pos, neg).astype(np.intp)
        agree = np.where(usable, majority / np.maximum(n_valid, 1), 0.0)
        sig = usable & (agree >= alpha)
        if inexact is not None:
            sig[inexact] = False
        agreement[rows] = agree
        significant[rows] = sig
        # An accepted trend holds a strict majority of the pair signs, so
        # the majority side is the sign of its median slope.
        sign = (pos > neg).view(np.int8) - (pos < neg).view(np.int8)
        sign *= sig
        trend_sign[rows] = sign

        # Medians only where a trend was accepted and the caller reads
        # it: those columns' pair slopes (NaN where excluded), sorted
        # down each column.
        if wanted is not None:
            sig &= wanted[rows]
        cols = np.flatnonzero(sig)
        if cols.size:
            size = n_pairs * cols.size
            slopes_t = slope_buf[:size].reshape(n_pairs, cols.size)
            yw = np.take(yb, cols, axis=1)
            if not shared_x:
                xw = np.take(xb, cols, axis=1)
                dx = slope_buf[size : 2 * size].reshape(n_pairs, cols.size)
            offset = 0
            for i, j0 in blocks:
                pairs = slice(offset, offset + window - j0)
                offset = pairs.stop
                np.subtract(yw[j0:], yw[i], out=slopes_t[pairs])
                if not shared_x:
                    np.subtract(xw[j0:], xw[i], out=dx[pairs])
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                if shared_x:
                    slopes_t /= dx_pairs
                else:
                    dx[dx == 0.0] = np.nan
                    slopes_t /= dx
            slopes_t.sort(axis=0)
            slope[rows.start + cols] = _middle(slopes_t, n_valid[cols])

        if inexact is not None:
            # Only these rows risk a quotient whose sign differs from its
            # operands': the scalar reference decides them.
            at = rows.start + inexact
            x_at = np.broadcast_to(x, y.shape)[at]
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                (
                    slope[at], significant[at], agreement[at], n_points[at],
                    trend_sign[at],
                ) = _trend_by_rows(x_at, y[at], alpha, min_points)
            if wanted is not None:
                slope[at[~wanted[at]]] = 0.0
    return BatchedTrend(slope, significant, agreement, n_points, trend_sign)


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
    #{v_j > v_i}``, read off one ``(W, W, T)`` comparison cube.  Entries
    stay below ``2W``; the count type is the narrowest that holds that.
    """
    window = values_t.shape[0]
    count_t = np.min_scalar_type(2 * window)
    below = (values_t[:, None, :] < values_t[None, :, :]).view(np.uint8)  # [j, i]
    u = np.add.reduce(below, axis=0, dtype=count_t)
    u += count_t.type(window)
    u -= np.add.reduce(below, axis=1, dtype=count_t)
    return u


def _ranks_t(values_t: np.ndarray) -> np.ndarray:
    """Doubled tie-averaged ranks down each column of a NaN-free ``(W, N)``."""
    if values_t.shape[0] <= PAIRWISE_RANK_MAX_WINDOW:
        return _pairwise_ranks(np.ascontiguousarray(values_t))
    return fractional_ranks(np.ascontiguousarray(values_t.T)).T


def batched_spearman(
    x: np.ndarray,
    y: np.ndarray,
    min_points: int = 4,
) -> BatchedCorrelation:
    """Row-wise :func:`repro.stats.spearman.spearman` over the last axis.

    ``y`` is ``(T, W)`` or stacked ``(K, T, W)``; ``x``'s shape must be a
    trailing part of ``y``'s (``(W,)``, ``(T, W)``), and each ``x`` row is
    paired with every ``y`` row it broadcasts against.  Outputs have
    ``y.shape[:-1]``.  Inputs may be in any memory order and are never
    written.  Pairs with a non-finite value on either axis are dropped per
    row; rows with fewer than ``min_points`` surviving pairs (or a
    constant axis) report ``rho = 0.0``.

    Uses the doubled-rank integer identity: with ``u = 2·rank(x) − 1``
    and ``v = 2·rank(y) − 1`` over the ``n`` valid pairs, ``Σu = n²``
    exactly, so

        rho = (Σuv − n³) / sqrt((Σu² − n³)(Σv² − n³))

    in *exact integer arithmetic*: the result depends on neither the
    order of the samples nor the row blocking.  Each ``x`` row is ranked
    once over its own finite samples; only a pair whose ``y`` drops a
    sample that ``x`` keeps re-ranks its ``x`` over the pair mask, since
    ranks depend on which samples survive.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if y.ndim < 2 or x.ndim < 1 or x.shape != y.shape[y.ndim - x.ndim :]:
        raise ValueError(
            f"x shape {x.shape} must be a trailing part of y shape {y.shape}"
        )
    window = y.shape[-1]
    if window == 0:
        zeros = np.zeros(y.shape[:-1], dtype=np.intp)
        return BatchedCorrelation(zeros.astype(float), zeros)
    if x.ndim == 1:  # one axis for every row: block over the rows
        x = np.broadcast_to(x, y.shape[-2:])
    # Time-major views, one row per sample: x (W, N), y (W, G, N).
    x_t = x.reshape(-1, window).T
    y_t = y.reshape(-1, x_t.shape[1], window).transpose(2, 0, 1)
    rho = np.empty(y_t.shape[1:])
    n_points = np.empty(y_t.shape[1:], dtype=np.intp)
    # The widest scratch is the boolean (W, W, K·block) rank comparison cube.
    for cols in _row_blocks(x_t.shape[1], y_t.shape[1] * window * window):
        rho[:, cols], n_points[:, cols] = _spearman_block(
            _cols(x_t, cols), _cols(y_t, cols), min_points
        )
    out_shape = y.shape[:-1]
    return BatchedCorrelation(rho.reshape(out_shape), n_points.reshape(out_shape))


def _sentinel(valid: np.ndarray, values_t: np.ndarray) -> np.ndarray:
    """``values_t`` with ``+inf`` wherever ``valid`` is false (a copy if so)."""
    return values_t if valid.all() else np.where(valid, values_t, np.inf)


def _spearman_block(
    x_t: np.ndarray, y_t: np.ndarray, min_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Spearman's ``(rho, n_points)`` for x ``(W, n)`` against y ``(W, G, n)``."""
    window = x_t.shape[0]
    x_valid = np.isfinite(x_t)
    valid = np.isfinite(y_t)
    valid &= x_valid[:, None, :]
    n_points = _count(valid).astype(np.intp)

    # Excluded entries become +inf sentinels: they sort after every finite
    # value, so the valid entries' fractional ranks are exactly the ranks
    # they would get in the compacted row.  Their own ranks are zeroed.
    ux = _ranks_t(_sentinel(x_valid, x_t))
    ux *= x_valid
    uy = _ranks_t(_sentinel(valid, y_t).reshape(window, -1))
    uy = uy.reshape(valid.shape)
    uy *= valid
    # Doubled ranks stay below 2W, so the W-term sums fit this type.
    acc = np.promote_types(ux.dtype, np.min_scalar_type(window * (2 * window) ** 2))
    a = np.einsum("wn,wn->n", ux, ux, dtype=acc)
    a = np.broadcast_to(a, n_points.shape).copy()
    b = np.einsum("wgn,wgn->gn", uy, uy, dtype=acc)
    c = np.einsum("wn,wgn->gn", ux, uy, dtype=acc)
    # The valid pairs are a subset of x's finite samples, so a pair with
    # fewer of them than x has lost one to y: re-rank that x over the pair.
    g, r = np.nonzero(n_points < _count(x_valid))
    if g.size:
        pair = valid[:, g, r]
        ur = _ranks_t(_sentinel(pair, x_t[:, r]))
        ur *= pair
        a[g, r] = np.einsum("wn,wn->n", ur, ur, dtype=acc)
        c[g, r] = np.einsum("wn,wn->n", ur, uy[:, g, r], dtype=acc)
    n3 = n_points.astype(np.int64) ** 3
    a = a - n3
    b = b - n3
    c = c - n3
    ab = a * b
    compute = (n_points >= min_points) & (ab > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(compute, c / np.sqrt(np.where(compute, ab, 1)), 0.0)
    return rho, n_points


def batched_tail_median(
    values: np.ndarray,
    k: int,
    default: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Row-wise NaN-dropping median of the last ``k`` columns.

    Each row's result is ``np.median`` of the non-NaN entries of its
    tail; rows whose tail is entirely NaN report ``default``, one value
    for every row or a ``(T,)`` array of per-row values.  ``±inf``
    propagates through the median exactly as ``np.median`` does.  A
    one-column tail is a select: the median of one sample is itself.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be (tenants, window), got {values.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if min(k, values.shape[1]) == 1:
        last = values[:, -1]
        return np.where(np.isnan(last), default, last)
    out = np.full(values.shape[0], default, dtype=float)
    for rows in _row_blocks(values.shape[0], 8 * k):
        tail = np.sort(values[rows, -k:], axis=1)  # NaN sorts last
        counts = tail.shape[1] - np.count_nonzero(np.isnan(tail), axis=1)
        kept = np.flatnonzero(counts)
        if kept.size:
            out[rows.start + kept] = _middle(tail[kept].T, counts[kept])
    return out
