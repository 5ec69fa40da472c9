"""Robust-statistics substrate for telemetry signal extraction.

Everything in here is deliberately dependency-light (numpy only) and
side-effect free; the telemetry manager composes these primitives into the
paper's signals.
"""

from repro.stats.batched import (
    SLOPE_CHUNK_ELEMENTS,
    BatchedCorrelation,
    BatchedTrend,
    batched_detect_trend,
    batched_spearman,
    batched_tail_median,
    fractional_ranks,
)
from repro.stats.percentiles import P2Quantile, percentile
from repro.stats.robust import (
    breakdown_point,
    iqr,
    mad,
    median,
    robust_zscores,
    trimmed_mean,
    winsorized_mean,
)
from repro.stats.rolling import RollingWindow
from repro.stats.spearman import CorrelationResult, pearson, rankdata, spearman
from repro.stats.theil_sen import (
    TrendResult,
    detect_trend,
    least_squares_slope,
    theil_sen_slope,
)

__all__ = [
    "SLOPE_CHUNK_ELEMENTS",
    "BatchedCorrelation",
    "BatchedTrend",
    "batched_detect_trend",
    "batched_spearman",
    "batched_tail_median",
    "fractional_ranks",
    "P2Quantile",
    "percentile",
    "breakdown_point",
    "iqr",
    "mad",
    "median",
    "robust_zscores",
    "trimmed_mean",
    "winsorized_mean",
    "RollingWindow",
    "CorrelationResult",
    "pearson",
    "rankdata",
    "spearman",
    "TrendResult",
    "detect_trend",
    "least_squares_slope",
    "theil_sen_slope",
]
