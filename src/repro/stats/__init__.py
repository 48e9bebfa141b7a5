"""Training-data profiling (Section 4.1).

RecShard estimates three per-EMB statistics from a ~1% sample of the
training data: the post-hash value frequency CDF, the average pooling
factor, and the coverage.  This package computes them from traces
(:class:`TraceProfiler`) or analytically from a model spec
(:func:`analytic_profile`).
"""

from repro.stats.cdf import FrequencyCDF
from repro.stats.profiler import (
    ModelProfile,
    TableStats,
    TraceProfiler,
    analytic_profile,
    profile_trace,
)
from repro.stats.summary import characterization_summary, quantiles

__all__ = [
    "FrequencyCDF",
    "ModelProfile",
    "TableStats",
    "TraceProfiler",
    "analytic_profile",
    "characterization_summary",
    "profile_trace",
    "quantiles",
]
