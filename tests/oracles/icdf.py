"""The scalar ICDF sampler: one coverage inversion per grid point.

The planner workspace samples every table's ICDF grid with one
vectorized query
(:meth:`~repro.stats.cdf.FrequencyCDF.fractional_rows_for_coverage_many`).
The per-point query it replaced lives here as the oracles' own,
independent sampler: :func:`fractional_rows_for_coverage` answers one
fraction, :func:`icdf_points` samples a table's grid point by point,
and :func:`table_inputs` builds the per-table records the scalar
planners in :mod:`tests.oracles.planner` walk, straight from a model
and its profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fractional_rows_for_coverage(cdf, fraction: float) -> float:
    """Continuous-relaxation row count covering ``fraction`` of accesses.

    Interpolates within the marginal row: covering half of row *k*'s
    access mass costs half a row.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if fraction == 0.0 or cdf.total == 0:
        return 0.0
    cum = cdf.cum_fraction
    k = int(np.searchsorted(cum, fraction, side="left"))
    if k >= cdf.live_rows:
        return float(cdf.live_rows)
    prev_cum = cum[k - 1] if k > 0 else 0.0
    row_mass = cum[k] - prev_cum
    partial = (fraction - prev_cum) / row_mass if row_mass > 0 else 1.0
    return float(k + partial)


@dataclass(frozen=True)
class PiecewiseICDF:
    """Sampled ICDF points: coverage fractions and rows required."""

    fractions: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        if self.fractions.shape != self.rows.shape:
            raise ValueError("fractions and rows must align")
        if np.any(np.diff(self.fractions) <= 0):
            raise ValueError("fractions must be strictly increasing")
        if np.any(np.diff(self.rows) < -1e-9):
            raise ValueError("rows must be non-decreasing (ICDF property)")

    @property
    def steps(self) -> int:
        return self.fractions.size - 1


def icdf_points(cdf, steps: int = 100) -> PiecewiseICDF:
    """The paper's piecewise ICDF: ``steps + 1`` uniformly spaced
    coverage fractions and the (fractional) rows needed for each
    (Constraints 4-7), one scalar query per point."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    fractions = np.linspace(0.0, 1.0, steps + 1)
    rows = np.array(
        [fractional_rows_for_coverage(cdf, f) for f in fractions],
        dtype=np.float64,
    )
    return PiecewiseICDF(fractions=fractions, rows=rows)


@dataclass(frozen=True)
class TableInputs:
    """One table's planner statistics, as the scalar planners read them."""

    name: str
    row_bytes: int
    hash_size: int
    live_rows: int
    icdf: PiecewiseICDF
    avg_pooling: float
    coverage: float
    total_accesses: float


def table_inputs(model, profile, steps: int = 100) -> list[TableInputs]:
    """Per-table records of ``model`` from ``profile``, sampled here."""
    if len(profile) != model.num_tables:
        raise ValueError(
            f"profile has {len(profile)} tables, model has {model.num_tables}"
        )
    return [
        TableInputs(
            name=spec.name,
            row_bytes=spec.row_bytes,
            hash_size=spec.num_rows,
            live_rows=stats.cdf.live_rows,
            icdf=icdf_points(stats.cdf, steps),
            avg_pooling=stats.avg_pooling,
            coverage=stats.coverage,
            total_accesses=stats.total_accesses,
        )
        for spec, stats in zip(model.tables, profile)
    ]
