"""Frequency CDFs and their inverses (the heart of RecShard's statistics).

A :class:`FrequencyCDF` ranks the rows of one embedding table by access
frequency and answers the two questions the MILP needs: "what fraction
of accesses do the hottest *k* rows cover?" and its inverse, "how many
rows cover an access fraction *p*?" (the ICDF of Section 4.2).

The ICDF — rows as a function of covered access fraction — is *convex*
for every table: rows are ranked by descending frequency, so each extra
unit of coverage costs at least as many rows as the previous one.  That
convexity is what lets the convex MILP formulation replace the paper's
per-step binaries with linear cuts (:func:`convex_cuts`, read by
``repro/core/formulation.py``).

The ICDF grids themselves are sampled for every table at once by the
planner workspace (:class:`~repro.core.workspace.PlannerWorkspace`),
through :meth:`FrequencyCDF.fractional_rows_for_coverage_many`.

A profiled table's coverage prefix is not its own array: it is a
read-only slot of its :class:`~repro.stats.profiler.ModelProfile`'s one
coverage stack, which the plan evaluator queries for every table at
once.
"""

from __future__ import annotations

import numpy as np


def descending_order(values: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(-values, kind="stable")``, from a faster sort.

    numpy's default argsort dispatches to a SIMD sort several times
    faster than its stable merge sort, but leaves tied keys in an
    arbitrary order.  The repair sorts the unique key
    ``run_id * n + index`` (``run_id`` numbers the runs of equal keys),
    which puts every run back in index order, and is skipped when no
    key repeats.  Values must not be NaN: NaN never compares equal to
    itself, so tied NaNs would escape the repair (every caller ranks
    finite counts or densities, +inf included).
    """
    keys = -np.asarray(values)
    order = np.argsort(keys)
    n = order.size
    if n < 2:
        return order
    ranked = keys[order]
    new_run = ranked[1:] != ranked[:-1]
    if new_run.all():
        return order
    run_base = np.zeros(n, dtype=np.int64)
    np.cumsum(new_run, out=run_base[1:])
    run_base *= n
    # Runs stay where they are; only the indices inside each run move.
    return np.sort(run_base + order) - run_base


class FrequencyCDF:
    """Access-frequency CDF over one table's rows.

    Args:
        counts: per-row access counts (or expected counts / probabilities);
            length equals the table's hash size.  Rows with zero count are
            the dead rows of Section 3.4.
        out: optional float64 array of the hash size that receives the
            coverage prefix — a :class:`~repro.stats.profiler.ModelProfile`
            passes each table's slot of its one coverage stack.
    """

    def __init__(self, counts: np.ndarray, out: np.ndarray | None = None):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-D array over table rows")
        if not np.isfinite(counts).all():
            raise ValueError("counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        self.hash_size = int(counts.size)
        # Descending counts with tied rows in index order (a stable
        # argsort of -counts, via descending_order), making the hot-row
        # ranking deterministic for the remapping layer.  Only live rows
        # are sorted: the zero rows all tie, so they follow in index order.
        live = np.flatnonzero(counts > 0)
        self.row_order = np.concatenate(
            (live[descending_order(counts[live])], np.flatnonzero(counts == 0))
        )
        sorted_counts = counts[self.row_order]
        self.total = float(sorted_counts.sum())
        self.live_rows = int(np.count_nonzero(sorted_counts))
        cum = np.empty(self.hash_size) if out is None else out
        if self.total > 0:
            np.cumsum(sorted_counts, out=cum)
            cum /= self.total
            np.clip(cum, 0.0, 1.0, out=cum)
            cum[-1] = 1.0
        else:
            cum[...] = 0.0
        cum.flags.writeable = False
        self._cum_fraction = cum

    @property
    def cum_fraction(self) -> np.ndarray:
        """Coverage prefix per rank (read-only): ``cum_fraction[k]`` is
        the access fraction covered by the hottest ``k + 1`` rows.
        """
        return self._cum_fraction

    # ------------------------------------------------------------------
    # Forward and inverse queries
    # ------------------------------------------------------------------
    def coverage_of_rows(self, rows: int) -> float:
        """Fraction of all accesses covered by the hottest ``rows`` rows."""
        if rows <= 0:
            return 0.0
        if rows >= self.hash_size:
            return 1.0 if self.total > 0 else 0.0
        return float(self._cum_fraction[rows - 1])

    def rows_for_coverage(self, fraction: float) -> int:
        """Minimum number of hottest rows covering ``fraction`` of accesses."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if fraction == 0.0 or self.total == 0:
            return 0
        rows = int(np.searchsorted(self._cum_fraction, fraction, side="left")) + 1
        return min(rows, self.live_rows)

    def fractional_rows_for_coverage_many(
        self, fractions: np.ndarray
    ) -> np.ndarray:
        """Continuous-relaxation row counts covering each of ``fractions``.

        Interpolates within the marginal row: covering half of row *k*'s
        access mass costs half a row.  Unlike the integer
        :meth:`rows_for_coverage` this is exactly convex in the fraction
        (marginal rows per unit of coverage, ``1 / count_k``, never
        decreases), which the convex MILP formulation requires of its
        sampled points.  The planner workspace fills its ICDF grids with
        it; the per-point query it replaced is the oracles' sampler in
        ``tests/oracles/icdf.py``, pinned equal element for element.
        """
        fractions = np.asarray(fractions, dtype=np.float64)
        if not np.all((fractions >= 0.0) & (fractions <= 1.0)):
            raise ValueError("fractions must be in [0, 1]")
        if self.total == 0 or self.hash_size == 0:
            return np.zeros(fractions.shape, dtype=np.float64)
        cum = self._cum_fraction
        k = np.searchsorted(cum, fractions, side="left")
        # cum[-1] == 1.0 >= every query, so k < hash_size always; the
        # clip only guards the k == 0 gather for prev_cum.
        prev_cum = np.where(k > 0, cum[np.maximum(k - 1, 0)], 0.0)
        row_mass = cum[k] - prev_cum
        with np.errstate(divide="ignore", invalid="ignore"):
            partial = np.where(
                row_mass > 0, (fractions - prev_cum) / row_mass, 1.0
            )
        rows = k + partial
        rows = np.where(k >= self.live_rows, float(self.live_rows), rows)
        return np.where(fractions == 0.0, 0.0, rows)

    def curve(self, points: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """(row fraction, access fraction) pairs for plotting (Figure 5)."""
        if self.hash_size == 0 or self.total == 0:
            return np.array([0.0, 1.0]), np.array([0.0, 0.0])
        idx = np.unique(
            np.linspace(0, self.hash_size - 1, min(points, self.hash_size)).astype(int)
        )
        return (idx + 1) / self.hash_size, self._cum_fraction[idx]

    def top_rows(self, rows: int) -> np.ndarray:
        """Row ids of the hottest ``rows`` rows (the HBM candidates)."""
        return self.row_order[: max(0, rows)]


def convex_cuts(fractions, rows) -> list[tuple[float, float]]:
    """Linear cuts ``rows >= slope * fraction + intercept`` of one ICDF grid.

    ``fractions`` and ``rows`` are one table's sampled ICDF points (a
    row of a workspace's ``frac_rows`` over its shared ``fractions``).
    The points are in convex position (rows per unit coverage is
    non-decreasing), so every chord between consecutive points is a
    global under-estimator of the piecewise-linear interpolation, and
    the maximum over all chords *equals* it.  These cuts therefore
    encode the ICDF exactly (up to sampling) without binaries.  Chords
    whose slope repeats the last kept one (flat regions) are dropped.
    """
    xs = np.asarray(fractions, dtype=np.float64).tolist()
    ys = np.asarray(rows, dtype=np.float64).tolist()
    cuts: list[tuple[float, float]] = []
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        slope = (y1 - y0) / (x1 - x0)
        if cuts and abs(cuts[-1][0] - slope) < 1e-12:
            continue
        cuts.append((slope, y0 - slope * x0))
    return cuts
