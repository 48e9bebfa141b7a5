"""Trace profiling: estimating per-EMB statistics from sampled data.

Implements Section 4.1: sample a small fraction (~1%) of training
samples, hash them (the trace already carries hashed indices), and
accumulate three statistics per table — the post-hash value frequency
distribution, the average pooling factor, and the coverage.

A :class:`ModelProfile` owns its tables' ranked statistics: one
coverage-prefix stack that every table's CDF is a view into (the plan
evaluator's one gather, :meth:`ModelProfile.coverage_of_rows_at`), and
one ranked-count gather (:meth:`ModelProfile.ranked_counts`) behind
replica, cache and staging selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.data.batch import JaggedBatch
from repro.data.model import ModelSpec
from repro.stats.cdf import FrequencyCDF


@dataclass
class TableStats:
    """Profiled statistics for one embedding table.

    ``counts`` holds (possibly fractional, for analytic profiles) access
    counts per hashed row; ``samples_present`` / ``samples_seen`` give
    coverage; total accesses over present samples give the mean pooling
    factor.
    """

    name: str
    hash_size: int
    counts: np.ndarray
    samples_present: int = 0
    samples_seen: int = 0
    _cdf: FrequencyCDF | None = field(default=None, repr=False, compare=False)
    # The owning profile's coverage-stack slot the CDF is built into.
    _coverage_out: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def total_accesses(self) -> float:
        return float(self.counts.sum())

    @property
    def avg_pooling(self) -> float:
        """Mean pooling factor over samples where the feature is present."""
        if self.samples_present == 0:
            return 0.0
        return self.total_accesses / self.samples_present

    @property
    def coverage(self) -> float:
        """Fraction of samples in which the feature is present."""
        if self.samples_seen == 0:
            return 0.0
        return self.samples_present / self.samples_seen

    @property
    def live_rows(self) -> int:
        return int(np.count_nonzero(self.counts))

    @property
    def cdf(self) -> FrequencyCDF:
        """Frequency CDF over this table's rows (cached)."""
        if self._cdf is None:
            self._cdf = FrequencyCDF(self.counts, out=self._coverage_out)
        return self._cdf

    def expected_lookups_per_sample(self) -> float:
        return self.coverage * self.avg_pooling


@dataclass
class ModelProfile:
    """Profiled statistics for every table of a model.

    A profile is read-only once made, and owns its tables' ranked
    statistics.  Table ``j``'s coverage prefix (``cdf.cum_fraction``)
    is the slot ``[row_base[j], row_base[j + 1])`` of one stack, filled
    as that table's CDF is built, so a profile holds one copy of every
    prefix; the stack's pages are only touched as CDFs fill them.  A
    table whose CDF was built before the profile (one taken from
    another profile) has its prefix copied into its slot.
    """

    model_name: str
    tables: list[TableStats]
    sample_rate: float = 1.0
    samples_profiled: int = 0

    def __post_init__(self):
        sizes = [stats.hash_size for stats in self.tables]
        self.row_base = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.row_base[1:])
        stack = np.empty(int(self.row_base[-1]), dtype=np.float64)
        for j, stats in enumerate(self.tables):
            slot = stack[self.row_base[j]: self.row_base[j + 1]]
            # A table whose CDF is already built (it came from another
            # profile) never fills its slot itself.
            if stats._cdf is not None:
                slot[...] = stats._cdf.cum_fraction
            stats._coverage_out = slot
        self._stack = stack.view()
        self._stack.flags.writeable = False
        self._stack_full = False

    @property
    def coverage_stack(self) -> np.ndarray:
        """Every table's coverage prefix, ragged-stacked (read-only)."""
        if not self._stack_full:
            for stats in self.tables:
                stats.cdf
            self._stack_full = True
        return self._stack

    def coverage_of_rows_at(self, tables, rows) -> np.ndarray:
        """``coverage_of_rows`` at ``(table, row)`` pairs, broadcast.

        Element for element the per-table
        :meth:`~repro.stats.cdf.FrequencyCDF.coverage_of_rows`: zero
        rows cover nothing, and rows at or past a table's hash size read
        its last prefix entry (1, or 0 for a table never accessed).
        One flat gather answers a whole ``(plans, tiers, tables)`` grid
        (``tables`` broadcast along the last axis) or ragged edges.
        """
        tables, rows = np.broadcast_arrays(
            np.asarray(tables, dtype=np.int64), np.asarray(rows, dtype=np.int64)
        )
        idx = np.minimum(
            self.row_base[tables] + np.maximum(rows - 1, 0),
            self.row_base[tables + 1] - 1,
        )
        return np.where(rows > 0, self.coverage_stack[idx], 0.0)

    def ranked_counts(self, tables, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Profiled counts of frequency ranks ``[lo, hi)`` per table.

        The one hottest-first gather, ``counts[row_order[lo:hi]]``:
        blocks concatenated in the order ``tables`` lists them, each in
        rank order, with the owning table of every row.  ``lo`` and
        ``hi`` broadcast against ``tables``.
        """
        tables, lo, hi = np.broadcast_arrays(
            np.asarray(tables, dtype=np.int64), lo, hi
        )
        blocks = [
            self.tables[j].counts[self.tables[j].cdf.row_order[a:b]]
            for j, a, b in zip(tables.tolist(), lo.tolist(), hi.tolist())
        ]
        owners = np.repeat(tables, [block.size for block in blocks])
        return np.concatenate(blocks or [np.empty(0)]), owners

    @cached_property
    def total_accesses(self) -> np.ndarray:
        """Per-table access totals."""
        return np.array([stats.total_accesses for stats in self.tables])

    @cached_property
    def coverage(self) -> np.ndarray:
        """Per-table coverage."""
        return np.array([stats.coverage for stats in self.tables])

    @cached_property
    def avg_pooling(self) -> np.ndarray:
        """Per-table mean pooling factor."""
        return np.array([stats.avg_pooling for stats in self.tables])

    def __getitem__(self, index: int) -> TableStats:
        return self.tables[index]

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self):
        return iter(self.tables)


class TraceProfiler:
    """Streaming profiler over jagged batches with Bernoulli row sampling.

    Args:
        model: spec of the model being profiled (fixes table count/sizes).
        sample_rate: probability each training sample enters the profile
            (the paper finds <=1% suffices on production stores).
        seed: sampling RNG seed.
    """

    def __init__(self, model: ModelSpec, sample_rate: float = 0.01, seed: int = 0):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
        self.model = model
        self.sample_rate = float(sample_rate)
        self._rng = np.random.default_rng(seed)
        # Row counts for all tables live in one flat array; table j owns
        # rows [_row_base[j], _row_base[j+1]).  One offset-shifted
        # bincount per batch then covers every table at once.
        self._row_base = np.zeros(model.num_tables + 1, dtype=np.int64)
        np.cumsum([t.num_rows for t in model.tables], out=self._row_base[1:])
        self._counts_flat = np.zeros(int(self._row_base[-1]), dtype=np.float64)
        self._shift_scratch = np.empty(0, dtype=np.int64)
        self._present = np.zeros(model.num_tables, dtype=np.int64)
        self._lookups = np.zeros(model.num_tables, dtype=np.int64)
        self._samples = 0

    @property
    def samples(self) -> int:
        """Samples folded in so far."""
        return self._samples

    @property
    def present(self) -> np.ndarray:
        """Per-table count of folded samples with the feature present."""
        return self._present

    @property
    def lookups(self) -> np.ndarray:
        """Per-table lookups folded in so far."""
        return self._lookups

    def consume(self, batch: JaggedBatch) -> int:
        """Fold one batch into the profile; returns samples accepted.

        Vectorized across features: lookups are shifted by their
        table's row base into a flattened feature-major buffer and
        counted with a single ``bincount``; presence tallies come from
        one stacked-offsets pass.  No Python loop per feature per batch
        beyond the buffer fill.  The same offsets pass tallies per-table
        lookups, which the online drift monitor reads.
        """
        if batch.num_features != self.model.num_tables:
            raise ValueError(
                f"batch has {batch.num_features} features, model has "
                f"{self.model.num_tables}"
            )
        if self.sample_rate < 1.0:
            mask = self._rng.random(batch.batch_size) < self.sample_rate
            chosen = np.flatnonzero(mask)
            if chosen.size == 0:
                return 0
            batch = batch.take(chosen)
        accepted = batch.batch_size
        self._samples += accepted
        if not batch.num_features:
            return accepted
        total = batch.total_lookups
        if total:
            if self._shift_scratch.size < total:
                self._shift_scratch = np.empty(total, dtype=np.int64)
            shifted = self._shift_scratch[:total]
            tables, starts, pos = [], [], 0
            for j, feature in enumerate(batch):
                values = feature.values
                if values.size:
                    tables.append(j)
                    starts.append(pos)
                    np.add(
                        values,
                        self._row_base[j],
                        out=shifted[pos: pos + values.size],
                    )
                    pos += values.size
            # In the flat layout an out-of-range hashed index would land
            # in a *neighboring table's* rows instead of raising the
            # shape error the per-table bincount used to — so check the
            # per-feature extrema stay inside each table's row block.
            tables = np.asarray(tables, dtype=np.int64)
            starts = np.asarray(starts, dtype=np.int64)
            lo = np.minimum.reduceat(shifted, starts) < self._row_base[tables]
            hi = np.maximum.reduceat(shifted, starts) >= self._row_base[tables + 1]
            if lo.any() or hi.any():
                bad = int(tables[np.argmax(lo | hi)])
                raise ValueError(
                    f"feature {bad} has lookup values outside "
                    f"[0, {self.model.tables[bad].num_rows})"
                )
            self._counts_flat += np.bincount(
                shifted, minlength=self._counts_flat.size
            )
        offsets = np.stack([f.offsets for f in batch])
        self._present += np.count_nonzero(np.diff(offsets, axis=1), axis=1)
        self._lookups += offsets[:, -1]
        return accepted

    def finish(self) -> ModelProfile:
        """Materialize the profile accumulated so far."""
        tables = [
            TableStats(
                name=spec.name,
                hash_size=spec.num_rows,
                counts=self._counts_flat[
                    self._row_base[j]: self._row_base[j + 1]
                ].copy(),
                samples_present=int(self._present[j]),
                samples_seen=self._samples,
            )
            for j, spec in enumerate(self.model.tables)
        ]
        return ModelProfile(
            model_name=self.model.name,
            tables=tables,
            sample_rate=self.sample_rate,
            samples_profiled=self._samples,
        )


def profile_trace(
    model: ModelSpec,
    generator,
    num_batches: int,
    sample_rate: float = 0.01,
    seed: int = 0,
) -> ModelProfile:
    """Profile ``num_batches`` batches from a trace generator."""
    profiler = TraceProfiler(model, sample_rate=sample_rate, seed=seed)
    for batch in generator.batches(num_batches):
        profiler.consume(batch)
    return profiler.finish()


def analytic_profile(
    model: ModelSpec, virtual_samples: int = 1_000_000
) -> ModelProfile:
    """Exact expected profile straight from the model spec.

    Equivalent to profiling an infinitely long trace: per-row expected
    counts are the post-hash pmf scaled by the feature's expected access
    volume.  Used by benchmarks that want to skip trace profiling.
    """
    tables = []
    for spec in model.tables:
        feature = spec.feature
        present = feature.coverage * virtual_samples
        expected_accesses = present * feature.avg_pooling
        counts = feature.post_hash_pmf() * expected_accesses
        tables.append(
            TableStats(
                name=spec.name,
                hash_size=spec.num_rows,
                counts=counts,
                samples_present=int(round(present)),
                samples_seen=virtual_samples,
            )
        )
    return ModelProfile(
        model_name=model.name,
        tables=tables,
        sample_rate=1.0,
        samples_profiled=virtual_samples,
    )
