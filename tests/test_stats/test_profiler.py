"""Tests for the trace profiler (Section 4.1), including Figure 3."""

import tracemalloc

import numpy as np
import pytest

from repro.data.batch import JaggedBatch, JaggedFeature
from repro.data.feature import SparseFeatureSpec
from repro.data.model import EmbeddingTableSpec, ModelSpec
from repro.data.synthetic import TraceGenerator
from repro.stats import TraceProfiler, analytic_profile, profile_trace
from repro.stats.cdf import FrequencyCDF
from tests.oracles.planner import coverage_of_rows_many


def tiny_model(hash_sizes=(100, 500), coverage=1.0):
    tables = tuple(
        EmbeddingTableSpec(
            feature=SparseFeatureSpec(
                name=f"f{i}",
                cardinality=h * 2,
                hash_size=h,
                alpha=1.0,
                avg_pooling=3.0,
                coverage=coverage,
                hash_seed=i,
            ),
            dim=4,
        )
        for i, h in enumerate(hash_sizes)
    )
    return ModelSpec(name="tiny", tables=tables)


class TestFigure3WorkedExample:
    def test_figure3_worked_example(self):
        """The paper's Figure 3: features A (hash 100) and B (hash 500).

        Three samples; A has pooling factors 4, 3, 4 -> avg 3.66; B is
        present once with pooling 3 -> avg 3, coverage 1/3 vs 1.0.
        """
        feature_a = JaggedFeature.from_lists(
            [[7345, 3241, 234, 8091], [523, 12, 6234], [3452, 452, 2345, 1342]]
        )
        feature_b = JaggedFeature.from_lists([[241, 104123, 63642], [], []])
        # Hash raw ids into table spaces as the paper's example does.
        a_hashed = JaggedFeature(feature_a.values % 100, feature_a.offsets)
        b_hashed = JaggedFeature(feature_b.values % 500, feature_b.offsets)
        model = tiny_model(hash_sizes=(100, 500))
        profiler = TraceProfiler(model, sample_rate=1.0, seed=0)
        profiler.consume(JaggedBatch([a_hashed, b_hashed]))
        profile = profiler.finish()

        assert profile[0].avg_pooling == pytest.approx(11 / 3, abs=1e-9)  # 3.66
        assert profile[1].avg_pooling == pytest.approx(3.0)
        assert profile[0].coverage == pytest.approx(1.0)
        assert profile[1].coverage == pytest.approx(1 / 3)  # .33


class TestTraceProfiler:
    def test_counts_accumulate(self):
        model = tiny_model()
        profiler = TraceProfiler(model, sample_rate=1.0, seed=0)
        gen = TraceGenerator(model, batch_size=64, seed=1)
        total = sum(profiler.consume(gen.next_batch()) for _ in range(3))
        profile = profiler.finish()
        assert total == 192
        assert profile.samples_profiled == 192
        assert profile[0].total_accesses > 0

    def test_sampling_rate_reduces_samples(self):
        model = tiny_model()
        gen = TraceGenerator(model, batch_size=1000, seed=2)
        batch = gen.next_batch()
        profiler = TraceProfiler(model, sample_rate=0.1, seed=3)
        accepted = profiler.consume(batch)
        assert 40 < accepted < 200  # ~100 expected

    def test_sampled_stats_match_full_stats(self):
        # The paper's claim: ~1% sampling estimates the stats well.  At
        # our scale we use 10% over a large batch for tight tolerance.
        model = tiny_model(coverage=0.7)
        gen = TraceGenerator(model, batch_size=20_000, seed=4)
        batch = gen.next_batch()
        full = TraceProfiler(model, sample_rate=1.0, seed=0)
        full.consume(batch)
        sampled = TraceProfiler(model, sample_rate=0.1, seed=5)
        sampled.consume(batch)
        p_full, p_sub = full.finish(), sampled.finish()
        assert p_sub[0].avg_pooling == pytest.approx(p_full[0].avg_pooling, rel=0.05)
        assert p_sub[0].coverage == pytest.approx(p_full[0].coverage, rel=0.05)
        # Head of the CDF agrees: rows covering 80% of accesses are close.
        r_full = p_full[0].cdf.rows_for_coverage(0.8)
        r_sub = p_sub[0].cdf.rows_for_coverage(0.8)
        assert abs(r_full - r_sub) <= max(5, 0.3 * r_full)

    def test_mismatched_batch_rejected(self):
        model = tiny_model()
        profiler = TraceProfiler(model, sample_rate=1.0, seed=0)
        with pytest.raises(ValueError):
            profiler.consume(JaggedBatch([JaggedFeature.from_lists([[1]])]))

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            TraceProfiler(tiny_model(), sample_rate=0.0)
        with pytest.raises(ValueError):
            TraceProfiler(tiny_model(), sample_rate=1.5)

    def test_profile_trace_helper(self):
        model = tiny_model()
        gen = TraceGenerator(model, batch_size=128, seed=6)
        profile = profile_trace(model, gen, num_batches=2, sample_rate=1.0)
        assert profile.samples_profiled == 256
        assert len(profile) == 2


class TestAnalyticProfile:
    def test_matches_spec_statistics(self):
        model = tiny_model(coverage=0.4)
        profile = analytic_profile(model, virtual_samples=1_000_000)
        assert profile[0].coverage == pytest.approx(0.4, abs=1e-6)
        assert profile[0].avg_pooling == pytest.approx(3.0, rel=1e-6)

    def test_counts_follow_post_hash_pmf(self):
        model = tiny_model()
        profile = analytic_profile(model)
        pmf = model.tables[0].feature.post_hash_pmf()
        counts = profile[0].counts
        assert counts.sum() > 0
        np.testing.assert_allclose(counts / counts.sum(), pmf, atol=1e-12)

    def test_analytic_close_to_empirical(self):
        model = tiny_model(coverage=0.8)
        analytic = analytic_profile(model)
        gen = TraceGenerator(model, batch_size=30_000, seed=7)
        empirical = profile_trace(model, gen, num_batches=1, sample_rate=1.0)
        assert empirical[0].avg_pooling == pytest.approx(
            analytic[0].avg_pooling, rel=0.05
        )
        assert empirical[0].coverage == pytest.approx(analytic[0].coverage, rel=0.05)
        # Hot-row sets largely agree.
        hot_a = set(analytic[0].cdf.top_rows(20))
        hot_e = set(empirical[0].cdf.top_rows(20))
        assert len(hot_a & hot_e) >= 12


def traced_profile(model, seed=0):
    gen = TraceGenerator(model, batch_size=256, seed=seed)
    return profile_trace(model, gen, num_batches=2, sample_rate=1.0, seed=seed)


class TestRankedStatistics:
    """The profile owns one coverage stack and one ranked-count gather."""

    def test_cdfs_are_views_of_one_read_only_stack(self):
        model = tiny_model(hash_sizes=(100, 500, 40))
        profile = traced_profile(model)
        stack = profile.coverage_stack
        assert stack.size == sum(t.num_rows for t in model.tables)
        for j, stats in enumerate(profile):
            cum = stats.cdf.cum_fraction
            assert np.shares_memory(stack, cum)
            np.testing.assert_array_equal(
                stack[profile.row_base[j]: profile.row_base[j + 1]], cum
            )
            np.testing.assert_array_equal(
                cum, FrequencyCDF(stats.counts).cum_fraction
            )
        with pytest.raises(ValueError):
            stack[0] = 0.5
        with pytest.raises(ValueError):
            profile[0].cdf.cum_fraction[0] = 0.5

    def test_stack_build_holds_one_coverage_copy(self):
        """Filling the stack allocates each table's row order and one
        table's temporaries, never a second per-row coverage array."""
        model = tiny_model(hash_sizes=(2000,) * 40)
        profile = traced_profile(model)
        tracemalloc.start()
        try:
            stack = profile.coverage_stack
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row_orders = sum(stats.cdf.row_order.nbytes for stats in profile)
        assert peak < row_orders + stack.nbytes // 2

    def test_planner_allocates_no_per_row_coverage(self):
        """A workspace build, a refresh and a stamped shard read the
        profiles' stacks; none copies them."""
        from repro.core import PlannerWorkspace, RecShardFastSharder
        from repro.memory.topology import SystemTopology

        model = tiny_model(hash_sizes=(20_000,) * 4)
        first, second = traced_profile(model, 1), traced_profile(model, 2)
        for profile in (first, second):
            profile.coverage_stack  # built before tracing starts
        topology = SystemTopology.two_tier(
            2, model.total_bytes // 8, 200e9, model.total_bytes, 10e9
        )
        sharder = RecShardFastSharder(batch_size=64, steps=20)
        tracemalloc.start()
        try:
            workspace = PlannerWorkspace(model, first, steps=20)
            workspace.refresh(second)
            sharder.shard(model, second, topology, workspace=workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < second.coverage_stack.nbytes // 4

    def test_coverage_of_rows_at_matches_cdf_queries(self):
        model = tiny_model(hash_sizes=(100, 500, 40))
        profile = traced_profile(model)
        rows = np.array([-3, 0, 1, 7, 39, 40, 99, 100, 499, 500, 900])
        grid = profile.coverage_of_rows_at(np.arange(3), rows[:, None])
        for j, stats in enumerate(profile):
            np.testing.assert_array_equal(
                grid[:, j], coverage_of_rows_many(stats.cdf, rows)
            )
            np.testing.assert_array_equal(
                profile.coverage_of_rows_at(j, rows),
                [stats.cdf.coverage_of_rows(int(r)) for r in rows],
            )

    def test_never_accessed_table_covers_nothing(self):
        model = tiny_model(hash_sizes=(100, 50), coverage=1.0)
        profiler = TraceProfiler(model, sample_rate=1.0)
        profiler.consume(
            JaggedBatch(
                [
                    JaggedFeature.from_lists([[3, 4], [3]]),
                    JaggedFeature.from_lists([[], []]),
                ]
            )
        )
        profile = profiler.finish()
        np.testing.assert_array_equal(
            profile.coverage_of_rows_at(1, [0, 1, 50, 60]), 0.0
        )
        assert profile.coverage_of_rows_at(0, 100) == 1.0

    def test_profile_of_built_tables_fills_its_stack(self):
        """A profile assembled from another profile's tables, whose CDFs
        are already built, reads their coverage, not unset memory."""
        from repro import rm2
        from repro.stats.profiler import ModelProfile

        a = analytic_profile(rm2(num_features=8, row_scale=0.001, seed=3))
        expected = a.coverage_stack.copy()
        b = ModelProfile(a.model_name, a.tables)
        np.testing.assert_array_equal(b.coverage_stack, expected)
        np.testing.assert_array_equal(
            b.coverage_of_rows_at(np.arange(8), 5),
            [stats.cdf.coverage_of_rows(5) for stats in a.tables],
        )

    def test_ranked_counts_gathers_rank_blocks(self):
        model = tiny_model(hash_sizes=(100, 500, 40))
        profile = traced_profile(model)
        tables, lo, hi = [2, 0, 1], [5, 0, 10], [9, 30, 10]
        counts, owners = profile.ranked_counts(tables, lo, hi)
        blocks = [
            profile[j].counts[profile[j].cdf.row_order[a:b]]
            for j, a, b in zip(tables, lo, hi)
        ]
        np.testing.assert_array_equal(counts, np.concatenate(blocks))
        np.testing.assert_array_equal(owners, [2] * 4 + [0] * 30)
        counts, owners = profile.ranked_counts([], 0, [])
        assert counts.size == owners.size == 0
