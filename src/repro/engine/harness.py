"""Experiment harness: profile, shard, execute, compare (Figure 10 end to end).

Orchestrates the full RecShard pipeline for one or more strategies over
a common trace, producing the measurements behind Figures 11-13 and
Tables 3-6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.data.model import ModelSpec
from repro.data.synthetic import TraceGenerator
from repro.engine.executor import ShardedExecutor, replay_trace
from repro.engine.metrics import RunMetrics
from repro.memory.topology import SystemTopology
from repro.stats.profiler import ModelProfile, analytic_profile, profile_trace


@dataclass
class ExperimentResult:
    """Everything measured for one strategy on one model."""

    strategy: str
    model_name: str
    plan: object
    metrics: RunMetrics
    shard_seconds: float
    metadata: dict = field(default_factory=dict)

    def table3_row(self) -> str:
        """Min/Max/Mean/Std per-GPU ms, formatted like a Table 3 cell."""
        return self.metrics.iteration_stats().as_row()


def build_profile(
    model: ModelSpec,
    batch_size: int,
    profile_batches: int = 4,
    sample_rate: float = 1.0,
    seed: int = 123,
    analytic: bool = False,
) -> ModelProfile:
    """Phase 1 (Section 4.1): profile training data, or use analytic stats."""
    if analytic:
        return analytic_profile(model)
    generator = TraceGenerator(model, batch_size=batch_size, seed=seed)
    return profile_trace(
        model, generator, num_batches=profile_batches,
        sample_rate=sample_rate, seed=seed,
    )


def run_experiment(
    model: ModelSpec,
    sharder,
    topology: SystemTopology,
    batch_size: int,
    iterations: int = 5,
    profile: ModelProfile | None = None,
    trace_seed: int = 2024,
    shared_batches: list | None = None,
    vectorized: bool = True,
) -> ExperimentResult:
    """Run the full pipeline for one strategy.

    Args:
        model: workload spec.
        sharder: object with ``name`` and ``shard(model, profile, topology)``.
        topology: memory system.
        batch_size: samples per iteration.
        iterations: measured iterations.
        profile: pre-built profile (built analytically when omitted).
        trace_seed: seed of the evaluation trace (differs from the
            profiling seed, so plans are tested out of sample).
        shared_batches: pre-generated batches to reuse across strategies
            (guarantees every strategy sees identical traffic); may be
            jagged batches or a pre-ranked trace from the profile's
            :class:`~repro.engine.ranked.RankRemapper`.
        vectorized: executor mode (see :class:`ShardedExecutor`).
    """
    if profile is None:
        profile = analytic_profile(model)
    start = time.perf_counter()
    plan = sharder.shard(model, profile, topology)
    shard_seconds = time.perf_counter() - start

    if shared_batches is None:
        generator = TraceGenerator(model, batch_size=batch_size, seed=trace_seed)
        shared_batches = list(generator.batches(iterations))
    executor = ShardedExecutor(
        model, plan, profile, topology, vectorized=vectorized
    )
    metrics = executor.run(shared_batches)
    return ExperimentResult(
        strategy=sharder.name,
        model_name=model.name,
        plan=plan,
        metrics=metrics,
        shard_seconds=shard_seconds,
        metadata=dict(plan.metadata),
    )


def compare_strategies(
    model: ModelSpec,
    sharders: list,
    topology: SystemTopology,
    batch_size: int,
    iterations: int = 5,
    profile: ModelProfile | None = None,
    trace_seed: int = 2024,
    vectorized: bool = True,
) -> dict[str, ExperimentResult]:
    """Run several strategies over identical batches (Tables 3-5).

    In vectorized mode all strategies replay the common trace in one
    :func:`~repro.engine.executor.replay_trace` pass: each feature's
    lane codes are gathered once from one code table over every plan's
    edges (the tier half of the Section 4.3 remapping transform) and
    counted once per distinct edge, so per-strategy cost is reading
    off counts.
    """
    if profile is None:
        profile = analytic_profile(model)
    generator = TraceGenerator(model, batch_size=batch_size, seed=trace_seed)
    shared_batches = list(generator.batches(iterations))
    if not vectorized:
        results = {}
        for sharder in sharders:
            results[sharder.name] = run_experiment(
                model,
                sharder,
                topology,
                batch_size=batch_size,
                iterations=iterations,
                profile=profile,
                trace_seed=trace_seed,
                shared_batches=shared_batches,
                vectorized=False,
            )
        return results

    executors = []
    shard_times = []
    for sharder in sharders:
        start = time.perf_counter()
        plan = sharder.shard(model, profile, topology)
        shard_times.append(time.perf_counter() - start)
        executors.append(ShardedExecutor(model, plan, profile, topology))
    all_metrics = replay_trace(executors, shared_batches)
    return {
        sharder.name: ExperimentResult(
            strategy=sharder.name,
            model_name=model.name,
            plan=executor.plan,
            metrics=metrics,
            shard_seconds=shard_seconds,
            metadata=dict(executor.plan.metadata),
        )
        for sharder, executor, metrics, shard_seconds in zip(
            sharders, executors, all_metrics, shard_times
        )
    }


def speedup_table(results: dict[str, ExperimentResult]) -> dict[str, float]:
    """Figure 11's view: per-strategy speedup over the slowest strategy.

    Times are bound by the slowest GPU (max per-GPU average).
    """
    bounds = {
        name: result.metrics.bound_time_ms() for name, result in results.items()
    }
    slowest = max(bounds.values())
    return {name: slowest / bound for name, bound in bounds.items()}
