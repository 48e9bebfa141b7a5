"""Table 3: Min/Max/Mean/StdDev per-GPU EMB iteration times, 16 GPUs.

The paper's core result table: four sharding strategies on RM1/RM2/RM3.
Training throughput is bound by the slowest GPU (Max), and the StdDev
captures load balance.  Shape targets from the paper: RecShard's Max is
several times lower than every baseline on the UVM-pressured models,
and its StdDev is an order of magnitude lower throughout.

This bench also times the replay engine itself: the vectorized
lane-code path (one joint code table over every plan's cutoffs, one
gather per feature for all plans) against the per-feature scalar
reference, asserting
the >= 5x wall-clock speedup the vectorized engine exists to provide.
Both tests write into one ``BENCH_tab03.json``: the iteration stats,
plus the replay ``speedup`` and the absolute vectorized
``replay_lookups_per_s`` (lookups classified per second, all plans).
"""

import time

import numpy as np

from conftest import BENCH_BATCH, BENCH_ITERS, format_table, report, report_json
from repro.data.synthetic import TraceGenerator
from repro.engine import ShardedExecutor, replay_trace

PAPER_ROWS = {
    "RM1": {
        "Size-Based": "7.12/21.23/13.06/4.01",
        "Lookup-Based": "5.08/30.97/12.99/5.59",
        "Size-Based-Lookup": "5.55/26.03/12.91/4.72",
        "RecShard": "6.53/8.21/7.48/0.45",
    },
    "RM2": {
        "Size-Based": "20.52/49.65/33.82/7.37",
        "Lookup-Based": "10.40/55.85/32.47/9.87",
        "Size-Based-Lookup": "7.47/56.66/32.95/10.26",
        "RecShard": "6.52/9.44/7.75/0.78",
    },
    "RM3": {
        "Size-Based": "40.43/76.15/56.45/10.86",
        "Lookup-Based": "3.37/73.30/55.27/18.53",
        "Size-Based-Lookup": "5.10/85.01/56.04/20.39",
        "RecShard": "6.83/9.90/8.31/0.69",
    },
}

#: The session's ``BENCH_tab03.json`` payload; each test adds its keys
#: and rewrites the file, so either test alone still writes a report.
_REPORT: dict = {}


def _table3(headline) -> str:
    rows = []
    for model_name, results in headline.items():
        for strategy, result in results.items():
            rows.append(
                (
                    model_name,
                    strategy,
                    result.metrics.iteration_stats().as_row(),
                    PAPER_ROWS[model_name][strategy],
                )
            )
    table = format_table(
        ["Model", "Strategy", "measured Min/Max/Mean/Std (ms)", "paper (ms)"],
        rows,
    )
    note = (
        "Absolute milliseconds are simulated (scaled models, effective\n"
        "gather bandwidths); the comparisons that carry are per-model\n"
        "ratios: RecShard's Max and StdDev vs each baseline's."
    )
    return f"{table}\n\n{note}"


def test_table3_iteration_times(benchmark, headline):
    text = benchmark.pedantic(lambda: _table3(headline), rounds=1, iterations=1)
    report("tab03_iteration_times", text)
    _REPORT["iteration_stats_ms"] = {
        model_name: {
            strategy: {
                "min": stats.min, "max": stats.max,
                "mean": stats.mean, "std": stats.std,
            }
            for strategy, result in results.items()
            for stats in [result.metrics.iteration_stats()]
        }
        for model_name, results in headline.items()
    }
    report_json("tab03", _REPORT)
    # Shape assertions: under UVM pressure (RM2/RM3) RecShard is strictly
    # better balanced than every baseline; on RM1 (all-HBM) allow a small
    # slack — with few tables per GPU, balance is granularity-bound and
    # the best baseline can tie.
    for model_name, results in headline.items():
        slack = 1.25 if model_name == "RM1" else 1.0
        recshard = results["RecShard"].metrics.iteration_stats()
        for name, result in results.items():
            if name == "RecShard":
                continue
            baseline = result.metrics.iteration_stats()
            assert recshard.std <= baseline.std * slack + 1e-9


# Below this many lookups per batch, Python call overhead (not memory
# traffic) dominates both engines and the 5x ratio is not meaningful;
# smoke configurations only assert that vectorized is not slower.
FULL_SPEEDUP_MIN_LOOKUPS = 2_000_000


def test_trace_replay_speedup(models, profiles, topology, headline):
    """Vectorized trace replay is >= 5x faster than the scalar engine.

    Replays the RM2 evaluation trace against all four headline plans:
    scalar = one per-feature remap pass per strategy; vectorized = one
    :func:`replay_trace` pass (gather each feature's lane codes once from
    one code table over all four plans' edges, count once per distinct
    edge).  Best-of-two rounds on each side to shed scheduler noise.
    """
    model = models[1]
    profile = profiles[model.name]
    plans = [r.plan for r in headline[model.name].values()]
    generator = TraceGenerator(model, batch_size=BENCH_BATCH, seed=2024)
    batches = list(generator.batches(BENCH_ITERS))
    lookups = sum(b.total_lookups for b in batches)

    scalar_execs = [
        ShardedExecutor(model, p, profile, topology, vectorized=False)
        for p in plans
    ]
    vector_execs = [
        ShardedExecutor(model, p, profile, topology) for p in plans
    ]
    # Warm both paths (lazy remap tables, numpy internals, page cache).
    scalar_execs[0].run_batch(batches[0])
    replay_trace(vector_execs, batches[:1])

    scalar_s, vector_s = [], []
    reference = None
    for _ in range(2):
        start = time.perf_counter()
        scalar_metrics = [ex.run(batches) for ex in scalar_execs]
        scalar_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        vector_metrics = replay_trace(vector_execs, batches)
        vector_s.append(time.perf_counter() - start)
        reference = (scalar_metrics, vector_metrics)
    scalar_best, vector_best = min(scalar_s), min(vector_s)
    speedup = scalar_best / vector_best

    text = format_table(
        ["engine", "replay wall-clock (ms)", "lookups/s"],
        [
            ("scalar", f"{scalar_best * 1e3:.1f}",
             f"{len(plans) * lookups / scalar_best:.3g}"),
            ("vectorized", f"{vector_best * 1e3:.1f}",
             f"{len(plans) * lookups / vector_best:.3g}"),
        ],
    )
    text += (
        f"\n\n{model.name}, {len(plans)} strategies x {len(batches)} "
        f"batches of {BENCH_BATCH} ({lookups} lookups/trace): "
        f"vectorized speedup {speedup:.2f}x"
    )
    report("tab03_replay_speedup", text)
    _REPORT["speedup"] = speedup
    _REPORT["replay_lookups_per_s"] = len(plans) * lookups / vector_best
    report_json("tab03", _REPORT)

    # Identical metrics from both engines on the identical trace.
    for ms, mv in zip(*reference):
        np.testing.assert_allclose(ms.times_ms, mv.times_ms, rtol=1e-9)
        for tier in ms.tier_accesses:
            assert np.array_equal(ms.tier_accesses[tier], mv.tier_accesses[tier])
    if lookups / len(batches) >= FULL_SPEEDUP_MIN_LOOKUPS:
        assert speedup >= 5.0
    else:
        assert speedup >= 1.0
