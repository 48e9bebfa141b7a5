"""Planner throughput: the workspace engine vs the scalar heapq oracle.

Not a paper figure — the planner-side counterpart of the replay and
serving speedup gates.  RecShard's premise (Section 4.2) is that
sharding decisions are cheap enough to recompute from statistics; this
bench pins down how cheap, and guards the property the vectorized
engine exists to provide:

* **plan parity** — for every workload (the three paper models plus
  trace-profiled seeds), the shipped sharder must produce exactly the
  plan of the heapq oracle
  (``tests.oracles.planner.ScalarFastSharder``): identical
  ``rows_per_tier`` and device homes, table for table, cold and
  warm-started.
* **throughput** — repeated shards through the workspace path (one
  :class:`PlannerWorkspace` built inside the timed region, reused
  across calls) must run ≥ ``MIN_PLANNER_SPEEDUP`` × faster than the
  oracle, which re-derives its ICDF state per call the way the
  pre-workspace pipeline did.
* **replans and sweeps** — the drift-replan pattern (refresh the
  workspace in place from a new profile, warm-start from the outgoing
  plan) and the ``shard_sweep`` grid are timed so their costs stay
  visible across PRs.

Headline numbers land machine-readable in
``reports/BENCH_planner.json`` next to the serving and replay gates.
"""

import os
import time

from conftest import BENCH_BATCH, BENCH_GPUS, format_table, report, report_json
from repro.core import PlannerWorkspace, RecShardFastSharder, shard_sweep
from repro.data.synthetic import TraceGenerator
from repro.stats import profile_trace
from tests.oracles.planner import ScalarFastSharder

# Shards per timed run; best of two runs per path.
ROUNDS = int(os.environ.get("RECSHARD_BENCH_PLANNER_ROUNDS", 5))
MIN_PLANNER_SPEEDUP = float(
    os.environ.get("RECSHARD_BENCH_MIN_PLANNER_SPEEDUP", 10.0)
)
PARITY_SEEDS = (11, 12, 13)


def _plans_identical(a, b) -> bool:
    return all(
        x.rows_per_tier == y.rows_per_tier and x.device == y.device
        for x, y in zip(a, b)
    )


def _sharders():
    scalar = ScalarFastSharder(batch_size=BENCH_BATCH, name="RecShard")
    fast = RecShardFastSharder(batch_size=BENCH_BATCH, name="RecShard")
    return scalar, fast


def test_planner_plan_parity(models, profiles, topology):
    """Shipped ↔ oracle plan equality on every workload and seed."""
    scalar, fast = _sharders()
    checked = 0
    for model in models:
        seeds = {None: profiles[model.name]}
        if model is models[1]:  # RM2 also gets out-of-sample trace profiles
            for seed in PARITY_SEEDS:
                generator = TraceGenerator(model, batch_size=4096, seed=seed)
                seeds[seed] = profile_trace(
                    model, generator, num_batches=2, sample_rate=1.0, seed=seed
                )
        previous = None
        for seed, profile in seeds.items():
            plan_scalar = scalar.shard(
                model, profile, topology, warm_start=previous
            )
            workspace = PlannerWorkspace(model, profile, steps=fast.steps)
            plan_fast = fast.shard(
                model, profile, topology,
                warm_start=previous, workspace=workspace,
            )
            assert _plans_identical(plan_scalar, plan_fast), (
                f"{model.name} seed={seed}: vectorized plan diverged"
            )
            previous = plan_scalar  # next seed replans warm-started
            checked += 1
    print(f"plan parity: {checked} (model, seed) pairs identical")


def test_planner_throughput(models, profiles, topology):
    model = models[1]  # RM2: the UVM-pressured regime
    profile = profiles[model.name]
    scalar, fast = _sharders()

    def run_scalar():
        start = time.perf_counter()
        for _ in range(ROUNDS):
            plan = scalar.shard(model, profile, topology)
        return time.perf_counter() - start, plan

    def run_fast():
        # The workspace build is paid inside the timed region and
        # amortized over the round's shards — the planner's deployment
        # pattern (one profile, many plans).
        start = time.perf_counter()
        workspace = PlannerWorkspace(model, profile, steps=fast.steps)
        for _ in range(ROUNDS):
            plan = fast.shard(model, profile, topology, workspace=workspace)
        return time.perf_counter() - start, plan

    run_scalar(), run_fast()  # warm numpy internals and profile CDFs
    scalar_s, fast_s = [], []
    for _ in range(2):
        elapsed, plan_scalar = run_scalar()
        scalar_s.append(elapsed)
        elapsed, plan_fast = run_fast()
        fast_s.append(elapsed)
    scalar_best, fast_best = min(scalar_s), min(fast_s)
    speedup = scalar_best / fast_best
    assert _plans_identical(plan_scalar, plan_fast)

    # Drift replan: refresh the workspace in place from an "observed"
    # profile and warm-start from the outgoing plan (the serving path).
    generator = TraceGenerator(model, batch_size=4096, seed=2024)
    observed = profile_trace(
        model, generator, num_batches=2, sample_rate=1.0, seed=2024
    )
    workspace = PlannerWorkspace(model, profile, steps=fast.steps)
    fast.shard(model, profile, topology, workspace=workspace)
    start = time.perf_counter()
    workspace.refresh(observed)
    warm_plan = fast.shard(
        model, observed, topology,
        warm_start=plan_fast, workspace=workspace,
    )
    replan_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    scalar_warm = scalar.shard(model, observed, topology, warm_start=plan_scalar)
    scalar_replan_ms = (time.perf_counter() - start) * 1e3
    assert _plans_identical(scalar_warm, warm_plan)

    # Budget sweep over the shared workspace (repro plan --sweep).
    workspace.refresh(profile)
    budgets = (0.5, 0.75, 1.0, 1.5)
    start = time.perf_counter()
    sweep_plans = shard_sweep(
        workspace, sharder=fast, budgets=budgets, base_topology=topology
    )
    sweep_ms = (time.perf_counter() - start) * 1e3
    assert len(sweep_plans) == len(budgets)

    table = format_table(
        ["planner path", "wall (ms, best of 2)", "plans/s"],
        [
            ("scalar (heapq reference)", f"{scalar_best * 1e3:.1f}",
             f"{ROUNDS / scalar_best:.2f}"),
            ("vectorized (workspace)", f"{fast_best * 1e3:.1f}",
             f"{ROUNDS / fast_best:.2f}"),
        ],
    )
    text = (
        f"{model.name} on {BENCH_GPUS} GPUs, {ROUNDS} shards per round\n\n"
        f"{table}\n\n"
        f"sharding speedup {speedup:.2f}x (floor {MIN_PLANNER_SPEEDUP:g}x), "
        f"plans identical\n"
        f"warm-started drift replan (refresh + shard): {replan_ms:.1f} ms "
        f"(scalar reference: {scalar_replan_ms:.1f} ms)\n"
        f"HBM budget sweep {budgets}: {sweep_ms:.1f} ms total, "
        f"{sweep_ms / len(budgets):.1f} ms/plan"
    )
    report("planner", text)
    report_json(
        "planner",
        {
            "rounds": ROUNDS,
            "scalar_wall_s": scalar_best,
            "fast_wall_s": fast_best,
            "scalar_plans_per_s": ROUNDS / scalar_best,
            "fast_plans_per_s": ROUNDS / fast_best,
            "speedup": speedup,
            "speedup_floor": MIN_PLANNER_SPEEDUP,
            "parity": "exact",
            "warm_replan_ms": replan_ms,
            "scalar_warm_replan_ms": scalar_replan_ms,
            "sweep_budgets": list(budgets),
            "sweep_ms_total": sweep_ms,
            "sweep_ms_per_plan": sweep_ms / len(budgets),
        },
    )
    assert speedup >= MIN_PLANNER_SPEEDUP
