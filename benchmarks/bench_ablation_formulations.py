"""Design-choice ablation: MILP encodings and the fast solver.

Not a paper table — this regenerates the evidence for this repo's two
documented design decisions (see DESIGN.md):

* the *convex* ICDF encoding replaces the paper's per-step binaries with
  linear cuts and must solve faster at equal quality;
* the *fast* waterfill+LPT solver must land within a few percent of the
  MILP's expected makespan while running orders of magnitude faster.

Runs on a reduced instance so the exact MILP finishes quickly.  Each
row names the plan it reports (``solver``: the MILP incumbent, or
``fast-beat-milp`` when the fast plan won the race) and the MILP's
branch-and-bound node count.

``test_bench_scale_build`` builds, without solving, the convex and step
models at recbench's serve world and checks them against pinned array
digests.
"""

import time

import pytest

from conftest import format_table, report
from repro import (
    PlannerWorkspace,
    RecShardFastSharder,
    RecShardSharder,
    analytic_profile,
    paper_node,
)
from repro.core.evaluate import expected_max_cost_ms
from repro.core.formulation import build_milp
from repro.data.model import rm2
from repro.memory import paper_scales
from tests.test_core.test_formulation import problem_digest

FEATURES = 40
GPUS = 4
BATCH = 1024


def _ablation() -> tuple[str, dict]:
    # The paper's UVM-pressure regime (RM2 on 16 GPUs: ~60% fits in HBM)
    # is preserved at 4 GPUs by scaling the model rows by GPUS/16 on top
    # of the per-feature scale.
    topo_scale = 1e-3 * FEATURES / 397
    model = rm2(num_features=FEATURES, row_scale=topo_scale * GPUS / 16)
    topology = paper_node(num_gpus=GPUS, scale=topo_scale)
    profile = analytic_profile(model)

    configs = [
        ("MILP convex", RecShardSharder(
            batch_size=BATCH, steps=20, formulation="convex",
            time_limit=45, mip_gap=0.02)),
        ("MILP step (paper)", RecShardSharder(
            batch_size=BATCH, steps=20, formulation="step",
            time_limit=45, mip_gap=0.03)),
        ("fast waterfill+LPT", RecShardFastSharder(batch_size=BATCH, steps=20)),
    ]
    rows = []
    costs = {}
    for label, sharder in configs:
        start = time.perf_counter()
        plan = sharder.shard(model, profile, topology)
        elapsed = time.perf_counter() - start
        cost = expected_max_cost_ms(plan, model, profile, topology, BATCH)
        costs[label] = cost
        rows.append(
            (
                label,
                f"{elapsed:.2f}s",
                f"{cost:.4f} ms",
                str(plan.metadata.get("milp_status", "-")),
                plan.metadata["solver"],
                str(plan.metadata.get("nodes", "-")),
            )
        )
    table = format_table(
        ["Configuration", "solve time", "expected makespan", "status",
         "plan", "MILP nodes"],
        rows,
    )
    return table, costs


def test_formulation_ablation(benchmark):
    text, costs = benchmark.pedantic(_ablation, rounds=1, iterations=1)
    report("ablation_formulations", text)
    # On this deliberately small instance the joint split+assignment
    # optimization is worth real percentage points - the MILP must win
    # or tie, and the convex encoding must not lose to the step one.
    # (At full 397-table scale the heuristic beats the time-limited
    # MILP, by 39-52% at a 15 s budget on a 2-CPU host, which is why
    # RecShardSharder races both and keeps the better plan.)
    assert costs["MILP convex"] <= costs["fast waterfill+LPT"] * 1.001
    assert costs["MILP convex"] <= costs["MILP step (paper)"] * 1.02
    assert costs["fast waterfill+LPT"] <= costs["MILP convex"] * 1.5


@pytest.mark.parametrize(
    "formulation, digest, shape",
    [
        ("convex", "e17c0db2640bfb45", (19851, 65518, 204768)),
        ("step", "8ff04316dd58f95a", (59948, 39763, 271167)),
    ],
)
def test_bench_scale_build(formulation, digest, shape):
    # RM2 at 397 features on 16 GPUs, steps 100, batch 2048: fixed
    # constants, not the RECSHARD_BENCH_* knobs.  The digests were taken
    # from the modelling-language build the array build replaced.
    topo_scale, row_scale = paper_scales(397, 16)
    model = rm2(num_features=397, row_scale=row_scale)
    workspace = PlannerWorkspace(model, analytic_profile(model), steps=100)
    problem = build_milp(
        workspace, paper_node(num_gpus=16, scale=topo_scale),
        batch_size=2048, formulation=formulation,
    ).problem
    assert (problem.num_vars, problem.num_rows, problem.matrix.nnz) == shape
    assert problem_digest(problem) == digest
