"""Design-choice ablation: MILP encodings and the fast solver.

Not a paper table — this regenerates the evidence for this repo's two
documented design decisions (see DESIGN.md):

* the *convex* ICDF encoding replaces the paper's per-step binaries with
  linear cuts and must solve faster at equal quality;
* the *fast* waterfill+LPT solver must land within a few percent of the
  MILP's expected makespan while running orders of magnitude faster.

Runs on a reduced instance so the exact MILP finishes quickly.
"""

import time

from conftest import format_table, report
from repro import RecShardFastSharder, RecShardSharder, analytic_profile, paper_node
from repro.core.evaluate import expected_max_cost_ms
from repro.data.model import rm2

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
            )
        )
    table = format_table(
        ["Configuration", "solve time", "expected makespan", "status"], rows
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
