"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper.  The
expensive end-to-end comparison (RM1/RM2/RM3 x four sharding strategies
on the 16-GPU node) runs once per session and is shared by the benches
for Tables 3-5 and Figures 11-13.

Environment knobs (for slower machines):
    RECSHARD_BENCH_FEATURES   number of sparse features  (default 397)
    RECSHARD_BENCH_BATCH      batch size                 (default 2048)
    RECSHARD_BENCH_ITERS      measured iterations        (default 3)
    RECSHARD_BENCH_GPUS       simulated GPUs             (default 16)
    RECSHARD_BENCH_MILP_TIME  MILP budget per model, sec (default 15;
                              0 skips the MILP and uses the fast solver)

Reports: every bench appends its rendered table to
``benchmarks/reports/<bench>.txt`` so results survive pytest's output
capture.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

from repro import (
    RecShardFastSharder,
    RecShardSharder,
    compare_strategies,
    make_baseline,
    paper_node,
    rm1,
    rm2,
    rm3,
)
from repro.memory import paper_scales

REPORT_DIR = Path(__file__).parent / "reports"

BENCH_FEATURES = int(os.environ.get("RECSHARD_BENCH_FEATURES", 397))
BENCH_BATCH = int(os.environ.get("RECSHARD_BENCH_BATCH", 2048))
BENCH_ITERS = int(os.environ.get("RECSHARD_BENCH_ITERS", 3))
BENCH_GPUS = int(os.environ.get("RECSHARD_BENCH_GPUS", 16))
BENCH_MILP_TIME = float(os.environ.get("RECSHARD_BENCH_MILP_TIME", 15))

BASELINE_NAMES = ("Size-Based", "Lookup-Based", "Size-Based-Lookup")


def recshard_sharder(batch_size: int = BENCH_BATCH, **kwargs):
    """The RecShard configuration the benchmarks evaluate."""
    if BENCH_MILP_TIME <= 0:
        return RecShardFastSharder(batch_size=batch_size, name="RecShard", **kwargs)
    return RecShardSharder(
        batch_size=batch_size,
        steps=100,
        time_limit=BENCH_MILP_TIME,
        mip_gap=0.03,
        name="RecShard",
        **kwargs,
    )


def report(name: str, text: str) -> None:
    """Print a bench's table and persist it under benchmarks/reports/.

    The workload shape knobs are stamped into the header so a report
    regenerated under shrink settings is never mistaken for (or diffed
    against) a default-scale run.
    """
    REPORT_DIR.mkdir(exist_ok=True)
    knobs = (
        f"[workload: features={BENCH_FEATURES} batch={BENCH_BATCH} "
        f"iters={BENCH_ITERS} gpus={BENCH_GPUS} milp_time={BENCH_MILP_TIME:g}]"
    )
    banner = f"\n===== {name} =====\n{knobs}\n{text}\n"
    print(banner)
    (REPORT_DIR / f"{name}.txt").write_text(f"{knobs}\n{text}\n")


def report_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable bench result as ``BENCH_<name>.json``.

    Written next to the text reports so the perf trajectory (speedups,
    QPS, wall-clocks) can be tracked across PRs by tooling instead of
    by parsing tables.  The workload shape knobs, the Python version
    and the host's CPU count are stamped in so a number is never
    compared across different shrink configurations or hosts by
    accident.
    """
    REPORT_DIR.mkdir(exist_ok=True)
    document = {
        "bench": name,
        "workload": {
            "features": BENCH_FEATURES,
            "batch": BENCH_BATCH,
            "iters": BENCH_ITERS,
            "gpus": BENCH_GPUS,
            "milp_time": BENCH_MILP_TIME,
        },
        "python": platform.python_version(),
        "host_cpus": os.cpu_count() or 1,
        **payload,
    }
    path = REPORT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


# Capacity regimes must track the shrink knobs: scaling features (and
# GPUs) without scaling tier capacities would change which models fit
# in HBM.  Shared with the CLI's _build_world.
TOPO_SCALE, ROW_SCALE = paper_scales(BENCH_FEATURES, BENCH_GPUS)


def build_models():
    return [
        rm1(num_features=BENCH_FEATURES, row_scale=ROW_SCALE),
        rm2(num_features=BENCH_FEATURES, row_scale=ROW_SCALE),
        rm3(num_features=BENCH_FEATURES, row_scale=ROW_SCALE),
    ]


@pytest.fixture(scope="session")
def topology():
    return paper_node(num_gpus=BENCH_GPUS, scale=TOPO_SCALE)


@pytest.fixture(scope="session")
def models():
    return build_models()


@pytest.fixture(scope="session")
def profiles(models):
    """Trace-sampled profiles (Section 4.1), as in the paper.

    Profiling a finite sample leaves the distribution tail unseen;
    those rows rank dead-last and land in UVM, which is exactly why the
    paper's RecShard still sources a fraction of a percent of accesses
    from UVM at runtime (Tables 5-6).  The evaluation traces use a
    different seed, so plans are always tested out of sample.
    """
    from repro.data.synthetic import TraceGenerator
    from repro.stats import profile_trace

    profiles = {}
    for model in models:
        generator = TraceGenerator(model, batch_size=8192, seed=123)
        profiles[model.name] = profile_trace(
            model, generator, num_batches=3, sample_rate=1.0, seed=123
        )
    return profiles


@pytest.fixture(scope="session")
def headline(models, profiles, topology):
    """The paper's core experiment: all strategies on RM1/RM2/RM3.

    Returns {model_name: {strategy: ExperimentResult}}.
    """
    all_results = {}
    for model in models:
        sharders = [make_baseline(name) for name in BASELINE_NAMES]
        sharders.append(recshard_sharder())
        all_results[model.name] = compare_strategies(
            model,
            sharders,
            topology,
            batch_size=BENCH_BATCH,
            iterations=BENCH_ITERS,
            profile=profiles[model.name],
        )
    return all_results


def format_table(headers, rows) -> str:
    """Plain-text table renderer used by every bench."""
    columns = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in columns) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(columns):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
