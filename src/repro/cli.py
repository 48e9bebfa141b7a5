"""Command-line interface: profile, plan, replay, and serve from a shell.

Examples::

    python -m repro characterize --model rm1
    python -m repro plan --model rm2 --gpus 16 --milp-time 15
    python -m repro plan --model rm2 --sweep hbm=0.5,1,2
    python -m repro plan --model rm2 --sweep gpus=8,16,32
    python -m repro plan --model rm3 --sweep tiers=2,3,4
    python -m repro plan --model rm2 --replicate-gib 1
    python -m repro plan --model rm2 --sweep replicate=0,0.5,1,2
    python -m repro plan --model rm2 --strategies auto
    python -m repro plan --model rm2 --sweep strategies=row,column,table,auto
    python -m repro plan --model rm2 --precisions uvm=fp16
    python -m repro plan --model rm2 --sweep precisions=fp32,fp16,int8,int4
    python -m repro compare --model rm3 --features 97 --gpus 8 --iters 3
    python -m repro replay --model rm2 --iters 3
    python -m repro serve --model rm2 --qps 20000 --requests 4000
    python -m repro serve --model rm3 --tiers hbm,dram:8,ssd --staging-gib 2
    python -m repro serve --model rm3 --tiers hbm,dram:8,ssd \
        --precisions dram=fp16,ssd=int8
    python -m repro serve --model rm2 --replicate-gib 1
    python -m repro serve --model rm2 --workers 4 --requests 20000
    python -m repro serve --model rm2 --workers 2 --paced --burst \
        --qps 30000 --queue-depth 2
    python -m repro serve --model rm2 --burst --drift-months 6
    python -m repro serve --model rm2 --replicate-gib 1 \
        --chaos fail@250:1,recover@900:1
    python -m repro serve --model rm2 --workers 2 --chaos kill@100:0
    python -m repro serve --model rm2 --slo-ms 5 --deadline-ms 8 \
        --priorities gold=0.1,silver=0.3,bronze=0.6
    python -m repro serve --model rm3 --tiers hbm,dram:8,ssd \
        --slo-ms 5 --brownout --report-json metrics.json

Every flag is checked once, by its argparse ``type``: numbers must be
finite and in range, spec strings must parse.  Rules that span flags or
need the built world (tier names, chaos targets, plan feasibility) end
the same way, through :func:`main`: exit status 2 with the flag named.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

from repro.baselines import make_baseline
from repro.core import (
    MultiTierSharder,
    PlanError,
    PlannerWorkspace,
    RecShardFastSharder,
    RecShardSharder,
    ReplicationPolicy,
    build_replication,
    carve_replica_budget,
    plan_with_replication,
    plan_with_strategies,
    resolve_strategy_kinds,
    shard_sweep,
)
from repro.data.drift import DriftModel
from repro.data.model import rm1, rm2, rm3
from repro.data.synthetic import TraceGenerator
from repro.engine import ShardedExecutor, TierStagingModel, compare_strategies
from repro.engine.harness import speedup_table
from repro.memory import (
    GIB,
    TIER_LADDER,
    node_from_tier_names,
    paper_node,
    paper_scales,
    parse_precisions_spec,
    tier_ladder_node,
)
from repro.serving import (
    BurstyArrivals,
    LookupServer,
    MultiProcessServer,
    OverloadControl,
    ServingConfig,
    parse_chaos_spec,
    parse_priority_spec,
    synthetic_request_arenas,
)
from repro.stats import analytic_profile
from repro.stats.summary import characterization_summary, format_summary

_MODELS = {"rm1": rm1, "rm2": rm2, "rm3": rm3}


def _at_least(minimum, cast=int, above=False):
    """An argparse ``type`` for a finite number ``>= minimum`` (``>``
    when ``above``); NaN and ±inf are rejected like any other value."""
    bound = f"{'>' if above else '>='} {minimum}"

    def parse(text):
        value = cast(text)
        if not math.isfinite(value) or value < minimum or (
            above and value == minimum
        ):
            raise argparse.ArgumentTypeError(
                f"must be finite and {bound}, got {text}"
            )
        return value

    parse.__name__ = cast.__name__  # argparse names it in its errors
    return parse


_POSITIVE = _at_least(0, float, above=True)
_NON_NEGATIVE = _at_least(0, float)


def _spec(parse):
    """An argparse ``type`` from a spec parser that raises ``ValueError``,
    keeping the parser's message (argparse would replace it)."""

    def adapt(text):
        try:
            return parse(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from error

    adapt.__name__ = parse.__name__
    return adapt


@contextlib.contextmanager
def _blame(flag):
    """Report a ``ValueError`` (``PlanError`` included) raised in the
    block as a bad ``flag``; :func:`main` turns it into exit status 2."""
    try:
        yield
    except ValueError as error:
        raise argparse.ArgumentError(None, f"{flag}: {error}") from error


def _parse_sweep(spec: str):
    """Parse ``hbm=…`` / ``gpus=…`` / ``tiers=…`` / ``replicate=…`` /
    ``strategies=…`` / ``precisions=…`` grids.

    Float grids (``hbm``, ``replicate``) are validated up front by
    :func:`~repro.core.workspace.validate_scale_grid` inside
    ``shard_sweep``; integer grids are checked here so a bad point
    fails at parse time with the offending value named, not deep in
    the waterfill.
    """
    kind, _, values = spec.partition("=")
    if (
        kind
        not in ("hbm", "gpus", "tiers", "replicate", "strategies", "precisions")
        or not values
    ):
        raise ValueError(
            f"--sweep expects hbm=<scales>, gpus=<counts>, "
            f"tiers=<counts>, replicate=<GiB>, "
            f"strategies=<kinds>, or precisions=<names>, got {spec!r}"
        )
    if kind in ("hbm", "replicate"):
        return kind, [float(v) for v in values.split(",")]
    if kind in ("strategies", "precisions"):
        return kind, [v.strip() for v in values.split(",") if v.strip()]
    parsed = [int(v) for v in values.split(",")]
    limit = len(TIER_LADDER) if kind == "tiers" else math.inf
    for value in parsed:
        if not 1 <= value <= limit:
            raise ValueError(
                f"sweep point {kind}={value}: grid values must be >= 1"
                + (f" and <= {limit}" if kind == "tiers" else "")
            )
    return kind, parsed


#: The MILP budget (seconds) of every planning command but ``plan``.
_MILP_TIME = 15.0

#: Flags shared by several subcommands, each declared once: every
#: subcommand takes the first five (:data:`_COMMON`), and the planner
#: flags after them go to the subcommands that plan.
_FLAGS = {
    "--model": dict(
        choices=sorted(_MODELS), default="rm2",
        help="workload from Table 2 (default: rm2)",
    ),
    "--features": dict(
        type=_at_least(1), default=397,
        help="number of sparse features (default: the paper's 397)",
    ),
    "--gpus": dict(
        type=_at_least(1), default=16, help="simulated GPUs (default: 16)"
    ),
    "--batch": dict(
        type=_at_least(1), default=2048, help="batch size (default: 2048)"
    ),
    "--seed": dict(
        type=_at_least(0), default=7, help="feature population seed"
    ),
    "--steps": dict(
        type=_at_least(1), default=100,
        help="ICDF discretization steps (default: 100)",
    ),
    "--reclaim-dead": dict(
        action="store_true",
        help="do not charge never-accessed rows to UVM",
    ),
    "--formulation": dict(
        choices=("convex", "step"), default=None,
        help="MILP formulation (default: convex); needs --milp-time > 0",
    ),
    "--milp-time": dict(
        type=_NON_NEGATIVE, default=_MILP_TIME,
        help="MILP budget in seconds; 0 = fast solver only (default: "
             f"{_MILP_TIME:g}; plan: 0)",
    ),
    "--replicate-gib": dict(
        type=_NON_NEGATIVE, default=0.0,
        help="per-GPU (paper-scale) GiB of the fastest tier carved out "
             "for replicas of the globally hottest rows, routed to the "
             "least-loaded GPU per lookup (default: off)",
    ),
    "--precisions": dict(
        type=_spec(parse_precisions_spec), default=None, metavar="SPEC",
        help="per-tier storage precisions as tier=precision pairs, e.g. "
             "uvm=fp16 or dram=fp16,ssd=int8 (fp32, fp16, int8, int4); "
             "quantized tiers admit more rows under the same byte budget",
    ),
}
_COMMON = ("--model", "--features", "--gpus", "--batch", "--seed")
_SHARDER = _COMMON + ("--steps", "--reclaim-dead", "--formulation", "--milp-time")
_PLANNER = _SHARDER + ("--replicate-gib", "--precisions")


def _build_world(args):
    """Model + topology with capacity regimes matched to the paper.

    ``--tiers`` (where the subcommand offers it) swaps the default
    two-tier node for an arbitrary preset hierarchy, capacity-scaled
    with the same knobs.
    """
    topo_scale, row_scale = paper_scales(args.features, args.gpus)
    model = _MODELS[args.model](
        num_features=args.features, row_scale=row_scale, seed=args.seed
    )
    tiers = getattr(args, "tiers", None)
    if tiers:
        with _blame("--tiers"):
            topology = node_from_tier_names(
                tiers, num_gpus=args.gpus, scale=topo_scale
            )
    else:
        topology = paper_node(num_gpus=args.gpus, scale=topo_scale)
    precisions = getattr(args, "precisions", None)
    if precisions:
        with _blame("--precisions"):
            topology = topology.with_precisions(precisions)
    return model, topology


def _cmd_characterize(args) -> int:
    model, _ = _build_world(args)
    profile = analytic_profile(model)
    print(f"characterization of {model.name} "
          f"({model.num_tables} features, {model.total_bytes / 2**20:.0f} MiB):")
    print(format_summary(characterization_summary(profile)))
    return 0


def _make_recshard(args):
    """The fast sharder, or the Section 4.2 MILP when --milp-time > 0
    (``serve`` leaves an unset --milp-time at the default)."""
    common = dict(
        batch_size=args.batch, steps=args.steps,
        reclaim_dead=args.reclaim_dead, name="RecShard",
    )
    milp_time = _MILP_TIME if args.milp_time is None else args.milp_time
    if milp_time <= 0:
        if args.formulation is not None:
            raise argparse.ArgumentError(
                None, "--formulation picks the MILP formulation; it needs "
                      "--milp-time > 0 (0 runs the fast sharder)"
            )
        return RecShardFastSharder(**common)
    return RecShardSharder(
        formulation=args.formulation or "convex",
        time_limit=milp_time, **common,
    )


def _print_replicas(plan, summary: dict, gib: float) -> None:
    if plan.replica_rows is not None:
        print(f"  replicated rows: {summary['replicated_rows']} "
              f"(from {summary['replicated_tables']} tables, "
              f"budget {gib:g} GiB/GPU paper-scale)")
        print(f"  replica bytes/GPU: "
              f"{summary['max_replica_bytes_per_device']} max of "
              f"{summary['budget_bytes_per_device']} budgeted")


def _cmd_plan(args) -> int:
    """One plan (fast sharder or MILP), a per-table strategy plan, or a
    ``--sweep`` grid over one shared planner workspace."""
    if args.milp_time > 0 and (args.sweep or args.strategies):
        raise argparse.ArgumentError(
            None, "--milp-time > 0 solves one plan with the MILP; --sweep "
                  "and --strategies need the fast sharder (--milp-time 0)"
        )
    if args.strategies and args.sweep:
        raise argparse.ArgumentError(
            None, "--strategies builds one plan; use --sweep "
                  "strategies=... for a strategy grid"
        )
    if args.sweep and args.replicate_gib > 0:
        raise argparse.ArgumentError(
            None, "--replicate-gib builds one replicated plan; use --sweep "
                  "replicate=... for a replica budget grid"
        )
    if args.precisions and args.sweep and args.sweep[0] in (
        "tiers", "gpus", "precisions"
    ):
        raise argparse.ArgumentError(
            None, f"--precisions does not apply to --sweep "
                  f"{args.sweep[0]}=...: that grid sets its own "
                  f"topologies or precisions"
        )
    model, topology = _build_world(args)
    profile = analytic_profile(model)
    sharder = _make_recshard(args)
    topo_scale = paper_scales(args.features, args.gpus)[0]
    start = time.perf_counter()
    # Budgets are specified at paper scale, like every other capacity
    # knob, and shrunk with the topology.
    policy = ReplicationPolicy(
        capacity_bytes=int(args.replicate_gib * GIB * topo_scale)
    )
    if args.strategies:
        workspace = PlannerWorkspace(model, profile, steps=args.steps)
        with _blame("--replicate-gib"):
            carved = carve_replica_budget(topology, policy)
        with _blame("--strategies"):
            plan = plan_with_strategies(
                sharder, model, profile, carved,
                strategies=args.strategies, workspace=workspace,
            )
        if policy.capacity_bytes > 0:
            plan = build_replication(policy, plan, profile, model, topology)
        build_ms = (time.perf_counter() - start) * 1e3
        summary = plan.summary(model, topology)
        counts = plan.strategy_counts()
        mix = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        print(f"strategy plan for {model.name} on {args.gpus} GPUs "
              f"(kinds: {','.join(args.strategies)}):")
        print(f"  per-table strategies: {mix}")
        print(f"  split tables: {summary['split_tables']}")
        print(f"  rows on UVM: {summary['uvm_row_fraction']:.1%}")
        print(f"  row-only est. max GPU cost: "
              f"{plan.metadata['row_only_max_cost_ms']:.4f} ms")
        print(f"  estimated max GPU cost: "
              f"{plan.metadata['estimated_max_cost_ms']:.4f} ms")
        _print_replicas(plan, summary, args.replicate_gib)
        print(f"  plan build wall-clock: {build_ms:.1f} ms")
        return 0
    if not args.sweep:
        if args.replicate_gib > 0:
            with _blame("--replicate-gib"):
                plan = plan_with_replication(
                    sharder, model, profile, topology, policy
                )
        else:
            plan = sharder.shard(model, profile, topology)
        build_ms = (time.perf_counter() - start) * 1e3
        plan.validate(model, topology)
        summary = plan.summary(model, topology)
        meta = plan.metadata
        engine = (
            f"solver: {meta.get('solver', '-')}" if args.milp_time > 0
            else "vectorized planner"
        )
        print(f"plan for {model.name} on {args.gpus} GPUs ({engine}):")
        print(f"  rows on UVM: {summary['uvm_row_fraction']:.1%}")
        print(f"  estimated max GPU cost: "
              f"{meta['estimated_max_cost_ms']:.4f} ms")
        print(f"  tables per GPU: {summary['tables_per_device']}")
        _print_replicas(plan, summary, args.replicate_gib)
        if "objective_ms" in meta:
            print(f"  MILP objective: {meta['objective_ms']:.4f} ms "
                  f"({meta.get('milp_status')}, "
                  f"{meta.get('solve_seconds', 0):.1f}s)")
        print(f"  plan build wall-clock: {build_ms:.1f} ms")
        return 0
    kind, values = args.sweep
    if kind == "tiers":
        # Tier-count grid (Section 4.4): every point is a prefix of the
        # preset tier ladder, solved by the multi-tier greedy.
        sharder = MultiTierSharder(batch_size=args.batch, steps=args.steps)
        grid = {
            "topologies": [
                tier_ladder_node(t, num_gpus=args.gpus, scale=topo_scale)
                for t in values
            ],
            "labels": [f"tiers={t}" for t in values],
        }
    elif kind == "gpus":
        grid = {"topologies": [
            paper_node(num_gpus=g, scale=paper_scales(args.features, g)[0])
            for g in values
        ]}
    else:
        # hbm: HBM budget multiples.  replicate: each point carves its
        # budget out of HBM and spends it on replicas of the globally
        # hottest rows.  strategies: one strategy family (plus the row
        # fallback) per point.  precisions: every tier past the fastest
        # at one encoding (fp32 is the unquantized point).
        key = {"hbm": "budgets", "replicate": "replicate_gib"}.get(kind, kind)
        grid = {
            key: values, "base_topology": topology,
            "replicate_scale": topo_scale,
        }
    workspace = PlannerWorkspace(model, profile, steps=args.steps)
    try:
        plans = shard_sweep(workspace, sharder=sharder, **grid)
    except PlanError as error:
        # The model is row-scaled to --gpus (see _build_world); grid
        # points with much less aggregate capacity can be genuinely
        # infeasible.
        raise argparse.ArgumentError(
            None, f"--sweep: {error} (the workload is sized for --gpus "
                  f"{args.gpus}; smaller grid points may not fit it)"
        ) from error
    elapsed_ms = (time.perf_counter() - start) * 1e3
    print(f"{kind} sweep for {model.name} "
          f"({len(plans)} plans, one shared workspace):")
    print(f"{'point':>16}  {'off-HBM rows':>12}  {'est. max GPU ms':>15}")
    for plan in plans:
        total_rows = sum(p.total_rows for p in plan)
        spilled = 1.0 - plan.tier_rows_total(0) / total_rows if total_rows else 0.0
        print(f"{plan.metadata['sweep_key']:>16}  {spilled:>12.1%}  "
              f"{plan.metadata['estimated_max_cost_ms']:>15.4f}")
    print(f"sweep wall-clock: {elapsed_ms:.1f} ms "
          f"({elapsed_ms / len(plans):.1f} ms/plan incl. workspace build)")
    return 0


def _cmd_compare(args) -> int:
    model, topology = _build_world(args)
    profile = analytic_profile(model)
    sharders = [
        make_baseline("Size-Based"),
        make_baseline("Lookup-Based"),
        make_baseline("Size-Based-Lookup"),
        _make_recshard(args),
    ]
    results = compare_strategies(
        model, sharders, topology,
        batch_size=args.batch, iterations=args.iters, profile=profile,
    )
    print(f"{model.name} on {args.gpus} GPUs, batch {args.batch}, "
          f"{args.iters} iterations:")
    print(f"{'strategy':>20}  {'min/max/mean/std (ms)':>28}  {'UVM share':>9}")
    for name, result in results.items():
        stats = result.metrics.iteration_stats()
        uvm = result.metrics.tier_access_fraction("uvm")
        print(f"{name:>20}  {stats.as_row():>28}  {uvm:>9.2%}")
    speedups = speedup_table(results)
    next_best = max(v for k, v in speedups.items() if k != "RecShard")
    print(f"\nRecShard speedup vs slowest:   {speedups['RecShard']:.2f}x")
    print(f"RecShard speedup vs next best: "
          f"{speedups['RecShard'] / next_best:.2f}x")
    return 0


def _cmd_replay(args) -> int:
    """Replay a seeded trace against one plan and time the engine itself."""
    model, topology = _build_world(args)
    profile = analytic_profile(model)
    plan = _make_recshard(args).shard(model, profile, topology)
    executor = ShardedExecutor(model, plan, profile, topology)
    generator = TraceGenerator(model, batch_size=args.batch, seed=2024)
    batches = list(generator.batches(args.iters))
    executor.run_batch(batches[0])  # warm caches and lazy structures
    start = time.perf_counter()
    metrics = executor.run(batches)
    elapsed = time.perf_counter() - start
    lookups = sum(b.total_lookups for b in batches)
    stats = metrics.iteration_stats()
    print(f"replayed {args.iters} x {args.batch} samples of {model.name} "
          f"on {args.gpus} GPUs (vectorized engine):")
    print(f"  simulated per-GPU ms min/max/mean/std: {stats.as_row()}")
    print(f"  UVM access share: {metrics.tier_access_fraction('uvm'):.2%}")
    print(f"  replay wall-clock: {elapsed * 1e3:.1f} ms "
          f"({lookups / max(elapsed, 1e-9):.3g} lookups/s)")
    return 0


def _cmd_serve(args) -> int:
    """Run a seeded synthetic serving workload and report QPS/latency."""
    if args.workers and args.drift_months > 0:
        raise argparse.ArgumentError(
            None, "--workers serves a fixed plan; --drift-months requires "
                  "the single-process runtime (--workers 0)"
        )
    # Flags that act only with another flag are refused without it.
    # Beyond two tiers the multi-tier greedy plans: it runs no MILP and
    # reclaims no dead rows.
    two_tier = args.tiers is None or len(args.tiers.split(",")) == 2
    for flag, given, needs, enabled in (
        ("--milp-time", args.milp_time is not None, "a two-tier --tiers",
         two_tier),
        ("--formulation", args.formulation is not None,
         "a two-tier --tiers", two_tier),
        ("--reclaim-dead", args.reclaim_dead, "a two-tier --tiers",
         two_tier),
        ("--paced", args.paced, "--workers N", args.workers),
        ("--queue-depth", args.queue_depth is not None, "--workers N",
         args.workers),
        ("--brownout", args.brownout, "--slo-ms", args.slo_ms is not None),
        ("--burst-qps", args.burst_qps is not None, "--burst", args.burst),
        ("--idle-qps", args.idle_qps is not None, "--burst", args.burst),
        ("--burst-ms", args.burst_ms is not None, "--burst", args.burst),
        ("--idle-ms", args.idle_ms is not None, "--burst", args.burst),
    ):
        if given and not enabled:
            raise argparse.ArgumentError(None, f"{flag} requires {needs}")
    priority_names, priority_shares = args.priorities or ((), None)
    overload = None
    if (
        args.slo_ms is not None
        or args.queue_limit_ms is not None
        or args.brownout
        or args.deadline_ms is not None
        or priority_shares is not None
    ):
        overload = OverloadControl(
            slo_ms=args.slo_ms,
            queue_limit_ms=args.queue_limit_ms,
            brownout=args.brownout,
            priority_names=priority_names,
        )
    model, topology = _build_world(args)
    if args.chaos is not None:
        with _blame("--chaos"):
            args.chaos.validate_targets(
                topology.num_devices, num_workers=args.workers
            )
    profile = analytic_profile(model)
    config = ServingConfig(
        max_batch_size=args.batch_requests,
        max_delay_ms=args.max_delay_ms,
        drift_threshold_pct=args.drift_threshold,
        drift_min_samples=args.drift_min_samples,
    )
    # Beyond HBM+UVM the two-tier sharders cannot cut the CDF, so a
    # multi-tier topology is planned (and replanned under drift) by the
    # vectorized multi-tier greedy.
    if topology.num_tiers == 2:
        sharder = _make_recshard(args)
    else:
        sharder = MultiTierSharder(
            batch_size=args.batch, steps=args.steps, method="greedy",
            name="RecShard-multitier",
        )
    # Like every capacity knob, the staging and replica buffers are
    # specified at paper scale and shrunk with the topology.
    topo_scale = paper_scales(args.features, args.gpus)[0]
    staging = None
    if args.staging_gib > 0:
        staging = TierStagingModel(
            capacity_bytes=int(args.staging_gib * GIB * topo_scale)
        )
    replication = None
    if args.replicate_gib > 0:
        replication = ReplicationPolicy(
            capacity_bytes=int(args.replicate_gib * GIB * topo_scale)
        )
    # One generator for every stream shape: steady Poisson at --qps or
    # bursty on/off arrivals, optionally drifting, optionally carrying
    # QoS columns (drawn from a dedicated RNG stream, so they never move
    # arrivals or lookup content).
    rate = args.qps
    offered = f"offered load {args.qps:.0f} QPS"
    if args.burst:
        windows = {"burst_ms": args.burst_ms, "idle_ms": args.idle_ms}
        rate = BurstyArrivals(
            burst_qps=(
                args.burst_qps if args.burst_qps is not None
                else 4.0 * args.qps
            ),
            idle_qps=(
                args.idle_qps if args.idle_qps is not None
                else 0.1 * args.qps
            ),
            **{k: v for k, v in windows.items() if v is not None},
        )
        offered = (f"bursty {rate.burst_qps:.0f}/{rate.idle_qps:.0f} "
                   f"QPS over {rate.burst_ms:g}/{rate.idle_ms:g} ms "
                   f"(mean {rate.mean_qps:.0f})")
    arenas = synthetic_request_arenas(
        model, args.requests, rate, seed=args.seed,
        drift=(
            DriftModel(feature_noise=4.0, alpha_noise=4.0)
            if args.drift_months > 0
            else None
        ),
        months_per_request=args.drift_months / args.requests,
        deadline_ms=args.deadline_ms,
        priority_shares=priority_shares,
    )
    runtime = dict(
        sharder=sharder, config=config, staging=staging,
        replication=replication, chaos=args.chaos, overload=overload,
    )
    if args.workers:
        server = MultiProcessServer(
            model, profile, topology, workers=args.workers,
            queue_depth=args.queue_depth, **runtime,
        )
        mode = (f", {args.workers} worker processes, "
                f"{'open-loop paced' if args.paced else 'closed-loop'}")
    else:
        server = LookupServer(model, profile, topology, **runtime)
        mode = ""
    serve = server.serve_paced if args.paced else server.serve_arenas
    start = time.perf_counter()
    with server if args.workers else contextlib.nullcontext():
        metrics = serve(arenas)
    elapsed = time.perf_counter() - start
    print(f"served {model.name} on {args.gpus} GPUs over "
          f"{'/'.join(topology.tier_names)} ({offered}, microbatch <= "
          f"{args.batch_requests} reqs / {args.max_delay_ms:g} ms{mode}):")
    for line in getattr(server, "worker_fault_log", ()):
        print(f"  [supervisor] {line}")
    print(metrics.format_report())
    if args.workers:
        print(f"wall-clock: {elapsed:.2f} s "
              f"({metrics.num_requests / max(elapsed, 1e-9):.0f} "
              f"sustained QPS)")
    else:
        print(f"simulation wall-clock: {elapsed:.2f} s")
    if args.report_json:
        with open(args.report_json, "w") as fh:
            json.dump(metrics.summary(), fh, indent=2, sort_keys=True,
                      default=float)
            fh.write("\n")
        print(f"wrote metrics summary to {args.report_json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RecShard reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext, flags):
        p = sub.add_parser(name, help=helptext)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func, parser=p)
        return p

    add("characterize", _cmd_characterize,
        "print the Section 3 feature characterization", _COMMON)

    p = add("plan", _cmd_plan,
            "one plan (fast sharder, or the MILP with --milp-time), a "
            "per-table strategy plan, or a --sweep grid over one shared "
            "workspace", _PLANNER)
    p.set_defaults(milp_time=0.0)
    p.add_argument("--strategies", default=None, metavar="KINDS",
                   type=_spec(lambda text: resolve_strategy_kinds(
                       text.split(","))),
                   help="comma list of per-table sharding strategies to "
                        "enumerate (row, column, table, twrw, or auto); "
                        "the planner scores candidates under the shared "
                        "capacity model and keeps per-table winners")
    p.add_argument("--sweep", default=None, metavar="GRID",
                   type=_spec(_parse_sweep),
                   help="hbm=<scale,...> (HBM budget multiples), "
                        "gpus=<count,...> (device-count grid), "
                        "tiers=<count,...> (tier-ladder depth grid, "
                        "multi-tier greedy planner), replicate=<GiB,...> "
                        "(hot-row replica budget grid), "
                        "strategies=<kinds,...> (per-table strategy-family "
                        "grid), or precisions=<name,...> (cold-tier "
                        "quantization grid)")

    for name, func, helptext in (
        ("compare", _cmd_compare, "run RecShard against the baselines"),
        ("replay", _cmd_replay, "replay a trace and time the engine"),
    ):
        p = add(name, func, helptext, _SHARDER)
        p.add_argument("--iters", type=_at_least(1), default=3,
                       help="measured iterations (default: 3)")

    p = add("serve", _cmd_serve, "run an online serving workload", _PLANNER)
    # Unset means the default budget on two tiers; set, it is refused
    # beyond two.
    p.set_defaults(milp_time=None)
    p.add_argument("--tiers", default=None, metavar="NAMES",
                   help="comma-separated tier presets, fastest first "
                        "(hbm,uvm|dram,ssd,hdd); each may override its "
                        "per-GPU GiB as name:GiB, e.g. hbm,dram:8,ssd "
                        "(default: hbm,uvm)")
    p.add_argument("--staging-gib", type=_NON_NEGATIVE, default=0.0,
                   help="per-device per-cold-tier staging buffer in "
                        "(paper-scale) GiB: statically-hottest cold rows "
                        "served at the next-faster tier's bandwidth "
                        "(default: off)")
    p.add_argument("--qps", type=_POSITIVE, default=20000,
                   help="offered load, requests/s (default: 20000)")
    p.add_argument("--requests", type=_at_least(1), default=4000,
                   help="stream length (default: 4000)")
    p.add_argument("--batch-requests", type=_at_least(1), default=256,
                   help="microbatch size cap (default: 256)")
    p.add_argument("--max-delay-ms", type=_POSITIVE, default=2.0,
                   help="microbatching delay budget (default: 2 ms)")
    p.add_argument("--workers", type=_at_least(0), default=0,
                   help="worker processes for the multi-process runtime "
                        "(0 = single-process simulation; N >= 1 serves a "
                        "fixed plan with real concurrency and wall-clock "
                        "QPS)")
    p.add_argument("--queue-depth", type=_at_least(1), default=None,
                   help="task-queue bound of the worker pool (default: "
                        "2 x workers); what paced overload sheds against")
    p.add_argument("--paced", action="store_true",
                   help="offer batches on the wall clock at their "
                        "simulated release times and shed on a full queue "
                        "(requires --workers)")
    p.add_argument("--burst", action="store_true",
                   help="bursty on/off arrivals instead of steady Poisson "
                        "(burst/idle rates default to 4x / 0.1x the mean "
                        "rate)")
    p.add_argument("--burst-qps", type=_POSITIVE, default=None,
                   help="arrival rate inside bursts (default: 4 x --qps)")
    p.add_argument("--idle-qps", type=_NON_NEGATIVE, default=None,
                   help="arrival rate between bursts (default: 0.1 x --qps)")
    p.add_argument("--burst-ms", type=_POSITIVE, default=None,
                   help="burst window length (default: 50 ms)")
    p.add_argument("--idle-ms", type=_POSITIVE, default=None,
                   help="idle window length (default: 50 ms)")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   type=_spec(parse_chaos_spec),
                   help="scripted fault drill: comma-separated "
                        "kind@ms:target terms with kinds "
                        "fail/degrade/recover/kill, e.g. "
                        "'fail@250:1,recover@900:1' or 'degrade@100:0x4' "
                        "(device 0, 4x slower); kill targets a worker and "
                        "requires --workers")
    p.add_argument("--drift-months", type=_NON_NEGATIVE, default=0.0,
                   help="months of statistics drift to fast-forward "
                        "across the stream (0 = stationary)")
    p.add_argument("--drift-threshold", type=_NON_NEGATIVE, default=5.0,
                   help="pooling drift %% that triggers a replan")
    p.add_argument("--drift-min-samples", type=_at_least(0), default=1024,
                   help="samples before a replan may trigger")
    p.add_argument("--slo-ms", type=_POSITIVE, default=None,
                   help="latency SLO the overload controller defends; "
                        "enables priority shedding (with --priorities) "
                        "and brownout (with --brownout)")
    p.add_argument("--deadline-ms", type=_POSITIVE, default=None,
                   help="per-request deadline budget; requests predicted "
                        "to miss arrival+budget are shed early (cause "
                        "'deadline')")
    p.add_argument("--priorities", default=None, metavar="SPEC",
                   type=_spec(parse_priority_spec),
                   help="priority classes as name=share terms, e.g. "
                        "'gold=0.1,silver=0.3,bronze=0.6'; class order is "
                        "shed order (first listed is never shed)")
    p.add_argument("--brownout", action="store_true",
                   help="enable degraded-mode serving: skip cold-tier home "
                        "lanes while the windowed p99 violates --slo-ms")
    p.add_argument("--queue-limit-ms", type=_POSITIVE, default=None,
                   help="shed whole batches whose predicted queueing delay "
                        "exceeds this bound (cause 'overflow')")
    p.add_argument("--report-json", default=None, metavar="PATH",
                   help="write the metrics summary to PATH as JSON after "
                        "serving")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (argparse.ArgumentError, PlanError) as error:
        # Cross-flag rules, world-dependent checks and infeasible plans
        # end like a bad flag: argparse's message and exit status 2.
        args.parser.error(str(error))


if __name__ == "__main__":
    sys.exit(main())
