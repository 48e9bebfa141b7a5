"""Command-line interface: profile, shard, replay, and serve from a shell.

Examples::

    python -m repro characterize --model rm1
    python -m repro shard --model rm2 --gpus 16 --formulation convex
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
"""

from __future__ import annotations

import argparse
import json
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
    node_from_tier_names,
    paper_node,
    paper_scales,
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


def _at_least(minimum, cast=int):
    """An argparse ``type`` that rejects values below ``minimum``."""

    def parse(text):
        value = cast(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {text}"
            )
        return value

    parse.__name__ = cast.__name__  # argparse names it in its errors
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", choices=sorted(_MODELS), default="rm2",
        help="workload from Table 2 (default: rm2)",
    )
    parser.add_argument(
        "--features", type=int, default=397,
        help="number of sparse features (default: the paper's 397)",
    )
    parser.add_argument(
        "--gpus", type=int, default=16, help="simulated GPUs (default: 16)"
    )
    parser.add_argument(
        "--batch", type=_at_least(1), default=2048,
        help="batch size (default: 2048)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="feature population seed"
    )


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
        topology = node_from_tier_names(
            tiers, num_gpus=args.gpus, scale=topo_scale
        )
    else:
        topology = paper_node(num_gpus=args.gpus, scale=topo_scale)
    precisions = getattr(args, "precisions", None)
    if precisions:
        try:
            topology = topology.with_precisions(precisions)
        except ValueError as error:
            # Same exit contract as argparse's own bad-argument path.
            print(f"error: --precisions: {error}", file=sys.stderr)
            raise SystemExit(2) from error
    return model, topology


def _cmd_characterize(args) -> int:
    model, _ = _build_world(args)
    profile = analytic_profile(model)
    print(f"characterization of {model.name} "
          f"({model.num_tables} features, {model.total_bytes / 2**20:.0f} MiB):")
    print(format_summary(characterization_summary(profile)))
    return 0


def _make_recshard(args):
    if args.milp_time <= 0:
        return RecShardFastSharder(
            batch_size=args.batch, steps=args.steps, name="RecShard",
            reclaim_dead=args.reclaim_dead,
        )
    return RecShardSharder(
        batch_size=args.batch,
        steps=args.steps,
        formulation=args.formulation,
        time_limit=args.milp_time,
        reclaim_dead=args.reclaim_dead,
        name="RecShard",
    )


def _cmd_shard(args) -> int:
    model, topology = _build_world(args)
    profile = analytic_profile(model)
    plan = _make_recshard(args).shard(model, profile, topology)
    plan.validate(model, topology)
    summary = plan.summary(model, topology)
    print(f"plan for {model.name} on {args.gpus} GPUs "
          f"(solver: {plan.metadata.get('solver', '-')}):")
    print(f"  rows on UVM: {summary['uvm_row_fraction']:.1%}")
    print(f"  mean per-table UVM fraction: "
          f"{summary['mean_table_uvm_fraction']:.1%}")
    print(f"  tables per GPU: {summary['tables_per_device']}")
    if "objective_ms" in plan.metadata:
        print(f"  MILP objective: {plan.metadata['objective_ms']:.4f} ms "
              f"({plan.metadata.get('milp_status')}, "
              f"{plan.metadata.get('solve_seconds', 0):.1f}s)")
    return 0


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
    for value in parsed:
        if value < 1:
            raise ValueError(
                f"sweep point {kind}={value}: grid values must be >= 1"
            )
    return kind, parsed


def _cmd_plan(args) -> int:
    """Build plans on the vectorized planner engine, optionally a sweep."""
    model, topology = _build_world(args)
    profile = analytic_profile(model)
    sharder = RecShardFastSharder(
        batch_size=args.batch,
        steps=args.steps,
        reclaim_dead=args.reclaim_dead,
        name="RecShard",
    )
    if args.replicate_gib < 0:
        print("error: --replicate-gib must be >= 0", file=sys.stderr)
        return 2
    topo_scale = paper_scales(args.features, args.gpus)[0]
    if args.strategies:
        if args.sweep:
            print("error: --strategies builds one plan; use "
                  "--sweep strategies=... for a strategy grid",
                  file=sys.stderr)
            return 2
        if args.replicate_gib > 0:
            print("error: strategy plans do not compose with "
                  "--replicate-gib", file=sys.stderr)
            return 2
        try:
            tokens = resolve_strategy_kinds(args.strategies.split(","))
        except ValueError as error:
            print(f"error: --strategies: {error}", file=sys.stderr)
            return 2
        start = time.perf_counter()
        workspace = PlannerWorkspace(model, profile, steps=args.steps)
        try:
            plan = plan_with_strategies(
                sharder, model, profile, topology,
                strategies=tokens, workspace=workspace,
            )
        except PlanError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        build_ms = (time.perf_counter() - start) * 1e3
        summary = plan.summary(model, topology)
        counts = plan.strategy_counts()
        mix = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        print(f"strategy plan for {model.name} on {args.gpus} GPUs "
              f"(kinds: {','.join(tokens)}):")
        print(f"  per-table strategies: {mix}")
        print(f"  split tables: {summary['split_tables']}")
        print(f"  rows on UVM: {summary['uvm_row_fraction']:.1%}")
        print(f"  row-only est. max GPU cost: "
              f"{plan.metadata['row_only_max_cost_ms']:.4f} ms")
        print(f"  estimated max GPU cost: "
              f"{plan.metadata['estimated_max_cost_ms']:.4f} ms")
        print(f"  plan build wall-clock: {build_ms:.1f} ms")
        return 0
    if not args.sweep:
        start = time.perf_counter()
        if args.replicate_gib > 0:
            # Budgets are specified at paper scale, like every other
            # capacity knob, and shrunk with the topology.
            policy = ReplicationPolicy(
                capacity_bytes=int(args.replicate_gib * GIB * topo_scale)
            )
            try:
                plan = plan_with_replication(
                    sharder, model, profile, topology, policy
                )
            except PlanError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        else:
            plan = sharder.shard(model, profile, topology)
        build_ms = (time.perf_counter() - start) * 1e3
        plan.validate(model, topology)
        summary = plan.summary(model, topology)
        print(f"plan for {model.name} on {args.gpus} GPUs "
              "(vectorized planner):")
        print(f"  rows on UVM: {summary['uvm_row_fraction']:.1%}")
        print(f"  estimated max GPU cost: "
              f"{plan.metadata['estimated_max_cost_ms']:.4f} ms")
        print(f"  tables per GPU: {summary['tables_per_device']}")
        if plan.replica_rows is not None:
            print(f"  replicated rows: {summary['replicated_rows']} "
                  f"(from {summary['replicated_tables']} tables, "
                  f"budget {args.replicate_gib:g} GiB/GPU paper-scale)")
            print(f"  replica bytes/GPU: "
                  f"{summary['max_replica_bytes_per_device']} max of "
                  f"{summary['budget_bytes_per_device']} budgeted")
        print(f"  plan build wall-clock: {build_ms:.1f} ms")
        return 0
    try:
        kind, values = _parse_sweep(args.sweep)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    workspace = PlannerWorkspace(model, profile, steps=args.steps)
    try:
        if kind == "hbm":
            plans = shard_sweep(
                workspace, sharder=sharder, budgets=values,
                base_topology=topology,
            )
        elif kind == "replicate":
            # Hot-row replica budget grid: each point carves the budget
            # out of HBM, shards the remainder, and spends the carved
            # bytes on replicas of the globally hottest rows.
            plans = shard_sweep(
                workspace, sharder=sharder, replicate_gib=values,
                base_topology=topology, replicate_scale=topo_scale,
            )
        elif kind == "strategies":
            # Strategy-kind grid: each point enumerates one strategy
            # family (plus the row fallback) over the shared workspace.
            plans = shard_sweep(
                workspace, sharder=sharder, strategies=values,
                base_topology=topology,
            )
        elif kind == "precisions":
            # Cold-tier precision grid: each point stores every tier
            # past the fastest at one quantized encoding (fp32 is the
            # unquantized baseline point).
            plans = shard_sweep(
                workspace, sharder=sharder, precisions=values,
                base_topology=topology,
            )
        elif kind == "tiers":
            # Tier-count grid (Section 4.4): every point is a prefix of
            # the preset tier ladder, solved by the vectorized
            # multi-tier greedy over the same workspace.
            topologies = [
                tier_ladder_node(t, num_gpus=args.gpus, scale=topo_scale)
                for t in values
            ]
            plans = shard_sweep(
                workspace,
                sharder=MultiTierSharder(
                    batch_size=args.batch, steps=args.steps
                ),
                topologies=topologies,
                labels=[f"tiers={t}" for t in values],
            )
        else:
            topologies = [
                paper_node(num_gpus=g, scale=paper_scales(args.features, g)[0])
                for g in values
            ]
            plans = shard_sweep(
                workspace, sharder=sharder, topologies=topologies
            )
    except PlanError as error:
        # The model is row-scaled to --gpus (see _build_world); grid
        # points with much less aggregate capacity can be genuinely
        # infeasible.
        print(f"error: {error} (the workload is sized for --gpus "
              f"{args.gpus}; smaller grid points may not fit it)",
              file=sys.stderr)
        return 2
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
    if args.iters < 1:
        print("error: --iters must be >= 1", file=sys.stderr)
        return 2
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


def _dump_report_json(path, metrics) -> None:
    """Write the ServingMetrics summary to ``path`` as JSON (if set)."""
    if not path:
        return
    with open(path, "w") as fh:
        json.dump(metrics.summary(), fh, indent=2, sort_keys=True,
                  default=float)
        fh.write("\n")
    print(f"wrote metrics summary to {path}")


def _cmd_serve(args) -> int:
    """Run a seeded synthetic serving workload and report QPS/latency."""
    if args.qps <= 0:
        print("error: --qps must be > 0", file=sys.stderr)
        return 2
    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    if args.queue_depth is not None and args.queue_depth < 1:
        print("error: --queue-depth must be >= 1", file=sys.stderr)
        return 2
    chaos = None
    if args.chaos:
        try:
            chaos = parse_chaos_spec(args.chaos)
        except ValueError as exc:
            print(f"error: --chaos: {exc}", file=sys.stderr)
            return 2
    if args.workers and args.drift_months > 0:
        print("error: --workers serves a fixed plan; --drift-months "
              "requires the single-process runtime (--workers 0)",
              file=sys.stderr)
        return 2
    if args.paced and not args.workers:
        print("error: --paced (wall-clock pacing + shedding) requires "
              "--workers N", file=sys.stderr)
        return 2
    if args.batch_requests < 1:
        print("error: --batch-requests must be >= 1", file=sys.stderr)
        return 2
    if args.max_delay_ms <= 0:
        print("error: --max-delay-ms must be > 0", file=sys.stderr)
        return 2
    if args.staging_gib < 0:
        print("error: --staging-gib must be >= 0", file=sys.stderr)
        return 2
    if args.replicate_gib < 0:
        print("error: --replicate-gib must be >= 0", file=sys.stderr)
        return 2
    if args.burst_qps is not None and args.burst_qps <= 0:
        print("error: --burst-qps must be > 0", file=sys.stderr)
        return 2
    if args.idle_qps is not None and args.idle_qps < 0:
        print("error: --idle-qps must be >= 0", file=sys.stderr)
        return 2
    if args.burst_ms <= 0:
        print("error: --burst-ms must be > 0", file=sys.stderr)
        return 2
    if args.idle_ms <= 0:
        print("error: --idle-ms must be > 0", file=sys.stderr)
        return 2
    if args.slo_ms is not None and args.slo_ms <= 0:
        print("error: --slo-ms must be > 0", file=sys.stderr)
        return 2
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        print("error: --deadline-ms must be > 0", file=sys.stderr)
        return 2
    if args.queue_limit_ms is not None and args.queue_limit_ms <= 0:
        print("error: --queue-limit-ms must be > 0", file=sys.stderr)
        return 2
    if args.brownout and args.slo_ms is None:
        print("error: --brownout requires --slo-ms", file=sys.stderr)
        return 2
    priority_names = ()
    priority_shares = None
    if args.priorities:
        try:
            priority_names, priority_shares = parse_priority_spec(
                args.priorities
            )
        except ValueError as exc:
            print(f"error: --priorities: {exc}", file=sys.stderr)
            return 2
    with_qos = args.deadline_ms is not None or priority_shares is not None
    overload = None
    if (
        args.slo_ms is not None
        or args.queue_limit_ms is not None
        or args.brownout
        or with_qos
    ):
        overload = OverloadControl(
            slo_ms=args.slo_ms,
            queue_limit_ms=args.queue_limit_ms,
            brownout=args.brownout,
            priority_names=priority_names,
        )
    model, topology = _build_world(args)
    if chaos is not None:
        try:
            chaos.validate_targets(
                topology.num_devices, num_workers=args.workers
            )
        except ValueError as exc:
            print(f"error: --chaos: {exc}", file=sys.stderr)
            return 2
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
        rate = BurstyArrivals(
            burst_qps=(
                args.burst_qps if args.burst_qps is not None
                else 4.0 * args.qps
            ),
            idle_qps=(
                args.idle_qps if args.idle_qps is not None
                else 0.1 * args.qps
            ),
            burst_ms=args.burst_ms,
            idle_ms=args.idle_ms,
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
    tiers = "/".join(topology.tier_names)
    if args.workers:
        server = MultiProcessServer(
            model, profile, topology, sharder=sharder, config=config,
            staging=staging, replication=replication,
            workers=args.workers, queue_depth=args.queue_depth,
            chaos=chaos, overload=overload,
        )
        start = time.perf_counter()
        with server:
            if args.paced:
                metrics = server.serve_paced(arenas)
            else:
                metrics = server.serve_arenas(arenas)
        elapsed = time.perf_counter() - start
        mode = "open-loop paced" if args.paced else "closed-loop"
        print(f"served {model.name} on {args.gpus} GPUs over {tiers} "
              f"({offered}, microbatch <= {args.batch_requests} reqs / "
              f"{args.max_delay_ms:g} ms, {args.workers} worker "
              f"processes, {mode}):")
        for line in server.worker_fault_log:
            print(f"  [supervisor] {line}")
        print(metrics.format_report())
        print(f"wall-clock: {elapsed:.2f} s "
              f"({metrics.num_requests / max(elapsed, 1e-9):.0f} "
              f"sustained QPS)")
        _dump_report_json(args.report_json, metrics)
        return 0
    server = LookupServer(
        model, profile, topology, sharder=sharder, config=config,
        staging=staging, replication=replication, chaos=chaos,
        overload=overload,
    )
    start = time.perf_counter()
    metrics = server.serve_arenas(arenas)
    elapsed = time.perf_counter() - start
    print(f"served {model.name} on {args.gpus} GPUs over {tiers} "
          f"({offered}, "
          f"microbatch <= {args.batch_requests} reqs / "
          f"{args.max_delay_ms:g} ms):")
    print(metrics.format_report())
    print(f"simulation wall-clock: {elapsed:.2f} s")
    _dump_report_json(args.report_json, metrics)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RecShard reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser(
        "characterize", help="print the Section 3 feature characterization"
    )
    _add_common(p_char)
    p_char.set_defaults(func=_cmd_characterize)

    p_plan = sub.add_parser(
        "plan",
        help="vectorized planner: one plan or a --sweep grid over one "
             "shared workspace",
    )
    _add_common(p_plan)
    p_plan.add_argument("--steps", type=_at_least(1), default=100,
                        help="ICDF discretization steps (default: 100)")
    p_plan.add_argument("--reclaim-dead", action="store_true",
                        help="do not charge never-accessed rows to UVM")
    p_plan.add_argument("--replicate-gib", type=float, default=0.0,
                        help="per-GPU (paper-scale) GiB of HBM carved "
                             "out for replicas of the globally hottest "
                             "rows, served least-loaded from any GPU "
                             "(default: off)")
    p_plan.add_argument("--strategies", default=None, metavar="KINDS",
                        help="comma list of per-table sharding strategies "
                             "to enumerate (row, column, table, twrw, or "
                             "auto); the planner scores candidates under "
                             "the shared capacity model and keeps "
                             "per-table winners")
    p_plan.add_argument("--precisions", default=None, metavar="SPEC",
                        help="per-tier storage precisions as "
                             "tier=precision pairs, e.g. uvm=fp16 or "
                             "dram=fp16,ssd=int8 (fp32, fp16, int8, "
                             "int4); quantized tiers admit more rows "
                             "under the same byte budget")
    p_plan.add_argument("--sweep", default=None, metavar="GRID",
                        help="hbm=<scale,...> (HBM budget multiples), "
                             "gpus=<count,...> (device-count grid), "
                             "tiers=<count,...> (tier-ladder depth grid, "
                             "multi-tier greedy planner), "
                             "replicate=<GiB,...> (hot-row replica "
                             "budget grid), strategies=<kinds,...> "
                             "(per-table strategy-family grid), or "
                             "precisions=<name,...> (cold-tier "
                             "quantization grid)")
    p_plan.set_defaults(func=_cmd_plan)

    for name, func, helptext in (
        ("shard", _cmd_shard, "produce and summarize a RecShard plan"),
        ("compare", _cmd_compare, "run RecShard against the baselines"),
        ("replay", _cmd_replay, "replay a trace and time the engine"),
        ("serve", _cmd_serve, "run an online serving workload"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        p.add_argument("--steps", type=_at_least(1), default=100,
                       help="ICDF discretization steps (default: 100)")
        p.add_argument("--formulation", choices=("convex", "step"),
                       default="convex")
        p.add_argument("--milp-time", type=float, default=15.0,
                       help="MILP budget in seconds; 0 = fast solver only")
        p.add_argument("--reclaim-dead", action="store_true",
                       help="do not charge never-accessed rows to UVM")
        if name in ("compare", "replay"):
            p.add_argument("--iters", type=int, default=3,
                           help="measured iterations (default: 3)")
        if name == "serve":
            p.add_argument("--tiers", default=None, metavar="NAMES",
                           help="comma-separated tier presets, fastest "
                                "first (hbm,uvm|dram,ssd,hdd); each may "
                                "override its per-GPU GiB as name:GiB, "
                                "e.g. hbm,dram:8,ssd (default: hbm,uvm)")
            p.add_argument("--precisions", default=None, metavar="SPEC",
                           help="per-tier storage precisions as "
                                "tier=precision pairs, e.g. "
                                "dram=fp16,ssd=int8 (fp32, fp16, int8, "
                                "int4); quantized tiers admit more rows "
                                "under the same byte budget")
            p.add_argument("--staging-gib", type=float, default=0.0,
                           help="per-device per-cold-tier staging buffer "
                                "in (paper-scale) GiB: statically-hottest "
                                "cold rows served at the next-faster "
                                "tier's bandwidth (default: off)")
            p.add_argument("--replicate-gib", type=float, default=0.0,
                           help="per-GPU (paper-scale) GiB of the fastest "
                                "tier carved out for replicas of the "
                                "globally hottest rows, routed to the "
                                "least-loaded GPU per lookup "
                                "(default: off)")
            p.add_argument("--qps", type=float, default=20000,
                           help="offered load, requests/s (default: 20000)")
            p.add_argument("--requests", type=int, default=4000,
                           help="stream length (default: 4000)")
            p.add_argument("--batch-requests", type=int, default=256,
                           help="microbatch size cap (default: 256)")
            p.add_argument("--max-delay-ms", type=float, default=2.0,
                           help="microbatching delay budget (default: 2 ms)")
            p.add_argument("--workers", type=int, default=0,
                           help="worker processes for the multi-process "
                                "runtime (0 = single-process simulation; "
                                "N >= 1 serves a fixed plan with real "
                                "concurrency and wall-clock QPS)")
            p.add_argument("--queue-depth", type=int, default=None,
                           help="task-queue bound of the worker pool "
                                "(default: 2 x workers); what paced "
                                "overload sheds against")
            p.add_argument("--paced", action="store_true",
                           help="offer batches on the wall clock at their "
                                "simulated release times and shed on a "
                                "full queue (requires --workers)")
            p.add_argument("--burst", action="store_true",
                           help="bursty on/off arrivals instead of steady "
                                "Poisson (burst/idle rates default to "
                                "4x / 0.1x the mean rate)")
            p.add_argument("--burst-qps", type=float, default=None,
                           help="arrival rate inside bursts "
                                "(default: 4 x --qps)")
            p.add_argument("--idle-qps", type=float, default=None,
                           help="arrival rate between bursts "
                                "(default: 0.1 x --qps)")
            p.add_argument("--burst-ms", type=float, default=50.0,
                           help="burst window length (default: 50 ms)")
            p.add_argument("--idle-ms", type=float, default=50.0,
                           help="idle window length (default: 50 ms)")
            p.add_argument("--chaos", default=None, metavar="SPEC",
                           help="scripted fault drill: comma-separated "
                                "kind@ms:target terms with kinds "
                                "fail/degrade/recover/kill, e.g. "
                                "'fail@250:1,recover@900:1' or "
                                "'degrade@100:0x4' (device 0, 4x "
                                "slower); kill targets a worker and "
                                "requires --workers")
            p.add_argument("--drift-months", type=_at_least(0, float),
                           default=0.0,
                           help="months of statistics drift to fast-forward "
                                "across the stream (0 = stationary)")
            p.add_argument("--drift-threshold", type=float, default=5.0,
                           help="pooling drift %% that triggers a replan")
            p.add_argument("--drift-min-samples", type=int, default=1024,
                           help="samples before a replan may trigger")
            p.add_argument("--slo-ms", type=float, default=None,
                           help="latency SLO the overload controller "
                                "defends; enables priority shedding (with "
                                "--priorities) and brownout (with "
                                "--brownout)")
            p.add_argument("--deadline-ms", type=float, default=None,
                           help="per-request deadline budget; requests "
                                "predicted to miss arrival+budget are shed "
                                "early (cause 'deadline')")
            p.add_argument("--priorities", default=None, metavar="SPEC",
                           help="priority classes as name=share terms, "
                                "e.g. 'gold=0.1,silver=0.3,bronze=0.6'; "
                                "class order is shed order (first listed "
                                "is never shed)")
            p.add_argument("--brownout", action="store_true",
                           help="enable degraded-mode serving: skip "
                                "cold-tier home lanes while the windowed "
                                "p99 violates --slo-ms")
            p.add_argument("--queue-limit-ms", type=float, default=None,
                           help="shed whole batches whose predicted "
                                "queueing delay exceeds this bound "
                                "(cause 'overflow')")
            p.add_argument("--report-json", default=None, metavar="PATH",
                           help="write the metrics summary to PATH as "
                                "JSON after serving")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
