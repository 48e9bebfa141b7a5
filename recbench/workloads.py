"""The benchmark's three workloads, driven through the library's public API.

Each workload has one life cycle, driven by ``run.py``:

``setup()``
    world, analytic profile, initial plan, server, and whatever the
    workload pre-generates; its wall time is ``setup_s``;
``warmup()``
    untimed work that fills lazy rank tables and first allocations;
``round()``
    one timed unit of work; returns the requests offered or the plans
    built, and may ``mark()`` segment boundaries that every round
    passes in the same order;
``check_round()``
    untimed: checks the round's outputs, then resets stream state so
    that every round repeats the same work;
``finish()``
    end-of-run checks; returns the simulated figures.

A failed check adds to ``failed`` and names itself in ``errors``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from multiprocessing import resource_tracker

from repro import DriftModel, SystemTopology, analytic_profile, paper_node, rm2
from repro.core import (
    PlanError,
    PlannerWorkspace,
    RecShardFastSharder,
    shard_sweep,
)
from repro.memory import paper_scales
from repro.serving import (
    LookupServer,
    MultiProcessServer,
    OverloadControl,
    ServingConfig,
    synthetic_request_arenas,
)

from spans import maybe_span


@dataclasses.dataclass(frozen=True)
class Scale:
    """Workload sizes: ``FULL`` is what the benchmark measures, ``TOY``
    what its own tests run."""

    features: int
    gpus: int
    #: sharder batch size, at which plans estimate their costs
    plan_batch: int
    #: serve_stream: requests per round and the offered rate, about
    #: twice the simulated capacity of the population-7 plan
    stream_requests: int
    stream_qps: float
    #: serve_stream overload control: the latency objective and each
    #: request's deadline, 5x and 8x one full microbatch's service time
    slo_ms: float
    deadline_ms: float
    #: serve_replay: length of the pre-generated stream
    replay_requests: int
    #: plan_sweep: feature populations planned per round; the plans'
    #: simulated figures vary by population, and their mean over 6
    #: varies by seed about half as much as over 3
    populations: int


FULL = Scale(
    features=397, gpus=16, plan_batch=2048,
    stream_requests=2048, stream_qps=2.45e6, slo_ms=1.05, deadline_ms=1.67,
    replay_requests=2048, populations=6,
)
TOY = Scale(
    features=40, gpus=4, plan_batch=512,
    stream_requests=512, stream_qps=2.45e6, slo_ms=1.05, deadline_ms=1.67,
    replay_requests=512, populations=1,
)

#: The serve workloads' feature population (the ``repro`` CLI default);
#: their seed varies the request stream, so every run serves the same
#: plan.  plan_sweep's populations vary with the seed.
SERVE_POPULATION = 7
#: Share of the paper's per-GPU HBM reserve the node keeps for rows.
#: At the full reserve every live row of the shrunken RM2 fits in HBM,
#: the slow tier serves no lookup, and the paper's slow-memory figure
#: would read zero; a quarter leaves hot rows spilling.
HBM_SHARE = 0.25
SERVING = ServingConfig(max_batch_size=256, max_delay_ms=2.0)
#: serve_stream: a 2048-request round is 8 full microbatches, so the
#: drift monitor is consulted every 2 and may trip after 512 samples.
STREAM_SERVING = dataclasses.replace(
    SERVING, drift_check_every_batches=2, drift_min_samples=512
)
DRIFT = DriftModel(feature_noise=4.0, alpha_noise=4.0)
STREAM_MONTHS = 24.0
PRIORITIES = ("gold", "silver", "bronze")
PRIORITY_SHARES = (0.1, 0.3, 0.6)
#: Arrivals far faster than any plan serves: every microbatch fills to
#: the size cap and the simulated engine never idles.
SATURATING_QPS = 1e9
#: Deep enough that dispatch never finds the pool's queues full: the
#: front-end's 50 ms retry poll would otherwise pad the traced
#: multi-process pass with waits.
MP_QUEUE_DEPTH = 16
#: The CPUs this process may run on, read once before any pinning.
CPUS = tuple(sorted(os.sched_getaffinity(0)))


def scaled_hbm(topology: SystemTopology, share: float) -> SystemTopology:
    """``topology`` with its fastest tier's capacity scaled by ``share``."""
    hbm = topology.tiers[0]
    capacity = int(round(hbm.capacity_bytes * share))
    return SystemTopology(
        num_devices=topology.num_devices,
        tiers=(dataclasses.replace(hbm, capacity_bytes=capacity),)
        + topology.tiers[1:],
    )


def build_world(scale: Scale, population: int):
    """RM2 on ``scale.gpus`` simulated GPUs, capacities at paper_scales."""
    topo_scale, row_scale = paper_scales(scale.features, scale.gpus)
    model = rm2(
        num_features=scale.features, row_scale=row_scale, seed=population
    )
    node = paper_node(num_gpus=scale.gpus, scale=topo_scale)
    return model, scaled_hbm(node, HBM_SHARE)


def pool_workers() -> int:
    """Worker processes: one per CPU, less the front-end's."""
    return max(1, len(CPUS) - 1)


def plan_figures(plan, profile, batch: int) -> dict:
    """A plan's own cost estimates as the serving figures they model."""
    costs = plan.metadata["estimated_device_costs_ms"]
    makespan = max(costs)
    weight = slow = 0.0
    for placement in plan:
        stats = profile[placement.table_index]
        lookups = stats.expected_lookups_per_sample()
        if lookups > 0:
            hot = stats.cdf.coverage_of_rows(placement.rows_per_tier[0])
            weight += lookups
            slow += lookups * (1.0 - hot)
    return {
        "sim_qps": batch / makespan * 1e3,
        "load_imbalance": makespan * len(costs) / sum(costs),
        "slow_tier_fraction": slow / weight,
        "plan_makespan_ms": makespan,
    }


def serve_figures(metrics, summary: dict) -> dict:
    """The simulated clock's figures for one served stream."""
    tiers = summary["tier_accesses"]
    fast = tiers[metrics.tier_names[0]]
    return {
        "sim_qps": summary["qps"],
        "load_imbalance": summary["load_imbalance"],
        "slow_tier_fraction": 1.0 - fast / sum(tiers.values()),
        "sim_p50_ms": summary["p50_ms"],
        "sim_p99_ms": summary["p99_ms"],
        "sim_requests": summary["requests"],
        "goodput_fraction": metrics.goodput_fraction,
        "shed_requests": metrics.shed_requests,
        "replans": summary["replans"],
    }


class Workload:
    """Shared bookkeeping: counts, checks, and the tracer hook."""

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = seed
        #: set by the runner while a traced phase runs
        self.tracer = None
        self.workers = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.figures: dict | None = None
        #: the current round's segment boundaries, reset by the runner
        self.marks: list[float] = []
        self._first = None

    def span(self, name: str):
        return maybe_span(self.tracer, name)

    def mark(self) -> None:
        self.marks.append(time.perf_counter())

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def _same_as_first(self, value, figures: dict) -> None:
        """Every round must repeat the first bit for bit."""
        if self._first is None:
            self._first, self.figures = value, figures
        elif value != self._first:
            self.fail("a round's simulated results differ from the first's")

    def _check_served(self, metrics, offered: int) -> None:
        self.attempted += offered
        lost = offered - metrics.num_requests - metrics.shed_requests
        if lost:
            self.fail(
                f"{lost} of {offered} offered requests neither served nor "
                f"shed", abs(lost),
            )
        summary = metrics.summary(deterministic_only=True)
        self._same_as_first(summary, serve_figures(metrics, summary))

    def _generate(self, arenas):
        """The request stream, its ``next()`` calls traced when tracing."""
        if self.tracer is None:
            return arenas
        return self.tracer.iterate(
            arenas, "serving.loadgen", work=lambda arena: arena.num_requests
        )

    def _marked(self, arenas):
        """``arenas``, marking a segment boundary as each is pulled."""
        for arena in arenas:
            self.mark()
            yield arena

    def _profile(self, model):
        with self.span("stats.analytic_profile"):
            return analytic_profile(model)

    def warmup(self) -> None:
        pass

    def finish(self) -> dict | None:
        return self.figures


class PlanSweep(Workload):
    """The planner alone: cold builds, sweeps, and a warm replan."""

    HBM_BUDGETS = (0.5, 1.0, 2.0)
    STRATEGIES = ("row", "auto")
    PRECISIONS = ("fp16", "int8")
    REPLICATE_GIB = (0.5, 1.0, 2.0)
    DRIFT_MONTHS = 12.0

    def setup(self) -> None:
        self.topo_scale = paper_scales(self.scale.features, self.scale.gpus)[0]
        self.sharder = RecShardFastSharder(batch_size=self.scale.plan_batch)
        self.worlds = []
        for k in range(self.scale.populations):
            model, topology = build_world(self.scale, 1000 * self.seed + k)
            drifted = DRIFT.drift_model(model, self.DRIFT_MONTHS)
            self.worlds.append((model, drifted, topology))
        self.built = []

    def warmup(self) -> None:
        model, _, topology = self.worlds[0]
        self.sharder.shard(model, analytic_profile(model), topology)

    def round(self) -> int:
        self.built = []
        for model, drifted, topology in self.worlds:
            self._plan(model, drifted, topology)
        return len(self.built)

    def _plan(self, model, drifted, topology) -> None:
        """One fresh population: every workspace build is cold."""
        profile = self._profile(model)
        workspace = PlannerWorkspace(model, profile, steps=self.sharder.steps)
        cold = self.sharder.shard(
            model, profile, topology, workspace=workspace
        )
        self.mark()
        built = [(cold, model, profile, topology)]
        grids = (
            ("budgets", self.HBM_BUDGETS, {}),
            ("strategies", self.STRATEGIES, {}),
            ("precisions", self.PRECISIONS, {}),
            ("replicate_gib", self.REPLICATE_GIB,
             {"replicate_scale": self.topo_scale}),
        )
        for axis, values, extra in grids:
            with self.span("core.sweep"):
                plans = shard_sweep(
                    workspace, sharder=self.sharder, base_topology=topology,
                    **{axis: list(values)}, **extra,
                )
            for plan, value in zip(plans, values):
                point = topology
                if axis == "budgets":
                    point = scaled_hbm(topology, value)
                elif axis == "precisions":
                    point = topology.with_precisions(
                        dict.fromkeys(topology.tier_names[1:], value)
                    )
                built.append((plan, model, profile, point))
            self.mark()
        drifted_profile = self._profile(drifted)
        workspace.refresh(drifted_profile)
        warm = self.sharder.shard(
            drifted, drifted_profile, topology, warm_start=cold,
            workspace=workspace,
        )
        built.append((warm, drifted, drifted_profile, topology))
        self.mark()
        for plan, plan_model, _, point in built:
            try:
                plan.validate(plan_model, point)
            except PlanError as error:
                self.fail(f"invalid plan: {error}")
        # Only the plans' figures outlive their population, so a round
        # holds one population's profiles and plans at a time.
        self.built.extend(
            plan_figures(plan, profile, self.scale.plan_batch)
            for plan, _, profile, _ in built
        )

    def check_round(self) -> None:
        self.attempted += len(self.built)
        mean = {
            key: sum(f[key] for f in self.built) / len(self.built)
            for key in self.built[0]
        }
        self._same_as_first(mean, mean)
        self.built = []


class ServeStream(Workload):
    """What ``repro serve`` does: a drifted, deadline-carrying stream,
    generated lazily and served with replanning and overload control."""

    def setup(self) -> None:
        self.model, topology = build_world(self.scale, SERVE_POPULATION)
        profile = self._profile(self.model)
        self.server = LookupServer(
            self.model, profile, topology,
            sharder=RecShardFastSharder(batch_size=self.scale.plan_batch),
            config=STREAM_SERVING,
            overload=OverloadControl(
                slo_ms=self.scale.slo_ms, brownout=True,
                priority_names=PRIORITIES,
            ),
        )

    def _stream(self, requests: int):
        return self._generate(
            synthetic_request_arenas(
                self.model, num_requests=requests,
                qps=self.scale.stream_qps, seed=self.seed, drift=DRIFT,
                months_per_request=STREAM_MONTHS / requests,
                deadline_ms=self.scale.deadline_ms,
                priority_shares=PRIORITY_SHARES,
            )
        )

    def warmup(self) -> None:
        self.server.serve_arenas(self._stream(self.scale.stream_requests // 4))
        self.server.reset_serving_state()

    def round(self) -> int:
        self.metrics = self.server.serve_arenas(
            self._marked(self._stream(self.scale.stream_requests))
        )
        return self.scale.stream_requests

    def check_round(self) -> None:
        self._check_served(self.metrics, self.scale.stream_requests)
        self.server.reset_serving_state()


class ServeReplay(Workload):
    """A saturating stream generated once, served again and again on a
    fixed plan: the engine, batching, and metrics fast path."""

    def setup(self) -> None:
        self.model, self.topology = build_world(self.scale, SERVE_POPULATION)
        self.profile = self._profile(self.model)
        self.plan = RecShardFastSharder(
            batch_size=self.scale.plan_batch
        ).shard(self.model, self.profile, self.topology)
        self.arenas = list(
            self._generate(
                synthetic_request_arenas(
                    self.model, num_requests=self.scale.replay_requests,
                    qps=SATURATING_QPS, seed=self.seed,
                )
            )
        )
        self.server = LookupServer(
            self.model, self.profile, self.topology, plan=self.plan,
            config=SERVING,
        )

    def warmup(self) -> None:
        self.server.serve_arenas(self.arenas[:1])
        self.server.reset_serving_state()

    def round(self) -> int:
        self.metrics = self.server.serve_arenas(self.arenas)
        return self.scale.replay_requests

    def check_round(self) -> None:
        self._check_served(self.metrics, self.scale.replay_requests)
        self.server.reset_serving_state()

    def finish(self) -> dict | None:
        """The same stream and plan once through the multi-process
        runtime: its merged summary must equal the rounds'.  This pass
        is the only shared-memory handoff and cross-process
        classification the benchmark runs; a traced run traces it."""
        self.workers = pool_workers()
        pool = MultiProcessServer(
            self.model, self.profile, self.topology, plan=self.plan,
            config=SERVING, workers=self.workers,
            queue_depth=MP_QUEUE_DEPTH,
        )
        try:
            pool.start()
            merged = pool.serve_arenas(self.arenas)
        finally:
            pool.close()
            # The pool's start launched the shared-memory resource
            # tracker; stop it and wait for it, like the workers.
            resource_tracker._resource_tracker._stop()
        if merged.summary(deterministic_only=True) != self._first:
            self.fail("merged multi-process summary differs from "
                      "single-process serving of the same stream and plan")
        return self.figures


WORKLOADS = {
    "plan_sweep": PlanSweep,
    "serve_stream": ServeStream,
    "serve_replay": ServeReplay,
}
