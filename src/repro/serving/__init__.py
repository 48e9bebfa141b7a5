"""Online serving layer over the sharded execution engine.

Training replay (:mod:`repro.engine`) answers "how fast does a plan run
a fixed trace"; this package answers the inference-side question: how
many *requests per second* can a sharded embedding deployment sustain,
and at what tail latency.  It mirrors the structure of production
recommendation inference stacks (e.g. TorchRec's inference path): a
microbatching admission queue in front of a model-parallel lookup
engine, with per-device metrics and statistics-drift monitoring that
can trigger a re-shard while serving.

Components:

* :class:`~repro.serving.arena.RequestArena` — feature-major columnar
  request chunks; microbatches are offset slices.
* :func:`~repro.serving.queue.iter_microbatch_arenas` — microbatch
  admission bounded by batch size and queueing delay, computed
  vectorized over each chunk's arrival array.
* :class:`~repro.serving.server.LookupServer` — discrete-event server
  driving the :class:`~repro.engine.executor.ShardedExecutor` on a
  simulated clock through
  :meth:`~repro.serving.server.LookupServer.serve_arenas`; supports
  drift-triggered replanning.
* :class:`~repro.serving.metrics.ServingMetrics` — columnar per-batch
  latency records with QPS, p50/p99, per-device utilization, and
  off-critical-path replan build cost views.
* :class:`~repro.serving.server.DriftMonitor` — online per-feature
  pooling statistics compared against the profile the current plan was
  built from (Section 3.5's drift, detected rather than assumed).
* :class:`~repro.serving.mp.MultiProcessServer` — the wall-clock
  runtime: a pool of worker processes classifying microbatches handed
  over zero-copy in shared memory
  (:meth:`~repro.serving.arena.RequestArena.to_shm`), with a
  sequential front-end aggregator whose merged metrics are
  bit-identical to a single-process ``serve_arenas`` run.
* :mod:`~repro.serving.faults` — scripted device/worker chaos
  (:class:`~repro.serving.faults.FaultSchedule`,
  :func:`~repro.serving.faults.parse_chaos_spec`) replayed on the
  serving clock; drives the degraded-mode failover, emergency replan,
  and self-healing worker-pool drills.
* :mod:`~repro.serving.loadgen` — the one request generator,
  :func:`~repro.serving.loadgen.synthetic_request_arenas`: seeded
  open-loop arena streams with optional drift, per-request deadline
  budgets, and priority classes, timed by a rate or an arrival process
  (:class:`~repro.serving.loadgen.PoissonArrivals`,
  :class:`~repro.serving.loadgen.BurstyArrivals`).
* :mod:`~repro.serving.overload` — SLO-driven overload control
  (:class:`~repro.serving.overload.OverloadControl`): deadline-aware
  admission from an EWMA service-time estimator, priority-class
  shedding, and brownout degraded-mode serving that skips cold-tier
  home lanes while the windowed p99 violates the SLO.

Quickstart::

    from repro import analytic_profile, paper_node, rm2
    from repro.core import RecShardFastSharder
    from repro.memory import paper_scales
    from repro.serving import LookupServer, ServingConfig, synthetic_request_arenas

    topo_scale, row_scale = paper_scales(num_features=13, num_gpus=2)
    model = rm2(num_features=13, row_scale=row_scale)
    topology = paper_node(num_gpus=2, scale=topo_scale)
    profile = analytic_profile(model)
    server = LookupServer(
        model, profile, topology,
        sharder=RecShardFastSharder(batch_size=256),
        config=ServingConfig(max_batch_size=256, max_delay_ms=2.0),
    )
    arenas = synthetic_request_arenas(model, num_requests=500, qps=20000, seed=7)
    metrics = server.serve_arenas(arenas)
    print(metrics.format_report())
"""

from repro.serving.arena import RequestArena, ShmArena, ShmArenaHandle
from repro.serving.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    device_degrade,
    device_fail,
    device_recover,
    parse_chaos_spec,
    worker_kill,
)
from repro.serving.loadgen import (
    BurstyArrivals,
    PoissonArrivals,
    synthetic_request_arenas,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.mp import MultiProcessServer, WorkerCrashError
from repro.serving.overload import (
    SHED_CAUSES,
    OverloadControl,
    OverloadController,
    parse_priority_spec,
)
from repro.serving.queue import iter_microbatch_arenas
from repro.serving.server import DriftMonitor, LookupServer, ServingConfig

__all__ = [
    "BurstyArrivals",
    "DriftMonitor",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "LookupServer",
    "MultiProcessServer",
    "OverloadControl",
    "OverloadController",
    "PoissonArrivals",
    "RequestArena",
    "SHED_CAUSES",
    "ServingConfig",
    "ServingMetrics",
    "ShmArena",
    "ShmArenaHandle",
    "WorkerCrashError",
    "device_degrade",
    "device_fail",
    "device_recover",
    "iter_microbatch_arenas",
    "parse_chaos_spec",
    "parse_priority_spec",
    "synthetic_request_arenas",
    "worker_kill",
]
