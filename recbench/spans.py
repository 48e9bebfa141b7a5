"""Outside-in tracing: spans around the library's public calls.

The traced run installs thin wrappers (:data:`HOOKS`) on the calls that
enter each layer, from this directory only: nothing under ``src/``
knows it is being traced.  Every call records one span (name, start,
end, parent span, a per-name sequence number standing for the batch or
plan id, and a work count such as lookups or requests) in memory; the
spans are written out as JSON lines when the run ends, and
:func:`layer_metrics` folds them into the per-layer figures by counts
and self times (a span's duration minus what its child spans cover).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time


class Tracer:
    """In-memory span recorder with a call stack for parenting.

    Spans are lists ``[id, name, start_ns, end_ns, parent, tag, work]``
    (parent ``-1`` for a root); ``tag`` is the span's sequence number
    among spans of the same name — the batch or plan id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._seq: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        tag = self._seq.get(name, 0)
        self._seq[name] = tag + 1
        record = [
            len(self.spans), name, time.perf_counter_ns(), 0,
            self._stack[-1] if self._stack else -1, tag, 0,
        ]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            self._stack.pop()
            record[3] = time.perf_counter_ns()

    def iterate(self, iterable, name: str, work=None):
        """Yield from ``iterable``, timing each ``next()`` as a span."""
        iterator = iter(iterable)
        while True:
            with self.span(name) as record:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                if work is not None:
                    record[6] = work(item)
            yield item

    def write(self, path: str) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "tag", "work")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def maybe_span(tracer: Tracer | None, name: str):
    """A span when tracing, a no-op context otherwise."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


def _shard_name(args, kwargs):
    warm = kwargs.get("warm_start") is not None
    return "core.shard.warm" if warm else "core.shard.cold"


def _shed(args, result):
    return args[1].num_requests - (0 if result is None else result.num_requests)


#: (module, attribute path, span name or name function, work function of
#: (positional args, result)).  A ``None`` work function records 0.
HOOKS = (
    ("repro.data.synthetic", "SamplerBank.sample_batch", "data.sample",
     lambda args, result: result.total_lookups),
    ("repro.data.synthetic", "SamplerBank.refresh", "data.refresh", None),
    # Engine construction: the rank remapper, then the executor.
    ("repro.engine.ranked", "RankRemapper.__init__", "engine.build", None),
    ("repro.engine.executor", "ShardedExecutor.__init__", "engine.build",
     None),
    ("repro.engine.executor", "ShardedExecutor.run_batch",
     "engine.run_batch", lambda args, result: args[1].total_lookups),
    # classify_batch / reduce_classified delegate to these two, and
    # run_batch runs them in turn, so both runtimes are timed alike.
    ("repro.engine.executor", "ShardedExecutor._classify_jagged",
     "engine.classify", None),
    ("repro.engine.executor", "ShardedExecutor._reduce_counts",
     "engine.reduce", lambda args, result: int(args[1].sum())),
    ("repro.serving.metrics", "ServingMetrics.record_batch",
     "serving.metrics.record", None),
    ("repro.serving.server", "LookupServer.serve_arenas",
     "serving.server.serve", None),
    ("repro.serving.server", "LookupServer.admit_arena",
     "serving.overload.admit", _shed),
    ("repro.serving.server", "DriftMonitor.observe",
     "serving.drift.observe", None),
    ("repro.stats.profiler", "TraceProfiler.__init__", "stats.profile",
     None),
    ("repro.stats.profiler", "TraceProfiler.consume", "stats.profile", None),
    ("repro.stats.profiler", "TraceProfiler.finish", "stats.profile", None),
    ("repro.core.workspace", "PlannerWorkspace.__init__",
     "core.workspace.build", None),
    ("repro.core.workspace", "PlannerWorkspace.refresh",
     "core.workspace.refresh", None),
    ("repro.core.fast", "RecShardFastSharder.shard", _shard_name, None),
    ("repro.core.fast", "RecShardFastSharder.shard_from_workspace",
     "core.solve", None),
    ("repro.core.strategies", "plan_with_strategies", "core.strategies",
     None),
    ("repro.core.replicate", "plan_with_replication", "core.replication",
     None),
    ("repro.serving.arena", "RequestArena.to_shm", "serving.arena.to_shm",
     lambda args, result: result.handle.total_bytes),
    ("repro.serving.mp", "MultiProcessServer.start", "serving.mp.start",
     None),
    ("repro.serving.mp", "MultiProcessServer.serve_arenas",
     "serving.mp.serve", None),
)

#: Microbatch formation is a generator each runtime imports by name; its
#: ``next()`` calls are the queue layer's spans.
QUEUE_MODULES = ("repro.serving.server", "repro.serving.mp")

SERVE_SPANS = ("serving.server.serve", "serving.mp.serve")
BUILD = "core.workspace.build"


def _wrap(tracer: Tracer, func, name, work):
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        with tracer.span(span_name) as record:
            result = func(*args, **kwargs)
            if work is not None:
                record[6] = work(args, result)
        return result

    wrapper.__wrapped__ = func
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, path, name, work in HOOKS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, work))
        for module_name in QUEUE_MODULES:
            module = importlib.import_module(module_name)
            original = module.iter_microbatch_arenas

            def batches(*args, _original=original, **kwargs):
                return tracer.iterate(
                    _original(*args, **kwargs), "serving.queue",
                    work=lambda item: item[0].num_requests,
                )

            saved.append((module, "iter_microbatch_arenas", original))
            module.iter_microbatch_arenas = batches
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _under(spans, index, names) -> bool:
    """Whether span ``index`` has an ancestor named in ``names``."""
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][1] in names:
            return True
        parent = spans[parent][4]
    return False


def layer_metrics(spans) -> dict:
    """Fold spans into the per-layer metrics: name -> (value, unit).

    Shares are a layer's self time over the traced run's wall (the sum
    of the root spans: set-up and the traced rounds); rates are a
    layer's work over its inclusive busy time; counts are exact.
    ``trace.coverage_fraction`` is the share of the traced rounds' wall
    that traced layer calls cover, the servers' own loops excluded.
    """
    self_ns = [end - start for _, _, start, end, _, _, _ in spans]
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    total_ns = sum(s[3] - s[2] for s in spans if s[4] < 0)
    busy, own, calls, work = {}, {}, {}, {}
    # Planner calls by role: a sweep point is a call issued directly by
    # a sweep, a replan a warm start issued inside a serving loop, and a
    # replica point's inner shard is part of that point, not a plan.
    role_calls, role_ns = {}, {}
    round_ns = covered_ns = loadgen_in_serve = 0
    for i, (_, name, start, end, parent, _, amount) in enumerate(spans):
        busy[name] = busy.get(name, 0) + (end - start)
        own[name] = own.get(name, 0) + self_ns[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + amount
        parent_name = spans[parent][1] if parent >= 0 else None
        role = None
        if parent_name == "core.sweep":
            role = "sweep"
        elif name == "core.shard.cold" and parent_name != "core.replication":
            role = "cold"
        elif name == "core.shard.warm":
            role = "replan" if _under(spans, i, SERVE_SPANS) else "warm"
        if role is not None:
            role_calls[role] = role_calls.get(role, 0) + 1
            role_ns[role] = role_ns.get(role, 0) + (end - start)
        if name == "serving.loadgen" and _under(spans, i, SERVE_SPANS):
            loadgen_in_serve += end - start
        if name == "core.workspace.refresh" and parent_name == BUILD:
            # A build fills its buffers through refresh: count it there.
            own[BUILD] = own.get(BUILD, 0) + self_ns[i]
            own[name] -= self_ns[i]
        if name == "bench.round":
            round_ns += end - start
        elif name not in SERVE_SPANS and _under(spans, i, ("bench.round",)):
            covered_ns += self_ns[i]

    def share(name):
        return own.get(name, 0) / total_ns if total_ns else 0.0

    def rate(count, ns):
        return count / (ns * 1e-9) if ns > 0 else 0.0

    def busy_rate(name):
        return rate(work.get(name, 0), busy.get(name, 0))

    def call_rate(name):
        return rate(calls.get(name, 0), busy.get(name, 0))

    def role_rate(role):
        return rate(role_calls.get(role, 0), role_ns.get(role, 0))

    serve_ns = sum(busy.get(name, 0) for name in SERVE_SPANS)
    plans = sum(role_calls.get(r, 0) for r in ("sweep", "cold", "warm",
                                               "replan"))
    frac, count, per_s = "fraction", "count", "1/s"
    return {
        "data.sample_share": (share("data.sample"), frac),
        "data.draws_per_s": (busy_rate("data.sample"), per_s),
        "data.refresh_share": (share("data.refresh"), frac),
        "serving.loadgen.share": (share("serving.loadgen"), frac),
        "serving.loadgen.requests_per_s": (
            busy_rate("serving.loadgen"), per_s
        ),
        "serving.queue.batches": (calls.get("serving.queue", 0), count),
        "serving.queue.share": (share("serving.queue"), frac),
        "engine.build_share": (share("engine.build"), frac),
        "engine.batches": (calls.get("engine.reduce", 0), count),
        "engine.lookups": (work.get("engine.reduce", 0), count),
        "engine.run_batch_share": (share("engine.run_batch"), frac),
        "engine.lookups_per_s": (busy_rate("engine.run_batch"), per_s),
        "engine.classify_share": (share("engine.classify"), frac),
        "engine.reduce_share": (share("engine.reduce"), frac),
        "serving.metrics.record_share": (
            share("serving.metrics.record"), frac
        ),
        "serving.server.self_share": (share("serving.server.serve"), frac),
        "serving.server.requests_per_s": (
            rate(work.get("serving.queue", 0), serve_ns - loadgen_in_serve),
            per_s,
        ),
        "serving.overload.share": (share("serving.overload.admit"), frac),
        "serving.overload.shed_requests": (
            work.get("serving.overload.admit", 0), count
        ),
        "serving.drift.observe_share": (share("serving.drift.observe"), frac),
        "stats.profile_share": (share("stats.profile"), frac),
        "core.replans": (role_calls.get("replan", 0), count),
        "core.replans_per_s": (role_rate("replan"), per_s),
        "core.workspace_build_share": (share(BUILD), frac),
        "core.workspace_refresh_share": (
            share("core.workspace.refresh"), frac
        ),
        "core.plans": (plans, count),
        "core.cold_plans_per_s": (role_rate("cold"), per_s),
        "core.warm_plans_per_s": (role_rate("warm"), per_s),
        "core.sweep_points_per_s": (role_rate("sweep"), per_s),
        "core.strategy_plans_per_s": (call_rate("core.strategies"), per_s),
        "core.replication_plans_per_s": (
            call_rate("core.replication"), per_s
        ),
        "serving.arena.to_shm_share": (share("serving.arena.to_shm"), frac),
        "serving.arena.handoff_mb": (
            work.get("serving.arena.to_shm", 0) / 2**20, "MB"
        ),
        "serving.mp.pool_start_share": (share("serving.mp.start"), frac),
        "serving.mp.frontend_wait_share": (share("serving.mp.serve"), frac),
        "trace.coverage_fraction": (
            covered_ns / round_ns if round_ns else 0.0, frac
        ),
        "trace.spans": (len(spans), count),
    }
