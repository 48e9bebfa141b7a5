"""Reference implementations the shipped code is pinned against.

Each layer of ``src/repro`` ships one path.  The slower, simpler code
those paths replaced lives here, unchanged in behaviour, so parity
suites and benches can check the shipped results against it:

* :mod:`tests.oracles.icdf` — the per-point ICDF sampler and the
  per-table records the scalar planners read;
* :mod:`tests.oracles.planner` — the per-step heapq fast and multi-tier
  greedy sharders, and the MILP sharder's heapq refill;
* :mod:`tests.oracles.branch_bound` — a pure-Python branch and bound
  over the same :class:`~repro.milp.problem.MilpProblem` arrays, with
  its own feasibility check, that stops on a node budget,
  cross-checking HiGHS and pinning the golden MILP plan;
* :mod:`tests.oracles.engine` — the per-lookup remap-table executor
  with argmin replica routing;
* :mod:`tests.oracles.serving` — per-request objects, the FIFO
  microbatch queue, and servers that run them.

The oracles subclass the shipped classes, or swap a class or the
solve function (:func:`tests.oracles.branch_bound.branch_and_bound`)
into a module global for a block; ``src`` carries no hook for them.
"""
