"""Reference implementations the shipped code is pinned against.

Each layer of ``src/repro`` ships one path.  The slower, simpler code
those paths replaced lives here, unchanged in behaviour, so parity
suites and benches can check the shipped results against it:

* :mod:`tests.oracles.planner` — the per-step heapq fast and multi-tier
  greedy sharders;
* :mod:`tests.oracles.engine` — the per-lookup remap-table executor
  with argmin replica routing;
* :mod:`tests.oracles.serving` — per-request objects, the FIFO
  microbatch queue, and servers that run them.

The oracles subclass the shipped classes, or swap a class into a
module global for a block; ``src`` carries no hook for them.
"""
