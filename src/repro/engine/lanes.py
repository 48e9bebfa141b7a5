"""Per-table lane-code tables: one small code per row.

Every fast path the executor supports — tier membership, the device
cache, tier staging, hot-row replication, and table-wise-row-wise
shard ranges — reduces to the same primitive, because the remapping
packs each table's rows in descending frequency order: a per-table
rank *edge*.  A table's edges cut its rank line into *segments*, and a
lookup's segment says everything about it: its tier, its lane (home,
fast, or replica), and the shard that serves it.

:class:`LaneCodes` stores, per row, the index of the segment its
frequency rank falls in, so classifying a batch is one gather of a
code per lookup and one count per segment.  The executor labels each
segment once, at build time, and pools the per-segment counts.  The
parity oracle, ``tests/oracles/engine.py``, resolves every lookup
through the remapping tables instead.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


class LaneCodes:
    """Per-table lane-code tables: one small code per row.

    The tier half of the Section 4.3 remapping layer, widened to every
    lane.  Table ``j``'s edges ``E_j`` are the sorted, distinct given
    edges that lie strictly inside ``(0, num_rows)``; they cut the rank
    line into ``len(E_j) + 1`` segments.  A row's code is
    ``searchsorted(E_j, rank, side="right")`` — the segment its
    frequency rank falls in — so classifying a lookup is one gather of
    a code (``uint8`` unless a table has more than 255 edges).  Edges
    at or below 0 and at or above ``num_rows`` cut nothing.

    A batch's counts land in one segment-count vector: table ``j``'s
    segments occupy ``len(E_j) + 1`` entries from ``offsets[j]``.

    Args:
        edges: per table, the candidate rank edges (any order;
            duplicates and out-of-range edges are dropped).  A
            multi-plan replay passes the union of its executors' edges.
        row_orders: per table, the row ids in descending-frequency
            order (the profile's ``cdf.row_order``).  The tables are
            scattered through slices of it; no rank array is built.
    """

    def __init__(self, edges, row_orders):
        self.edges: list[tuple[int, ...]] = []
        self.num_rows: list[int] = []
        self.offsets: list[int] = []
        #: codes indexed by hashed row id (jagged batches)
        self.by_row: list[np.ndarray] = []
        self._by_rank: list[np.ndarray | None] = []
        size = 0
        for table_edges, order in zip(edges, row_orders):
            rows = order.size
            cuts = tuple(sorted({e for e in table_edges if 0 < e < rows}))
            # Codes run 0..len(cuts): the smallest unsigned dtype.
            codes = np.empty(rows, dtype=np.min_scalar_type(len(cuts)))
            bounds = (0, *cuts, rows)
            for k in range(len(bounds) - 1):
                codes[order[bounds[k] : bounds[k + 1]]] = k
            self.edges.append(cuts)
            self.num_rows.append(rows)
            self.offsets.append(size)
            self.by_row.append(codes)
            self._by_rank.append(None)
            size += len(cuts) + 1
        #: length of a batch's segment-count vector
        self.num_segments = size
        # Reused bool mask of the per-edge counts: no fresh
        # (page-faulting) temporary per feature per batch, at the cost
        # of making segment_counts non-reentrant.
        self._mask = np.empty(0, dtype=bool)

    def by_rank(self, table_index: int) -> np.ndarray:
        """Table ``table_index``'s codes indexed by frequency rank (for
        pre-ranked batches): a step function, built on first use."""
        table = self._by_rank[table_index]
        if table is None:
            edges = self.edges[table_index]
            bounds = (0, *edges, self.num_rows[table_index])
            table = self._by_rank[table_index] = np.repeat(
                np.arange(len(bounds) - 1, dtype=self.by_row[table_index].dtype),
                np.diff(bounds),
            )
        return table

    def segment_counts(self, table_index: int, codes: np.ndarray) -> list[int]:
        """One feature's lookups per segment, from its gathered codes.

        A single edge needs only a nonzero count; more edges one
        ``code <= k`` pass each.
        """
        n = codes.size
        num_edges = len(self.edges[table_index])
        if num_edges == 1:
            above = np.count_nonzero(codes)
            return [n - above, above]
        if self._mask.size < n:
            self._mask = np.empty(n, dtype=bool)
        mask = self._mask[:n]
        counts = []
        below = 0
        for k in range(num_edges):
            np.less_equal(codes, k, out=mask)
            now = np.count_nonzero(mask)
            counts.append(now - below)
            below = now
        counts.append(n - below)
        return counts

    def segment_starts(self, edges) -> np.ndarray:
        """Where each segment cut by ``edges`` begins in this table's
        segment-count vector.

        ``edges[j]`` must be a subset of ``self.edges[j]`` (another code
        table's edges, for a multi-plan replay), so each of its
        segments is a run of this table's; ``np.add.reduceat`` at these
        starts folds a batch's vector into the other table's.
        """
        return np.array(
            [
                self.offsets[j]
                + (bisect_left(self.edges[j], e) + 1 if e else 0)
                for j, table_edges in enumerate(edges)
                for e in (0, *table_edges)
            ],
            dtype=np.intp,
        )
