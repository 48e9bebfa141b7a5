"""Composable classification-lane registry for the executor.

Every fast path the executor supports — tier membership, the device
cache, tier staging, hot-row replication, and table-wise-row-wise
strategy cuts — reduces to the same primitive, because the remapping
packs each table's rows in descending frequency order: *count the
lookups whose rank falls below a per-table cumulative cutoff*.  This
module makes that explicit.  A :class:`Lane` is one named per-table
cutoff vector with a role; a :class:`LaneRegistry` is the ordered set
the executor classifies against.

Classification gathers one lane code per lookup from a
:class:`LaneCodes` table — each row's code says which of the table's
lane edges its rank falls below — counts the codes once per edge, and
reads every lane's prefix count off those counts
(:meth:`LaneSlots.read`) for the executor's reduction.  The parity
oracle, ``tests/oracles/engine.py``, reconstructs ranks through the
remapping tables instead; identical prefix counts mean bit-identical
metrics, the per-lane parity gate the tests and benches pin.

Lane roles:

``bound``
    Tier boundary ``t`` (cumulative rows through tier ``t``); prefix
    differences between consecutive bound lanes are the per-tier
    counts.  The last tier needs no lane — its count is the remainder.
``hit``
    Tier ``t``'s fast-lane cutoff (device cache for tier 0, staging
    for cold tiers); registered only for tiers where some table's
    cutoff sits strictly above the tier's lower boundary.
``replica``
    The replica-lane cutoff: ranks below it exist on every device and
    are routed least-loaded at reduce time.
``cut``
    One interior rank cut point of a table-wise-row-wise strategy
    split (slot ``index`` across all tables; tables with fewer cuts
    carry a zero edge, whose prefix count is zero by construction).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Lane:
    """One registered classification lane.

    ``edges_list[j]`` is table ``j``'s cumulative rank cutoff; a lookup
    of table ``j`` is *in* the lane when its frequency rank is strictly
    below that edge.  Plain ints, because the code tables and scan
    slots are built one edge at a time (numpy scalar extraction is
    expensive at hundreds of tables).
    """

    name: str
    role: str  # "bound" | "hit" | "replica" | "cut"
    index: int  # tier for bound/hit, cut slot for cut, 0 for replica
    edges_list: tuple[int, ...]


def _make_lane(name: str, role: str, index: int, edges) -> Lane:
    return Lane(name, role, index, tuple(int(e) for e in edges))


class LaneRegistry:
    """The ordered lane set one executor classifies every batch against."""

    def __init__(self, lanes):
        self.lanes = tuple(lanes)
        by_role: dict[str, list[Lane]] = {}
        for lane in self.lanes:
            by_role.setdefault(lane.role, []).append(lane)
        replicas = by_role.get("replica", [])
        if len(replicas) > 1:
            raise ValueError("at most one replica lane")
        self.replica: Lane | None = replicas[0] if replicas else None
        self.cuts: tuple[Lane, ...] = tuple(
            sorted(by_role.get("cut", []), key=lambda lane: lane.index)
        )
        self._hits = {lane.index: lane for lane in by_role.get("hit", [])}
        self._bounds = {lane.index: lane for lane in by_role.get("bound", [])}

    def __iter__(self):
        return iter(self.lanes)

    def __len__(self) -> int:
        return len(self.lanes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(lane.name for lane in self.lanes)

    def hit(self, tier: int) -> Lane | None:
        """Tier ``tier``'s fast-lane cutoff lane, if registered."""
        return self._hits.get(tier)

    def bound(self, tier: int) -> Lane | None:
        """Tier ``tier``'s boundary lane (``None`` for the last tier)."""
        return self._bounds.get(tier)


def build_lanes(
    tier_bounds: np.ndarray,
    tier_cutoffs: np.ndarray,
    hit_tiers,
    replica_cut: np.ndarray | None = None,
    strategy_cuts: np.ndarray | None = None,
) -> LaneRegistry:
    """Register every lane one executor configuration needs.

    Args:
        tier_bounds: ``(tables, tiers)`` cumulative tier boundaries.
        tier_cutoffs: ``(tables, tiers)`` fast-lane cutoffs (cache /
            staging), already clamped into each tier's interval.
        hit_tiers: tiers whose cutoff is active for at least one table.
        replica_cut: per-table replica cutoffs, or ``None``.
        strategy_cuts: ``(tables, slots)`` twrw interior cut points
            (zero-padded), or ``None``.

    The order — replica, strategy cuts, then per tier hit and bound —
    is the classification pass order of both execution paths.
    """
    num_tiers = tier_bounds.shape[1]
    lanes: list[Lane] = []
    if replica_cut is not None:
        lanes.append(_make_lane("replica", "replica", 0, replica_cut))
    if strategy_cuts is not None:
        for slot in range(strategy_cuts.shape[1]):
            lanes.append(
                _make_lane(f"cut:{slot}", "cut", slot, strategy_cuts[:, slot])
            )
    for t in range(num_tiers):
        if t in hit_tiers:
            lanes.append(_make_lane(f"hit:{t}", "hit", t, tier_cutoffs[:, t]))
        if t < num_tiers - 1:
            lanes.append(
                _make_lane(f"bound:{t}", "bound", t, tier_bounds[:, t])
            )
    return LaneRegistry(lanes)


@dataclass(frozen=True)
class LaneSlots:
    """Where one registry's lanes read a batch's prefix-count vector.

    Each array holds, per table, the index into the vector that
    :meth:`LaneCodes.prefix_counts` fills for a batch: ``bound[j, t]``
    counts the lookups below tier ``t``'s boundary (every lookup for the
    last tier), ``hit[j, t] - hit_base[j, t]`` is tier ``t``'s fast-lane
    count, ``replica[j]`` the replica lane's and ``cuts[j, s]`` cut slot
    ``s``'s.  Index 0 always holds 0, so an absent or zero edge reads
    nothing.  ``hit`` is ``None`` without hit lanes, ``replica``
    without a replica lane and ``cuts`` without cut lanes.
    """

    bound: np.ndarray
    hit: np.ndarray | None
    hit_base: np.ndarray | None
    replica: np.ndarray | None
    cuts: np.ndarray | None

    def read(self, prefix: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None
    ]:
        """``(counts, hits, replicas, cuts)`` of one batch.

        Per-tier counts are differences of consecutive boundary
        prefixes, so tier ids are never materialized.
        """
        counts = np.diff(prefix[self.bound], axis=1, prepend=0)
        if self.hit is None:
            hits = np.zeros_like(counts)
        else:
            hits = prefix[self.hit] - prefix[self.hit_base]
        return (
            counts,
            hits,
            None if self.replica is None else prefix[self.replica],
            None if self.cuts is None else prefix[self.cuts],
        )


class LaneCodes:
    """Per-table lane-code tables: one small code per row.

    The tier half of the Section 4.3 remapping layer, widened to every
    lane.  Table ``j``'s edges ``E_j`` are the sorted, distinct lane
    edges of ``registries`` that lie strictly inside ``(0, num_rows)``.
    A row's code is ``searchsorted(E_j, rank, side="right")`` — how many
    edges sit at or below the row's frequency rank — so ``rank <
    E_j[k]`` exactly when ``code <= k``.  Classifying a lookup is then
    one gather of a code (``uint8`` unless a table has more than 255
    edges), and a lane's prefix count is a count of small codes.
    Edges at or below 0 count nothing and edges at or above
    ``num_rows`` count every lookup, so they need no code.

    A batch's counts land in one prefix-count vector: index 0 holds 0,
    then each table in turn contributes its :meth:`prefix_counts`
    (``len(E_j) + 1`` entries from ``offsets[j]``).  A registry's
    :meth:`slots` say where each of its lanes reads that vector.

    Args:
        registries: the lane sets to cover — one executor's, or several
            for a multi-plan replay (their edges are merged per table).
        row_orders: per table, the row ids in descending-frequency
            order (the profile's ``cdf.row_order``).  The tables are
            scattered through slices of it; no rank array is built.
    """

    def __init__(self, registries, row_orders):
        self.edges: list[tuple[int, ...]] = []
        self.num_rows: list[int] = []
        self.offsets: list[int] = []
        #: codes indexed by hashed row id (jagged batches)
        self.by_row: list[np.ndarray] = []
        self._by_rank: list[np.ndarray | None] = []
        size = 1
        for j, order in enumerate(row_orders):
            rows = order.size
            edges = tuple(sorted({
                e for registry in registries for lane in registry
                if 0 < (e := lane.edges_list[j]) < rows
            }))
            # Codes run 0..len(edges): the smallest unsigned dtype.
            codes = np.empty(rows, dtype=np.min_scalar_type(len(edges)))
            bounds = (0, *edges, rows)
            for k in range(len(bounds) - 1):
                codes[order[bounds[k] : bounds[k + 1]]] = k
            self.edges.append(edges)
            self.num_rows.append(rows)
            self.offsets.append(size)
            self.by_row.append(codes)
            self._by_rank.append(None)
            size += len(edges) + 1
        # Reused bool mask of the per-edge counts: no fresh
        # (page-faulting) temporary per feature per batch, at the cost
        # of making prefix_counts non-reentrant.
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

    def prefix_counts(self, table_index: int, codes: np.ndarray) -> list[int]:
        """``[below(E_j[0]), ..., below(E_j[-1]), n]`` for one feature.

        ``below(e)`` counts the feature's lookups ranked below edge
        ``e``, read off the feature's gathered ``codes``: a single edge
        needs only a nonzero count, more edges one ``code <= k`` pass
        each.
        """
        n = codes.size
        num_edges = len(self.edges[table_index])
        if num_edges == 1:
            return [n - np.count_nonzero(codes), n]
        if self._mask.size < n:
            self._mask = np.empty(n, dtype=bool)
        mask = self._mask[:n]
        below = []
        for k in range(num_edges):
            np.less_equal(codes, k, out=mask)
            below.append(np.count_nonzero(mask))
        below.append(n)
        return below

    def _index(self, table_index: int, edge: int) -> int:
        """Where ``edge``'s prefix count sits in a batch's vector."""
        if edge <= 0:
            return 0
        edges = self.edges[table_index]
        if edge >= self.num_rows[table_index]:
            return self.offsets[table_index] + len(edges)
        return self.offsets[table_index] + bisect_left(edges, edge)

    def slots(self, registry: LaneRegistry, num_tiers: int) -> LaneSlots:
        """Where ``registry``'s lanes read this table's batch vectors.

        The registry's edges must be among this table's.  A tier's hit
        lane reads only where its cutoff sits strictly above the tier's
        lower boundary, against the baseline of the replica lane (tier
        0) or the previous boundary (cold tiers); elsewhere ``hit``
        equals ``hit_base`` and the count is 0.
        """
        num_tables = len(self.edges)
        index = self._index
        bound = np.empty((num_tables, num_tiers), dtype=np.intp)
        hit = np.empty_like(bound)
        hit_base = np.empty_like(bound)
        replica = registry.replica
        replica_at = np.zeros(num_tables, dtype=np.intp)
        for j in range(num_tables):
            if replica is not None:
                replica_at[j] = index(j, replica.edges_list[j])
            lower = 0
            for t in range(num_tiers):
                base = replica_at[j] if t == 0 else bound[j, t - 1]
                hit_base[j, t] = hit[j, t] = base
                hit_lane = registry.hit(t)
                if hit_lane is not None and hit_lane.edges_list[j] > lower:
                    hit[j, t] = index(j, hit_lane.edges_list[j])
                bound_lane = registry.bound(t)
                if bound_lane is None:  # the last tier takes the rest
                    bound[j, t] = index(j, self.num_rows[j])
                else:
                    lower = bound_lane.edges_list[j]
                    bound[j, t] = index(j, lower)
        cuts = None
        if registry.cuts:
            cuts = np.array(
                [
                    [index(j, lane.edges_list[j]) for lane in registry.cuts]
                    for j in range(num_tables)
                ],
                dtype=np.intp,
            ).reshape(num_tables, len(registry.cuts))
        has_hits = any(registry.hit(t) is not None for t in range(num_tiers))
        return LaneSlots(
            bound=bound,
            hit=hit if has_hits else None,
            hit_base=hit_base if has_hits else None,
            replica=replica_at if replica is not None else None,
            cuts=cuts,
        )
