"""Composable classification-lane registry for the executor.

Every fast path the executor supports — tier membership, the device
cache, tier staging, hot-row replication, and table-wise-row-wise
strategy cuts — reduces to the same primitive, because the remapping
packs each table's rows in descending frequency order: *count the
lookups whose rank falls below a per-table cumulative cutoff*.  This
module makes that explicit.  A :class:`Lane` is one named per-table
cutoff vector with a role; a :class:`LaneRegistry` is the ordered set
the executor classifies against.

Registration buys each lane both execution paths for free:

* the **vectorized** path computes one prefix count per lane and
  feature with one threshold scan over the feature's ranks
  (``ShardedExecutor._scan_feature``);
* the **scalar reference** path reconstructs ranks through the
  remapping tables (``ShardedExecutor._classify_scalar``).

Both paths feed the shared reduction, so identical prefix counts mean
bit-identical metrics — the per-lane parity gate the tests and benches
pin.

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

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Lane:
    """One registered classification lane.

    ``edges_list[j]`` is table ``j``'s cumulative rank cutoff; a lookup
    of table ``j`` is *in* the lane when its frequency rank is strictly
    below that edge.  Plain ints, because the per-feature scans index
    one edge at a time (numpy scalar extraction is expensive at
    hundreds of tables per batch).
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
