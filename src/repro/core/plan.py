"""Sharding plans: the output of every sharding strategy.

A plan records, for every embedding table, which device owns it and how
its rows split across the memory tiers.  Rows are always split in
descending frequency order (the profile's ranking): the first
``rows_per_tier[0]`` hottest rows live on tier 0, the next block on
tier 1, and so on — fine-grained partitioning as in Section 4.2.  A
whole-table placement is simply a split with all rows in one tier.

:class:`ShardingPlan` is the only plan type.  Two optional per-table
facts ride on top of the split:

* ``table_strategies`` — one :class:`TableStrategy` per table
  (TorchRec's strategy menu, :mod:`repro.core.strategies`): column
  shards carry the table's tier split at a dim share, twrw shards a
  frequency-rank range of it;
* ``replica_rows`` — the hot-row replica set (FlexShard-style,
  :mod:`repro.core.replicate`): the leading ``replica_rows[j]`` ranks
  of table ``j`` are copied to every device's fastest tier that does
  not already hold them whole, within a per-device
  ``replica_budget_bytes``.

The two compose: a split table's replicas are charged per shard.  One
:meth:`ShardingPlan.validate` checks every plan: structure, then the
bytes each (device, tier) stores over the physical copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.data.model import ModelSpec
from repro.memory.topology import SystemTopology

STRATEGY_KINDS = ("row", "table", "column", "twrw")


class PlanError(ValueError):
    """A sharding plan violates a structural or capacity invariant."""


@dataclass(frozen=True)
class TablePlacement:
    """Placement of one table: owning device plus per-tier row counts."""

    table_index: int
    device: int
    rows_per_tier: tuple[int, ...]

    def __post_init__(self):
        if self.device < 0:
            raise PlanError(f"table {self.table_index}: negative device")
        if any(r < 0 for r in self.rows_per_tier):
            raise PlanError(f"table {self.table_index}: negative row count")

    @property
    def total_rows(self) -> int:
        return sum(self.rows_per_tier)

    @property
    def hbm_rows(self) -> int:
        return self.rows_per_tier[0]

    def tier_fraction(self, tier_index: int) -> float:
        """Fraction of this table's rows on the given tier."""
        if self.total_rows == 0:
            return 0.0
        return self.rows_per_tier[tier_index] / self.total_rows

    @property
    def uvm_fraction(self) -> float:
        """Fraction of rows beyond the first tier (Figure 12's bar height)."""
        if self.total_rows == 0:
            return 0.0
        return 1.0 - self.rows_per_tier[0] / self.total_rows


@dataclass(frozen=True)
class TableStrategy:
    """One table's sharding strategy.

    ``devices`` lists the physical shard homes: empty for ``row`` /
    ``table`` (the placement's device owns the whole table), one
    device per column shard (paired with ``dims``), one per twrw rank
    range (``row_cuts`` lists the interior cumulative rank cut points).
    """

    kind: str = "row"
    devices: tuple[int, ...] = ()
    dims: tuple[int, ...] = ()
    row_cuts: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise PlanError(f"unknown strategy kind {self.kind!r}")
        if self.kind in ("row", "table"):
            if self.devices or self.dims or self.row_cuts:
                raise PlanError(
                    f"{self.kind}-wise strategy takes no shard spec"
                )
            return
        if len(self.devices) < 2:
            raise PlanError(f"{self.kind} strategy needs >= 2 shard devices")
        if len(set(self.devices)) != len(self.devices):
            raise PlanError(f"{self.kind} shard devices must be distinct")
        if self.kind == "column":
            if len(self.dims) != len(self.devices):
                raise PlanError("column strategy needs one dim per device")
            if self.row_cuts:
                raise PlanError("column strategy takes no row cuts")
            if any(d < 1 for d in self.dims):
                raise PlanError("column shard dims must be >= 1")
        else:  # twrw
            if self.dims:
                raise PlanError("twrw strategy takes no dims")
            if len(self.row_cuts) != len(self.devices) - 1:
                raise PlanError(
                    "twrw strategy needs len(devices) - 1 row cuts"
                )
            if any(c <= 0 for c in self.row_cuts) or any(
                b <= a for a, b in zip(self.row_cuts, self.row_cuts[1:])
            ):
                raise PlanError(
                    "twrw row cuts must be positive and strictly increasing"
                )

    @property
    def num_shards(self) -> int:
        return max(1, len(self.devices))


def crossing_cells(tier_prefix, shard_lo, shard_hi) -> np.ndarray:
    """What lies in each tier of each shard's rank range.

    ``tier_prefix`` is a monotone prefix array over a table's frequency
    ranks, tiers on the first axis (``(tiers + 1, ...)``, starting at 0
    and ending at the total): rank boundaries, coverage masses at those
    boundaries, or classified lookups below them.  ``shard_lo`` and
    ``shard_hi`` bound each shard's rank range in the same units,
    broadcast against ``tier_prefix[0]``.  Because both partitions are
    prefixes of the same order, tier ``t`` of a shard holds what lies
    between ``max(tier[t], lo)`` and ``min(tier[t + 1], hi)``.  Capacity
    checks (rows) and the cost evaluator (coverage) read every shard's
    tier cells from here.
    """
    tier_prefix = np.asarray(tier_prefix)
    upper = np.minimum(tier_prefix[1:], shard_hi)
    lower = np.maximum(tier_prefix[:-1], shard_lo)
    return np.maximum(0, upper - lower)


class Shards(NamedTuple):
    """A plan's physical shards, as flat arrays in table order.

    Shard ``k`` holds table ``table[k]``'s frequency ranks
    ``[rank_lo[k], rank_hi[k])`` on device ``device[k]`` at embedding
    width ``dim[k]``.
    """

    table: np.ndarray
    device: np.ndarray
    rank_lo: np.ndarray
    rank_hi: np.ndarray
    dim: np.ndarray


def _tier_row_bytes(row_bytes, tiers) -> np.ndarray:
    """``(rows, tiers)`` bytes one row of each width takes on each tier."""
    row_bytes = np.asarray(row_bytes, dtype=np.int64)
    # Rows share a handful of widths: quantize each width once.
    widths, row_width = np.unique(row_bytes, return_inverse=True)
    return np.array(
        [[tier.row_bytes_for(int(w)) for tier in tiers] for w in widths],
        dtype=np.int64,
    ).reshape(len(widths), len(tiers))[row_width]


@dataclass
class ShardingPlan:
    """A complete sharding decision for a model on a topology.

    Attributes:
        strategy: the sharder's name.
        placements: one :class:`TablePlacement` per table.
        metadata: sharder outputs (estimated costs, solver, sweep key).
        table_strategies: one :class:`TableStrategy` per table, or
            ``None`` for every table ``row``-wise.
        replica_rows: per-table count of leading ranks replicated on
            every device's fastest tier (an int64 array), or ``None``
            without replication.
        replica_budget_bytes: the per-device replica byte budget; set
            exactly when ``replica_rows`` is.
    """

    strategy: str
    placements: list[TablePlacement]
    metadata: dict = field(default_factory=dict)
    table_strategies: tuple[TableStrategy, ...] | None = None
    replica_rows: np.ndarray | None = field(default=None, compare=False)
    replica_budget_bytes: int | None = None

    def __post_init__(self):
        expected = list(range(len(self.placements)))
        actual = sorted(p.table_index for p in self.placements)
        if actual != expected:
            raise PlanError("placements must cover each table exactly once")
        self.placements = sorted(self.placements, key=lambda p: p.table_index)
        if self.table_strategies is not None:
            self.table_strategies = tuple(self.table_strategies)
            if len(self.table_strategies) != len(self.placements):
                raise PlanError(
                    f"{len(self.table_strategies)} strategies for "
                    f"{len(self.placements)} tables"
                )
        if (self.replica_rows is None) != (self.replica_budget_bytes is None):
            raise PlanError(
                "replica_rows and replica_budget_bytes are set together"
            )
        if self.replica_rows is not None:
            self.replica_rows = np.asarray(self.replica_rows, dtype=np.int64)
            if self.replica_rows.shape != (len(self.placements),):
                raise PlanError(
                    f"replica_rows covers {self.replica_rows.shape} "
                    f"tables, plan has {len(self.placements)}"
                )
            if (self.replica_rows < 0).any():
                raise PlanError("negative replica row count")

    def __len__(self) -> int:
        return len(self.placements)

    def __getitem__(self, table_index: int) -> TablePlacement:
        return self.placements[table_index]

    def __iter__(self):
        return iter(self.placements)

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def tables_on_device(self, device: int) -> list[TablePlacement]:
        return [p for p in self.placements if p.device == device]

    def tier_rows_total(self, tier_index: int) -> int:
        """Rows placed on one tier across all devices."""
        return sum(p.rows_per_tier[tier_index] for p in self.placements)

    def num_devices_used(self) -> int:
        return len({p.device for p in self.placements})

    def strategy_counts(self) -> dict[str, int]:
        """Tables per strategy kind."""
        counts = dict.fromkeys(STRATEGY_KINDS, 0)
        if self.table_strategies is None:
            counts["row"] = len(self.placements)
        else:
            for strat in self.table_strategies:
                counts[strat.kind] += 1
        return counts

    @property
    def num_replicated_rows(self) -> int:
        """Distinct rows in the replica set (copies not counted)."""
        if self.replica_rows is None:
            return 0
        return int(self.replica_rows.sum())

    def replica_bytes_per_device(
        self, model: ModelSpec, topology: SystemTopology
    ) -> np.ndarray:
        """Replica bytes charged to each device's fastest tier.

        A replica is a whole row, stored at the fastest tier's
        precision on every device.  A device is charged for every
        replicated row it does not hold whole: the full replica
        footprint minus the replicated ranks of its own unsplit and
        twrw shards (a column shard holds only a slice of each row).
        All zeros without replication.
        """
        charged = np.zeros(topology.num_devices, dtype=np.int64)
        if self.replica_rows is None:
            return charged
        row_bytes = _tier_row_bytes(model.row_bytes, topology.tiers[:1])[:, 0]
        shards = self.shards(model)
        held = crossing_cells(
            [np.zeros_like(shards.table), self.replica_rows[shards.table]],
            shards.rank_lo, shards.rank_hi,
        )[0]
        whole = shards.dim == model.dims[shards.table]
        np.subtract.at(
            charged, shards.device, whole * held * row_bytes[shards.table]
        )
        return charged + (self.replica_rows * row_bytes).sum()

    def shards(self, model: ModelSpec) -> Shards:
        """Expand every table into its physical shards.

        A plain, ``row`` or ``table`` table is one shard on its home
        device over ``[0, num_rows)``; a ``column`` table one shard per
        device over the full rank range at that shard's dim; a ``twrw``
        table one shard per device over its rank range.  Capacity
        (:meth:`tier_usage`), the cost evaluator and the executor all
        read this one expansion.
        """
        num_rows, dims = model.num_rows, model.dims
        home = np.array([p.device for p in self.placements], dtype=np.int64)
        split = {
            j: s for j, s in enumerate(self.table_strategies or ()) if s.devices
        }
        count = np.ones(home.size, dtype=np.int64)
        count[list(split)] = [len(s.devices) for s in split.values()]
        table = np.repeat(np.arange(home.size), count)
        device, rank_hi, dim = home[table], num_rows[table], dims[table]
        rank_lo = np.zeros_like(table)
        first = np.cumsum(count) - count
        for j, strat in split.items():
            at = slice(first[j], first[j] + len(strat.devices))
            device[at] = strat.devices
            if strat.kind == "column":
                dim[at] = strat.dims
            else:  # twrw
                rank_lo[at] = (0, *strat.row_cuts)
                rank_hi[at] = (*strat.row_cuts, num_rows[j])
        return Shards(table, device, rank_lo, rank_hi, dim)

    def tier_usage(
        self, model: ModelSpec, topology: SystemTopology
    ) -> np.ndarray:
        """Bytes stored on each ``(device, tier)`` over the physical copies.

        Each tier charges its rows at its own ``precision``
        (:meth:`~repro.memory.tier.MemoryTier.row_bytes_for`).  Every
        shard (:meth:`shards`) charges the rows of its rank range in
        each tier, at its own width.  With ``reclaim_dead`` (Section
        3.4) the rows never observed in training sit, unbacked, at the
        cold end of the last tier and are not charged.  Replica copies
        land on the fastest tier.
        """
        rows = np.array(
            [p.rows_per_tier for p in self.placements], dtype=np.int64
        ).reshape(len(self.placements), topology.num_tiers)
        dead_rows = self.metadata.get("dead_rows")
        if self.metadata.get("reclaim_dead") and dead_rows is not None:
            rows[:, -1] -= np.minimum(
                np.asarray(dead_rows, dtype=np.int64), rows[:, -1]
            )
        shards = self.shards(model)
        # (tiers + 1, shards) cumulative tier boundaries of each shard's
        # table, clipped to the shard's rank range.
        prefix = np.concatenate(
            (np.zeros((1, rows.shape[0]), dtype=np.int64), rows.cumsum(1).T)
        )[:, shards.table]
        cells = crossing_cells(prefix, shards.rank_lo, shards.rank_hi)
        dtype_bytes = np.array([t.dtype_bytes for t in model.tables])
        row_bytes = _tier_row_bytes(
            shards.dim * dtype_bytes[shards.table], topology.tiers
        )
        usage = np.zeros(
            (topology.num_devices, topology.num_tiers), dtype=np.int64
        )
        np.add.at(usage, shards.device, cells.T * row_bytes)
        usage[:, 0] += self.replica_bytes_per_device(model, topology)
        return usage

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, model: ModelSpec, topology: SystemTopology) -> None:
        """Raise :class:`PlanError` on any structural/capacity violation.

        Checks every table's split and shard spec, that every replicated
        row is resident on its table's fastest tier and every device's
        replica bytes fit the budget, then each ``(device, tier)`` of
        :meth:`tier_usage` against the tier's capacity.
        """
        if len(self.placements) != model.num_tables:
            raise PlanError(
                f"plan has {len(self.placements)} placements for "
                f"{model.num_tables} tables"
            )
        strategies = self.table_strategies or (
            (TableStrategy(),) * len(self.placements)
        )
        for placement, strat in zip(self.placements, strategies):
            j = placement.table_index
            table = model.tables[j]
            if len(placement.rows_per_tier) != topology.num_tiers:
                raise PlanError(
                    f"table {j}: {len(placement.rows_per_tier)} tiers vs "
                    f"topology {topology.num_tiers}"
                )
            if placement.total_rows != table.num_rows:
                raise PlanError(
                    f"table {j}: rows_per_tier sums to "
                    f"{placement.total_rows}, table has {table.num_rows}"
                )
            for device in (placement.device, *strat.devices):
                if device >= topology.num_devices:
                    raise PlanError(
                        f"table {j}: device {device} out of range"
                    )
            if strat.kind == "column" and sum(strat.dims) != table.dim:
                raise PlanError(
                    f"table {j}: column shard dims sum to "
                    f"{sum(strat.dims)}, table dim is {table.dim}"
                )
            if strat.kind == "twrw" and any(
                c >= table.num_rows for c in strat.row_cuts
            ):
                raise PlanError(
                    f"table {j}: twrw row cut beyond {table.num_rows} rows"
                )
        if self.replica_rows is not None:
            for placement, rows in zip(self.placements, self.replica_rows):
                if rows > placement.rows_per_tier[0]:
                    raise PlanError(
                        f"table {placement.table_index}: {rows} replicated "
                        f"rows exceed the {placement.rows_per_tier[0]} "
                        f"rows resident on the fastest tier"
                    )
            charged = self.replica_bytes_per_device(model, topology)
            for device, used in enumerate(charged):
                if used > self.replica_budget_bytes:
                    raise PlanError(
                        f"device {device}: {used} replica bytes exceed "
                        f"the {self.replica_budget_bytes}-byte budget"
                    )
        usage = self.tier_usage(model, topology)
        for device in range(topology.num_devices):
            for tier_index, tier in enumerate(topology.tiers):
                used = int(usage[device, tier_index])
                if used > tier.capacity_bytes:
                    raise PlanError(
                        f"device {device} tier {tier.name}: {used} bytes "
                        f"exceeds capacity {tier.capacity_bytes}"
                    )

    # ------------------------------------------------------------------
    # Plan comparison (Table 4)
    # ------------------------------------------------------------------
    def placement_disparity(self, other: "ShardingPlan") -> dict[str, float]:
        """Row-level placement disagreement with another plan (Table 4).

        Because both plans split rows in the same descending-frequency
        order, row-level membership reduces to comparing HBM prefix
        sizes.  Returns the fraction of all rows that ``other`` put in
        UVM but ``self`` puts in HBM (``uvm_to_hbm``) and vice versa.
        """
        if len(other) != len(self):
            raise PlanError("plans cover different table counts")
        total_rows = sum(p.total_rows for p in self.placements)
        uvm_to_hbm = 0
        hbm_to_uvm = 0
        for mine, theirs in zip(self.placements, other.placements):
            uvm_to_hbm += max(0, mine.hbm_rows - theirs.hbm_rows)
            hbm_to_uvm += max(0, theirs.hbm_rows - mine.hbm_rows)
        if total_rows == 0:
            return {"uvm_to_hbm": 0.0, "hbm_to_uvm": 0.0}
        return {
            "uvm_to_hbm": uvm_to_hbm / total_rows,
            "hbm_to_uvm": hbm_to_uvm / total_rows,
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, model: ModelSpec, topology: SystemTopology) -> dict:
        """Aggregate placement statistics for reports and Figure 12.

        Strategy and replication statistics are added when the plan
        carries them.
        """
        total_rows = sum(p.total_rows for p in self.placements)
        uvm_rows = total_rows - self.tier_rows_total(0)
        per_table_uvm = [p.uvm_fraction for p in self.placements]
        tables_per_device = [
            len(self.tables_on_device(m)) for m in range(topology.num_devices)
        ]
        summary = {
            "strategy": self.strategy,
            "tables": len(self.placements),
            "devices": topology.num_devices,
            "total_rows": total_rows,
            "uvm_row_fraction": uvm_rows / total_rows if total_rows else 0.0,
            "mean_table_uvm_fraction": (
                float(np.mean(per_table_uvm)) if per_table_uvm else 0.0
            ),
            "tables_per_device": tables_per_device,
        }
        if self.table_strategies is not None:
            counts = self.strategy_counts()
            summary["strategy_counts"] = counts
            summary["split_tables"] = counts["column"] + counts["twrw"]
        if self.replica_rows is not None:
            charged = self.replica_bytes_per_device(model, topology)
            summary.update(
                replicated_rows=self.num_replicated_rows,
                replicated_tables=int(np.count_nonzero(self.replica_rows)),
                budget_bytes_per_device=int(self.replica_budget_bytes),
                max_replica_bytes_per_device=int(charged.max(initial=0)),
                replica_bytes_per_device=[int(b) for b in charged],
            )
        return summary
