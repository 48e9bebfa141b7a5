"""Preset topologies matching the paper's training system (Section 5.2).

The evaluation node is a two-socket server with 16x NVIDIA A100 (40 GB),
24 GB of HBM reserved for EMBs per GPU, 128 GB of host DRAM per GPU for
UVM EMBs, and UVM over PCIe 3.0x16.

Bandwidths here are *effective gather* bandwidths rather than datasheet
peaks: embedding lookups are random ~256 B gathers, which achieve a
fraction of peak on HBM (no coalescing) and suffer page-granularity
overheads over UVM.  The defaults give an HBM:UVM per-row cost ratio of
~20x, which reconciles the paper's measured iteration times (Tables 3
and 5 jointly imply an effective ratio in the 15-20x range, not the
~120x ratio of the datasheet peaks).  Absolute times in this repo are
simulated; ratios are what carry.
"""

from __future__ import annotations

import math

from repro.data.model import DEFAULT_ROW_SCALE
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology

GIB = 2**30

# Paper system constants (per GPU).
PAPER_HBM_RESERVED_BYTES = 24 * GIB
PAPER_HOST_DRAM_BYTES = 128 * GIB
# Effective random-gather bandwidths (see module docstring).
HBM_GATHER_BANDWIDTH = 256e9
UVM_GATHER_BANDWIDTH = 12.8e9
SSD_GATHER_BANDWIDTH = 1.6e9
HDD_GATHER_BANDWIDTH = 0.2e9

#: Named tier presets: unscaled per-GPU capacity and effective gather
#: bandwidth.  "dram" is the host-DRAM tier under its serving-side name
#: ("uvm" is the same memory reached through UVM during training).
TIER_PRESETS = {
    "hbm": (PAPER_HBM_RESERVED_BYTES, HBM_GATHER_BANDWIDTH),
    "uvm": (PAPER_HOST_DRAM_BYTES, UVM_GATHER_BANDWIDTH),
    "dram": (PAPER_HOST_DRAM_BYTES, UVM_GATHER_BANDWIDTH),
    "ssd": (1024 * GIB, SSD_GATHER_BANDWIDTH),
    "hdd": (8192 * GIB, HDD_GATHER_BANDWIDTH),
}

#: Canonical fastest-first tier ladder for tier-count sweeps: a
#: ``T``-tier topology is the first ``T`` rungs.
TIER_LADDER = ("hbm", "uvm", "ssd", "hdd")


def paper_scales(num_features: int, num_gpus: int) -> tuple[float, float]:
    """Capacity scales preserving the paper's sharding-pressure regimes.

    Returns ``(topology_scale, row_scale)`` for a shrunken world of
    ``num_features`` sparse features on ``num_gpus`` GPUs: tier
    capacities shrink with the feature count, and per-table rows
    additionally shrink with the GPU count, so RM1 still fits in HBM
    while RM2/RM3 still spill — regardless of how far the workload is
    scaled down.  Used by the CLI and the benchmark fixtures so both
    build the same world for the same knobs.
    """
    topology_scale = 1e-3 * num_features / 397
    row_scale = topology_scale * num_gpus / 16
    return topology_scale, row_scale


def paper_node(
    num_gpus: int = 16,
    scale: float = DEFAULT_ROW_SCALE,
    hbm_bandwidth: float = HBM_GATHER_BANDWIDTH,
    uvm_bandwidth: float = UVM_GATHER_BANDWIDTH,
) -> SystemTopology:
    """The paper's 16-GPU evaluation node, capacity-scaled by ``scale``.

    ``scale`` must match the ``row_scale`` used to build the model specs
    so that the sharding-pressure regimes (RM1 fits, RM2/RM3 spill) are
    preserved.
    """
    return SystemTopology.two_tier(
        num_devices=num_gpus,
        hbm_capacity=int(PAPER_HBM_RESERVED_BYTES * scale),
        hbm_bandwidth=hbm_bandwidth,
        uvm_capacity=int(PAPER_HOST_DRAM_BYTES * scale),
        uvm_bandwidth=uvm_bandwidth,
    )


def node_from_tier_names(
    specs,
    num_gpus: int = 16,
    scale: float = DEFAULT_ROW_SCALE,
) -> SystemTopology:
    """Build a topology from tier names, fastest first.

    Each spec is a preset name from :data:`TIER_PRESETS` or
    ``name:GiB`` overriding the preset's per-GPU capacity (e.g.
    ``"dram:8"`` — an 8 GiB host-DRAM slice, the knob that creates
    genuine multi-tier pressure in shrunken worlds).  Capacities scale
    by ``scale`` like every other preset constructor; this is what
    ``repro serve --tiers hbm,dram,ssd`` builds.

    Args:
        specs: iterable of tier specs, or one comma-separated string.
        num_gpus: device count.
        scale: capacity scale (must match the model's ``row_scale``).
    """
    if isinstance(specs, str):
        specs = [s.strip() for s in specs.split(",") if s.strip()]
    if not specs:
        raise ValueError("need at least one tier name")
    tiers = []
    for spec in specs:
        name, _, cap = spec.partition(":")
        if name not in TIER_PRESETS:
            raise ValueError(
                f"unknown tier {name!r} (have {sorted(TIER_PRESETS)})"
            )
        capacity_bytes, bandwidth = TIER_PRESETS[name]
        if cap:
            gib = float(cap)
            if not 0 <= gib < math.inf:
                raise ValueError(
                    f"tier {spec!r}: GiB must be >= 0 and finite"
                )
            capacity_bytes = int(gib * GIB)
        tiers.append(
            MemoryTier(name, int(capacity_bytes * scale), bandwidth)
        )
    return SystemTopology(num_devices=num_gpus, tiers=tuple(tiers))


def tier_ladder_node(
    num_tiers: int,
    num_gpus: int = 16,
    scale: float = DEFAULT_ROW_SCALE,
) -> SystemTopology:
    """The first ``num_tiers`` rungs of :data:`TIER_LADDER` as a node —
    the grid points of a tier-count sweep (Section 4.4's capacity
    scaling study)."""
    if not 1 <= num_tiers <= len(TIER_LADDER):
        raise ValueError(
            f"num_tiers must be in [1, {len(TIER_LADDER)}], got {num_tiers}"
        )
    return node_from_tier_names(
        TIER_LADDER[:num_tiers], num_gpus=num_gpus, scale=scale
    )


def three_tier_node(
    num_gpus: int = 4,
    scale: float = DEFAULT_ROW_SCALE,
    ssd_capacity_gib: float = 1024,
) -> SystemTopology:
    """A three-tier HBM/DRAM/SSD hierarchy for the Section 4.4 extension."""
    return SystemTopology(
        num_devices=num_gpus,
        tiers=(
            MemoryTier(
                "hbm", int(PAPER_HBM_RESERVED_BYTES * scale), HBM_GATHER_BANDWIDTH
            ),
            MemoryTier("uvm", int(PAPER_HOST_DRAM_BYTES * scale), UVM_GATHER_BANDWIDTH),
            MemoryTier(
                "ssd", int(ssd_capacity_gib * GIB * scale), SSD_GATHER_BANDWIDTH
            ),
        ),
    )
