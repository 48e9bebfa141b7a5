"""Precision-tiered capacity: quantized cold tiers under one byte budget.

Not a paper figure — the capacity/quality gate for the precision
ladder.  RecShard's cold tiers hold rows that are rarely read; storing
them quantized (fp16/int8/int4, :mod:`repro.core.quantize`) multiplies
how many rows the same byte budget admits.  This bench pins three
properties:

* **capacity** — on a three-tier node whose middle tier is the
  bottleneck, quantizing the cold tiers must admit at least
  ``MIN_CAPACITY_GAIN`` x the middle-tier rows of the fp32 baseline at
  the *same* byte capacities (fp16 doubles rows; int8 nearly 4x).
* **parity** — the heapq oracles (``tests.oracles``) and the shipped
  bulk-admission path must produce identical plans under any precision
  ladder, two-tier and multi-tier.
* **measured quality** — a small DLRM trained on a skewed synthetic
  CTR stream, its embedding rows frequency-ordered and the cold
  majority round-tripped through each ladder's codec, must hold its
  held-out AUC within ``MAX_AUC_DELTA`` of the fp32 model — the
  *measured* counterpart of the closed-form error the planner stamps
  into plan metadata.

Headline numbers land machine-readable in
``reports/BENCH_quantized.json`` next to the planner and serving gates.
"""

import os

import numpy as np

from conftest import BENCH_BATCH, format_table, report, report_json
from repro.core import MultiTierSharder, RecShardFastSharder
from repro.core.quantize import expected_rel_error, quantize_by_tiers
from repro.data.batch import JaggedBatch, JaggedFeature
from repro.dlrm import DLRM, DLRMConfig, auc_score, bce_loss, train_epoch
from repro.dlrm.train import synthetic_ctr_labels
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from tests.oracles.planner import ScalarFastSharder, ScalarMultiTierSharder

MIN_CAPACITY_GAIN = float(
    os.environ.get("RECSHARD_BENCH_MIN_CAPACITY_GAIN", 1.8)
)
MAX_AUC_DELTA = float(os.environ.get("RECSHARD_BENCH_MAX_AUC_DELTA", 0.02))

#: Ladders under test: every cold tier stored at one precision.
LADDERS = ("fp16", "int8", "int4")
#: Ladders the AUC gate applies to (int4 is reported, not gated).
GATED_LADDERS = ("fp16", "int8")


def _three_tier(model, num_devices=4):
    """HBM tiny, middle tier the bottleneck, last tier roomy.

    The middle tier is sized well below the model's off-HBM footprint
    so quantized admission is budget-limited, not row-limited — a
    roomier tier would swallow every remaining row at any precision and
    cap the measurable gain at the row supply.
    """
    total = model.total_bytes
    tiers = (
        MemoryTier("hbm", int(total * 0.05 / num_devices), 200e9),
        MemoryTier("dram", int(total * 0.08 / num_devices), 20e9),
        MemoryTier("ssd", total, 2e9),
    )
    return SystemTopology(num_devices=num_devices, tiers=tiers)


def _plans_identical(a, b) -> bool:
    return all(
        x.rows_per_tier == y.rows_per_tier and x.device == y.device
        for x, y in zip(a, b)
    )


def test_quantized_capacity_and_parity(models, profiles):
    model = models[1]  # RM2: the mid-size workload
    profile = profiles[model.name]
    topology = _three_tier(model)
    sharder = MultiTierSharder(batch_size=BENCH_BATCH, steps=40)
    baseline = sharder.shard(model, profile, topology)
    base_mid_rows = baseline.tier_rows_total(1)
    assert base_mid_rows > 0, "middle tier must be exercised"

    gains = {}
    rows = []
    for precision in LADDERS:
        ladder = topology.with_precisions(
            {"dram": precision, "ssd": precision}
        )
        quant = sharder.shard(model, profile, ladder)
        quant.validate(model, ladder)
        gains[precision] = quant.tier_rows_total(1) / base_mid_rows
        rows.append(
            [
                precision,
                quant.tier_rows_total(1),
                f"{gains[precision]:.2f}x",
                f"{expected_rel_error(precision):.2e}",
            ]
        )

    # Parity: heapq oracle vs the shipped bulk admission, under the most
    # aggressive ladder.
    ladder = topology.with_precisions({"dram": "int4", "ssd": "int4"})
    vec = MultiTierSharder(batch_size=BENCH_BATCH, steps=40).shard(
        model, profile, ladder
    )
    scalar = ScalarMultiTierSharder(batch_size=BENCH_BATCH, steps=40).shard(
        model, profile, ladder
    )
    multitier_parity = _plans_identical(vec, scalar)
    assert multitier_parity, "multi-tier scalar/vectorized parity broke"

    two_tier = SystemTopology.two_tier(
        num_devices=4,
        hbm_capacity=int(model.total_bytes * 0.3 / 4),
        hbm_bandwidth=200e9,
        uvm_capacity=model.total_bytes,
        uvm_bandwidth=10e9,
    ).with_precisions("hbm=fp16,uvm=int8")
    fast_vec = RecShardFastSharder(batch_size=BENCH_BATCH).shard(
        model, profile, two_tier
    )
    fast_scalar = ScalarFastSharder(batch_size=BENCH_BATCH).shard(
        model, profile, two_tier
    )
    two_tier_parity = _plans_identical(fast_vec, fast_scalar)
    assert two_tier_parity, "two-tier scalar/vectorized parity broke"

    table = format_table(
        ["ladder", "mid-tier rows", "vs fp32", "expected rel err"],
        [["fp32", base_mid_rows, "1.00x", "0.00e+00"]] + rows,
    )
    report("quantized_capacity", table)

    for precision in GATED_LADDERS:
        assert gains[precision] >= MIN_CAPACITY_GAIN, (
            f"{precision} ladder admits only {gains[precision]:.2f}x the "
            f"fp32 middle-tier rows (< {MIN_CAPACITY_GAIN}x) at equal bytes"
        )

    test_quantized_capacity_and_parity.gains = gains
    test_quantized_capacity_and_parity.base_mid_rows = base_mid_rows
    test_quantized_capacity_and_parity.parity = (
        multitier_parity and two_tier_parity
    )


def _dlrm_world(seed=17):
    cfg = DLRMConfig(
        dense_features=8,
        table_rows=[240, 320, 160],
        embedding_dim=16,
        bottom_layers=[32],
        top_layers=[32],
        seed=seed,
    )
    return cfg


def _skewed_batch(cfg, batch_size, rng):
    """Synthetic CTR batch with Zipf-skewed sparse accesses, so each
    table has genuinely hot and cold rows for the ladder to split."""
    dense = rng.normal(size=(batch_size, cfg.dense_features))
    feats = []
    for rows in cfg.table_rows:
        lengths = rng.integers(0, 4, size=batch_size)
        offsets = np.zeros(batch_size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = (rng.zipf(1.5, size=int(offsets[-1])) - 1) % rows
        feats.append(JaggedFeature(values.astype(np.int64), offsets))
    sparse = JaggedBatch(feats)
    labels = synthetic_ctr_labels(dense, sparse, rng)
    return dense, sparse, labels


def _quantize_model_tables(model, counts, hot_frac, precision):
    """Round-trip each table's cold rows through the ladder's codec.

    Rows are frequency-ordered by the training access counts (the same
    ordering a RecShard remapping applies), the hottest ``hot_frac``
    kept fp32, the rest quantized in place.
    """
    for table, table_counts in zip(model.tables, counts):
        weights = table.weight
        order = np.argsort(-table_counts, kind="stable")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        hot = int(round(order.size * hot_frac))
        transformed = quantize_by_tiers(
            weights[order], [hot, order.size - hot], ["fp32", precision]
        )
        weights[:] = transformed[inverse]


def test_quantized_dlrm_quality():
    cfg = _dlrm_world()
    rng = np.random.default_rng(17)
    train_batches = [_skewed_batch(cfg, 256, rng) for _ in range(20)]
    model = DLRM(cfg)
    losses = train_epoch(model, train_batches, lr=0.2)
    assert losses[-1] < losses[0], "training must reduce loss"

    counts = [np.zeros(rows, dtype=np.int64) for rows in cfg.table_rows]
    for _, sparse, _ in train_batches:
        for f, feature in enumerate(sparse):
            np.add.at(counts[f], feature.values, 1)

    eval_rng = np.random.default_rng(9917)
    dense, sparse, labels = _skewed_batch(cfg, 2048, eval_rng)
    base_probs = model.forward(dense, sparse)
    base_auc = auc_score(labels, base_probs)
    base_loss = bce_loss(base_probs, labels)
    assert base_auc > 0.6, "fp32 model must beat chance before quantizing"

    baseline_weights = [table.weight.copy() for table in model.tables]
    quality = {"fp32": {"auc": base_auc, "loss": base_loss}}
    rows = []
    for precision in LADDERS:
        for table, saved in zip(model.tables, baseline_weights):
            table.weight[:] = saved
        _quantize_model_tables(model, counts, hot_frac=0.25, precision=precision)
        probs = model.forward(dense, sparse)
        auc = auc_score(labels, probs)
        loss = bce_loss(probs, labels)
        quality[precision] = {
            "auc": auc,
            "loss": loss,
            "auc_delta": abs(base_auc - auc),
            "loss_delta": abs(base_loss - loss),
        }
        rows.append(
            [
                precision,
                f"{auc:.4f}",
                f"{abs(base_auc - auc):.4f}",
                f"{loss:.4f}",
                f"{abs(base_loss - loss):.4f}",
            ]
        )
    for table, saved in zip(model.tables, baseline_weights):
        table.weight[:] = saved

    table = format_table(
        ["ladder", "auc", "|d auc|", "bce loss", "|d loss|"],
        [["fp32", f"{base_auc:.4f}", "-", f"{base_loss:.4f}", "-"]] + rows,
    )
    report("quantized_quality", table)

    for precision in GATED_LADDERS:
        assert quality[precision]["auc_delta"] <= MAX_AUC_DELTA, (
            f"{precision} ladder moved held-out AUC by "
            f"{quality[precision]['auc_delta']:.4f} "
            f"(> {MAX_AUC_DELTA}) on the measured harness"
        )

    gains = getattr(test_quantized_capacity_and_parity, "gains", {})
    payload = {
        "min_capacity_gain": MIN_CAPACITY_GAIN,
        "max_auc_delta": MAX_AUC_DELTA,
        "quality": quality,
        "auc_fp32": base_auc,
        "parity": getattr(test_quantized_capacity_and_parity, "parity", None),
        "base_mid_tier_rows": getattr(
            test_quantized_capacity_and_parity, "base_mid_rows", None
        ),
    }
    for precision, gain in gains.items():
        payload[f"capacity_gain_{precision}"] = gain
    report_json("quantized", payload)
