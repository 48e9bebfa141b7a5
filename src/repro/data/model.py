"""Model specifications: embedding tables and the RM1/RM2/RM3 workloads.

Table 2 of the paper defines three production-scale DLRMs that share 397
sparse features and differ only by an approximate doubling of every hash
size from RM1 to RM2 and again from RM2 to RM3.  We reproduce those specs
at a configurable ``row_scale`` (default 1/1000) so the same sharding
regimes — RM1 fits in HBM, RM2/RM3 spill to UVM — arise on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.distributions import log_uniform
from repro.data.feature import FeatureKind, SparseFeatureSpec

# Table 2 of the paper.
PAPER_NUM_FEATURES = 397
PAPER_TOTAL_HASH_SIZE = {
    "RM1": 1_331_656_544,
    "RM2": 2_661_369_917,
    "RM3": 5_320_796_628,
}
PAPER_EMB_DIM = 64
DEFAULT_ROW_SCALE = 1e-3


@dataclass(frozen=True)
class EmbeddingTableSpec:
    """One embedding table: a sparse feature plus its dense geometry."""

    feature: SparseFeatureSpec
    dim: int = PAPER_EMB_DIM
    dtype_bytes: int = 4  # fp32

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"{self.name}: dim must be >= 1")
        if self.dtype_bytes < 1:
            raise ValueError(f"{self.name}: dtype_bytes must be >= 1")

    @property
    def name(self) -> str:
        return self.feature.name

    @property
    def num_rows(self) -> int:
        return self.feature.hash_size

    @property
    def row_bytes(self) -> int:
        return self.dim * self.dtype_bytes

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.row_bytes

    def scaled_hash_size(self, factor: float) -> "EmbeddingTableSpec":
        return replace(self, feature=self.feature.scaled_hash_size(factor))


@dataclass(frozen=True)
class ModelSpec:
    """A DLRM's embedding side: an ordered collection of tables.

    ``num_rows``, ``dims`` and ``row_bytes`` are the tables' geometry as
    read-only int64 vectors, built once: the cost evaluator, the shard
    expansion and the planner workspace read them on every call.
    """

    name: str
    tables: tuple[EmbeddingTableSpec, ...]
    num_rows: np.ndarray = field(init=False, repr=False, compare=False)
    dims: np.ndarray = field(init=False, repr=False, compare=False)
    row_bytes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("num_rows", "dims", "row_bytes"):
            attr = "dim" if name == "dims" else name
            values = np.array(
                [getattr(t, attr) for t in self.tables], dtype=np.int64
            )
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    @property
    def total_hash_size(self) -> int:
        return sum(t.num_rows for t in self.tables)

    @property
    def total_bytes(self) -> int:
        return sum(t.total_bytes for t in self.tables)

    @property
    def total_gib(self) -> float:
        return self.total_bytes / 2**30

    def table2_row(self) -> dict:
        """The model's row of the paper's Table 2."""
        return {
            "model": self.name,
            "num_sparse_features": self.num_tables,
            "total_hash_size": self.total_hash_size,
            "emb_dim": self.tables[0].dim if self.tables else 0,
            "size_gib": self.total_gib,
        }

    def scaled_hash_sizes(self, factor: float, name: str) -> "ModelSpec":
        """New spec with every table's hash size scaled by ``factor``."""
        return ModelSpec(
            name=name, tables=tuple(t.scaled_hash_size(factor) for t in self.tables)
        )

    def with_tables(self, tables) -> "ModelSpec":
        return ModelSpec(name=self.name, tables=tuple(tables))


def generate_feature_population(
    num_features: int = PAPER_NUM_FEATURES,
    seed: int = 7,
    cardinality_range: tuple[float, float] = (1e3, 1e4),
    size_coverage_corr: float = 1.6,
    pooling_coverage_corr: float = -1.1,
    size_pooling_corr: float = 0.9,
) -> list[SparseFeatureSpec]:
    """Generate a feature population matching the paper's characterization.

    The marginals are calibrated against the published figures:

    * cardinalities log-uniform over several decades (Figure 4's x-axis);
    * hash sizes scattered around the ``hash == cardinality`` line within
      roughly an order of magnitude (Figure 4);
    * Zipf exponents mostly in [0.5, 1.5] with ~10% near-uniform features
      (the CDF spread of Figure 5);
    * mean pooling factors long-tailed from 1 to ~200 (Figure 6a);
    * coverage from under 1% to 100%, with a mass at exactly 1 (Figure 6b).

    The joint structure is calibrated against the paper's baseline
    behaviour (Tables 3-5): production features correlate — important,
    frequently-present features are given larger hash sizes, and very
    high pooling factors tend to come from sparser engagement features.
    ``size_coverage_corr`` (positive) and ``pooling_coverage_corr``
    (negative) encode this on the coverage logit; with both at 0 all
    statistics are independent.
    """
    rng = np.random.default_rng(seed)
    cardinalities = np.maximum(
        1, log_uniform(*cardinality_range, num_features, rng).astype(np.int64)
    )
    hash_multipliers = rng.lognormal(mean=0.0, sigma=0.6, size=num_features)
    hash_sizes = np.maximum(1, (cardinalities * hash_multipliers).astype(np.int64))

    alphas = rng.uniform(0.7, 1.7, size=num_features)
    near_uniform = rng.random(num_features) < 0.08
    alphas[near_uniform] = rng.uniform(0.0, 0.25, size=int(near_uniform.sum()))

    # Pooling factors: long-tailed, larger for larger feature spaces
    # (multi-hot engagement-history features have both huge cardinalities
    # and long lists; single-valued features like country have neither).
    card_z = _standardize(np.log(hash_sizes.astype(np.float64)))
    poolings = np.clip(
        np.exp(
            np.log(12.0)
            + size_pooling_corr * card_z
            + rng.normal(0.0, 1.0, size=num_features)
        ),
        1,
        200,
    )
    pooling_sigmas = rng.uniform(0.4, 1.0, size=num_features)

    # Coverage on a logit scale: tilted up for large (important) feature
    # spaces and down for features whose pooling is high *for their
    # size* (the residual) — long engagement lists tend to exist only
    # for a sparse slice of users.
    pool_resid = _standardize(np.log(poolings) - size_pooling_corr * card_z)
    logit = (
        -0.2
        + size_coverage_corr * card_z
        + pooling_coverage_corr * pool_resid
        + rng.normal(0.0, 1.1, size=num_features)
    )
    coverages = np.clip(1.0 / (1.0 + np.exp(-logit)), 0.005, 1.0)
    always_present = rng.random(num_features) < 0.10
    coverages[always_present] = 1.0

    kinds = rng.random(num_features) < 0.5
    return [
        SparseFeatureSpec(
            name=f"sparse_{i:03d}",
            cardinality=int(cardinalities[i]),
            hash_size=int(hash_sizes[i]),
            alpha=float(alphas[i]),
            avg_pooling=float(poolings[i]),
            pooling_sigma=float(pooling_sigmas[i]),
            coverage=float(coverages[i]),
            kind=FeatureKind.USER if kinds[i] else FeatureKind.CONTENT,
            hash_seed=seed * 100_003 + i,
        )
        for i in range(num_features)
    ]


def _standardize(values: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance transform (guarding degenerate spread)."""
    std = values.std()
    if std < 1e-12:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def _normalize_total_hash_size(
    features: list[SparseFeatureSpec], target_total: int
) -> list[SparseFeatureSpec]:
    """Rescale hash sizes so they sum exactly to ``target_total``."""
    if target_total < len(features):
        raise ValueError(
            f"target total {target_total} cannot give {len(features)} tables "
            "at least one row each"
        )
    current_total = sum(f.hash_size for f in features)
    factor = target_total / current_total
    scaled = [f.scaled_hash_size(factor) for f in features]
    # Largest-remainder fixup: absorb rounding residual into the biggest
    # tables, never shrinking any table below one row.
    residual = target_total - sum(f.hash_size for f in scaled)
    order = sorted(range(len(scaled)), key=lambda i: -scaled[i].hash_size)
    for i in order:
        if residual == 0:
            break
        new_size = max(1, scaled[i].hash_size + residual)
        residual -= new_size - scaled[i].hash_size
        scaled[i] = replace(scaled[i], hash_size=new_size)
    return scaled


def _build_rm(
    name: str,
    row_scale: float,
    num_features: int,
    dim: int,
    seed: int,
) -> ModelSpec:
    features = generate_feature_population(num_features=num_features, seed=seed)
    target_total = max(
        num_features, int(round(PAPER_TOTAL_HASH_SIZE[name] * row_scale))
    )
    features = _normalize_total_hash_size(features, target_total)
    tables = tuple(EmbeddingTableSpec(feature=f, dim=dim) for f in features)
    return ModelSpec(name=name, tables=tables)


def rm1(
    row_scale: float = DEFAULT_ROW_SCALE,
    num_features: int = PAPER_NUM_FEATURES,
    dim: int = PAPER_EMB_DIM,
    seed: int = 7,
) -> ModelSpec:
    """RM1 of Table 2 (1.33 G rows at scale 1), scaled by ``row_scale``."""
    return _build_rm("RM1", row_scale, num_features, dim, seed)


def rm2(
    row_scale: float = DEFAULT_ROW_SCALE,
    num_features: int = PAPER_NUM_FEATURES,
    dim: int = PAPER_EMB_DIM,
    seed: int = 7,
) -> ModelSpec:
    """RM2: same features as RM1 with hash sizes ~doubled (Table 2)."""
    base = rm1(row_scale, num_features, dim, seed)
    target_total = max(
        num_features, int(round(PAPER_TOTAL_HASH_SIZE["RM2"] * row_scale))
    )
    features = _normalize_total_hash_size(
        [t.feature for t in base.tables], target_total
    )
    return ModelSpec(
        name="RM2",
        tables=tuple(replace(t, feature=f) for t, f in zip(base.tables, features)),
    )


def rm3(
    row_scale: float = DEFAULT_ROW_SCALE,
    num_features: int = PAPER_NUM_FEATURES,
    dim: int = PAPER_EMB_DIM,
    seed: int = 7,
) -> ModelSpec:
    """RM3: same features as RM1 with hash sizes ~quadrupled (Table 2)."""
    base = rm1(row_scale, num_features, dim, seed)
    target_total = max(
        num_features, int(round(PAPER_TOTAL_HASH_SIZE["RM3"] * row_scale))
    )
    features = _normalize_total_hash_size(
        [t.feature for t in base.tables], target_total
    )
    return ModelSpec(
        name="RM3",
        tables=tuple(replace(t, feature=f) for t, f in zip(base.tables, features)),
    )
