"""RecShard's MILP formulation (Section 4.2, Constraints 1-12; Section 4.4).

Decision structure, following Table 1 and the paper's constraints:

* ``p[m][j]`` — binary: table *j* is assigned to GPU *m* (Constraints 2-3).
* ``pct[j]`` — fraction of table *j*'s accesses served from HBM
  (Constraint 5's split point).
* ``mem[j]`` — HBM bytes needed to cover ``pct[j]`` of accesses, derived
  from the inverse value-frequency CDF (Constraint 4).
* Per-GPU HBM and host-DRAM capacity limits (Constraints 9-10).
* Per-table cost ``c_j`` combining HBM- and UVM-served access fractions
  with the tier bandwidths (Constraint 11), weighted by coverage and
  summed per GPU (Constraint 12); the objective minimizes the maximum
  per-GPU cost ``C`` (Constraint 1).

Section 4.4 adds tiers as "a new point on each EMB's CDF": with ``T``
tiers every table gets ``T - 1`` ordered ``(pct, mem)`` boundary pairs,
tier ``t`` holds the rows between boundaries ``t - 1`` and ``t``, and
the last tier the remainder.  At two tiers this is exactly the model
above.  Each tier's capacity is charged at its storage precision's row
bytes (:func:`~repro.memory.precision.quantized_row_bytes`; the factor
is exactly 1 at fp32).

Two encodings of the ICDF are provided:

* ``"step"`` — the paper's: one binary ``x[i][j]`` per ICDF step
  (Constraints 4-7).
* ``"convex"`` — equivalent, exploiting that every descending-frequency
  ICDF is convex: ``mem[j]`` is bounded below by the chords of the
  sampled ICDF, eliminating the per-step binaries.  See
  :func:`repro.stats.cdf.convex_cuts`.

The model is built from a :class:`~repro.core.workspace.PlannerWorkspace`
— the one planner-input format the fast and multi-tier sharders solve
on too: its shared coverage grid and per-table ``frac_rows`` give the
sampled ICDF points, and its per-table vectors the row geometry,
pooling, coverage and access totals.  The coefficients are computed on
those vectors and emitted directly as the arrays HiGHS solves (a
:class:`~repro.milp.problem.MilpProblem`), with no intermediate model.
The layout is fixed, because it fixes HiGHS's branching and the
branch-and-bound oracle's:

* columns: ``C``; ``p[m][j]`` device-major; per table and boundary
  ``pct``, ``mem`` and (step encoding) the step binaries; per device
  and table the ``u``s, then (tables with accesses) the ``w``s;
* rows: one assignment row per table; per table and boundary the
  ordering rows, then the ICDF rows; per device and table the ``u``
  rows, then the ``w`` rows; per device its capacity rows and makespan
  row; then the symmetry rows.

``tests/test_core/test_formulation.py`` pins the arrays by digest.

The per-GPU capacity and cost terms multiply the binary ``p[m][j]`` with
the continuous ``pct[j]`` / ``mem[j]``; these bilinear products are
linearized exactly with the standard bounded-product constraints
(``w = p * pct``, ``u = p * mem``; with more tiers ``u`` takes each
tier's ``mem`` difference), which is what a commercial solver
does internally for such terms.

Units: memory in MiB, time in milliseconds — this keeps the constraint
matrix well-scaled for HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.workspace import PlannerWorkspace
from repro.memory.topology import SystemTopology
from repro.milp.problem import MilpProblem
from repro.milp.result import SolveResult
from repro.stats.cdf import convex_cuts

MIB = 2**20
_MS = 1e3  # seconds -> milliseconds


@dataclass
class FormulationHandles:
    """The built problem plus the indices that read a plan off a solution.

    ``assign``, ``pct``, ``mem`` and ``max_cost`` are column indices;
    ``makespan_rows[m]`` is the row ``c_m - C <= 0`` (Constraint 1), so
    device ``m``'s cost is that row's activity plus ``C``.
    """

    problem: MilpProblem
    assign: np.ndarray  # (devices, tables): p_mj
    pct: np.ndarray  # (tables, boundaries): access fraction above b
    mem: np.ndarray  # (tables, boundaries): MiB above b (fp32 rows)
    max_cost: int  # C, the minimized makespan (ms)
    makespan_rows: np.ndarray  # (devices,)

    def devices(self, result: SolveResult) -> list[int]:
        """Each table's device in ``result``: the first device with the
        largest assignment value."""
        return np.argmax(result.values[self.assign], axis=0).tolist()


def solve_metadata(
    result: SolveResult, problem: MilpProblem, formulation: str,
    build_seconds: float,
) -> dict:
    """The plan metadata both MILP sharders stamp for one solve."""
    return {
        "solver": f"milp/{result.solver}/{formulation}",
        "milp_status": result.status.value,
        "milp_message": result.message,
        "objective_ms": result.objective,
        "solve_seconds": result.solve_time,
        "build_seconds": build_seconds,
        "mip_gap": result.gap,
        "nodes": result.nodes,
        "variables": problem.num_vars,
        "constraints": problem.num_rows,
    }


def _starts(widths: np.ndarray) -> np.ndarray:
    """Where each of consecutive blocks of ``widths`` starts."""
    return np.cumsum(widths) - widths


def build_milp(
    workspace: PlannerWorkspace,
    topology: SystemTopology,
    batch_size: int,
    formulation: str = "convex",
    use_coverage: bool = True,
    use_pooling: bool = True,
    reclaim_dead: bool = False,
    symmetry_breaking: bool = True,
) -> FormulationHandles:
    """Build the RecShard MILP for any number of tiers.

    Args:
        workspace: the profile's
            :class:`~repro.core.workspace.PlannerWorkspace`; its ICDF
            ``steps`` are the formulation's.
        topology: the memory hierarchy; boundary ``b`` splits tier ``b``
            from the slower tiers behind it.
        batch_size: training batch size ``B`` (Constraint 11).
        formulation: ``"convex"`` (default) or ``"step"`` (paper-faithful).
        use_coverage: when False, coverage is treated as 1 for every
            table (the Table 6 ablation).
        use_pooling: when False, the average pooling factor is treated
            as 1 for every table (the Table 6 ablation).
        reclaim_dead: when True, rows never observed in the profile are
            not charged against the last tier's capacity (Section 3.4's
            reclaim).
        symmetry_breaking: order per-GPU costs to break device symmetry,
            which speeds up branch and bound on homogeneous nodes.
    """
    if formulation not in ("convex", "step"):
        raise ValueError(f"unknown formulation {formulation!r}")
    from scipy import sparse  # here, so ``import repro`` skips scipy

    ws = workspace
    num_devices = topology.num_devices
    num_tables = ws.num_tables
    tiers = topology.tiers
    num_bounds = len(tiers) - 1
    inv_bw = [1.0 / tier.bandwidth for tier in tiers]
    caps_mib = np.array([tier.capacity_bytes / MIB for tier in tiers])

    # Per-table statistics.
    row_bytes = ws.row_bytes
    row_mib = row_bytes / MIB
    live_mib = ws.live_rows * row_bytes / MIB
    charge_mib = (ws.live_rows if reclaim_dead else ws.hash_sizes) * row_bytes / MIB
    # Per (table, tier): a row's bytes at the tier's precision over fp32.
    scale = np.stack(
        [ws.tier_row_bytes(tier.precision) / row_bytes for tier in tiers], axis=1
    )
    coverages = ws.coverage if use_coverage else np.ones(num_tables)
    poolings = ws.avg_pooling if use_pooling else np.ones(num_tables)
    has_acc = ws.total_accesses > 0
    step_count = ws.steps + 1 if formulation == "step" else 0

    # Columns.  C is column 0, then p[m][j] device-major (Constraints 2-3).
    assign = 1 + np.arange(num_devices * num_tables).reshape(
        num_devices, num_tables
    )
    # One (pct, mem) point on each table's ICDF per tier boundary, each
    # followed by its step binaries x[i] (tables with accesses only).
    per_bound = 2 + step_count * has_acc
    pct = (
        1 + assign.size + _starts(num_bounds * per_bound)[:, None]
        + np.arange(num_bounds) * per_bound[:, None]
    )
    mem = pct + 1
    step_x = pct[has_acc][:, :, None] + 2 + np.arange(step_count)
    # Per device and table: u_b = p * (mem_b - mem_{b-1}) (the MiB tier b
    # holds), then w_b = p * pct_b for tables with accesses.
    pair_width = num_bounds * (1 + has_acc)
    device_width = int(pair_width.sum())
    device_col0 = 1 + assign.size + int((num_bounds * per_bound).sum())
    u = (
        device_col0 + device_width * np.arange(num_devices)[:, None, None]
        + _starts(pair_width)[:, None] + np.arange(num_bounds)
    )
    w = (u + num_bounds)[:, has_acc]
    num_vars = device_col0 + num_devices * device_width

    lower = np.zeros(num_vars)
    upper = np.ones(num_vars)
    upper[0] = np.inf
    upper[pct] = np.where(has_acc, 1.0, 0.0)[:, None]
    upper[mem] = live_mib[:, None]
    upper[u] = live_mib[:, None]
    integrality = np.zeros(num_vars, dtype=np.uint8)
    integrality[assign] = 1
    integrality[step_x] = 1

    # Rows.  Per table: its assignment row, then per boundary the
    # ordering rows (b > 0) and the ICDF rows — the chords of the
    # sampled ICDF (convex) or the three step rows — or one mem <= 0
    # row for a table without accesses.
    cuts = [
        convex_cuts(ws.fractions, ws.frac_rows[j])
        if has_acc[j] and formulation == "convex" else []
        for j in range(num_tables)
    ]
    icdf_rows = (
        np.array([len(c) for c in cuts]) if formulation == "convex"
        else np.full(num_tables, 3)
    )
    per_bound_rows = np.where(has_acc, icdf_rows + 2, 1)
    table_rows = num_bounds * per_bound_rows - 2 * has_acc
    # icdf[j, b]: boundary b's first ICDF row (or its mem <= 0 row).
    icdf = (
        num_tables + _starts(table_rows)[:, None]
        + np.arange(num_bounds) * per_bound_rows[:, None]
    )
    # Per device: three rows per u and per w, then one capacity row per
    # tier and the makespan row.
    pair_rows = 3 * pair_width
    device_row0 = (
        num_tables + table_rows.sum()
        + (pair_rows.sum() + num_bounds + 2) * np.arange(num_devices)
    )
    u_row = (
        device_row0[:, None, None] + _starts(pair_rows)[:, None]
        + 3 * np.arange(num_bounds)
    )
    w_row = (u_row + 3 * num_bounds)[:, has_acc]
    cap_row = device_row0[:, None] + pair_rows.sum() + np.arange(num_bounds + 1)
    makespan_row = cap_row[:, -1] + 1
    sym_row = makespan_row[-1] + 1 + np.arange(num_devices - 1)
    num_rows = int(makespan_row[-1]) + 1 + symmetry_breaking * sym_row.size

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def put(row, col, val) -> None:
        row, col, val = np.broadcast_arrays(row, col, val)
        rows.append(row.ravel())
        cols.append(col.ravel())
        vals.append(val.ravel())

    row_lower = np.full(num_rows, -np.inf)
    row_upper = np.full(num_rows, np.inf)

    # Each table on exactly one device.
    put(np.arange(num_tables), assign, 1.0)
    row_lower[:num_tables] = row_upper[:num_tables] = 1.0

    dead = ~has_acc
    put(icdf[dead], mem[dead], 1.0)
    row_upper[icdf[dead]] = 0.0
    # Consecutive boundaries are ordered: pct_{b-1} <= pct_b, likewise mem.
    later = icdf[has_acc][:, 1:]
    for col, offset in ((pct, 2), (mem, 1)):
        put(later - offset, col[has_acc][:, :-1], 1.0)
        put(later - offset, col[has_acc][:, 1:], -1.0)
        row_upper[later - offset] = 0.0

    if formulation == "convex":
        # mem >= every chord of the sampled ICDF; the chords' upper
        # envelope equals the piecewise-linear ICDF (convexity).
        table = np.repeat(np.arange(num_tables), icdf_rows)
        chord = np.arange(icdf_rows.sum()) - np.repeat(_starts(icdf_rows), icdf_rows)
        slope, intercept = (
            np.array([c for cs in cuts for c in cs]).reshape(-1, 2).T
        )
        cut_row = icdf[table] + chord[:, None]
        put(cut_row, mem[table], 1.0)
        put(cut_row, pct[table], -(slope * row_mib[table])[:, None])
        row_lower[cut_row] = (intercept * row_mib[table])[:, None]
    else:
        # The paper's step binaries (Constraints 4-7): one step taken,
        # and pct / mem are the chosen step's point.
        first = icdf[has_acc][:, :, None]
        put(first, step_x, 1.0)
        put(first + 1, step_x, ws.fractions)
        put(first[..., 0] + 1, pct[has_acc], -1.0)
        step_mib = ws.frac_rows[has_acc] * row_mib[has_acc][:, None]
        put(first + 2, step_x, step_mib[:, None, :])
        put(first[..., 0] + 2, mem[has_acc], -1.0)
        row_lower[first] = row_upper[first] = 1.0
        for k in (1, 2):
            row_lower[first + k] = row_upper[first + k] = 0.0

    # Linearized products, exact for binary p (bounded-product rows):
    # u <= p * live, u <= mem_b, u >= mem_b - (1 - p) * live.
    p_u = assign[:, :, None]
    put(u_row, u, 1.0)
    put(u_row, p_u, -live_mib[:, None])
    for k in (1, 2):
        put(u_row + k, u, 1.0)
        put(u_row + k, mem, -1.0)
        put(u_row[..., 1:] + k, mem[:, :-1], 1.0)
    put(u_row + 2, p_u, -live_mib[:, None])
    row_upper[u_row] = row_upper[u_row + 1] = 0.0
    row_lower[u_row + 2] = -live_mib[:, None]
    # w <= p, w <= pct_b, w >= pct_b + p - 1.
    p_w = assign[:, has_acc, None]
    for k in (0, 1, 2):
        put(w_row + k, w, 1.0)
    put(w_row, p_w, -1.0)
    put(w_row + 1, pct[has_acc], -1.0)
    put(w_row + 2, pct[has_acc], -1.0)
    put(w_row + 2, p_w, -1.0)
    row_upper[w_row] = row_upper[w_row + 1] = 0.0
    row_lower[w_row + 2] = -1.0

    # Per-device capacity (Constraints 9-10), each tier charged at its
    # own precision's row bytes: tier b < last holds u_b, the last tier
    # the charged rows less everything held above it.
    for t in range(num_bounds):
        put(cap_row[:, t, None], u[:, :, t], scale[:, t])
    put(cap_row[:, -1, None], assign, charge_mib * scale[:, -1])
    put(cap_row[:, -1, None, None], u, -scale[:, -1, None])
    row_upper[cap_row] = caps_mib

    # Constraint 11: per-step demand (pool * dim * bytes * B), split
    # across tiers by the access fractions:
    # p*c_j = weight * (sum_b w_b (1/BW_b - 1/BW_{b+1}) + p/BW_last).
    weight = (coverages * (poolings * row_bytes * batch_size) * _MS)[has_acc]
    bw = np.array(inv_bw)
    w_cost = weight[:, None] * (bw[:-1] - bw[1:])
    p_cost = weight * inv_bw[-1]
    # Constraint 1: every device's cost is at most C.
    put(makespan_row[:, None, None], w, w_cost)
    put(makespan_row[:, None], assign[:, has_acc], p_cost)
    put(makespan_row, 0, -1.0)
    row_upper[makespan_row] = 0.0
    if symmetry_breaking:
        # Devices are interchangeable; forcing non-increasing cost order
        # (c_m - c_{m+1} >= 0) removes the M! permutation symmetry from
        # the search tree.
        for side, sign in ((slice(None, -1), 1.0), (slice(1, None), -1.0)):
            put(sym_row[:, None, None], w[side], w_cost * sign)
            put(sym_row[:, None], assign[side][:, has_acc], p_cost * sign)
        row_lower[sym_row] = 0.0

    # Zero right-hand sides are stored as -0.0, the sign the pinned
    # array digests carry.
    row_lower[row_lower == 0.0] = -0.0
    row_upper[row_upper == 0.0] = -0.0
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    keep = vals != 0.0
    matrix = sparse.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(num_rows, num_vars)
    )

    # Primary objective: the makespan C (Constraint 1).  A vanishing
    # secondary term rewards coverage in faster tiers on non-critical
    # devices, which the makespan alone leaves unconstrained (solver
    # indifference would otherwise strand free capacity).
    total_cost_scale = sum(
        coverage * pooling * rb * batch_size * _MS * inv_bw[-1]
        for coverage, pooling, rb in zip(
            coverages.tolist(), poolings.tolist(), row_bytes.tolist()
        )
    )
    epsilon = 1e-6 * max(total_cost_scale, 1e-12) / max(1, num_tables)
    c = np.zeros(num_vars)
    c[0] = 1.0
    c[pct] = -epsilon
    problem = MilpProblem(
        c, integrality, lower, upper, matrix, row_lower, row_upper
    )
    return FormulationHandles(
        problem=problem,
        assign=assign,
        pct=pct,
        mem=mem,
        max_cost=0,
        makespan_rows=makespan_row,
    )
