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
pooling, coverage and access totals.  Coefficients are read through
``tolist()``, so the model holds plain Python numbers.

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
from repro.milp.model import LinExpr, Model, Var, lin_sum
from repro.stats.cdf import convex_cuts

MIB = 2**20
_MS = 1e3  # seconds -> milliseconds


@dataclass
class FormulationHandles:
    """The built model plus the variables needed to extract a plan."""

    model: Model
    assign: list[list[Var]]  # assign[m][j] == p_mj
    pct: list[list[Var]]  # pct[j][b], access fraction above boundary b
    mem: list[list[Var]]  # mem[j][b], MiB above boundary b (fp32 rows)
    max_cost: Var  # C, the minimized makespan (ms)
    device_costs: list[LinExpr]  # c_m expressions (ms)

    def devices(self, result) -> list[int]:
        """Each table's device in ``result``: the first device with the
        largest assignment value."""
        index = [[var.index for var in row] for row in self.assign]
        return np.argmax(np.take(result.values, index), axis=0).tolist()


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

    ws = workspace
    num_devices = topology.num_devices
    num_tables = ws.num_tables
    tiers = topology.tiers
    num_bounds = len(tiers) - 1
    caps_mib = [tier.capacity_bytes / MIB for tier in tiers]
    inv_bw = [1.0 / tier.bandwidth for tier in tiers]
    cap_names = ["cap_hbm", *(f"cap_tier{t}" for t in range(1, num_bounds)),
                 "cap_host"]

    # Per-table statistics as Python numbers (the model's coefficients).
    row_bytes = ws.row_bytes.tolist()
    hash_sizes = ws.hash_sizes.tolist()
    live_rows = ws.live_rows.tolist()
    total_accesses = ws.total_accesses.tolist()
    coverages = ws.coverage.tolist() if use_coverage else [1.0] * num_tables
    poolings = ws.avg_pooling.tolist() if use_pooling else [1.0] * num_tables
    fractions = ws.fractions.tolist()
    # Per (table, tier): a row's bytes at the tier's precision over fp32.
    tier_rb = [ws.tier_row_bytes(tier.precision).tolist() for tier in tiers]
    scales = [
        [rb[j] / row_bytes[j] for rb in tier_rb] for j in range(num_tables)
    ]

    def at(b: int) -> str:
        """Boundary suffix of a name; two-tier models have one boundary."""
        return f"[{b}]" if num_bounds > 1 else ""

    model = Model("recshard")
    max_cost = model.continuous_var(lb=0.0, name="C")

    # p_mj: table -> GPU assignment (Constraints 2-3).
    assign = [
        [model.binary_var(name=f"p[{m}][{j}]") for j in range(num_tables)]
        for m in range(num_devices)
    ]
    for j in range(num_tables):
        model.add(
            lin_sum(assign[m][j] for m in range(num_devices)) == 1,
            name=f"assign_once[{j}]",
        )

    # One (pct, mem) point on each table's ICDF per tier boundary.
    pct: list[list[Var]] = []
    mem: list[list[Var]] = []
    for j in range(num_tables):
        live_mib = live_rows[j] * row_bytes[j] / MIB
        has_accesses = total_accesses[j] > 0
        row_mib = row_bytes[j] / MIB
        rows = ws.frac_rows[j].tolist()
        pct.append([])
        mem.append([])
        for b in range(num_bounds):
            pct_j = model.continuous_var(
                lb=0.0, ub=1.0 if has_accesses else 0.0,
                name=f"pct[{j}]{at(b)}",
            )
            mem_j = model.continuous_var(
                lb=0.0, ub=live_mib, name=f"mem[{j}]{at(b)}"
            )
            pct[j].append(pct_j)
            mem[j].append(mem_j)
            if not has_accesses:
                model.add(mem_j <= 0.0, name=f"mem_zero[{j}]{at(b)}")
                continue
            if b:  # consecutive boundaries are ordered
                model.add(pct[j][b - 1] <= pct_j + 0.0, name=f"pct_order[{j}]{at(b)}")
                model.add(mem[j][b - 1] <= mem_j + 0.0, name=f"mem_order[{j}]{at(b)}")
            if formulation == "convex":
                # mem >= every chord of the sampled ICDF; the chords'
                # upper envelope equals the piecewise-linear ICDF
                # (convexity).
                cuts = convex_cuts(fractions, rows)
                for k, (slope, intercept) in enumerate(cuts):
                    model.add(
                        mem_j >= pct_j * (slope * row_mib) + intercept * row_mib,
                        name=f"icdf_cut[{j}]{at(b)}[{k}]",
                    )
                continue
            # The paper's step binaries (Constraints 4-7).
            x = [
                model.binary_var(name=f"x[{i}][{j}]{at(b)}")
                for i in range(ws.steps + 1)
            ]
            model.add(lin_sum(x) == 1, name=f"one_step[{j}]{at(b)}")
            model.add(
                lin_sum(x_i * f for x_i, f in zip(x, fractions)) == pct_j,
                name=f"step_pct[{j}]{at(b)}",
            )
            model.add(
                lin_sum(x_i * (r * row_mib) for x_i, r in zip(x, rows))
                == mem_j,
                name=f"step_mem[{j}]{at(b)}",
            )

    # Linearized products u_b = p * (mem_b - mem_{b-1}) (the MiB tier b
    # holds) and w_b = p * pct_b, then capacity and cost constraints per
    # device.  Each tier is charged at its own precision's row bytes.
    device_costs: list[LinExpr] = []
    for m in range(num_devices):
        tier_terms: list[list] = [[] for _ in tiers]
        cost_terms: list = []
        for j in range(num_tables):
            p_mj = assign[m][j]
            live_mib = live_rows[j] * row_bytes[j] / MIB
            charge_mib = (
                live_rows[j] if reclaim_dead else hash_sizes[j]
            ) * row_bytes[j] / MIB
            scale = scales[j]
            held: list[Var] = []
            for b in range(num_bounds):
                mem_b = mem[j][b] - mem[j][b - 1] if b else mem[j][b] + 0.0
                u_mj = model.continuous_var(
                    lb=0.0, ub=live_mib, name=f"u[{m}][{j}]{at(b)}"
                )
                model.add(u_mj <= p_mj * live_mib, name=f"u_on[{m}][{j}]{at(b)}")
                model.add(u_mj <= mem_b, name=f"u_mem[{m}][{j}]{at(b)}")
                model.add(
                    u_mj >= mem_b - (1.0 - p_mj) * live_mib,
                    name=f"u_lb[{m}][{j}]{at(b)}",
                )
                tier_terms[b].append(u_mj * scale[b])
                held.append(u_mj)
            tier_terms[-1].append((p_mj * charge_mib - lin_sum(held)) * scale[-1])

            if total_accesses[j] <= 0:
                continue
            # Constraint 11: per-step demand (pool * dim * bytes * B),
            # split across tiers by the chosen access fractions.
            demand_bytes = poolings[j] * row_bytes[j] * batch_size
            weight = coverages[j] * demand_bytes * _MS
            # p*c_j = weight * (sum_b w_b (1/BW_b - 1/BW_{b+1}) + p/BW_last)
            for b in range(num_bounds):
                w_mj = model.continuous_var(
                    lb=0.0, ub=1.0, name=f"w[{m}][{j}]{at(b)}"
                )
                model.add(w_mj <= p_mj + 0.0, name=f"w_on[{m}][{j}]{at(b)}")
                model.add(w_mj <= pct[j][b] + 0.0, name=f"w_pct[{m}][{j}]{at(b)}")
                model.add(
                    w_mj >= pct[j][b] + p_mj - 1.0, name=f"w_lb[{m}][{j}]{at(b)}"
                )
                cost_terms.append(w_mj * (weight * (inv_bw[b] - inv_bw[b + 1])))
            cost_terms.append(p_mj * (weight * inv_bw[-1]))

        for t, terms in enumerate(tier_terms):
            model.add(lin_sum(terms) <= caps_mib[t], name=f"{cap_names[t]}[{m}]")
        cost_m = lin_sum(cost_terms)
        device_costs.append(cost_m)
        model.add(cost_m <= max_cost + 0.0, name=f"makespan[{m}]")  # Constraint 1

    if symmetry_breaking:
        # Devices are interchangeable; forcing non-increasing cost order
        # removes the M! permutation symmetry from the search tree.
        for m in range(num_devices - 1):
            model.add(
                device_costs[m] >= device_costs[m + 1], name=f"sym[{m}]"
            )

    # Primary objective: the makespan C (Constraint 1).  A vanishing
    # secondary term rewards coverage in faster tiers on non-critical
    # devices, which the makespan alone leaves unconstrained (solver
    # indifference would otherwise strand free capacity).
    total_cost_scale = sum(
        coverage * pooling * rb * batch_size * _MS * inv_bw[-1]
        for coverage, pooling, rb in zip(coverages, poolings, row_bytes)
    )
    epsilon = 1e-6 * max(total_cost_scale, 1e-12) / max(1, num_tables)
    model.minimize(max_cost - epsilon * lin_sum(v for pct_j in pct for v in pct_j))
    return FormulationHandles(
        model=model,
        assign=assign,
        pct=pct,
        mem=mem,
        max_cost=max_cost,
        device_costs=device_costs,
    )
