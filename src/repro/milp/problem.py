"""A MILP in the matrix form HiGHS solves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


@dataclass
class MilpProblem:
    """``min c @ x`` subject to ``row_lower <= matrix @ x <= row_upper``,
    ``lower <= x <= upper`` and ``x[i]`` integral where
    ``integrality[i]`` is 1.

    The fields are coerced to float64 vectors, a uint8 integrality
    vector and a CSR matrix, so small problems can be written as lists.
    """

    c: np.ndarray
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    matrix: sparse.csr_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray

    def __post_init__(self):
        from scipy import sparse  # here, so ``import repro`` skips scipy

        self.c = np.asarray(self.c, dtype=np.float64)
        self.integrality = np.asarray(self.integrality, dtype=np.uint8)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        self.matrix = sparse.csr_matrix(self.matrix, dtype=np.float64)
        self.row_lower = np.asarray(self.row_lower, dtype=np.float64)
        self.row_upper = np.asarray(self.row_upper, dtype=np.float64)

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def num_rows(self) -> int:
        return self.row_lower.size
