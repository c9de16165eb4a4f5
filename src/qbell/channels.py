"""Block-trace maps sending an N x N matrix to its two reduced matrices.

For N = n * m the matrix is read as an n x n grid of m x m blocks. The
first map keeps the block grid and traces each block; the second sums the
diagonal blocks. When the matrix is a density matrix of a bipartite system
these are precisely the two partial traces, but the maps are well defined
(and positivity-preserving) for any admissible factorization of N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import HERM_TOL, PSD_TOL, DensityMatrix, validate


@dataclass(frozen=True)
class BlockPartition:
    """Factorization N = n * m: n outer blocks of size m."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"partition sizes must be >= 1, got ({self.n}, {self.m})")

    @property
    def dim(self) -> int:
        return self.n * self.m


def _blocks(rho: DensityMatrix, p: BlockPartition) -> np.ndarray:
    if rho.dim != p.dim:
        raise ValueError(
            f"partition ({p.n}, {p.m}) does not factor dimension {rho.dim}"
        )
    # axes: (block row, row in block, block col, col in block)
    return rho.mat.reshape(p.n, p.m, p.n, p.m)


def _validate_reduced(mat: np.ndarray, traced: int) -> DensityMatrix:
    # Each reduced entry sums ``traced`` entries of the input, so the input's
    # hermiticity defect and negative eigenvalues can grow by that factor.
    return validate(mat, herm_tol=HERM_TOL * traced, psd_tol=PSD_TOL * traced)


def block_trace_first(rho: DensityMatrix, p: BlockPartition) -> DensityMatrix:
    """n x n reduced matrix whose (k, j) entry is the trace of block (k, j)."""
    b = _blocks(rho, p)
    return _validate_reduced(np.einsum("ktjt->kj", b), p.m)


def block_trace_second(rho: DensityMatrix, p: BlockPartition) -> DensityMatrix:
    """m x m reduced matrix: the sum of the n diagonal blocks."""
    b = _blocks(rho, p)
    return _validate_reduced(np.einsum("kskt->st", b), p.n)
