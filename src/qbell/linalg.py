"""Dense complex linear algebra for small matrices.

All matrices handled by this package are tiny (at most 8x8), stored as
plain complex numpy arrays. Eigenproblems are Hermitian only; LAPACK via
``numpy.linalg.eigh`` is deterministic for identical input and accurate to
well below the tolerances used elsewhere in the package.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import HermiticityError

HERM_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {m.ndim} dimension(s)")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError("matrix must be non-empty")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def require_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def matmul(a, b) -> np.ndarray:
    """Matrix product, with an explicit inner-dimension check."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[1] != mb.shape[0]:
        raise ValueError(f"dimension mismatch: {ma.shape} @ {mb.shape}")
    return ma @ mb


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2-D arrays; block (j, k) is a[j, k] * b.

    A broadcast outer product: the same elementwise products as
    ``np.kron``, so the result equals it bit for bit, without its
    general-rank bookkeeping. Entries are not checked here; the consumers
    of a product (``tomogram``) validate it.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron expects two 2-D matrices, got {a.ndim} and {b.ndim} dimension(s)")
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def trace(a) -> complex:
    """Sum of diagonal entries of a square matrix."""
    return complex(np.trace(require_square(a)))


def max_abs(a) -> float:
    """Max-norm (largest entrywise modulus)."""
    return float(np.abs(np.asarray(a)).max())


def hermiticity_defect(a) -> float:
    """Max-norm distance from a matrix to its own adjoint."""
    m = require_square(a)
    return max_abs(m - m.conj().T)


class EigenDecomposition(NamedTuple):
    """Spectral decomposition A = V diag(w) V† of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; the columns of ``eigenvectors``
    are the corresponding orthonormal eigenvectors. Within a degenerate
    eigenspace the basis is whatever LAPACK returns; consumers must rely on
    spectra and full projections only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(a, tol: float = HERM_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input must be Hermitian within ``tol`` in max-norm; the matrix is
    symmetrized before factorization so the result is exactly the
    decomposition of (A + A†)/2.
    """
    m = require_square(a)
    defect = max_abs(m - m.conj().T)
    if defect > tol:
        raise HermiticityError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds tolerance {tol:.1e}"
        )
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)
