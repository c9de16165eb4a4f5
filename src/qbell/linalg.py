"""Dense complex linear algebra for small matrices.

All matrices handled by this package are tiny (at most 8x8), stored as
plain complex numpy arrays.
"""

from __future__ import annotations

import numpy as np


def require_square(a) -> np.ndarray:
    """Coerce input to a square complex128 matrix, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {m.ndim} dimension(s)")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError("matrix must be non-empty")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2-D arrays; block (j, k) is a[j, k] * b.

    A broadcast outer product: the same elementwise products as
    ``np.kron``, so the result equals it bit for bit, without its
    general-rank bookkeeping. Entries are not checked here.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron expects two 2-D matrices, got {a.ndim} and {b.ndim} dimension(s)")
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def max_abs(a) -> float:
    """Max-norm (largest entrywise modulus)."""
    return float(np.abs(np.asarray(a)).max())
