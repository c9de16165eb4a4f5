"""Reference computations the benchmark checks the program's outputs against.

Written from the definitions with numpy only; nothing here imports the
program under test.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
IDENTITY_2 = np.eye(2, dtype=np.complex128)
TSIRELSON = 2.0 * math.sqrt(2.0)
# Support cutoff of the relative entropy: entries at or below it carry no
# weight, as the program's documentation states.
SUPPORT_CUTOFF = 1e-12


def correlation_tensor(m: np.ndarray) -> np.ndarray:
    """T[i, j] = Re Tr(m (sigma_i (x) sigma_j)) in the Pauli basis."""
    return np.array([[np.trace(m @ np.kron(p, q)).real for q in PAULI] for p in PAULI])


def chsh_maximum(m: np.ndarray) -> float:
    """Largest CHSH value over all settings: 2 sqrt(s1^2 + s2^2) for the two
    largest singular values of the correlation tensor (Horodecki 1995)."""
    s = np.linalg.svd(correlation_tensor(m), compute_uv=False)
    return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


def direction(phi: float, theta: float) -> np.ndarray:
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def bell_value(m: np.ndarray, a, d, b, c) -> float:
    """E(a,b) + E(a,c) + E(d,b) - E(d,c) with E(n1, n2) = n1 . T . n2;
    each argument is a (phi, theta) pair."""
    t = correlation_tensor(m)
    na, nd, nb, nc = (direction(*v) for v in (a, d, b, c))
    return float(na @ t @ (nb + nc) + nd @ t @ (nb - nc))


def _projector(n: np.ndarray, sign: int) -> np.ndarray:
    return (IDENTITY_2 + sign * sum(k * p for k, p in zip(n, PAULI))) / 2.0


def joint_probabilities(m: np.ndarray, first, second) -> np.ndarray:
    """Outcome probabilities ordered (+,+), (+,-), (-,+), (-,-) for spin
    measurements along the (phi, theta) directions ``first`` and ``second``."""
    n1, n2 = direction(*first), direction(*second)
    return np.array([
        np.trace(m @ np.kron(_projector(n1, s1), _projector(n2, s2))).real
        for s1 in (1, -1) for s2 in (1, -1)
    ])


def entropy(m: np.ndarray) -> float:
    lams = np.linalg.eigvalsh(m)
    lams = lams[lams > 0.0]
    return max(0.0, float(-np.sum(lams * np.log(lams))))


def reduce_first(m: np.ndarray, n: int, k: int) -> np.ndarray:
    """Trace over the inner factor of an (n*k)x(n*k) matrix."""
    return np.trace(m.reshape(n, k, n, k), axis1=1, axis2=3)


def reduce_second(m: np.ndarray, n: int, k: int) -> np.ndarray:
    """Trace over the outer factor of an (n*k)x(n*k) matrix."""
    return np.trace(m.reshape(n, k, n, k), axis1=0, axis2=2)


def entropies(m: np.ndarray, n: int, k: int):
    """(S(joint), S(first), S(second)) in nats for the n x k block reading."""
    return entropy(m), entropy(reduce_first(m, n, k)), entropy(reduce_second(m, n, k))


def relative_entropy(p: np.ndarray, q: np.ndarray):
    """sum p ln(p/q) over the support of p; None when q vanishes on it."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= SUPPORT_CUTOFF:
            continue
        if qi <= SUPPORT_CUTOFF:
            return None
        total += pi * math.log(pi / qi)
    return total


def shifted_state(f: np.ndarray, x: float) -> np.ndarray:
    """(f + x I) / (4 x + Tr f)."""
    return (f + x * np.eye(4)) / (4.0 * x + np.trace(f).real)


def min_shift(f: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(f))))


def partitions(dim: int):
    """Every (n, k) with n * k == dim and n, k >= 2."""
    return [(n, dim // n) for n in range(2, dim // 2 + 1) if dim % n == 0]
