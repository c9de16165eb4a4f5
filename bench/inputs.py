"""Seeded input generators for the benchmark workloads.

Everything here uses numpy only, so the program under test receives plain
matrices and numbers that the benchmark made. The same (seed, key) always
gives the same input.

The mixes deliberately include boundary inputs: rank-deficient states,
degenerate spectra, an eigenvalue at -5e-10 (inside the program's 1e-9
positivity tolerance) and the special angles 0, pi/2 and pi.
"""

from __future__ import annotations

import math

import numpy as np

EDGE_EIGENVALUE = -5e-10
SPECIAL_ANGLES = (0.0, math.pi / 2.0, math.pi)

# 4x4 state kinds shared by the search and verify mixes.
KINDS_4 = ("haar", "separable", "werner", "qutrit", "rank_deficient", "degenerate", "edge")
# Kinds for the 6x6 and 8x8 inputs of the verify mix.
KINDS_N = ("haar", "product_mixture", "rank_deficient", "degenerate", "edge")
# axis: both polar angles in {0, pi}, so a tomogram reads the diagonal;
# equator: one polar angle pi/2; random: generic directions.
ANGLE_MODES = ("axis", "equator", "random")
# How far the appendix shift x sits above the smallest admissible value.
X_MODES = ("just_above", "near", "wide")


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_trace(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def random_unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_state(rng, dim: int) -> np.ndarray:
    g = _complex_normal(rng, (dim, dim))
    return _unit_trace(g @ g.conj().T)


def rank_deficient_state(rng, dim: int) -> np.ndarray:
    rank = int(rng.integers(1, dim))
    g = _complex_normal(rng, (dim, rank))
    return _unit_trace(g @ g.conj().T)


def degenerate_state(rng, dim: int) -> np.ndarray:
    """Spectrum with repeated eigenvalues (the maximally mixed state included)."""
    if rng.random() < 0.25:
        return np.eye(dim, dtype=np.complex128) / dim
    high, low = sorted(rng.uniform(0.0, 1.0, 2))[::-1]
    split = int(rng.integers(1, dim))
    spectrum = np.array([high] * split + [low] * (dim - split))
    u = random_unitary(rng, dim)
    return _unit_trace((u * (spectrum / spectrum.sum())) @ u.conj().T)


def edge_state(rng, dim: int, diagonal: bool) -> np.ndarray:
    """One eigenvalue at -5e-10, the rest positive, trace 1; diagonal or in
    a random basis."""
    rest = rng.dirichlet(np.ones(dim - 1)) * (1.0 - EDGE_EIGENVALUE)
    spectrum = np.insert(rest, int(rng.integers(0, dim)), EDGE_EIGENVALUE)
    if diagonal:
        return np.diag(spectrum).astype(np.complex128)
    u = random_unitary(rng, dim)
    return (u * spectrum) @ u.conj().T


def separable_state(rng, da: int, db: int) -> np.ndarray:
    """Mixture of 1 to 5 product terms with Dirichlet weights."""
    terms = int(rng.integers(1, 6))
    weights = rng.dirichlet(np.ones(terms))
    out = np.zeros((da * db, da * db), dtype=np.complex128)
    for w in weights:
        out += w * np.kron(haar_state(rng, da), haar_state(rng, db))
    return _unit_trace(out)


def werner_state(p: float) -> np.ndarray:
    """p |Phi+><Phi+| + (1 - p) I/4; its CHSH maximum is exactly 2 sqrt(2) p."""
    phi = np.zeros(4, dtype=np.complex128)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    return p * np.outer(phi, phi.conj()) + (1.0 - p) * np.eye(4) / 4.0


def qutrit_state(rng) -> np.ndarray:
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:3, :3] = haar_state(rng, 3)
    return out


def local_unitary(rng) -> np.ndarray:
    return np.kron(random_unitary(rng, 2), random_unitary(rng, 2))


def state4(rng, kind: str, rotated: bool):
    """A 4x4 input of the given kind; returns (matrix, werner p or None).

    ``rotated`` applies a random local unitary U1 (x) U2, which leaves the
    CHSH maximum and every entropy unchanged.
    """
    p = None
    if kind == "haar":
        m = haar_state(rng, 4)
    elif kind == "separable":
        m = separable_state(rng, 2, 2)
    elif kind == "werner":
        p = float(rng.uniform(0.0, 1.0))
        m = werner_state(p)
    elif kind == "qutrit":
        m = qutrit_state(rng)
    elif kind == "rank_deficient":
        m = rank_deficient_state(rng, 4)
    elif kind == "degenerate":
        m = degenerate_state(rng, 4)
    elif kind == "edge":
        m = edge_state(rng, 4, diagonal=True)
    else:
        raise ValueError(f"unknown 4x4 kind {kind!r}")
    if rotated:
        u = local_unitary(rng)
        m = u @ m @ u.conj().T
    return m, p


def state_n(rng, dim: int, kind: str) -> np.ndarray:
    if kind == "haar":
        return haar_state(rng, dim)
    if kind == "product_mixture":
        return separable_state(rng, 2, dim // 2)
    if kind == "rank_deficient":
        return rank_deficient_state(rng, dim)
    if kind == "degenerate":
        return degenerate_state(rng, dim)
    if kind == "edge":
        return edge_state(rng, dim, diagonal=False)
    raise ValueError(f"unknown kind {kind!r}")


def diagonal_with_zero(rng) -> np.ndarray:
    """Diagonal 4x4 state with one exactly-zero entry (rank deficient)."""
    d = rng.dirichlet(np.ones(3))
    return np.diag(np.insert(d, int(rng.integers(0, 4)), 0.0)).astype(np.complex128)


def directions(rng, mode: str, count: int):
    """``count`` (phi, theta) pairs for the given angle mode."""
    out = []
    for k in range(count):
        if mode == "random":
            out.append((float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.0, math.pi))))
            continue
        phi = float(rng.choice(SPECIAL_ANGLES))
        if mode == "axis":
            theta = float(rng.choice((0.0, math.pi)))
        elif mode == "equator":
            theta = math.pi / 2.0 if k == 0 else float(rng.choice(SPECIAL_ANGLES))
        else:
            raise ValueError(f"unknown angle mode {mode!r}")
        out.append((phi, theta))
    return out


def observable(rng) -> np.ndarray:
    """Hermitian 4x4 observable with spectrum in [-3, 3]: indefinite,
    positive definite or rank-deficient positive semidefinite."""
    u = random_unitary(rng, 4)
    shape = int(rng.integers(0, 3))
    if shape == 0:
        spectrum = rng.uniform(-3.0, 3.0, 4)
    elif shape == 1:
        spectrum = rng.uniform(0.1, 3.0, 4)
    else:
        spectrum = np.concatenate([[0.0], rng.uniform(0.1, 3.0, 3)])
    m = (u * spectrum) @ u.conj().T
    return (m + m.conj().T) / 2.0


def shift_above(rng, x_min: float, mode: str) -> float:
    """A shift x strictly above ``x_min``."""
    if mode == "just_above":
        return x_min * (1.0 + 1e-12)
    if mode == "near":
        return x_min * (1.0 + 1e-6)
    if mode == "wide":
        return x_min * float(rng.uniform(1.5, 20.0))
    raise ValueError(f"unknown shift mode {mode!r}")
