"""Validated density matrices, index conventions, embeddings and samplers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import HermiticityError, PositivityError, QbellError, TraceError

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
# Looser than the hermiticity tolerance: eigenvalues of near-boundary
# matrices accumulate more rounding error than entrywise comparisons.
PSD_TOL = 1e-9


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of a fixed dimension.

    Instances are produced only by :func:`validate`, which hands over arrays
    that nothing else references; they are made read-only here, not copied.
    """

    __slots__ = ("_mat", "_spectrum")

    def __init__(self, mat: np.ndarray, spectrum: np.ndarray):
        mat.flags.writeable = False
        spectrum.flags.writeable = False
        self._mat = mat
        self._spectrum = spectrum

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending, cached at validation time."""
        return self._spectrum

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, spectrum={np.round(self._spectrum, 6)})"


def hermitian_spectrum(m: np.ndarray, herm_tol: float, stage: str) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a square matrix.

    The package's one hermiticity check: the max-norm of m - m† must not
    exceed ``herm_tol``. A spectrum that overflows float64 raises
    :class:`QbellError` naming ``stage``.
    """
    # Halving first keeps entries near the float64 limit finite: bit for bit,
    # 2 max|m/2 - m†/2| is max|m - m†| and m/2 + m†/2 is (m + m†)/2.
    half = m * 0.5
    half_h = half.conj().T
    defect = 2.0 * linalg.max_abs(half - half_h)
    if defect > herm_tol:
        raise HermiticityError(
            f"hermiticity defect {defect:.3e} exceeds tolerance {herm_tol:.1e}"
        )
    spectrum = np.linalg.eigvalsh(half + half_h)
    # Ascending, so an eigenvalue that overflowed shows at one end.
    if not (math.isfinite(spectrum[0]) and math.isfinite(spectrum[-1])):
        raise QbellError(
            f"{stage}: eigenvalues overflow float64 "
            f"(largest entry modulus {linalg.max_abs(m):.3e})"
        )
    return spectrum


def validate(
    mat,
    herm_tol: float = HERM_TOL,
    trace_tol: float = TRACE_TOL,
    psd_tol: float = PSD_TOL,
) -> DensityMatrix:
    """Check the three density-matrix invariants and wrap the matrix.

    Raises :class:`HermiticityError`, :class:`TraceError` or
    :class:`PositivityError`, checked in that order, each naming the
    offending magnitude; see :func:`hermitian_spectrum` for entries so large
    that the spectrum overflows. The computed spectrum is cached on the
    returned object.
    """
    # The one copy: the caller keeps its array, the result owns this one.
    m = linalg.require_square(np.array(mat, dtype=np.complex128, order="C"))
    spectrum = hermitian_spectrum(m, herm_tol, "validate")
    tr = complex(m.trace())
    if abs(tr - 1.0) > trace_tol:
        raise TraceError(f"trace {tr} deviates from 1 by {abs(tr - 1.0):.3e}")
    if spectrum[0] < -psd_tol:
        raise PositivityError(
            f"negative eigenvalue {spectrum[0]:.6e} below tolerance -{psd_tol:.1e}"
        )
    return DensityMatrix(m, spectrum)


# ---------------------------------------------------------------------------
# Index conventions between composite labels and linear indices 1..4.

@dataclass(frozen=True)
class IndexMap:
    """Bijection between outcome labels and 1-based linear indices."""

    kind: str
    forward: dict
    backward: dict


def _make_index_map(kind: str, labels) -> IndexMap:
    forward = {label: k + 1 for k, label in enumerate(labels)}
    backward = {k + 1: label for k, label in enumerate(labels)}
    return IndexMap(kind, forward, backward)


# Two spin-1/2 subsystems: (m1, m2) with m = +-1/2, enumerated (+,+), (+,-),
# (-,+), (-,-).
TWO_QUBIT = _make_index_map(
    "two_qubit", [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)]
)
# Single four-level system read as spin j=3/2 projections, descending.
QUDIT_3_2 = _make_index_map("qudit_3_2", [1.5, 0.5, -0.5, -1.5])


def label_to_index(index_map: IndexMap, label) -> int:
    try:
        return index_map.forward[label]
    except KeyError:
        raise ValueError(f"unknown label {label!r} for map {index_map.kind!r}") from None


def index_to_label(index_map: IndexMap, index: int):
    try:
        return index_map.backward[index]
    except KeyError:
        raise ValueError(
            f"index {index!r} outside 1..{len(index_map.backward)} for map {index_map.kind!r}"
        ) from None


# ---------------------------------------------------------------------------
# Embeddings and samplers.

def embed_qutrit(rho3: DensityMatrix) -> DensityMatrix:
    """Embed a 3x3 density matrix as the top-left block of a 4x4 one.

    The fourth row and column are zero, so the spectrum of the result is the
    original spectrum together with an extra 0.
    """
    if rho3.dim != 3:
        raise ValueError(f"expected a 3x3 density matrix, got dim {rho3.dim}")
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:3, :3] = rho3.mat
    return validate(out)


def random_density(dim: int, seed) -> DensityMatrix:
    """Random full-rank density matrix: G G† / Tr(G G†).

    G has iid standard-normal real and imaginary parts drawn from numpy's
    PCG64 generator, so output is reproducible for a fixed integer seed.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return validate(m / np.trace(m).real)


@dataclass(frozen=True)
class SeparableDecomposition:
    """Witnessed convex combination sum_n p_n (A_n kron B_n).

    The factors are 2x2 density matrices and the weights are a probability
    vector; both are checked at construction, so holding an instance is a
    proof of separability of :meth:`matrix`.
    """

    weights: tuple
    first_factors: tuple
    second_factors: tuple

    def __post_init__(self):
        if not (len(self.weights) == len(self.first_factors) == len(self.second_factors)):
            raise ValueError("weights and factor lists must have equal length")
        if len(self.weights) == 0:
            raise ValueError("decomposition needs at least one term")
        if min(self.weights) < -1e-12:
            raise ValueError(f"negative weight {min(self.weights)}")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1")
        for side in (self.first_factors, self.second_factors):
            for f in side:
                m = linalg.require_square(f)
                if m.shape != (2, 2):
                    raise ValueError(f"factors must be 2x2, got {m.shape}")
                validate(m)

    def matrix(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=np.complex128)
        for p, f1, f2 in zip(self.weights, self.first_factors, self.second_factors):
            out += p * linalg.kron(f1, f2)
        return out


def random_separable(seed, terms: int) -> SeparableDecomposition:
    """Random separable construction with Dirichlet(1,..,1) weights."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    rng = np.random.default_rng(seed)
    weights = tuple(float(w) for w in rng.dirichlet(np.ones(terms)))

    def factor():
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        return m / np.trace(m).real

    first = tuple(factor() for _ in range(terms))
    second = tuple(factor() for _ in range(terms))
    return SeparableDecomposition(weights, first, second)


def separable_sample(seed, terms: int) -> DensityMatrix:
    """Random 4x4 separable density matrix, deterministic per seed."""
    return validate(random_separable(seed, terms).matrix())


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second tensor factor of a 4x4 matrix (2x2 blocks).

    For 2 kron 2 systems a negative eigenvalue of the result certifies
    entanglement, and positivity certifies separability. The result is a
    plain matrix because it may be indefinite.
    """
    m = rho.mat if isinstance(rho, DensityMatrix) else linalg.require_square(rho)
    if m.shape != (4, 4):
        raise ValueError("partial_transpose is defined for 4x4 matrices split 2x2")
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4).copy()
