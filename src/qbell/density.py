"""Validated density matrices, embeddings and samplers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, PositivityError, QbellError, TraceError

# The package's tolerances, each defined once; every layer imports them.
# HERM_TOL: max-norm rounding defect of an O(1) matrix (hermiticity, unitarity).
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
# The least eigenvalue of a state, so also of its tomograms, and the base margin
# of every later verdict. Looser than HERM_TOL: eigenvalues accumulate more rounding.
PSD_TOL = 1e-9
# Tomogram entries in [-CLAMP_TOL, 0) read as 0; entries at or below it carry no
# weight. Not derived from PSD_TOL: a clamp that wide would move raw tomograms
# past the benchmark oracles' PROB_TOL (bench/workloads.py).
CLAMP_TOL = 1e-12


class HermitianMatrix:
    """Read-only Hermitian matrix and its ascending spectrum. Takes over arrays
    that nothing else references and makes them read-only, without copying."""

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
        """Eigenvalues, ascending."""
        return self._spectrum

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, spectrum={np.round(self._spectrum, 6)})"


class DensityMatrix(HermitianMatrix):
    """Hermitian, unit-trace, positive-semidefinite matrix, made by :func:`validate`."""

    __slots__ = ()


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


def hermitian_part(m: np.ndarray) -> tuple:
    """(m + m†)/2 of a square matrix and the package's one hermiticity defect,
    max|m - m†| (inf where that overflows). The part is m/2 + m†/2, so it stays
    finite for finite entries. It equals (m + m†)/2 bit for bit wherever that is
    finite, except at entries of modulus below 2**-1021: their halves are subnormal
    and may lose the last bit (5e-324 halves to 0)."""
    with np.errstate(over="ignore"):
        defect = float(np.abs(m - m.conj().T).max())
    half = m * 0.5
    return half + half.conj().T, defect


def hermitian_spectrum(m: np.ndarray, herm_tol: float, stage: str) -> tuple:
    """The Hermitian part of a square matrix and its ascending eigenvalues.

    The package's one hermiticity check: the defect of :func:`hermitian_part`
    must not exceed ``herm_tol``. A spectrum that overflows float64 raises
    :class:`QbellError` naming ``stage``.
    """
    part, defect = hermitian_part(m)
    if defect > herm_tol:
        raise HermiticityError(
            f"hermiticity defect {defect:.3e} exceeds tolerance {herm_tol:.1e}"
        )
    spectrum = np.linalg.eigvalsh(part)
    # Ascending, so an eigenvalue that overflowed shows at one end.
    if not (math.isfinite(spectrum[0]) and math.isfinite(spectrum[-1])):
        raise QbellError(
            f"{stage}: eigenvalues overflow float64 "
            f"(largest entry modulus {float(np.abs(m).max()):.3e})"
        )
    return part, spectrum


def validate(mat, traced: int = 1) -> DensityMatrix:
    """Check the three density-matrix invariants and wrap the matrix.

    Raises :class:`HermiticityError`, :class:`TraceError` or
    :class:`PositivityError`, checked in that order, each naming the
    offending magnitude; see :func:`hermitian_spectrum` for entries so large
    that the spectrum overflows. The computed spectrum is cached on the
    returned object.

    For a block trace over ``traced`` blocks of a valid state, whose defects
    it sums, the hermiticity and positivity tolerances scale by ``traced``;
    positivity also allows each of the ``traced - 1`` sums ``HERM_TOL`` of rounding.
    """
    # The one copy: the caller keeps its array, the result owns this one.
    m = require_square(np.array(mat, dtype=np.complex128, order="C"))
    spectrum = hermitian_spectrum(m, HERM_TOL * traced, "validate")[1]
    tr = complex(m.trace())
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"trace {tr} deviates from 1 by {abs(tr - 1.0):.3e}")
    psd_tol = PSD_TOL * traced + HERM_TOL * (traced - 1)
    if spectrum[0] < -psd_tol:
        raise PositivityError(
            f"negative eigenvalue {spectrum[0]:.6e} below tolerance -{psd_tol:.1e}"
        )
    return DensityMatrix(m, spectrum)


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
        for p in self.weights:  # NaN passes both comparisons below
            if not math.isfinite(p):
                raise ValueError(f"weight {p} is not finite")
        if min(self.weights) < -CLAMP_TOL:
            raise ValueError(f"negative weight {min(self.weights)}")
        total = sum(self.weights)
        if abs(total - 1.0) > PSD_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")
        for side in (self.first_factors, self.second_factors):
            for f in side:
                m = require_square(f)
                if m.shape != (2, 2):
                    raise ValueError(f"factors must be 2x2, got {m.shape}")
                validate(m)

    def matrix(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=np.complex128)
        for p, f1, f2 in zip(self.weights, self.first_factors, self.second_factors):
            out += p * np.kron(f1, f2)
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
    m = rho.mat if isinstance(rho, HermitianMatrix) else require_square(rho)
    if m.shape != (4, 4):
        raise ValueError("partial_transpose is defined for 4x4 matrices split 2x2")
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4).copy()
