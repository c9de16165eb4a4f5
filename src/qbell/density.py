"""The verdict rule, validated density matrices, embeddings and samplers."""

from __future__ import annotations

import math

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


def verdict(check_name: str, value: float, bound: float, margin: float, lower=False) -> dict:
    """The one verdict rule: the slack is bound - value (value - bound for a lower
    bound), and the verdict holds when the slack is at least -``margin``."""
    slack = value - bound if lower else bound - value
    return {"check_name": check_name, "value": float(value), "bound": float(bound),
            "margin": float(margin), "holds": bool(slack >= -margin), "slack": float(slack)}


def normalization_verdict(w) -> dict:
    """The one sum rule: |sum(w) - 1|, Python's ``sum`` of floats, against ``PSD_TOL``, margin 0."""
    return verdict("normalization", abs(sum(w) - 1.0), PSD_TOL, 0.0)


class HermitianMatrix:
    """Read-only Hermitian part (:func:`hermitian_part`) of a copy of the input,
    with its ascending spectrum and the input's defect. The constructor is the
    package's one hermiticity check; a spectrum that overflows float64 raises
    :class:`QbellError` naming ``stage``."""

    __slots__ = ("_mat", "_spectrum", "_defect")

    def __init__(self, a, stage: str):
        m = require_square(np.array(a, dtype=np.complex128, order="C"))
        part, defect = hermitian_part(m)
        if defect > HERM_TOL:
            raise HermiticityError(
                f"hermiticity defect {defect:.3e} exceeds tolerance {HERM_TOL:.1e}"
            )
        spectrum = np.linalg.eigvalsh(part)
        # Ascending, so an eigenvalue that overflowed shows at one end.
        if not (math.isfinite(spectrum[0]) and math.isfinite(spectrum[-1])):
            raise QbellError(
                f"{stage}: eigenvalues overflow float64 "
                f"(largest entry modulus {float(np.abs(m).max()):.3e})"
            )
        part.flags.writeable = spectrum.flags.writeable = False
        self._mat, self._spectrum, self._defect = part, spectrum, defect

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

    @property
    def defect(self) -> float:
        """The input's hermiticity defect, as :func:`hermitian_part` reads it."""
        return self._defect

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, spectrum={np.round(self._spectrum, 6)})"


class DensityMatrix(HermitianMatrix):
    """Hermitian, unit-trace, positive-semidefinite matrix, made by :func:`validate`."""

    __slots__ = ("_checks",)

    @property
    def verdicts(self) -> list:
        """The three verdicts :func:`validate` accepted this state with, margin 0."""
        return [verdict(*args) for args in self._checks]


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
    max|m - m†| (inf where that overflows). A matrix with defect 0 is its own
    part, returned as is. Otherwise the part is m/2 + m†/2, so it stays finite for
    finite entries. It equals (m + m†)/2 bit for bit wherever that is finite,
    except at entries of modulus below 2**-1021: their halves are subnormal and
    may lose the last bit (5e-324 halves to 0)."""
    with np.errstate(over="ignore"):
        defect = float(np.abs(m - m.conj().T).max())
    if defect == 0.0:
        return m, defect
    half = m * 0.5
    return half + half.conj().T, defect


def validate(mat, traced: int = 1) -> DensityMatrix:
    """Check the three density-matrix invariants and wrap the matrix.

    Raises :class:`HermiticityError`, :class:`TraceError` or :class:`PositivityError`,
    checked in that order, each naming the offending magnitude; see
    :class:`HermitianMatrix` for entries so large that the spectrum overflows.
    The trace and the spectrum are those of the held Hermitian part, and the
    state keeps the three checks as :attr:`DensityMatrix.verdicts`.

    For a block trace over ``traced`` blocks of a valid state, whose negative
    eigenvalues it sums, the positivity tolerance scales by ``traced``; trace and
    positivity also allow each of the ``traced - 1`` sums ``HERM_TOL`` of
    rounding, as a block trace sums the diagonal in its own order.
    """
    rho = DensityMatrix(mat, "validate")
    rounding = HERM_TOL * (traced - 1)
    trace_tol = TRACE_TOL + rounding
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN trace fails below
        tr = complex(rho.mat.trace())
    deviation = abs(tr - 1.0)
    if not deviation <= trace_tol:
        raise TraceError(f"trace {tr} deviates from 1 by {deviation:.3e}, "
                         f"exceeds tolerance {trace_tol:.1e}")
    psd_tol = PSD_TOL * traced + rounding
    least = rho.spectrum[0]
    if least < -psd_tol:
        raise PositivityError(f"negative eigenvalue {least:.6e} below tolerance -{psd_tol:.1e}")
    rho._checks = (("hermiticity", rho.defect, HERM_TOL, 0.0),
                   ("trace_normalization", deviation, trace_tol, 0.0),
                   ("positivity", least, -psd_tol, 0.0, True))
    return rho


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


def separable_sample(seed, terms: int) -> DensityMatrix:
    """Random 4x4 separable density matrix sum_n p_n (A_n kron B_n), deterministic
    per seed: Dirichlet(1,..,1) weights, then all first factors, then all second
    factors, each 2x2 factor G G† / Tr(G G†)."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))

    def factor():
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        return m / np.trace(m).real

    first = [factor() for _ in range(terms)]
    second = [factor() for _ in range(terms)]
    out = np.zeros((4, 4), dtype=np.complex128)
    for p, f1, f2 in zip(weights, first, second):
        out += p * np.kron(f1, f2)
    return validate(out)


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
