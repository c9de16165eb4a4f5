"""Bell-type bounds for an arbitrary Hermitian 4x4 observable.

Any Hermitian f can be shifted and scaled into a valid density matrix

    rho(x) = (f + x I) / (4 x + Tr f),        x > max_j |f_j|,

whose tomograms under four product rotations form a row-stochastic matrix.
Contracting that matrix against the CHSH sign pattern is bounded by
2 sqrt(2); for positive-definite f the same contraction applied to f itself
is bounded by 2 sqrt(2) Tr f, and by 2 Tr f when f carries a separability witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bell import SIGN_MATRIX, TSIRELSON_BOUND, BellSetting, bell_number
from .density import HERM_TOL, PSD_TOL, DensityMatrix, SeparableDecomposition
from .density import hermitian_spectrum, validate
from .errors import DomainError
from .tomography import EulerAngles, su2, tomogram


class ObservableMatrix:
    """Hermitian 4x4 matrix with its spectrum cached at construction."""

    __slots__ = ("_mat", "_spectrum")

    def __init__(self, mat):
        m = linalg.require_square(mat)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        self._spectrum = hermitian_spectrum(m, HERM_TOL, "observable")
        m = m.copy()
        m.flags.writeable = False
        self._mat = m
        self._spectrum.flags.writeable = False

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def spectrum(self) -> np.ndarray:
        return self._spectrum

    @property
    def trace(self) -> float:
        # A finite spectrum can still have a trace beyond float64: that is inf.
        with np.errstate(over="ignore"):
            return float(np.trace(self._mat).real)


@dataclass(frozen=True)
class UnitaryQuadruple:
    """Angles of four 2x2 rotations; u1, u2 act on the first index factor."""

    u1: EulerAngles
    u2: EulerAngles
    u3: EulerAngles
    u4: EulerAngles

    def matrices(self):
        return (su2(self.u1), su2(self.u2), su2(self.u3), su2(self.u4))

    def product_unitaries(self):
        """The four 4x4 rotations pairing (u1,u3), (u1,u4), (u2,u3), (u2,u4)."""
        m1, m2, m3, m4 = self.matrices()
        return (
            linalg.kron(m1, m3),
            linalg.kron(m1, m4),
            linalg.kron(m2, m3),
            linalg.kron(m2, m4),
        )

    def as_setting(self) -> BellSetting:
        """The equivalent four-direction setting: a=u1, d=u2, b=u3, c=u4."""
        return BellSetting(a=self.u1, d=self.u2, b=self.u3, c=self.u4)


@dataclass(frozen=True)
class BoundCheck:
    """Value of a contraction and the bound it must respect within ``PSD_TOL``."""

    value: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.value <= self.bound + PSD_TOL

    @property
    def slack(self) -> float:
        return self.bound - self.value


def min_admissible_x(f: ObservableMatrix) -> float:
    return float(np.max(np.abs(f.spectrum)))


def rho_of_x(f: ObservableMatrix, x: float) -> DensityMatrix:
    """Density matrix (f + x I) / (4 x + Tr f); requires x > max |f_j| strictly,
    with 4 x + Tr f finite.

    The spectrum of the result is (f_j + x) / (4 x + Tr f).
    """
    x_min = min_admissible_x(f)
    if not x > x_min:
        raise DomainError(
            f"x must strictly exceed the largest |eigenvalue| {x_min!r}; got {x!r}"
        )
    if not math.isfinite(x):
        raise DomainError(f"x must be finite; got {x!r}")
    denom = 4.0 * x
    if math.isfinite(denom):  # then Tr f is finite too, since every |f_jj| < x
        denom += f.trace
    if not math.isfinite(denom):
        raise DomainError(f"x must be small enough that 4 x + Tr f is finite; got {x!r}")
    return validate((f.mat + x * np.eye(4)) / denom)


def stochastic_omega(f: ObservableMatrix, x: float, q: UnitaryQuadruple) -> np.ndarray:
    """Row-stochastic 4x4 matrix: row alpha is the tomogram of rho(x) under
    the alpha-th product rotation of ``q``."""
    rho = rho_of_x(f, x)
    return np.stack([tomogram(rho, u) for u in q.product_unitaries()], axis=0)


def appendix_bell_value(f: ObservableMatrix, x: float, q: UnitaryQuadruple) -> float:
    """|contraction of the sign pattern against the stochastic matrix|.

    Equals |Bell number| of rho(x) at the setting a=u1, d=u2, b=u3, c=u4.
    """
    # Rows of omega are indexed by setting, columns by outcome, as in SIGN_MATRIX.
    return abs(float(np.sum(SIGN_MATRIX * stochastic_omega(f, x, q))))


def observable_bound_check(f: ObservableMatrix, q: UnitaryQuadruple) -> BoundCheck:
    """For positive-definite f: |Bell number of f| at ``q`` against the bound
    2 sqrt(2) Tr f."""
    bad = [float(v) for v in f.spectrum if v <= 0.0]
    if bad:
        raise DomainError(f"observable must be positive definite; eigenvalues {bad} are not")
    bound = TSIRELSON_BOUND * f.trace
    if not math.isfinite(bound):
        raise DomainError(f"observable_bound_check: 2 sqrt(2) Tr f overflows; Tr f = {f.trace!r}")
    value = abs(bell_number(f.mat, q.as_setting()))
    return BoundCheck(value=value, bound=bound)


def separable_observable_check(
    witness: SeparableDecomposition, q: UnitaryQuadruple
) -> BoundCheck:
    """Bound 2 Tr f for an observable carrying a separability witness.

    The argument must be the witnessed construction itself, not a bare
    matrix: separability is certified by construction, never decided here.
    Each term p (A kron B) contributes at most 2 p, so the bound is twice the
    weight sum, which the witness holds to 1 within ``PSD_TOL``.
    """
    if not isinstance(witness, SeparableDecomposition):
        raise TypeError(
            "separable_observable_check requires a SeparableDecomposition witness"
        )
    # Not validated: the weight sum may miss 1 by more than TRACE_TOL.
    value = abs(bell_number(witness.matrix(), q.as_setting()))
    return BoundCheck(value=value, bound=2.0 * sum(witness.weights))
