"""Bell-type bounds for an arbitrary Hermitian 4x4 observable.

Any Hermitian f can be shifted and scaled into a valid density matrix

    rho(x) = (f + x I) / (4 x + Tr f),        x > max_j |f_j|,

whose tomograms under four product rotations form a row-stochastic matrix.
Contracting that matrix against the CHSH sign pattern gives the Bell number
of rho(x), evaluated here through the correlation tensor, and is bounded by
2 sqrt(2); for positive-definite f the same contraction applied to f itself
is bounded by 2 sqrt(2) Tr f, and by 2 Tr f when f carries a separability witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import TSIRELSON_BOUND, BellSetting, bell_number
from .density import HERM_TOL, PSD_TOL, DensityMatrix, HermitianMatrix, SeparableDecomposition
from .density import hermitian_spectrum, require_square, validate
from .errors import DomainError, QbellError
from .tomography import EulerAngles

_IDENTITY_4 = np.eye(4)


def _trace(m: np.ndarray, x: float = 0.0) -> float:
    """Tr(m + x I) in Python floats: inf past float64, without a warning."""
    d = [v + x for v in m.diagonal().real.tolist()]
    return (d[0] + d[1]) + (d[2] + d[3])  # paired as np.trace pairs them


class ObservableMatrix(HermitianMatrix):
    """Hermitian 4x4 matrix: the Hermitian part of the input, which is the input
    itself, bit for bit, if that is exactly Hermitian with no entry below 2**-1021."""

    __slots__ = ()

    def __init__(self, mat):
        m = require_square(mat)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        super().__init__(*hermitian_spectrum(m, HERM_TOL, "observable"))

    @property
    def trace(self) -> float:
        return _trace(self.mat)


@dataclass(frozen=True)
class UnitaryQuadruple:
    """Angles of four 2x2 rotations; u1, u2 act on the first index factor."""

    u1: EulerAngles
    u2: EulerAngles
    u3: EulerAngles
    u4: EulerAngles

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
    return float(max(abs(f.spectrum[0]), abs(f.spectrum[-1])))  # ascending spectrum


def rho_of_x(f: ObservableMatrix, x: float) -> DensityMatrix:
    """Density matrix (f + x I) / Tr(f + x I); requires x > max |f_j| strictly,
    with Tr(f + x I) finite.

    The spectrum of the result is (f_j + x) / Tr(f + x I). A shifted matrix
    that ``validate`` rejects raises :class:`DomainError` naming ``x``.
    """
    x_min = min_admissible_x(f)
    if not x > x_min:
        raise DomainError(
            f"x must strictly exceed the largest |eigenvalue| {x_min!r}; got {x!r}"
        )
    if not math.isfinite(x):
        raise DomainError(f"x must be finite; got {x!r}")
    trace = _trace(f.mat, x)  # no f_jj + x is -inf, so a finite trace has finite terms
    if not math.isfinite(trace):
        raise DomainError(f"x must be small enough that Tr(f + x I) is finite; got {x!r}")
    try:
        return validate((f.mat + x * _IDENTITY_4) / trace)
    except QbellError as e:
        raise DomainError(f"rho(x) at x = {x!r} is not a valid density matrix: {e}") from e


def appendix_bell_value(f: ObservableMatrix, x: float, q: UnitaryQuadruple) -> float:
    """|Bell number| of rho(x) at the setting a=u1, d=u2, b=u3, c=u4: the
    sign-pattern contraction of the appendix's stochastic matrix."""
    return abs(bell_number(rho_of_x(f, x), q.as_setting()))


def observable_bound_check(f: ObservableMatrix, q: UnitaryQuadruple) -> BoundCheck:
    """For positive-definite f: |Bell number of f| at ``q`` against the bound
    2 sqrt(2) Tr f."""
    bad = [float(v) for v in f.spectrum if v <= 0.0]
    if bad:
        raise DomainError(f"observable must be positive definite; eigenvalues {bad} are not")
    bound = TSIRELSON_BOUND * f.trace
    if not math.isfinite(bound):
        raise DomainError(f"observable_bound_check: 2 sqrt(2) Tr f overflows; Tr f = {f.trace!r}")
    value = abs(bell_number(f, q.as_setting()))
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
