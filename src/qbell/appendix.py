"""Bell-type bounds for an arbitrary Hermitian 4x4 observable.

Any Hermitian f can be shifted and scaled into a valid density matrix

    rho(x) = (f + x I) / (4 x + Tr f),        x > max_j |f_j|,

whose tomograms under four product rotations form a row-stochastic matrix.
Contracting that matrix against the CHSH sign pattern gives the Bell number
of rho(x), read here as the Bell number of f + x I over its trace, and is
bounded by 2 sqrt(2); for positive-definite f the same contraction applied to
f itself is bounded by 2 sqrt(2) Tr f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import TSIRELSON_BOUND, BellSetting, bell_number, bound_verdicts as bell_verdicts
from .density import PSD_TOL, DensityMatrix, HermitianMatrix
from .density import require_square, validate, verdict
from .errors import DomainError, QbellError
from .tomography import EulerAngles

_IDENTITY_4 = np.eye(4)


def _trace(m: np.ndarray, x: float = 0.0) -> float:
    """Tr(m + x I) in Python floats: inf past float64, without a warning."""
    d = [v + x for v in m.diagonal().real.tolist()]
    return (d[0] + d[1]) + (d[2] + d[3])  # paired as np.trace pairs them


class ObservableMatrix(HermitianMatrix):
    """Hermitian 4x4 matrix, held as :class:`HermitianMatrix` holds any input."""

    __slots__ = ()

    def __init__(self, mat):
        m = require_square(mat)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        super().__init__(m, "observable")


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


def min_admissible_x(f: ObservableMatrix) -> float:
    return float(max(abs(f.spectrum[0]), abs(f.spectrum[-1])))  # ascending spectrum


def _shifted(f: ObservableMatrix, x: float) -> tuple:
    """f + x I and its trace, summed from the shifted diagonal, once ``x`` is in
    the domain: x > max |f_j| strictly, with the trace finite. Else :class:`DomainError`.
    Both are scaled up, exactly, by the power of two that takes a trace below 1 into
    [0.5, 1): below 2**-1024 numpy's 1 / trace is inf, and the Bell form loses bits."""
    x_min = min_admissible_x(f)
    if not x > x_min:
        raise DomainError(f"x must strictly exceed the largest |eigenvalue| {x_min!r}; got {x!r}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite; got {x!r}")
    trace = _trace(f.mat, x)  # no f_jj + x is -inf, so a finite trace has finite terms
    if not math.isfinite(trace):
        raise DomainError(f"x must be small enough that Tr(f + x I) is finite; got {x!r}")
    k = min(math.frexp(trace)[1], 0)
    return np.ldexp((f.mat + x * _IDENTITY_4).view(float), -k).view(complex), math.ldexp(trace, -k)


def rho_of_x(f: ObservableMatrix, x: float) -> DensityMatrix:
    """Density matrix (f + x I) / Tr(f + x I); requires x > max |f_j| strictly,
    with Tr(f + x I) finite.

    The spectrum of the result is (f_j + x) / Tr(f + x I) in exact arithmetic,
    read here from f + x I, which stays accurate where f_j + x cancels. A
    shifted matrix that ``validate`` rejects raises :class:`DomainError` naming ``x``.
    """
    shifted, trace = _shifted(f, x)
    try:
        return validate(shifted / trace)
    except QbellError as e:
        raise DomainError(f"rho(x) at x = {x!r} is not a valid density matrix: {e}") from e


def appendix_bell_value(f: ObservableMatrix, x: float, q: UnitaryQuadruple) -> float:
    """|Bell number| of rho(x) at the setting a=u1, d=u2, b=u3, c=u4: the
    sign-pattern contraction of the appendix's stochastic matrix. The identity
    has no correlation tensor, so it is |B(f + x I, q)| / Tr(f + x I), read with
    the domain checks of :func:`rho_of_x` but without building rho(x)."""
    shifted, trace = _shifted(f, x)
    return abs(bell_number(shifted, q.as_setting())) / trace


def bound_verdicts(f: ObservableMatrix, value: float, q: UnitaryQuadruple) -> list:
    """``tsirelson_bound`` on ``value``, the Bell value of rho(x), as the Bell layer
    decides it, and for positive-definite f only, ``observable_bound``: |Bell
    number of f| at ``q`` against 2 sqrt(2) Tr f, within ``PSD_TOL``."""
    _, tsirelson = bell_verdicts(value)
    verdicts = [tsirelson]
    if f.spectrum[0] > 0.0:
        trace = _trace(f.mat)
        bound = TSIRELSON_BOUND * trace
        if not math.isfinite(bound):
            raise DomainError(f"observable_bound: 2 sqrt(2) Tr f overflows; Tr f = {trace!r}")
        value_f = abs(bell_number(f, q.as_setting()))
        verdicts.append(verdict("observable_bound", value_f, bound, PSD_TOL))
    return verdicts
