"""CHSH Bell functional for 4x4 states: evaluation, bounds and maximization.

The Bell number combines four correlation functions,

    B = E(a, b) + E(a, c) + E(d, b) - E(d, c),

where each E is the signed sum of joint-tomogram probabilities over the
outcome signs (+1, -1, -1, +1), evaluated here as n1 . T . n2 with the Pauli
correlation tensor T (Horodecki, Phys. Lett. A 200, 340 (1995)). Separable
matrices satisfy |B| <= 2; every valid density matrix satisfies the
universal ceiling |B| <= 2 sqrt(2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .density import DensityMatrix
from .tomography import EulerAngles

# Row alpha = setting pair (a,b), (a,c), (d,b), (d,c); column beta = outcome
# (+,+), (+,-), (-,+), (-,-). Entry = outcome sign times the setting sign
# (+1, +1, +1, -1). Every row sums to zero.
SIGN_MATRIX = np.array(
    [
        [1, -1, -1, 1],
        [1, -1, -1, 1],
        [1, -1, -1, 1],
        [-1, 1, 1, -1],
    ],
    dtype=np.int64,
)

SEPARABLE_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
# Far above accumulated rounding, far below the 0.828 gap between bounds.
CLASSIFY_TOL = 1e-6
# maximize_bell halves its pattern-search step from pi/4 until it is below this,
# or until a restart has spent MAX_EVALS evaluations.
STEP_TOL = 1e-7
MAX_EVALS = 40000

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
_PAULI_KRON = np.array([[np.kron(p, q) for q in _PAULI] for p in _PAULI])


@dataclass(frozen=True)
class BellSetting:
    """Four measurement directions: a, d on the first axis pair, b, c on the second."""

    a: EulerAngles
    b: EulerAngles
    c: EulerAngles
    d: EulerAngles

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if getattr(self, name).psi != 0.0:
                raise ValueError(f"measurement direction {name} must have psi == 0")

    @classmethod
    def from_flat(cls, values) -> "BellSetting":
        """Build from eight radians ordered (phi, theta) for a, d, b, c."""
        v = [float(x) for x in values]
        if len(v) != 8:
            raise ValueError(f"expected 8 angles (phi, theta for a, d, b, c), got {len(v)}")
        return cls(
            a=EulerAngles(v[0], v[1]),
            d=EulerAngles(v[2], v[3]),
            b=EulerAngles(v[4], v[5]),
            c=EulerAngles(v[6], v[7]),
        )

    def to_flat(self):
        return [
            self.a.phi, self.a.theta,
            self.d.phi, self.d.theta,
            self.b.phi, self.b.theta,
            self.c.phi, self.c.theta,
        ]


class BellClass(enum.Enum):
    WITHIN_SEPARABLE_BOUND = "within_separable_bound"
    HIDDEN_BELL_CORRELATION = "hidden_bell_correlation"
    TSIRELSON_VIOLATION_ERROR = "tsirelson_violation_error"


@dataclass(frozen=True)
class OptimizerStats:
    restarts: int
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class BellReport:
    """Largest |B| found, the realizing setting, and how the search ran."""

    value: float
    setting: BellSetting
    stats: OptimizerStats


def bell_number(rho, setting: BellSetting) -> float:
    """Signed Bell number of a 4x4 state at ``setting``.

    Linear in the matrix, so it also accepts any 4x4 matrix, such as an
    observable, read through :func:`correlation_tensor`.
    """
    return _objective(correlation_tensor(rho))(setting.to_flat())


def correlation_tensor(rho) -> np.ndarray:
    """3x3 tensor T[i, j] = Tr(rho sigma_i kron sigma_j) of a 4x4 state or matrix.

    The correlation for directions n1, n2 is the bilinear form n1 . T . n2,
    which evaluates the Bell functional in a few dozen scalar operations.
    """
    m = rho.mat if isinstance(rho, DensityMatrix) else linalg.require_square(rho)
    if m.shape[0] != 4:
        raise ValueError(f"correlation tensor needs a 4x4 state, got dim {m.shape[0]}")
    return np.einsum("ijkl,lk->ij", _PAULI_KRON, m).real


def _objective(t: np.ndarray):
    """Signed Bell number as a function of the eight flat angles, for tensor t."""
    t00, t01, t02 = (float(v) for v in t[0])
    t10, t11, t12 = (float(v) for v in t[1])
    t20, t21, t22 = (float(v) for v in t[2])

    def value(x, sin=math.sin, cos=math.cos):
        # x = [phi_a, th_a, phi_d, th_d, phi_b, th_b, phi_c, th_c]
        sa = sin(x[1]); ax, ay, az = sa * cos(x[0]), sa * sin(x[0]), cos(x[1])
        sd = sin(x[3]); dx, dy, dz = sd * cos(x[2]), sd * sin(x[2]), cos(x[3])
        sb = sin(x[5]); bx, by, bz = sb * cos(x[4]), sb * sin(x[4]), cos(x[5])
        sc = sin(x[7]); cx, cy, cz = sc * cos(x[6]), sc * sin(x[6]), cos(x[7])
        # rows of T applied to a and d
        ra0 = ax * t00 + ay * t10 + az * t20
        ra1 = ax * t01 + ay * t11 + az * t21
        ra2 = ax * t02 + ay * t12 + az * t22
        rd0 = dx * t00 + dy * t10 + dz * t20
        rd1 = dx * t01 + dy * t11 + dz * t21
        rd2 = dx * t02 + dy * t12 + dz * t22
        b = (
            ra0 * (bx + cx) + ra1 * (by + cy) + ra2 * (bz + cz)
            + rd0 * (bx - cx) + rd1 * (by - cy) + rd2 * (bz - cz)
        )
        return b

    return value


def _pattern_search(fn, x0):
    """Coordinate pattern search maximizing |fn|; the step starts at pi/4 and
    halves after each stalled sweep.

    A move only counts as progress if it clears a forcing threshold
    proportional to step^2; without it the search can ridge-follow with
    sub-epsilon gains and never shrink its step.
    """
    x = list(x0)
    best = abs(fn(x))
    evals = 1
    step = math.pi / 4.0
    while step > STEP_TOL:
        gate = best + 1e-4 * step * step
        improved = False
        for i in range(len(x)):
            for delta in (step, -step):
                if evals >= MAX_EVALS:
                    return best, x, evals, False
                old = x[i]
                x[i] = old + delta
                cand = abs(fn(x))
                evals += 1
                if cand > gate:
                    best = cand
                    gate = best + 1e-4 * step * step
                    improved = True
                    break
                x[i] = old
        if not improved:
            step /= 2.0
    return best, x, evals, True


def maximize_bell(rho: DensityMatrix, restarts: int = 8, seed: int = 0) -> BellReport:
    """Search measurement settings maximizing |B| for a fixed state.

    Runs ``restarts`` independent pattern searches from seeded uniform
    random angles, each shrinking its step from pi/4 until :data:`STEP_TOL`
    within :data:`MAX_EVALS` evaluations. The per-restart random streams
    depend only on (seed, restart index), so results are reproducible and
    monotone in the number of restarts; ties keep the lowest restart index.
    The reported value is the |B| the search found, equal to
    ``abs(bell_number(rho, setting))`` bit for bit.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    fn = _objective(correlation_tensor(rho))
    best_val, best_x = -math.inf, None
    total_evals, converged = 0, True
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        x0 = rng.uniform(0.0, 2.0 * math.pi, 8).tolist()
        val, x, evals, ok = _pattern_search(fn, x0)
        total_evals += evals
        converged = converged and ok
        if val > best_val:
            best_val = val
            best_x = x
    return BellReport(
        value=best_val,
        setting=BellSetting.from_flat(best_x),
        stats=OptimizerStats(restarts=restarts, evaluations=total_evals, converged=converged),
    )


def bounds_hold(value: float) -> tuple:
    """Whether |value| respects the separable bound 2 and the universal
    ceiling 2 sqrt(2), each within :data:`CLASSIFY_TOL`."""
    v = abs(value)
    return v <= SEPARABLE_BOUND + CLASSIFY_TOL, v <= TSIRELSON_BOUND + CLASSIFY_TOL


def classify(report) -> BellClass:
    """Place a :class:`BellReport`, or a bare Bell value, relative to the
    separable and universal bounds.

    Exceeding 2 sqrt(2) beyond tolerance is impossible for a valid density
    matrix and therefore flags a numerical or input defect.
    """
    separable, tsirelson = bounds_hold(getattr(report, "value", report))
    if separable:
        return BellClass.WITHIN_SEPARABLE_BOUND
    if tsirelson:
        return BellClass.HIDDEN_BELL_CORRELATION
    return BellClass.TSIRELSON_VIOLATION_ERROR
