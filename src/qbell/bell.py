"""CHSH Bell functional for 4x4 states: evaluation, bounds and maximization.

The Bell number combines four correlation functions,

    B = E(a, b) + E(a, c) + E(d, b) - E(d, c),

where each E is the signed sum of joint-tomogram probabilities over the
outcome signs (+1, -1, -1, +1), evaluated here as n1 . T . n2 with the Pauli
correlation tensor T (Horodecki, Phys. Lett. A 200, 340 (1995)). Separable
matrices satisfy |B| <= 2; every valid density matrix satisfies the
universal ceiling |B| <= 2 sqrt(2).

The one evaluator, :func:`bell_number`, writes the form as
B = b . u + c . v with the receiver vectors u = T^T (a + d) and
v = T^T (a - d) of :func:`_receiver_rows`. For fixed a and d the largest |B|
is |u| + |v|, at b and c along those vectors, so the maximization searches
the four angles of a and d for that sum, sets b and c in closed form, and
reports the setting's value through :func:`bell_number`.
"""

from __future__ import annotations

import enum
import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from .density import DensityMatrix, HermitianMatrix, require_square, verdict
from .tomography import EulerAngles

SEPARABLE_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
# Verdicts that report a finding, not a violated check: they never set exit code 1.
FINDINGS = ("separable_bound",)
# Far above accumulated rounding, far below the 0.828 gap between bounds.
CLASSIFY_TOL = 1e-6
# maximize_bell halves its pattern-search step over the four sender angles from
# pi/4 until it is below this, or until a restart has spent MAX_EVALS evaluations.
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
    method: str = field(default="sender_pattern_search_receiver_closed_form", init=False)
    restarts: int
    evaluations: int
    converged: bool
    step_tol: float = field(default=STEP_TOL, init=False)


@dataclass(frozen=True)
class BellReport:
    """Largest |B| found, the realizing setting, and how the search ran."""

    value: float
    setting: BellSetting
    stats: OptimizerStats


def bell_number(rho, setting: BellSetting) -> float:
    """Signed Bell number b . u + c . v of a 4x4 state at ``setting``, with the
    receiver vectors (u, v) of :func:`_receiver_rows` for its directions a, d.

    Linear in the matrix, so it also accepts any 4x4 matrix, such as an
    observable, read through :func:`correlation_tensor`.
    """
    x = setting.to_flat()  # [phi_a, th_a, phi_d, th_d, phi_b, th_b, phi_c, th_c]
    u, v = _receiver_rows(correlation_tensor(rho))(x[:4])
    sb, sc = math.sin(x[5]), math.sin(x[7])
    b = (sb * math.cos(x[4]), sb * math.sin(x[4]), math.cos(x[5]))
    c = (sc * math.cos(x[6]), sc * math.sin(x[6]), math.cos(x[7]))
    return (b[0] * u[0] + b[1] * u[1] + b[2] * u[2]) + (c[0] * v[0] + c[1] * v[1] + c[2] * v[2])


def correlation_tensor(rho) -> np.ndarray:
    """3x3 tensor T[i, j] = Tr(rho sigma_i kron sigma_j) of a 4x4 state, observable or matrix.

    The correlation for directions n1, n2 is the bilinear form n1 . T . n2,
    which evaluates the Bell functional in a few dozen scalar operations.
    """
    m = rho.mat if isinstance(rho, HermitianMatrix) else require_square(rho)
    if m.shape[0] != 4:
        raise ValueError(f"correlation tensor needs a 4x4 state, got dim {m.shape[0]}")
    return np.einsum("ijkl,lk->ij", _PAULI_KRON, m).real


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


def _receiver_rows(t: np.ndarray):
    """The receiver vectors T^T (a + d) and T^T (a - d) as a function of the
    four sender angles [phi_a, th_a, phi_d, th_d], for tensor t."""
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = t.tolist()

    def rows(y, sin=math.sin, cos=math.cos):
        sa = sin(y[1]); ax, ay, az = sa * cos(y[0]), sa * sin(y[0]), cos(y[1])
        sd = sin(y[3]); dx, dy, dz = sd * cos(y[2]), sd * sin(y[2]), cos(y[3])
        px, py, pz = ax + dx, ay + dy, az + dz
        mx, my, mz = ax - dx, ay - dy, az - dz
        return (
            (px * t00 + py * t10 + pz * t20, px * t01 + py * t11 + pz * t21,
             px * t02 + py * t12 + pz * t22),
            (mx * t00 + my * t10 + mz * t20, mx * t01 + my * t11 + mz * t21,
             mx * t02 + my * t12 + mz * t22),
        )

    return rows


def _receiver_angles(rows, y):
    """Flat receiver angles [phi_b, th_b, phi_c, th_c] along the two vectors
    of ``rows(y)``. For a zero vector every direction attains the same B, and
    atan2(0, 0) still gives finite angles."""
    return [angle for wx, wy, wz in rows(y)
            for angle in (math.atan2(wy, wx), math.atan2(math.hypot(wx, wy), wz))]


def maximize_bell(rho: DensityMatrix, restarts: int = 8, seed: int = 0) -> BellReport:
    """Search measurement settings maximizing |B| for a fixed state.

    Runs ``restarts`` pattern searches over the four sender angles of a and d,
    each shrinking its step from pi/4 until :data:`STEP_TOL` within
    :data:`MAX_EVALS` evaluations of |T^T (a + d)| + |T^T (a - d)|. The
    receiver directions b and c are not searched: for each restart they are
    set in closed form along T^T (a + d) and T^T (a - d), where B attains that
    sum. The start angles are 2 pi times draws from one ``random.Random(seed)``,
    four per restart in restart order, so a run repeats every run with fewer
    restarts first: results are reproducible and monotone in the number of
    restarts; ties keep the lowest restart index. Each restart's value is
    ``abs(bell_number(rho, setting))``, so the reported one is that bit for bit.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rows = _receiver_rows(correlation_tensor(rho))

    def sender_value(y, hypot=math.hypot):
        u, v = rows(y)
        return hypot(*u) + hypot(*v)

    rng = random.Random(operator.index(seed))  # it would also take a float or a str
    best_val, best_setting = -math.inf, None
    total_evals, converged = 0, True
    for _ in range(restarts):
        y0 = [2.0 * math.pi * rng.random() for _ in range(4)]
        _, y, evals, ok = _pattern_search(sender_value, y0)
        total_evals += evals
        converged = converged and ok
        setting = BellSetting.from_flat(y + _receiver_angles(rows, y))
        val = abs(bell_number(rho, setting))
        if val > best_val:
            best_val, best_setting = val, setting
    return BellReport(
        value=best_val,
        setting=best_setting,
        stats=OptimizerStats(restarts=restarts, evaluations=total_evals, converged=converged),
    )


def bound_verdicts(value: float) -> list:
    """The ``separable_bound`` and ``tsirelson_bound`` verdicts of |``value``|,
    each holding when bound - |B| is at least minus :data:`CLASSIFY_TOL`."""
    v = abs(value)
    return [verdict("separable_bound", v, SEPARABLE_BOUND, CLASSIFY_TOL),
            verdict("tsirelson_bound", v, TSIRELSON_BOUND, CLASSIFY_TOL)]


def classify(report) -> BellClass:
    """Place a :class:`BellReport`, or a bare Bell value, relative to the
    separable and universal bounds, as :func:`bound_verdicts` decides them.

    Exceeding 2 sqrt(2) beyond tolerance is impossible for a valid density
    matrix and therefore flags a numerical or input defect.
    """
    separable, tsirelson = bound_verdicts(getattr(report, "value", report))
    if separable["holds"]:
        return BellClass.WITHIN_SEPARABLE_BOUND
    if tsirelson["holds"]:
        return BellClass.HIDDEN_BELL_CORRELATION
    return BellClass.TSIRELSON_VIOLATION_ERROR
