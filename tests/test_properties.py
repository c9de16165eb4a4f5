"""Property tests over boundary states and extreme shifts.

Every draw either is rejected at the input layer (``validate``,
``ObservableMatrix``, ``rho_of_x``) with a :class:`QbellError`, or passes
every later layer without raising and satisfies the universal inequalities:
subadditivity, Araki-Lieb, |B| <= 2 sqrt(2) and a nonnegative relative
entropy. The searches are derandomized, so the suite stays deterministic.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qbell.appendix import ObservableMatrix, UnitaryQuadruple, appendix_bell_value, rho_of_x
from qbell.bell import CLASSIFY_TOL, TSIRELSON_BOUND, BellSetting, bell_number
from qbell.channels import BlockPartition
from qbell.density import HERM_TOL, PSD_TOL, validate
from qbell.entropy import DIVERGENT, check_subadditivity, relative_entropy
from qbell.errors import QbellError
from qbell.linalg import kron
from qbell.tomography import EulerAngles, joint_tomogram, su2

PROPERTY_SETTINGS = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Columns are the Bell basis (|00> +- |11>)/sqrt(2), (|01> +- |10>)/sqrt(2),
# so a spectrum placed in it gives entangled states, including the
# projectors that reach 2 sqrt(2).
_S = 1.0 / math.sqrt(2.0)
BELL_BASIS = np.array(
    [[_S, _S, 0, 0], [0, 0, _S, _S], [0, 0, _S, -_S], [_S, -_S, 0, 0]], dtype=complex
)

SPECIAL_ANGLES = (0.0, math.pi / 4, math.pi / 2, math.pi, -math.pi / 2, 2 * math.pi)
angles = st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(-7.0, 7.0))
directions = st.builds(EulerAngles, angles, angles)
bell_settings = st.lists(angles, min_size=8, max_size=8).map(BellSetting.from_flat)

# A weight is zero (rank deficiency), one of a few shared values (degeneracy)
# or arbitrary; at least one is positive so the spectrum can be normalized.
weights = st.one_of(
    st.just(0.0), st.sampled_from((0.25, 0.5, 1.0)), st.floats(1e-300, 1.0)
)
# Eigenvalues pushed into [-PSD_TOL, 0], the edge validate still accepts.
edge_shifts = st.lists(
    st.one_of(st.just(0.0), st.just(PSD_TOL), st.floats(0.0, PSD_TOL)), min_size=4, max_size=4
)


@st.composite
def boundary_states(draw):
    """Raw 4x4 matrix with a boundary spectrum in a locally rotated basis."""
    w = np.array(draw(st.lists(weights, min_size=4, max_size=4).filter(lambda v: sum(v) > 0)))
    lam = w / w.sum()
    shifts = np.array(draw(edge_shifts))
    # Only a zero eigenvalue moves to the edge; the largest absorbs the sum.
    shifts[lam > 0.0] = 0.0
    lam = lam - shifts
    lam[int(np.argmax(lam))] += shifts.sum()
    basis = BELL_BASIS if draw(st.booleans()) else np.eye(4, dtype=complex)
    v = kron(su2(draw(directions)), su2(draw(directions))) @ basis
    return v @ np.diag(lam) @ v.conj().T


# Entry magnitudes from 1e-300 to 1e300, signed, or exactly zero.
magnitudes = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, e: sign * 10.0 ** e, st.sampled_from((1.0, -1.0)), st.floats(-300.0, 300.0)
    ),
)


@st.composite
def observables(draw):
    re = np.array(draw(st.lists(magnitudes, min_size=16, max_size=16))).reshape(4, 4)
    im = np.array(draw(st.lists(magnitudes, min_size=16, max_size=16))).reshape(4, 4)
    m = (re + 1j * im) * 0.5
    # Exactly Hermitian: entry (j, i) is the conjugate of entry (i, j).
    return np.triu(m, 1) + np.triu(m, 1).conj().T + np.diag(np.diag(re))


def _validated(mat):
    try:
        return validate(mat)
    except QbellError:
        return None


def _assert_state_layers(rho, a1, a2, setting):
    rep = check_subadditivity(rho, BlockPartition(2, 2))
    assert rep.subadditivity_holds and rep.araki_lieb_holds
    w = joint_tomogram(rho, a1, a2)
    assert w.min() >= -(PSD_TOL + HERM_TOL) and abs(w.sum() - 1.0) <= PSD_TOL
    assert abs(bell_number(rho, setting)) <= TSIRELSON_BOUND + CLASSIFY_TOL
    return w


@PROPERTY_SETTINGS
@given(boundary_states(), boundary_states(), directions, directions, bell_settings)
def test_boundary_states_pass_every_layer(m1, m2, a1, a2, setting):
    rho1, rho2 = _validated(m1), _validated(m2)
    if rho1 is None or rho2 is None:
        return
    w1 = _assert_state_layers(rho1, a1, a2, setting)
    w2 = _assert_state_layers(rho2, a1, a2, setting)
    for d in (relative_entropy(w1, w2), relative_entropy(w2, w1)):
        assert d is DIVERGENT or d >= 0.0


@st.composite
def shifts(draw, f):
    """x from just above min_admissible_x(f), log-uniformly up to 1e300."""
    x_min = float(np.max(np.abs(f.spectrum)))
    lo = x_min * (1.0 + 1e-15) if x_min > 0.0 else 1e-300
    hi = max(lo, 1e300)
    t = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return max(lo, math.exp(math.log(lo) + t * (math.log(hi) - math.log(lo))))


@PROPERTY_SETTINGS
@given(st.data(), observables(), directions, directions, bell_settings)
def test_extreme_shifts_pass_every_layer(data, mat, a1, a2, setting):
    try:
        f = ObservableMatrix(mat)
        x = data.draw(shifts(f))
        rho = rho_of_x(f, x)
    except QbellError:
        return
    _assert_state_layers(rho, a1, a2, setting)
    quad = UnitaryQuadruple(u1=setting.a, u2=setting.d, u3=setting.b, u4=setting.c)
    assert appendix_bell_value(f, x, quad) <= TSIRELSON_BOUND + CLASSIFY_TOL
