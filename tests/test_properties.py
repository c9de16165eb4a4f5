"""Property tests over boundary states and extreme shifts.

Every draw either is rejected at the input layer (``validate``,
``ObservableMatrix``, ``rho_of_x``) with a :class:`QbellError`, or passes
every later layer without raising and satisfies the universal inequalities:
subadditivity, Araki-Lieb, |B| <= 2 sqrt(2) and a nonnegative relative
entropy. The searches are derandomized, so the suite stays deterministic.
"""

import math

import numpy as np
from conftest import random_unitary, su2
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qbell.appendix import (
    ObservableMatrix,
    UnitaryQuadruple,
    appendix_bell_value,
    min_admissible_x,
    rho_of_x,
)
from qbell.bell import CLASSIFY_TOL, TSIRELSON_BOUND, BellSetting, bell_number
from qbell.channels import BlockPartition, block_trace_first, block_trace_second
from qbell.density import (
    HERM_TOL,
    PSD_TOL,
    TRACE_TOL,
    hermitian_part,
    normalization_verdict,
    validate,
)
from qbell.entropy import DIVERGENT, check_subadditivity, relative_entropy
from qbell.errors import DomainError, QbellError
from qbell.tomography import EulerAngles, joint_tomogram

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
    v = np.kron(su2(draw(directions)), su2(draw(directions))) @ basis
    return v @ np.diag(lam) @ v.conj().T


# Entry magnitudes from the least subnormal to 1e300, signed, or exactly zero.
magnitudes = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, e: sign * 10.0 ** e, st.sampled_from((1.0, -1.0)), st.floats(-323.5, 300.0)
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
def sum_edge_distributions(draw):
    """Positive 4-vectors whose sum sits at 1 +- PSD_TOL, the last entry then
    moved by up to 4 ulps either way."""
    head = draw(st.lists(st.floats(0.01, 0.3), min_size=3, max_size=3))
    last = 1.0 + draw(st.sampled_from((-PSD_TOL, PSD_TOL))) - sum(head)
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        last = float(np.nextafter(last, math.copysign(math.inf, ulps)))
    return [*head, last]


@PROPERTY_SETTINGS
@given(sum_edge_distributions())
def test_a_sum_is_rejected_exactly_when_the_normalization_verdict_fails(w):
    uniform = [0.25] * 4
    holds = normalization_verdict(w)["holds"]
    for make in (lambda: relative_entropy(w, uniform), lambda: relative_entropy(uniform, w)):
        try:
            make()
        except ValueError as e:
            assert not holds and "sum" in str(e)
        else:
            assert holds


@st.composite
def trace_edge_states(draw):
    """Raw 4x4, 6x6 or 8x8 matrix whose trace lies within a few ulps of
    1 - TRACE_TOL or 1 + TRACE_TOL, diagonal or in a random basis."""
    dim = draw(st.sampled_from((4, 6, 8)))
    w = np.array(draw(st.lists(weights, min_size=dim, max_size=dim).filter(lambda v: sum(v) > 0)))
    edge = 1.0 + draw(st.sampled_from((-TRACE_TOL, TRACE_TOL))) + draw(st.integers(-4, 4)) * 2e-16
    m = np.diag(w / w.sum() * edge).astype(complex)
    if draw(st.booleans()):
        u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim)
        m = u @ m @ u.conj().T
    return m


@PROPERTY_SETTINGS
@given(trace_edge_states())
def test_trace_edge_states_pass_every_block_trace(mat):
    # Each block trace sums the diagonal in its own order, so a state at the
    # trace edge has reductions a few ulps past it.
    rho = _validated(mat)
    if rho is None:
        return
    for n in (k for k in range(1, rho.dim + 1) if rho.dim % k == 0):
        rep = check_subadditivity(rho, BlockPartition(n, rho.dim // n))
        assert rep.subadditivity_holds and rep.araki_lieb_holds


@PROPERTY_SETTINGS
@given(st.one_of(boundary_states(), trace_edge_states()))
def test_a_state_holds_the_hermitian_part_of_its_input_and_its_defect(mat):
    before = mat.copy()
    rho = _validated(mat)
    if rho is None:
        return
    part, defect = hermitian_part(before)
    assert rho.defect == defect
    assert rho.mat.tobytes() == (before if defect == 0.0 else part).tobytes()
    assert mat.tobytes() == before.tobytes() and mat.flags.writeable
    # Every reduction of a held state is exactly Hermitian. Compared as floats:
    # conj turns a zero imaginary part +0.0 into -0.0.
    for n in (k for k in range(1, rho.dim + 1) if rho.dim % k == 0):
        p = BlockPartition(n, rho.dim // n)
        for reduced in (block_trace_first(rho, p), block_trace_second(rho, p)):
            assert np.array_equal(reduced.mat, reduced.mat.conj().T) and reduced.defect == 0.0


@st.composite
def shifts(draw, f):
    """x from just above min_admissible_x(f), log-uniformly up to 1e300."""
    x_min = float(np.max(np.abs(f.spectrum)))
    lo = x_min * (1.0 + 1e-15) if x_min > 0.0 else 5e-324
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


@PROPERTY_SETTINGS
@given(st.data(), observables())
def test_rho_of_x_divides_as_numpy_does_wherever_the_reciprocal_trace_is_finite(data, mat):
    try:
        f = ObservableMatrix(mat)
        x = data.draw(shifts(f))
        rho = rho_of_x(f, x)
    except QbellError:
        return
    shifted = f.mat + x * np.eye(4)
    d = shifted.diagonal().real.tolist()
    trace = (d[0] + d[1]) + (d[2] + d[3])
    if math.isfinite(1.0 / trace):
        assert rho.mat.tobytes() == (shifted / trace).tobytes()


@st.composite
def accepted_observables(draw):
    """Raw 4x4 matrix at scale 1e-6 to 1e6 with a spectrum spread around -1, 0
    or 1 (near-scalar when the spread is tiny) in a random basis, plus a
    hermiticity defect of at most HERM_TOL."""
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    center = draw(st.sampled_from((-1.0, 0.0, 1.0)))
    spread = draw(st.one_of(st.sampled_from((0.0, 1e-15, 1e-12, 1e-10)), st.floats(0.0, 1.0)))
    offsets = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    v = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 4)
    m = v @ np.diag(scale * (center + spread * offsets)) @ v.conj().T
    m = (m + m.conj().T) / 2.0  # exactly Hermitian before the defect
    m[0, 1] += draw(st.one_of(st.just(HERM_TOL), st.floats(0.0, HERM_TOL)))
    return m


@PROPERTY_SETTINGS
@given(accepted_observables(), st.sampled_from((1e-12, 1e-6, 0.5, 0.0)), bell_settings)
def test_an_accepted_observable_passes_rho_of_x_and_the_appendix_value(mat, excess, setting):
    try:
        f = ObservableMatrix(mat)
    except QbellError:
        assume(False)  # the defect rounded past HERM_TOL at a large scale
    x_min = min_admissible_x(f)
    assume(x_min > 0.0)
    quad = UnitaryQuadruple(u1=setting.a, u2=setting.d, u3=setting.b, u4=setting.c)
    if excess == 0.0:
        # nextafter(x_min) can sit inside the eigensolver's rounding of x_min.
        x = math.nextafter(x_min, math.inf)
        try:
            value = appendix_bell_value(f, x, quad)
        except DomainError as e:
            assert str(e).startswith(f"rho(x) at x = {x!r} is not a valid density matrix: ")
            return
    else:
        x = x_min * (1.0 + excess)
        rho_of_x(f, x)
        value = appendix_bell_value(f, x, quad)
    assert value <= TSIRELSON_BOUND + CLASSIFY_TOL
