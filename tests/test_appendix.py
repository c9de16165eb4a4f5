import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    PHI_PLUS,
    SIGN_MATRIX,
    observable_bell_value,
    random_hermitian,
    stochastic_omega,
)

from qbell import appendix, bell, density
from qbell.appendix import (
    ObservableMatrix,
    UnitaryQuadruple,
    appendix_bell_value,
    bound_verdicts,
    min_admissible_x,
    rho_of_x,
)
from qbell.bell import TSIRELSON_BOUND, BellSetting, bell_number, correlation_tensor, maximize_bell
from qbell.cli import main, matrix_to_file_dict
from qbell.density import (
    DensityMatrix,
    HermitianMatrix,
    hermitian_part,
    partial_transpose,
    random_density,
)
from qbell.errors import DomainError, HermiticityError, QbellError
from qbell.tomography import EulerAngles

CHSH_OPTIMAL_QUAD = UnitaryQuadruple(
    u1=EulerAngles(0, 0),
    u2=EulerAngles(0, math.pi / 2),
    u3=EulerAngles(0, math.pi / 4),
    u4=EulerAngles(0, -math.pi / 4),
)

IDENTITY_QUAD = UnitaryQuadruple(
    u1=EulerAngles(0, 0), u2=EulerAngles(0, 0), u3=EulerAngles(0, 0), u4=EulerAngles(0, 0)
)


def _random_quad(rng):
    a = rng.uniform(0, 2 * math.pi, 8)
    return UnitaryQuadruple(
        u1=EulerAngles(a[0], a[1]),
        u2=EulerAngles(a[2], a[3]),
        u3=EulerAngles(a[4], a[5]),
        u4=EulerAngles(a[6], a[7]),
    )


def _random_observable(rng, scale=1.0):
    return ObservableMatrix(random_hermitian(rng, 4, scale=scale))


def test_observable_requires_hermitian_4x4():
    skewed = np.diag([1.0, 2.0, 3.0, 4.0]) + 1j * np.triu(np.ones((4, 4)), 1)
    with pytest.raises(HermiticityError):
        ObservableMatrix(skewed)
    with pytest.raises(ValueError, match="4x4"):
        ObservableMatrix(np.eye(3))


def test_observable_with_entries_near_the_float_limit_has_its_exact_spectrum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = ObservableMatrix(np.diag([1e308, 1.0, 1.0, 1.0]))
    assert f.spectrum.tolist() == [1.0, 1.0, 1.0, 1e308]


def test_observable_rejects_a_spectrum_that_overflows():
    huge = 1e308 * (np.ones((4, 4)) - np.eye(4)) + np.eye(4) / 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QbellError, match="observable: eigenvalues overflow"):
            ObservableMatrix(huge)


def test_observable_holds_the_hermitian_part_of_its_input():
    rng = np.random.default_rng(34)
    h = random_hermitian(rng, 4)
    f = ObservableMatrix(h)
    assert isinstance(f, HermitianMatrix) and ObservableMatrix.__slots__ == ()
    assert not hasattr(f, "__dict__")
    # an exactly Hermitian input is held bit for bit, read-only
    assert f.mat.tobytes() == h.tobytes()
    assert not f.mat.flags.writeable and not f.spectrum.flags.writeable
    skewed = h.copy()
    skewed[0, 1] += 6e-11
    g = ObservableMatrix(skewed)
    assert g.mat.tobytes() == hermitian_part(skewed)[0].tobytes()
    assert np.array_equal(g.mat, g.mat.conj().T)
    assert g.spectrum.tobytes() == np.linalg.eigvalsh(g.mat).tobytes()
    assert repr(g).startswith("ObservableMatrix(dim=4, spectrum=")


def test_bell_layer_reads_an_observable_as_its_matrix():
    f = _random_observable(np.random.default_rng(35))
    assert correlation_tensor(f).tobytes() == correlation_tensor(f.mat).tobytes()
    assert partial_transpose(f).tobytes() == partial_transpose(f.mat).tobytes()
    setting = CHSH_OPTIMAL_QUAD.as_setting()
    assert bell_number(f, setting) == bell_number(f.mat, setting)


def test_rho_of_x_keeps_an_accepted_hermiticity_defect_out():
    # 4x + Tr f = 0.3 used to divide the accepted 9e-11 defect into 3e-10.
    m = np.diag([0.01, 0.02, 0.03, 0.04]).astype(complex)
    m[0, 1] = 9e-11
    rho = rho_of_x(ObservableMatrix(m), 0.05)
    assert hermitian_part(rho.mat)[1] == 0.0


def _exact_rho(f, x):
    shifted = [[Fraction(v.real) for v in row] for row in f.mat]
    for j in range(4):
        shifted[j][j] += Fraction(x)
    trace = sum(shifted[j][j] for j in range(4))
    return [[v / trace for v in row] for row in shifted]


@pytest.mark.parametrize("scale", [1e-15, 1e-12, 1e-10, 1e-6, 1e-3])
def test_rho_of_x_of_a_near_scalar_observable_matches_exact_arithmetic(scale):
    # 4x + Tr f cancels to about 4e-12 for f near -I and x just above 1; the
    # trace of the shifted matrix does not.
    rng = np.random.default_rng(36)
    for _ in range(4):
        h = random_hermitian(rng, 4).real
        f = ObservableMatrix(-np.eye(4) + scale * h)
        x_min = min_admissible_x(f)
        for x in (x_min * (1 + 1e-12), x_min * (1 + 1e-6), 1.5 * x_min):
            rho = rho_of_x(f, x)
            want = _exact_rho(f, x)
            err = max(abs(Fraction(rho.mat[j, k].real) - want[j][k])
                      for j in range(4) for k in range(4))
            assert err <= 1e-15


def test_rho_of_x_names_x_when_the_shifted_matrix_is_invalid():
    # x = nextafter(x_min) sits inside the eigensolver's rounding of x_min.
    rng = np.random.default_rng(0)
    raised = 0
    for _ in range(20):
        f = ObservableMatrix(-np.eye(4) + 1e-10 * random_hermitian(rng, 4))
        x = math.nextafter(min_admissible_x(f), math.inf)
        try:
            rho_of_x(f, x)
        except DomainError as e:
            assert str(e).startswith(f"rho(x) at x = {x!r} is not a valid density matrix: ")
            raised += 1
    assert raised > 0


def test_rho_of_zero_observable_is_maximally_mixed():
    f = ObservableMatrix(np.zeros((4, 4)))
    rho = rho_of_x(f, 1.0)
    assert np.max(np.abs(rho.mat - np.eye(4) / 4)) <= 1e-15


def test_rho_of_x_at_a_trace_below_2_to_the_minus_1024_is_a_state():
    # numpy divides by the reciprocal of the trace, which is inf below 2**-1024.
    rho = rho_of_x(ObservableMatrix(np.zeros((4, 4))), 5e-324)
    assert rho.mat.tobytes() == (np.eye(4, dtype=complex) / 4).tobytes()
    f = ObservableMatrix(np.diag([1.0, 2.0, 3.0, 4.0]) * 1e-320)
    rho = rho_of_x(f, 1e-319)
    assert isinstance(rho, DensityMatrix)
    want = _exact_rho(f, 1e-319)
    assert max(abs(Fraction(rho.mat[j, j].real) - want[j][j]) for j in range(4)) <= 1e-16


@pytest.mark.parametrize("scale", [1e-310, 1e-318, 1e-321])
def test_value_at_a_subnormal_scale_is_the_bell_number_of_rho_of_x(scale):
    # f + x I near the phi-plus projector, with every entry subnormal.
    f = ObservableMatrix(-scale * (np.eye(4) - 2 * PHI_PLUS))
    x = min_admissible_x(f) * 1.5
    value = appendix_bell_value(f, x, CHSH_OPTIMAL_QUAD)
    want = abs(bell_number(rho_of_x(f, x), CHSH_OPTIMAL_QUAD.as_setting()))
    assert abs(value - want) <= 1e-15


def test_rho_of_x_explicit_diagonal_case():
    f = ObservableMatrix(np.diag([1.0, -1.0, 0.0, 0.0]))
    rho = rho_of_x(f, 2.0)
    assert np.max(np.abs(rho.mat - np.diag([3, 1, 2, 2]) / 8)) <= 1e-15


def test_rho_of_x_spectrum_formula():
    rng = np.random.default_rng(10)
    for _ in range(100):
        f = _random_observable(rng, scale=2.0)
        x = min_admissible_x(f) * (1 + rng.uniform(0.01, 3.0)) + 0.05
        rho = rho_of_x(f, x)
        expected = np.sort((f.spectrum + x) / (4 * x + np.trace(f.mat).real))
        assert np.max(np.abs(rho.spectrum - expected)) <= 1e-10


def test_rho_of_x_rejects_small_shift():
    f = ObservableMatrix(np.diag([1.0, -1.0, 0.0, 0.0]))
    with pytest.raises(DomainError, match="1.0"):
        rho_of_x(f, 0.5)
    # the boundary is excluded
    with pytest.raises(DomainError):
        rho_of_x(f, 1.0)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e308])
def test_rho_of_x_rejects_non_finite_shift(x):
    with pytest.raises(DomainError, match="x must"):
        rho_of_x(ObservableMatrix(np.diag([1.0, 2.0, 3.0, 4.0])), x)


def test_rho_of_x_rejects_an_overflowing_shift_without_warnings():
    f = ObservableMatrix(np.diag([1e308, 1e308, 1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="x must be small enough"):
            rho_of_x(f, 1.5e308)


def test_stochastic_omega_uniform_for_zero_observable():
    rng = np.random.default_rng(20)
    f = ObservableMatrix(np.zeros((4, 4)))
    omega = stochastic_omega(f, 1.0, _random_quad(rng))
    assert np.max(np.abs(omega - 0.25)) <= 1e-12


def test_stochastic_omega_identity_angles_give_diagonal():
    rng = np.random.default_rng(21)
    f = _random_observable(rng)
    x = min_admissible_x(f) + 1.0
    rho = rho_of_x(f, x)
    omega = stochastic_omega(f, x, IDENTITY_QUAD)
    for row in omega:
        assert np.max(np.abs(row - np.diag(rho.mat).real)) <= 1e-15


def test_stochastic_omega_rows_are_distributions():
    rng = np.random.default_rng(22)
    for _ in range(500):
        f = _random_observable(rng, scale=1.5)
        x = min_admissible_x(f) * (1 + rng.uniform(0.01, 2.0)) + 0.05
        omega = stochastic_omega(f, x, _random_quad(rng))
        assert np.max(np.abs(omega.sum(axis=1) - 1.0)) <= 1e-9
        assert np.min(omega) >= -1e-12


def test_value_of_zero_observable_vanishes():
    f = ObservableMatrix(np.zeros((4, 4)))
    rng = np.random.default_rng(23)
    assert appendix_bell_value(f, 1.0, _random_quad(rng)) <= 1e-12


def test_value_matches_bell_number_of_shifted_state():
    # closed form for the entangled projector: |B| of rho(x) at the optimal
    # quadruple is 2 sqrt(2) / (4x + 1)
    f = ObservableMatrix(PHI_PLUS)
    x = 10.0
    val = appendix_bell_value(f, x, CHSH_OPTIMAL_QUAD)
    assert abs(val - 2 * math.sqrt(2) / 41) <= 1e-12
    b = bell_number(rho_of_x(f, x), CHSH_OPTIMAL_QUAD.as_setting())
    assert abs(val - abs(b)) <= 1e-12


def test_value_builds_no_rho_of_x(monkeypatch):
    # The value is read from f + x I: no rho(x) is built, validated or diagonalized.
    f = ObservableMatrix(PHI_PLUS)
    calls = []
    monkeypatch.setattr(appendix, "rho_of_x", lambda *args: calls.append("rho_of_x"))
    original = density.validate
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "qbell"]:
        if getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", lambda *args, **kw: calls.append("validate"))
    monkeypatch.setattr(density.HermitianMatrix, "__init__",
                        lambda self, *args: calls.append("HermitianMatrix"))
    val = appendix_bell_value(f, 10.0, CHSH_OPTIMAL_QUAD)
    assert calls == []
    assert abs(val - 2 * math.sqrt(2) / 41) <= 1e-12


def test_value_agrees_with_bell_module_on_random_inputs():
    rng = np.random.default_rng(24)
    for _ in range(500):
        f = _random_observable(rng)
        x = min_admissible_x(f) * (1 + rng.uniform(0.01, 2.0)) + 0.05
        q = _random_quad(rng)
        # The identity carries no correlation, so B is linear in f over 4x + Tr f.
        lhs = appendix_bell_value(f, x, q)
        rhs = abs(bell_number(f.mat, q.as_setting())) / (4 * x + np.trace(f.mat).real)
        assert abs(lhs - rhs) <= 1e-12


def test_value_is_the_sign_contraction_of_the_stochastic_matrix():
    # The paper's form of the value, through the tomogram oracle.
    rng = np.random.default_rng(33)
    for _ in range(500):
        f = _random_observable(rng, scale=1.5)
        x = min_admissible_x(f) * (1 + rng.uniform(0.01, 2.0)) + 0.05
        q = _random_quad(rng)
        want = abs(float(np.sum(SIGN_MATRIX * stochastic_omega(f, x, q))))
        assert abs(appendix_bell_value(f, x, q) - want) <= 1e-12


# The nonzero entries (row, column, value) of sigma_x, sigma_y and sigma_z.
_PAULI_ENTRIES = (((0, 1, 1), (1, 0, 1)), ((0, 1, -1j), (1, 0, 1j)), ((0, 0, 1), (1, 1, -1)))


def _exact_appendix_value(f, x, q):
    """|B| of rho(x) in Fraction arithmetic on the held f, reading the float
    components of the setting's directions as exact."""
    re = [[Fraction(v.real) for v in row] for row in f.mat]
    im = [[Fraction(v.imag) for v in row] for row in f.mat]
    for j in range(4):
        re[j][j] += Fraction(x)
    trace = sum(re[j][j] for j in range(4))
    # T[i][j] = Re Tr(rho(x) sigma_i kron sigma_j): rho[k][l] times the entry at (l, k)
    t = [[sum(re[2 * c1 + c2][2 * r1 + r2] * (p * s).real
              - im[2 * c1 + c2][2 * r1 + r2] * (p * s).imag
              for r1, c1, p in pi for r2, c2, s in pj) / trace
          for pj in _PAULI_ENTRIES] for pi in _PAULI_ENTRIES]

    def direction(u):
        st = math.sin(u.theta)
        return [Fraction(st * math.cos(u.phi)), Fraction(st * math.sin(u.phi)),
                Fraction(math.cos(u.theta))]

    def form(n, m):
        return sum(n[i] * t[i][j] * m[j] for i in range(3) for j in range(3))

    a, d, b, c = (direction(u) for u in (q.u1, q.u2, q.u3, q.u4))
    return abs(form(a, [v + w for v, w in zip(b, c)]) + form(d, [v - w for v, w in zip(b, c)]))


def test_value_of_a_near_scalar_observable_matches_exact_arithmetic():
    # rho(x) is shifted before the correlation tensor sums its diagonal; read
    # from f itself, |B(f, q)| / Tr(f + x I) sums entries near -1 that cancel.
    rng = np.random.default_rng(38)
    for _ in range(30):
        f = ObservableMatrix(-np.eye(4) + 1e-10 * random_hermitian(rng, 4))
        x = min_admissible_x(f) * (1 + 1e-12)
        q = _random_quad(rng)
        assert abs(appendix_bell_value(f, x, q) - _exact_appendix_value(f, x, q)) <= 1e-12


def test_printed_spectrum_of_a_near_scalar_observable_is_that_of_the_shifted_matrix(
    tmp_path, capsys
):
    # f + x I is exact here (Sterbenz), so its eigenvalues are accurate to about
    # 1e-26; (f_j + x) / Tr(f + x I) from f's own spectrum is off by up to 1e-6.
    rng = np.random.default_rng(39)
    path = tmp_path / "f.json"
    for _ in range(30):
        f = ObservableMatrix(-np.eye(4) + 1e-10 * random_hermitian(rng, 4))
        x = min_admissible_x(f) * (1 + 1e-12)
        path.write_text(json.dumps(matrix_to_file_dict(f.mat)))
        assert main(["appendix", str(path), "--x", repr(x), "--angles", *["0"] * 8]) == 0
        got = json.loads(capsys.readouterr().out)["result"]["rho_x_spectrum"]
        trace = float(sum(Fraction(v) + Fraction(x) for v in f.mat.diagonal().real))
        want = np.linalg.eigvalsh(f.mat + x * np.eye(4)) / trace
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12


def test_value_respects_universal_ceiling():
    rng = np.random.default_rng(25)
    for _ in range(2000):
        f = _random_observable(rng, scale=2.0)
        x = min_admissible_x(f) * (1 + rng.uniform(0.001, 3.0)) + 0.01
        assert appendix_bell_value(f, x, _random_quad(rng)) <= TSIRELSON_BOUND + 1e-9


def _observable_bound(f, q):
    """The ``observable_bound`` verdict, which ``bound_verdicts`` adds last."""
    _, chk = bound_verdicts(f, 0.0, q)
    return chk


def test_observable_bound_identity_case():
    f = ObservableMatrix(np.eye(4))
    value = appendix_bell_value(f, 2.0, CHSH_OPTIMAL_QUAD)
    tsirelson, chk = bound_verdicts(f, value, CHSH_OPTIMAL_QUAD)
    assert tsirelson == bell.bound_verdicts(value)[1]
    assert chk["check_name"] == "observable_bound" and chk["margin"] == density.PSD_TOL
    assert chk["value"] <= 1e-12
    assert abs(chk["bound"] - TSIRELSON_BOUND * 4.0) <= 1e-12
    assert chk["holds"]


def test_observable_bound_scales_linearly_with_density_matrices():
    rng = np.random.default_rng(26)
    for seed in range(50):
        rho = random_density(4, seed)
        c = rng.uniform(0.5, 5.0)
        f = ObservableMatrix(c * rho.mat)
        q = _random_quad(rng)
        chk = _observable_bound(f, q)
        s = BellSetting(a=q.u1, d=q.u2, b=q.u3, c=q.u4)
        assert abs(chk["value"] - c * abs(bell_number(rho, s))) <= 1e-10


def test_observable_bound_holds_for_positive_definite_inputs():
    rng = np.random.default_rng(27)
    for _ in range(500):
        h = random_hermitian(rng, 4)
        shift = abs(np.linalg.eigvalsh(h)[0]) + rng.uniform(0.1, 1.0)
        f = ObservableMatrix(h + shift * np.eye(4))
        assert _observable_bound(f, _random_quad(rng))["holds"]


def test_observable_checks_match_the_rotated_diagonal_form():
    rng = np.random.default_rng(31)
    for _ in range(200):
        h = random_hermitian(rng, 4)
        f = ObservableMatrix(h + (abs(np.linalg.eigvalsh(h)[0]) + 0.1) * np.eye(4))
        q = _random_quad(rng)
        want = observable_bell_value(f.mat, q)
        assert abs(_observable_bound(f, q)["value"] - want) <= 1e-12 * max(1.0, want)


def test_observable_bound_rejects_an_overflowing_trace_without_warnings():
    f = ObservableMatrix(np.diag([1e308, 1e308, 1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="observable_bound: .*Tr f"):
            bound_verdicts(f, 0.0, CHSH_OPTIMAL_QUAD)


@pytest.mark.parametrize("least", [-1.0, 0.0])
def test_an_observable_that_is_not_positive_definite_gets_only_the_tsirelson_verdict(least):
    f = ObservableMatrix(np.diag([1.0, least, 1.0, 1.0]))
    value = appendix_bell_value(f, 2.0, IDENTITY_QUAD)
    assert bound_verdicts(f, value, IDENTITY_QUAD) == bell.bound_verdicts(value)[1:]


def test_shifting_the_observable_with_matching_x_changes_nothing():
    rng = np.random.default_rng(29)
    f = _random_observable(rng)
    x = min_admissible_x(f) + 2.0
    c = 0.5
    f_shifted = ObservableMatrix(f.mat + c * np.eye(4))
    x_shifted = x - c
    assert x_shifted > min_admissible_x(f_shifted)
    q = _random_quad(rng)
    assert abs(appendix_bell_value(f, x, q) - appendix_bell_value(f_shifted, x_shifted, q)) <= 1e-12
    # identical shifted states means the optimizer's argmax cannot move
    r1 = maximize_bell(rho_of_x(f, x), restarts=4, seed=9)
    r2 = maximize_bell(rho_of_x(f_shifted, x_shifted), restarts=4, seed=9)
    flat1, flat2 = r1.setting.to_flat(), r2.setting.to_flat()
    assert max(abs(a - b) for a, b in zip(flat1, flat2)) <= 1e-4


def test_large_shift_approaches_maximally_mixed():
    rng = np.random.default_rng(30)
    f = _random_observable(rng)
    x = 1e6 * min_admissible_x(f)
    rho = rho_of_x(f, x)
    assert np.max(np.abs(rho.mat - np.eye(4) / 4)) <= 1e-5
