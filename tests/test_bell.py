import dataclasses
import math

import numpy as np
import pytest
from conftest import (
    PHI_PLUS,
    SIGN_MATRIX,
    bell_number_sign_form,
    chsh_maximum,
    correlation,
    random_unitary,
    werner,
)

from qbell.appendix import UnitaryQuadruple
from qbell.bell import (
    CLASSIFY_TOL,
    SEPARABLE_BOUND,
    STEP_TOL,
    TSIRELSON_BOUND,
    BellClass,
    BellReport,
    BellSetting,
    OptimizerStats,
    _receiver_angles,
    _receiver_rows,
    bell_number,
    bound_verdicts,
    classify,
    correlation_tensor,
    maximize_bell,
)
from qbell.density import embed_qutrit, random_density, separable_sample, validate
from qbell.tomography import EulerAngles

CHSH_OPTIMAL = [0, 0, 0, math.pi / 2, 0, math.pi / 4, 0, -math.pi / 4]


def _random_setting(rng):
    return BellSetting.from_flat(rng.uniform(0, 2 * math.pi, 8))


def _direction(phi, theta):
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def test_sign_matrix_structure():
    assert SIGN_MATRIX.shape == (4, 4)
    assert np.all(np.abs(SIGN_MATRIX) == 1)
    assert np.array_equal(SIGN_MATRIX.sum(axis=1), np.zeros(4, dtype=np.int64))


def test_setting_rejects_residual_phase():
    with pytest.raises(ValueError, match="psi"):
        BellSetting(
            a=EulerAngles(0, 0, 0.1),
            b=EulerAngles(0, 0),
            c=EulerAngles(0, 0),
            d=EulerAngles(0, 0),
        )
    with pytest.raises(ValueError, match="8 angles"):
        BellSetting.from_flat([0.0] * 7)


def test_setting_declares_its_directions_in_flat_order():
    # from_flat, the appendix's quadruple and the CLI read the directions by position.
    assert tuple(f.name for f in dataclasses.fields(BellSetting)) == ("a", "d", "b", "c")
    v = np.random.default_rng(31).uniform(0, 2 * math.pi, 8).tolist()
    dirs = [EulerAngles(v[k], v[k + 1]) for k in (0, 2, 4, 6)]
    assert BellSetting.from_flat(v) == BellSetting(*dirs)
    assert UnitaryQuadruple(*dirs).as_setting() == BellSetting(*dirs)


def test_correlation_of_maximally_mixed_vanishes():
    rng = np.random.default_rng(1)
    rho = validate(np.eye(4) / 4)
    for _ in range(20):
        d1 = EulerAngles(*rng.uniform(0, 7, 2))
        d2 = EulerAngles(*rng.uniform(0, 7, 2))
        assert abs(correlation(rho, d1, d2)) <= 1e-12


def test_correlation_of_aligned_product_state():
    rho = validate(np.diag([1.0, 0.0, 0.0, 0.0]))
    assert abs(correlation(rho, EulerAngles(0, 0), EulerAngles(0, 0)) - 1.0) <= 1e-12


def test_correlation_of_entangled_projector_in_xz_plane():
    # closed form: directions at polar angles t1, t2 give cos(t1 - t2)
    rho = validate(PHI_PLUS)
    grid = np.linspace(-math.pi, math.pi, 13)
    for t1 in grid:
        for t2 in grid:
            got = correlation(rho, EulerAngles(0.0, t1), EulerAngles(0.0, t2))
            assert abs(got - math.cos(t1 - t2)) <= 1e-9


def test_bell_number_of_maximally_mixed():
    rng = np.random.default_rng(2)
    rho = validate(np.eye(4) / 4)
    assert abs(bell_number(rho, _random_setting(rng))) <= 1e-12


def test_bell_number_reaches_tsirelson_on_entangled_projector():
    rho = validate(PHI_PLUS)
    b = bell_number(rho, BellSetting.from_flat(CHSH_OPTIMAL))
    assert abs(b - 2 * math.sqrt(2)) <= 1e-9


def test_bell_number_of_product_state_at_zero_angles():
    rho = validate(np.diag([1.0, 0.0, 0.0, 0.0]))
    b = bell_number(rho, BellSetting.from_flat([0.0] * 8))
    assert abs(b - 2.0) <= 1e-12


def test_both_computation_paths_agree():
    rng = np.random.default_rng(3)
    for seed in range(300):
        rho = random_density(4, seed)
        s = _random_setting(rng)
        assert abs(bell_number(rho, s) - bell_number_sign_form(rho, s)) <= 1e-12


def test_correlation_tensor_reproduces_bell_number():
    rng = np.random.default_rng(4)
    for seed in range(200):
        rho = random_density(4, seed)
        t = correlation_tensor(rho)
        s = _random_setting(rng)
        na, nd, nb, nc = (_direction(u.phi, u.theta) for u in (s.a, s.d, s.b, s.c))
        via_tensor = na @ t @ (nb + nc) + nd @ t @ (nb - nc)
        assert abs(via_tensor - bell_number(rho, s)) <= 1e-12


def test_universal_ceiling_on_random_pairs():
    rng = np.random.default_rng(5)
    for seed in range(2000):
        rho = random_density(4, seed)
        b = bell_number(rho, _random_setting(rng))
        assert abs(b) <= TSIRELSON_BOUND + 1e-9


def test_bell_number_is_2pi_periodic_in_each_angle():
    rng = np.random.default_rng(6)
    rho = random_density(4, 11)
    flat = list(rng.uniform(0, 2 * math.pi, 8))
    base = bell_number(rho, BellSetting.from_flat(flat))
    for i in range(8):
        shifted = list(flat)
        shifted[i] += 2 * math.pi
        assert abs(bell_number(rho, BellSetting.from_flat(shifted)) - base) <= 1e-12


def test_maximize_finds_tsirelson_for_entangled_projector():
    rep = maximize_bell(validate(PHI_PLUS), restarts=8, seed=7)
    assert rep.value >= 2 * math.sqrt(2) - 1e-12
    assert rep.stats.converged
    assert classify(rep) is BellClass.HIDDEN_BELL_CORRELATION


def test_maximize_respects_separable_bound():
    for seed in range(20):
        rho = separable_sample(seed, 1 + seed % 5)
        rep = maximize_bell(rho, restarts=8, seed=seed)
        assert rep.value <= SEPARABLE_BOUND + 1e-12


def test_maximize_on_embedded_qutrits_stays_below_ceiling():
    for seed in range(10):
        rho = embed_qutrit(random_density(3, seed))
        rep = maximize_bell(rho, restarts=8, seed=seed)
        assert rep.value <= TSIRELSON_BOUND + 1e-9


def test_maximize_reports_the_bell_number_of_its_setting():
    states = [separable_sample(seed, 1 + seed % 4) for seed in range(10)]
    states += [random_density(4, seed) for seed in range(10)]
    states += [embed_qutrit(random_density(3, seed)) for seed in range(10)]
    for k, rho in enumerate(states):
        rep = maximize_bell(rho, restarts=2, seed=k)
        assert rep.value == abs(bell_number(rho, rep.setting))


def test_maximize_is_deterministic():
    rho = random_density(4, 42)
    r1 = maximize_bell(rho, restarts=6, seed=3)
    r2 = maximize_bell(rho, restarts=6, seed=3)
    assert r1.value == r2.value
    assert r1.setting == r2.setting
    assert r1.stats == r2.stats
    assert maximize_bell(rho, restarts=6, seed=np.int64(3)) == r1
    with pytest.raises(TypeError):
        maximize_bell(rho, restarts=6, seed=3.0)


def test_maximize_is_monotone_in_restarts():
    rho = random_density(4, 17)
    low = maximize_bell(rho, restarts=2, seed=5)
    high = maximize_bell(rho, restarts=8, seed=5)
    assert high.value >= low.value


_FAMILIES = {
    "random": [random_density(4, seed) for seed in range(15)],
    "separable": [separable_sample(seed, 1 + seed % 5) for seed in range(15)],
    "embedded_qutrit": [embed_qutrit(random_density(3, seed)) for seed in range(15)],
    "werner": [validate(werner(p)) for p in np.linspace(0.0, 1.0, 11)],
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_maximize_attains_the_svd_maximum(family):
    for k, rho in enumerate(_FAMILIES[family]):
        rep = maximize_bell(rho, restarts=8, seed=k)
        assert abs(rep.value - chsh_maximum(rho)) <= 1e-12
        assert rep.stats.converged


def test_maximize_is_at_least_the_value_of_every_random_setting():
    rng = np.random.default_rng(8)
    for seed in range(10):
        rho = random_density(4, 100 + seed)
        best = maximize_bell(rho, restarts=8, seed=seed).value
        for x in rng.uniform(0, 2 * math.pi, (1000, 8)).tolist():
            assert abs(bell_number(rho, BellSetting.from_flat(x))) <= best


def _bell_diagonal_with_equal_lower_singular_values():
    # 0.6 phi+ + 0.2 phi- + 0.1 psi+ + 0.1 psi- has T = diag(0.4, -0.4, 0.6),
    # so s2 = s3 = 0.4; a random local unitary makes T non-diagonal.
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)
    m = sum(w * np.outer(v, v) for w, v in zip((0.6, 0.2, 0.1, 0.1), bell))
    rng = np.random.default_rng(9)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    return u @ m @ u.conj().T


@pytest.mark.parametrize("mat, want", [
    (np.eye(4) / 4, 0.0),  # T = 0: both receiver vectors vanish
    (np.diag([1.0, 0.0, 0.0, 0.0]), 2.0),
    (werner(0.3), 2 * math.sqrt(2) * 0.3),
    (werner(0.8), 2 * math.sqrt(2) * 0.8),
    (_bell_diagonal_with_equal_lower_singular_values(), 2 * math.sqrt(0.6 ** 2 + 0.4 ** 2)),
], ids=["maximally_mixed", "product", "werner_0.3", "werner_0.8", "equal_s2_s3"])
def test_maximize_on_degenerate_correlation_tensors(mat, want):
    rho = validate(mat)
    rep = maximize_bell(rho, restarts=8, seed=4)
    assert abs(rep.value - want) <= 1e-12
    assert rep.value == abs(bell_number(rho, rep.setting))
    assert rep.stats.converged
    assert np.isfinite(dataclasses.astuple(rep.setting)).all()


def test_receiver_step_attains_the_sum_of_the_receiver_vector_lengths():
    rng = np.random.default_rng(10)
    for seed in range(20):
        rho = random_density(4, seed)
        t = correlation_tensor(rho)
        rows = _receiver_rows(t)
        y = rng.uniform(0, 2 * math.pi, 4).tolist()
        if seed % 5 == 0:
            y[2:] = y[:2]  # a = d: T^T (a - d) is exactly zero
        a, d = _direction(*y[:2]), _direction(*y[2:])
        u, v = rows(y)
        assert np.allclose(u, t.T @ (a + d), rtol=0.0, atol=1e-12)
        assert np.allclose(v, t.T @ (a - d), rtol=0.0, atol=1e-12)
        total = np.linalg.norm(t.T @ (a + d)) + np.linalg.norm(t.T @ (a - d))
        receivers = _receiver_angles(rows, y)
        assert all(math.isfinite(r) for r in receivers)
        assert abs(bell_number(rho, BellSetting.from_flat(y + receivers)) - total) <= 1e-12
        for bc in rng.uniform(0, 2 * math.pi, (1000, 4)).tolist():
            assert abs(bell_number(rho, BellSetting.from_flat(y + bc))) <= total + 1e-12


def test_maximize_rejects_bad_restarts():
    with pytest.raises(ValueError, match="restarts"):
        maximize_bell(random_density(4, 0), restarts=0)


def test_maximize_rejects_a_negative_seed():
    # random.Random would seed from |seed| and repeat the run of seed 1.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        maximize_bell(random_density(4, 0), seed=-1)


def test_the_optimizer_stats_name_the_method_and_the_final_step():
    stats = maximize_bell(random_density(4, 42), restarts=2, seed=3).stats
    assert [f.name for f in dataclasses.fields(stats)] == [
        "method", "restarts", "evaluations", "converged", "step_tol"]
    assert stats.method == "sender_pattern_search_receiver_closed_form"
    assert (stats.restarts, stats.step_tol) == (2, STEP_TOL)
    # The search decides both, so no caller can make the block misdescribe it.
    for name in ("method", "step_tol"):
        with pytest.raises(TypeError):
            OptimizerStats(0, 0, True, **{name: None})


def _report_with_value(v):
    return BellReport(
        value=v,
        setting=BellSetting.from_flat([0.0] * 8),
        stats=OptimizerStats(0, 0, True),
    )


@pytest.mark.parametrize(
    "value,expected",
    [
        (1.9, BellClass.WITHIN_SEPARABLE_BOUND),
        (2.5, BellClass.HIDDEN_BELL_CORRELATION),
        (3.0, BellClass.TSIRELSON_VIOLATION_ERROR),
    ],
)
def test_classify(value, expected):
    assert classify(_report_with_value(value)) is expected
    assert classify(value) is classify(-value) is expected


def test_report_bound_flags_are_consistent():
    # the class never steps back as |B| grows: within the separable bound is within both
    order = list(BellClass)
    values = (0.0, 1.9, SEPARABLE_BOUND + CLASSIFY_TOL, 2.5, TSIRELSON_BOUND + CLASSIFY_TOL, 3.0)
    ranks = [order.index(classify(v)) for v in values]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("bound, inside, beyond", [
    (SEPARABLE_BOUND, BellClass.WITHIN_SEPARABLE_BOUND, BellClass.HIDDEN_BELL_CORRELATION),
    (TSIRELSON_BOUND, BellClass.HIDDEN_BELL_CORRELATION, BellClass.TSIRELSON_VIOLATION_ERROR),
])
def test_classify_decides_each_bound_exactly_at_its_tolerance(bound, inside, beyond):
    # bound - |B| is exact near the bound, so a slack of exactly -CLASSIFY_TOL
    # holds; fl(bound + CLASSIFY_TOL) lies 1.4e-16 beyond that and does not.
    edge = bound + CLASSIFY_TOL
    for value, cls in ((edge, beyond), (np.nextafter(edge, 0.0), inside)):
        assert classify(value) is cls
        holds = {v["check_name"]: v["holds"] for v in bound_verdicts(value)}
        assert holds == {"separable_bound": cls is BellClass.WITHIN_SEPARABLE_BOUND,
                         "tsirelson_bound": cls is not BellClass.TSIRELSON_VIOLATION_ERROR}
