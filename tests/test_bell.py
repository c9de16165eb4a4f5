import math

import numpy as np
import pytest
from conftest import PHI_PLUS, bell_number_sign_form, correlation

from qbell.bell import (
    CLASSIFY_TOL,
    SEPARABLE_BOUND,
    SIGN_MATRIX,
    TSIRELSON_BOUND,
    BellClass,
    BellReport,
    BellSetting,
    OptimizerStats,
    bell_number,
    bounds_hold,
    classify,
    correlation_tensor,
    maximize_bell,
)
from qbell.density import embed_qutrit, random_density, separable_sample, validate
from qbell.tomography import EulerAngles

CHSH_OPTIMAL = [0, 0, 0, math.pi / 2, 0, math.pi / 4, 0, -math.pi / 4]


def _random_setting(rng):
    return BellSetting.from_flat(rng.uniform(0, 2 * math.pi, 8))


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

        def direction(a):
            return np.array(
                [
                    math.sin(a.theta) * math.cos(a.phi),
                    math.sin(a.theta) * math.sin(a.phi),
                    math.cos(a.theta),
                ]
            )

        na, nd = direction(s.a), direction(s.d)
        nb, nc = direction(s.b), direction(s.c)
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
    assert rep.value >= 2 * math.sqrt(2) - 1e-6
    assert rep.stats.converged
    assert classify(rep) is BellClass.HIDDEN_BELL_CORRELATION


def test_maximize_respects_separable_bound():
    for seed in range(20):
        rho = separable_sample(seed, 1 + seed % 5)
        rep = maximize_bell(rho, restarts=8, seed=seed)
        assert rep.value <= SEPARABLE_BOUND + 1e-6


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


def test_maximize_is_monotone_in_restarts():
    rho = random_density(4, 17)
    low = maximize_bell(rho, restarts=2, seed=5)
    high = maximize_bell(rho, restarts=8, seed=5)
    assert high.value >= low.value


def test_maximize_rejects_bad_restarts():
    with pytest.raises(ValueError, match="restarts"):
        maximize_bell(random_density(4, 0), restarts=0)


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
    # satisfying the separable bound implies satisfying the universal one
    for v in (0.0, 1.9, SEPARABLE_BOUND + CLASSIFY_TOL, 2.5, TSIRELSON_BOUND + CLASSIFY_TOL, 3.0):
        separable, tsirelson = bounds_hold(v)
        assert (not separable) or tsirelson
