import math

import numpy as np
import pytest
from conftest import PHI_PLUS, random_unitary, su2
from hypothesis import given, settings
from hypothesis import strategies as st

from qbell.density import CLAMP_TOL, random_density, validate
from qbell.tomography import EulerAngles, joint_tomogram, tomogram


def test_su2_identity():
    assert np.array_equal(su2(EulerAngles(0.0, 0.0, 0.0)), np.eye(2))


def test_su2_half_turn():
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert np.max(np.abs(su2(EulerAngles(0.0, math.pi, 0.0)) - expected)) <= 1e-15


def test_su2_is_special_unitary():
    rng = np.random.default_rng(21)
    for _ in range(100):
        u = su2(EulerAngles(*rng.uniform(-7, 7, 3)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        assert abs(det - 1.0) <= 1e-12


def test_angles_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        EulerAngles(math.inf, 0.0)
    with pytest.raises(ValueError, match="finite"):
        EulerAngles(0.0, math.nan)


def test_tomogram_of_maximally_mixed_is_uniform():
    rng = np.random.default_rng(31)
    rho = validate(np.eye(4) / 4)
    for _ in range(10):
        probs = tomogram(rho, random_unitary(rng, 4))
        assert np.max(np.abs(probs - 0.25)) <= 1e-12


def test_tomogram_identity_rotation():
    rho = validate(np.diag([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(tomogram(rho, np.eye(4)), np.array([1.0, 0.0, 0.0, 0.0]))


def test_tomogram_of_entangled_projector_along_z():
    rho = validate(PHI_PLUS)
    probs = joint_tomogram(rho, EulerAngles(0.3, 0.0), EulerAngles(-1.2, 0.0))
    assert np.max(np.abs(probs - np.array([0.5, 0.0, 0.0, 0.5]))) <= 1e-12


def test_tomogram_rejects_non_unitary():
    rho = validate(np.eye(4) / 4)
    with pytest.raises(ValueError, match="not unitary"):
        tomogram(rho, np.eye(4) * 1.001)


def test_tomogram_rejects_dimension_mismatch():
    rho = validate(np.eye(4) / 4)
    with pytest.raises(ValueError, match="does not match"):
        tomogram(rho, np.eye(2))


def test_joint_tomogram_identity_gives_diagonal():
    rho = random_density(4, 5)
    zero = EulerAngles(0.0, 0.0)
    assert np.max(np.abs(joint_tomogram(rho, zero, zero) - np.diag(rho.mat).real)) <= 1e-15


def test_joint_tomogram_requires_dim_4():
    with pytest.raises(ValueError, match="4x4"):
        joint_tomogram(random_density(2, 0), EulerAngles(0, 0), EulerAngles(0, 0))


def test_joint_tomogram_normalized_and_nonnegative():
    rng = np.random.default_rng(6)
    for seed in range(200):
        rho = random_density(4, seed)
        a1 = EulerAngles(*rng.uniform(0, 2 * math.pi, 2))
        a2 = EulerAngles(*rng.uniform(0, 2 * math.pi, 2))
        probs = joint_tomogram(rho, a1, a2)
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-9
        assert np.min(probs) >= 0.0


def test_joint_tomogram_ignores_residual_phase():
    rng = np.random.default_rng(13)
    for seed in range(200):
        rho = random_density(4, seed)
        phi1, th1, phi2, th2 = rng.uniform(0, 2 * math.pi, 4)
        psi = rng.uniform(-10, 10, 4)
        base = joint_tomogram(rho, EulerAngles(phi1, th1, psi[0]), EulerAngles(phi2, th2, psi[1]))
        other = joint_tomogram(rho, EulerAngles(phi1, th1, psi[2]), EulerAngles(phi2, th2, psi[3]))
        assert np.max(np.abs(base - other)) <= 1e-12


def test_joint_tomogram_of_separable_state_is_a_mixture_of_products():
    # oracle: assemble sum_n p_n w1_n(m1) w2_n(m2) from the factors
    for seed in range(50):
        terms = 1 + seed % 4
        weights = np.random.default_rng(seed).dirichlet(np.ones(terms))
        factors = [(random_density(2, [seed, n, 0]).mat, random_density(2, [seed, n, 1]).mat)
                   for n in range(terms)]
        rho = validate(sum(p * np.kron(f1, f2) for p, (f1, f2) in zip(weights, factors)))
        a1 = EulerAngles(0.9 * seed % 3.0, 1.1 + 0.01 * seed)
        a2 = EulerAngles(-0.7, 2.2 - 0.01 * seed)
        u1, u2 = su2(a1), su2(a2)
        expected = np.zeros(4)
        for p, (f1, f2) in zip(weights, factors):
            w1 = np.diag(u1 @ f1 @ u1.conj().T).real
            w2 = np.diag(u2 @ f2 @ u2.conj().T).real
            expected += p * np.outer(w1, w2).ravel()
        got = joint_tomogram(rho, a1, a2)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_an_entry_of_exactly_minus_clamp_tol_reads_as_zero():
    rho = validate(np.diag([-CLAMP_TOL, 0.25 + CLAMP_TOL, 0.25, 0.5]))
    assert rho.mat[0, 0] == -CLAMP_TOL
    z = EulerAngles(0.0, 0.0)
    assert joint_tomogram(rho, z, z)[0] == 0.0
    assert tomogram(rho, np.eye(4))[0] == 0.0


def _reference_probabilities(rho, u):
    probs = np.diag(u @ rho.mat @ u.conj().T).real.copy()
    probs[(probs < 0.0) & (probs >= -CLAMP_TOL)] = 0.0
    return probs


def _assert_fresh_float_vector(probs):
    assert probs.dtype == np.float64 and probs.ndim == 1
    assert probs.flags.c_contiguous and probs.flags.writeable


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_tomogram_matches_reference_bit_for_bit(dim):
    rng = np.random.default_rng(100 + dim)
    for seed in range(200):
        rho = random_density(dim, seed)
        u = random_unitary(rng, dim)
        probs = tomogram(rho, u)
        _assert_fresh_float_vector(probs)
        assert probs.tobytes() == _reference_probabilities(rho, u).tobytes()


def test_joint_tomogram_matches_the_unitary_form():
    rng = np.random.default_rng(77)
    for seed in range(500):
        rho = random_density(4, seed)
        a1, a2 = EulerAngles(*rng.uniform(-7, 7, 2)), EulerAngles(*rng.uniform(-7, 7, 2))
        probs = joint_tomogram(rho, a1, a2)
        _assert_fresh_float_vector(probs)
        want = tomogram(rho, np.kron(su2(a1), su2(a2)))
        assert np.max(np.abs(probs - want)) <= 1e-15


# Random states, and diagonals whose edge entries are clamped (-5e-13) or kept (-9e-10).
_EDGE_DIAGONALS = (
    np.diag([-5e-13, 0.25, 0.25, 0.5 + 5e-13]),
    np.diag([-9e-10, -9e-10, 0.5 + 9e-10, 0.5 + 9e-10]),
)
_states = (st.integers(0, 2**32 - 1).map(lambda seed: random_density(4, seed))
           | st.sampled_from(_EDGE_DIAGONALS).map(validate))
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(rho=_states, phi1=_finite, psi1=_finite, phi2=_finite, psi2=_finite)
def test_joint_tomogram_on_the_z_axis_is_the_diagonal_bit_for_bit(rho, phi1, psi1, phi2, psi2):
    probs = joint_tomogram(rho, EulerAngles(phi1, 0.0, psi1), EulerAngles(phi2, 0.0, psi2))
    # the clamped diagonal
    assert probs.tobytes() == _reference_probabilities(rho, np.eye(4)).tobytes()
