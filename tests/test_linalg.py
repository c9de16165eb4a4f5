import numpy as np
import pytest
from conftest import random_hermitian, random_unitary, su2

from qbell.density import (
    HERM_TOL,
    HermitianMatrix,
    hermitian_part,
    require_square,
)
from qbell.errors import HermiticityError
from qbell.tomography import EulerAngles


def test_matmul_rotation_times_adjoint_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = su2(EulerAngles(*rng.uniform(-7, 7, 3)))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


# The HermitianMatrix constructor is the package's one Hermitian eigenvalue routine.

def test_eigen_diagonal_case():
    w = HermitianMatrix(np.diag([3.0, 1.0, 2.0]), "test").spectrum
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)


def test_eigen_pauli_x_spectrum():
    w = HermitianMatrix(np.array([[0, 1], [1, 0]], dtype=complex), "test").spectrum
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eigen_reconstruction():
    # trace and Frobenius norm of a Hermitian matrix are sum(w) and sum(w^2)
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 6, 8):
        h = random_hermitian(rng, n, scale=3.0)
        w = HermitianMatrix(h, "test").spectrum
        scale = max(np.max(np.abs(h)), 1.0)
        assert abs(w.sum() - np.trace(h).real) <= 1e-10 * scale
        assert abs((w * w).sum() - (np.abs(h) ** 2).sum()) <= 1e-10 * scale * scale
        assert np.all(np.diff(w) >= 0)


def test_eigen_unitary_similarity_invariance():
    rng = np.random.default_rng(23)
    for _ in range(25):
        h = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        w1 = HermitianMatrix(h, "test").spectrum
        w2 = HermitianMatrix(u @ h @ u.conj().T, "test").spectrum
        assert np.max(np.abs(w1 - w2)) <= 1e-9


def test_eigen_rejects_non_hermitian():
    with pytest.raises(HermiticityError, match="defect 1.000e\\+00"):
        HermitianMatrix(np.array([[0, 1], [0, 0]], dtype=complex), "test")


def test_eigen_is_deterministic():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 5)
    held = HermitianMatrix(h, "test")
    again = HermitianMatrix(h.copy(), "test")
    assert np.array_equal(held.mat, again.mat) and np.array_equal(held.spectrum, again.spectrum)


def test_hermitian_part_halves_before_adding():
    # m/2 + m†/2 is (m + m†)/2 bit for bit when nothing overflows and no half is subnormal
    rng = np.random.default_rng(37)
    for _ in range(200):
        h = random_hermitian(rng, 4) + 1e-11 * rng.standard_normal((4, 4))
        want = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
        assert HermitianMatrix(h, "test").spectrum.tobytes() == want.tobytes()
    # An exactly Hermitian matrix is its own part, also at subnormal entries.
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = m[1, 0] = 5e-324
    assert hermitian_part(m)[0] is m
    # The documented exception: with a defect, an entry below 2**-1021 may lose its last bit.
    m[1, 0] += 1e-12j
    assert ((m + m.conj().T) / 2.0)[0, 1].real == 5e-324
    assert hermitian_part(m)[0][0, 1].real == 0.0
    m[0, 1] = m[1, 0] = 2.0**-1021
    m[1, 0] += 1e-12j
    assert hermitian_part(m)[0].tobytes() == ((m + m.conj().T) / 2.0).tobytes()


def test_trace_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        require_square(np.zeros((2, 3)))


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        require_square(np.array([[np.nan, 0], [0, 0]]))


def test_a_defect_of_exactly_herm_tol_is_accepted():
    # m - m† is 1e-10j at two entries, so the float defect is HERM_TOL itself
    h = HermitianMatrix(np.array([[0.5, 0.5], [0.5 + 1e-10j, 0.5]]), "test")
    assert h.defect == HERM_TOL


def test_require_square_rejects_non_matrices():
    with pytest.raises(ValueError, match="2-D"):
        require_square(np.ones(2))


def test_hermitian_part_defect_is_the_max_norm_of_m_minus_its_adjoint():
    rng = np.random.default_rng(43)
    for _ in range(200):
        noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = random_hermitian(rng, 4) + 1e-11 * noise
        part, defect = hermitian_part(m)
        assert defect == float(np.abs(m - m.conj().T).max())
        assert part.tobytes() == ((m + m.conj().T) / 2.0).tobytes()
    # entries at the float64 limit keep a finite Hermitian part
    big = np.full((2, 2), np.finfo(float).max, dtype=complex)
    part, defect = hermitian_part(big)
    assert np.array_equal(part, big) and defect == 0.0
    # a difference past it reads as an infinite defect, without a warning
    big[0, 1] *= -1.0
    assert hermitian_part(big)[1] == np.inf
