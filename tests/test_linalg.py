import numpy as np
import pytest
from conftest import random_hermitian, random_unitary, su2

from qbell.density import (
    HERM_TOL,
    SeparableDecomposition,
    hermitian_part,
    hermitian_spectrum,
    random_density,
    require_square,
)
from qbell.errors import HermiticityError
from qbell.tomography import EulerAngles


def test_matmul_rotation_times_adjoint_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = su2(EulerAngles(*rng.uniform(-7, 7, 3)))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


# SeparableDecomposition.matrix is the package's one Kronecker product.

def _product(a, b):
    return SeparableDecomposition((1.0,), (a,), (b,)).matrix()


def test_kron_identities():
    assert np.array_equal(_product(np.eye(2) / 2, np.eye(2) / 2), np.eye(4) / 4)
    p = np.diag([1.0, 0.0]).astype(complex)
    assert np.array_equal(_product(p, p), np.diag([1.0, 0, 0, 0]))


def test_kron_mixed_product_property():
    # (u kron v)(a kron b)(u kron v)† is (u a u†) kron (v b v†)
    rng = np.random.default_rng(5)
    for seed in range(50):
        a, b = random_density(2, seed).mat, random_density(2, seed + 1000).mat
        u, v = random_unitary(rng, 2), random_unitary(rng, 2)
        w = np.kron(u, v)
        lhs = w @ _product(a, b) @ w.conj().T
        rhs = _product(u @ a @ u.conj().T, v @ b @ v.conj().T)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_kron_spectrum_is_pairwise_products():
    for seed in range(25):
        a, b = random_density(2, seed), random_density(2, seed + 1000)
        expected = np.sort(np.outer(a.spectrum, b.spectrum).ravel())
        got = np.linalg.eigvalsh(_product(a.mat, b.mat))
        assert np.max(np.abs(got - expected)) <= 1e-12


# hermitian_spectrum is the package's one Hermitian eigenvalue routine.

def test_eigen_diagonal_case():
    w = hermitian_spectrum(np.diag([3.0, 1.0, 2.0]), HERM_TOL, "test")[1]
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)


def test_eigen_pauli_x_spectrum():
    w = hermitian_spectrum(np.array([[0, 1], [1, 0]], dtype=complex), HERM_TOL, "test")[1]
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eigen_reconstruction():
    # trace and Frobenius norm of a Hermitian matrix are sum(w) and sum(w^2)
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 6, 8):
        h = random_hermitian(rng, n, scale=3.0)
        w = hermitian_spectrum(h, HERM_TOL, "test")[1]
        scale = max(np.max(np.abs(h)), 1.0)
        assert abs(w.sum() - np.trace(h).real) <= 1e-10 * scale
        assert abs((w * w).sum() - (np.abs(h) ** 2).sum()) <= 1e-10 * scale * scale
        assert np.all(np.diff(w) >= 0)


def test_eigen_unitary_similarity_invariance():
    rng = np.random.default_rng(23)
    for _ in range(25):
        h = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        w1 = hermitian_spectrum(h, HERM_TOL, "test")[1]
        w2 = hermitian_spectrum(u @ h @ u.conj().T, 1e-9, "test")[1]
        assert np.max(np.abs(w1 - w2)) <= 1e-9


def test_eigen_rejects_non_hermitian():
    with pytest.raises(HermiticityError, match="defect 1.000e\\+00"):
        hermitian_spectrum(np.array([[0, 1], [0, 0]], dtype=complex), HERM_TOL, "test")


def test_eigen_is_deterministic():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 5)
    part, w = hermitian_spectrum(h, HERM_TOL, "test")
    again = hermitian_spectrum(h.copy(), HERM_TOL, "test")
    assert np.array_equal(part, again[0]) and np.array_equal(w, again[1])


def test_hermitian_part_halves_before_adding():
    # m/2 + m†/2 is (m + m†)/2 bit for bit when nothing overflows and no half is subnormal
    rng = np.random.default_rng(37)
    for _ in range(200):
        h = random_hermitian(rng, 4) + 1e-11 * rng.standard_normal((4, 4))
        want = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
        assert hermitian_spectrum(h, HERM_TOL, "test")[1].tobytes() == want.tobytes()
    # The documented exception: an entry below 2**-1021 may lose its last bit.
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = m[1, 0] = 5e-324
    assert ((m + m.conj().T) / 2.0)[0, 1] == 5e-324
    assert hermitian_part(m)[0][0, 1] == 0.0
    m[0, 1] = m[1, 0] = 2.0**-1021
    assert hermitian_part(m)[0].tobytes() == ((m + m.conj().T) / 2.0).tobytes()


def test_trace_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        require_square(np.zeros((2, 3)))


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        require_square(np.array([[np.nan, 0], [0, 0]]))


def test_kron_rejects_non_matrices():
    with pytest.raises(ValueError, match="2-D"):
        _product(np.ones(2), np.eye(2) / 2)


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
