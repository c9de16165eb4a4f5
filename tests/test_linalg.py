import numpy as np
import pytest
from conftest import random_hermitian, random_unitary

from qbell.errors import HermiticityError
from qbell.linalg import adjoint, hermitian_eigen, kron, matmul, trace
from qbell.tomography import EulerAngles, su2


def test_matmul_identity():
    a = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert np.array_equal(matmul(np.eye(2), a), a)


def test_matmul_involution():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(matmul(x, x), np.eye(2), atol=0)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        matmul(np.eye(2), np.eye(3))


def test_matmul_rotation_times_adjoint_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = su2(EulerAngles(*rng.uniform(-7, 7, 3)))
        assert np.max(np.abs(matmul(u, adjoint(u)) - np.eye(2))) <= 1e-12


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    p = np.diag([1.0, 0.0]).astype(complex)
    assert np.array_equal(kron(p, p), np.diag([1.0, 0, 0, 0]))


def test_kron_mixed_product_property():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, c, d = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        )
        lhs = matmul(kron(a, b), kron(c, d))
        rhs = kron(matmul(a, c), matmul(b, d))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_kron_spectrum_is_pairwise_products():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        wa = hermitian_eigen(a).eigenvalues
        wb = hermitian_eigen(b).eigenvalues
        expected = np.sort(np.outer(wa, wb).ravel())
        got = hermitian_eigen(kron(a, b)).eigenvalues
        assert np.max(np.abs(np.sort(got) - expected)) <= 1e-9


def test_eigen_diagonal_case():
    w = hermitian_eigen(np.diag([3.0, 1.0, 2.0])).eigenvalues
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)


def test_eigen_pauli_x_spectrum():
    w = hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex)).eigenvalues
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eigen_reconstruction():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 6, 8):
        h = random_hermitian(rng, n, scale=3.0)
        w, v = hermitian_eigen(h)
        scale = max(np.max(np.abs(h)), 1.0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10
        assert np.max(np.abs(h - v @ np.diag(w) @ v.conj().T)) <= 1e-10 * scale
        assert np.all(np.diff(w) >= 0)


def test_eigen_unitary_similarity_invariance():
    rng = np.random.default_rng(23)
    for _ in range(25):
        h = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        w1 = hermitian_eigen(h).eigenvalues
        w2 = hermitian_eigen(u @ h @ u.conj().T).eigenvalues
        assert np.max(np.abs(w1 - w2)) <= 1e-9


def test_eigen_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigen_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigen(np.zeros((2, 3)))


def test_eigen_is_deterministic():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 5)
    w1, v1 = hermitian_eigen(h)
    w2, v2 = hermitian_eigen(h.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_trace_values():
    assert trace(np.eye(4)) == 4.0
    assert trace(np.diag([0.5, 0.5, 0.0, 0.0])) == 1.0


def test_trace_cyclicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(trace(a @ b) - trace(b @ a)) <= 1e-12 * max(1.0, abs(trace(a @ b)))


def test_trace_rejects_non_square():
    with pytest.raises(ValueError):
        trace(np.zeros((2, 3)))


def test_adjoint_cases():
    d = np.diag([1.0, 2.0]).astype(complex)
    assert np.array_equal(adjoint(d), d)
    m = np.array([[0, 1j], [0, 0]])
    assert np.array_equal(adjoint(m), np.array([[0, 0], [-1j, 0]]))
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        trace(np.array([[np.nan, 0], [0, 0]]))


def test_kron_equals_numpy_kron_bit_for_bit_on_su2_pairs():
    rng = np.random.default_rng(41)
    for _ in range(500):
        a = su2(EulerAngles(*rng.uniform(-7, 7, 3)))
        b = su2(EulerAngles(*rng.uniform(-7, 7, 3)))
        got, want = kron(a, b), np.kron(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_kron_rejects_non_matrices():
    with pytest.raises(ValueError, match="2-D"):
        kron(np.ones(2), np.eye(2))
