import numpy as np
import pytest
from conftest import random_hermitian, random_unitary

from qbell.density import HERM_TOL, hermitian_spectrum
from qbell.errors import HermiticityError
from qbell.linalg import kron, require_square
from qbell.tomography import EulerAngles, su2


def test_matmul_rotation_times_adjoint_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = su2(EulerAngles(*rng.uniform(-7, 7, 3)))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


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
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_kron_spectrum_is_pairwise_products():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        wa = np.linalg.eigvalsh(a)
        wb = np.linalg.eigvalsh(b)
        expected = np.sort(np.outer(wa, wb).ravel())
        got = np.linalg.eigvalsh(kron(a, b))
        assert np.max(np.abs(np.sort(got) - expected)) <= 1e-9


# hermitian_spectrum is the package's one Hermitian eigenvalue routine.

def test_eigen_diagonal_case():
    w = hermitian_spectrum(np.diag([3.0, 1.0, 2.0]), HERM_TOL, "test")
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)


def test_eigen_pauli_x_spectrum():
    w = hermitian_spectrum(np.array([[0, 1], [1, 0]], dtype=complex), HERM_TOL, "test")
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eigen_reconstruction():
    # trace and Frobenius norm of a Hermitian matrix are sum(w) and sum(w^2)
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 6, 8):
        h = random_hermitian(rng, n, scale=3.0)
        w = hermitian_spectrum(h, HERM_TOL, "test")
        scale = max(np.max(np.abs(h)), 1.0)
        assert abs(w.sum() - np.trace(h).real) <= 1e-10 * scale
        assert abs((w * w).sum() - (np.abs(h) ** 2).sum()) <= 1e-10 * scale * scale
        assert np.all(np.diff(w) >= 0)


def test_eigen_unitary_similarity_invariance():
    rng = np.random.default_rng(23)
    for _ in range(25):
        h = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        w1 = hermitian_spectrum(h, HERM_TOL, "test")
        w2 = hermitian_spectrum(u @ h @ u.conj().T, 1e-9, "test")
        assert np.max(np.abs(w1 - w2)) <= 1e-9


def test_eigen_rejects_non_hermitian():
    with pytest.raises(HermiticityError, match="defect 1.000e\\+00"):
        hermitian_spectrum(np.array([[0, 1], [0, 0]], dtype=complex), HERM_TOL, "test")


def test_eigen_is_deterministic():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 5)
    assert np.array_equal(hermitian_spectrum(h, HERM_TOL, "test"),
                          hermitian_spectrum(h.copy(), HERM_TOL, "test"))


def test_hermitian_part_halves_before_adding():
    # m/2 + m†/2 is (m + m†)/2 bit for bit when nothing overflows
    rng = np.random.default_rng(37)
    for _ in range(200):
        h = random_hermitian(rng, 4) + 1e-11 * rng.standard_normal((4, 4))
        want = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
        assert hermitian_spectrum(h, HERM_TOL, "test").tobytes() == want.tobytes()


def test_trace_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        require_square(np.zeros((2, 3)))


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        require_square(np.array([[np.nan, 0], [0, 0]]))


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
