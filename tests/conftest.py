import numpy as np

from qbell.bell import SIGN_MATRIX
from qbell.tomography import joint_tomogram

# Maximally entangled test matrix: the rank-1 projector onto
# (|1> + |4>)/sqrt(2) in the 4-level basis.
PHI_PLUS = 0.5 * np.array(
    [
        [1, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 1],
    ],
    dtype=complex,
)


def random_unitary(rng, n):
    """Haar-ish random unitary: QR of a complex Gaussian with phase fix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def correlation(rho, d1, d2):
    """Signed two-outcome correlation <m1 m2> for directions d1, d2: the sum
    of the joint tomogram weighted by the outcome signs (+1, -1, -1, +1)."""
    return float(np.array([1.0, -1.0, -1.0, 1.0]) @ joint_tomogram(rho, d1, d2))


def observable_bell_value(f_mat, quad):
    """Oracle for the observable bound checks: |sign contraction of the
    diagonals of f rotated by the four product unitaries of ``quad``|."""
    rows = np.stack([np.diag(u @ f_mat @ u.conj().T).real for u in quad.product_unitaries()])
    return abs(float(np.sum(SIGN_MATRIX * rows)))


def bell_number_sign_form(rho, setting):
    """Oracle for criterion 8: the Bell number as the trace of the sign
    matrix against the probability table.

    The table's columns are the joint tomograms at the four setting pairs
    (a,b), (a,c), (d,b), (d,c); its rows are outcomes. Agrees with
    ``qbell.bell.bell_number`` to machine precision.
    """
    pairs = (
        (setting.a, setting.b),
        (setting.a, setting.c),
        (setting.d, setting.b),
        (setting.d, setting.c),
    )
    table = np.stack([joint_tomogram(rho, p, q) for p, q in pairs], axis=1)
    return float(np.trace(SIGN_MATRIX @ table))


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


# States that validate accepts at its default tolerances, with defects that
# a 2x2 block trace doubles: two eigenvalues at -9e-10 in one diagonal
# block, and a 6e-11 hermiticity defect in each diagonal block.
EDGE_NEGATIVE_BLOCK = np.diag([-9e-10, -9e-10, 0.5 + 9e-10, 0.5 + 9e-10]).astype(complex)
EDGE_SKEW_BLOCKS = np.eye(4, dtype=complex) / 4
EDGE_SKEW_BLOCKS[0, 1] += 6e-11
EDGE_SKEW_BLOCKS[2, 3] += 6e-11
