import math

import numpy as np

from qbell.appendix import rho_of_x
from qbell.tomography import joint_tomogram

# Row alpha = setting pair (a,b), (a,c), (d,b), (d,c); column beta = outcome
# (+,+), (+,-), (-,+), (-,-). Entry = outcome sign times the setting sign
# (+1, +1, +1, -1). Every row sums to zero.
SIGN_MATRIX = np.array(
    [
        [1, -1, -1, 1],
        [1, -1, -1, 1],
        [1, -1, -1, 1],
        [-1, 1, 1, -1],
    ],
    dtype=np.int64,
)

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


def werner(p):
    """p |phi+><phi+| + (1 - p) I/4, whose largest |B| is 2 sqrt(2) p."""
    return p * PHI_PLUS + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def chsh_maximum(rho):
    """Oracle for the Bell optimizer: the largest |B| over all settings,
    2 sqrt(s1^2 + s2^2) for the two largest singular values of the tensor
    T[i, j] = Tr(rho sigma_i kron sigma_j) (Horodecki 1995)."""
    m = getattr(rho, "mat", rho)
    t = np.array([[np.trace(m @ np.kron(p, q)).real for q in _PAULIS] for p in _PAULIS])
    s = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


def random_unitary(rng, n):
    """Haar-ish random unitary: QR of a complex Gaussian with phase fix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def su2(angles):
    """Rotation-matrix oracle: the special unitary 2x2 rotation taking the z
    axis to (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)); the
    residual phase psi never affects outcome probabilities."""
    half = angles.theta / 2.0
    c, s = math.cos(half), math.sin(half)
    plus = 1j * (angles.psi + angles.phi) / 2.0
    minus = 1j * (angles.psi - angles.phi) / 2.0
    return np.array(
        [[c * np.exp(plus), s * np.exp(minus)], [-s * np.exp(-minus), c * np.exp(-plus)]],
        dtype=np.complex128,
    )


def correlation(rho, d1, d2):
    """Signed two-outcome correlation <m1 m2> for directions d1, d2: the sum
    of the joint tomogram weighted by the outcome signs (+1, -1, -1, +1)."""
    return float(np.array([1.0, -1.0, -1.0, 1.0]) @ joint_tomogram(rho, d1, d2))


def observable_bell_value(f_mat, quad):
    """Oracle for the observable bound checks: |sign contraction of the
    diagonals of f rotated by the four product unitaries of ``quad``|, which
    pair (u1,u3), (u1,u4), (u2,u3), (u2,u4)."""
    m1, m2, m3, m4 = (su2(u) for u in (quad.u1, quad.u2, quad.u3, quad.u4))
    unitaries = (np.kron(m1, m3), np.kron(m1, m4), np.kron(m2, m3), np.kron(m2, m4))
    rows = np.stack([np.diag(u @ f_mat @ u.conj().T).real for u in unitaries])
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


def stochastic_omega(f, x, quad):
    """Oracle for the paper's appendix: the row-stochastic 4x4 matrix whose row
    alpha is the joint tomogram of rho(x) along the pair (u1,u3), (u1,u4),
    (u2,u3), (u2,u4) of ``quad``. Its contraction against SIGN_MATRIX is the
    Bell number of rho(x) at the setting a=u1, d=u2, b=u3, c=u4."""
    rho = rho_of_x(f, x)
    pairs = ((quad.u1, quad.u3), (quad.u1, quad.u4), (quad.u2, quad.u3), (quad.u2, quad.u4))
    return np.stack([joint_tomogram(rho, p, q) for p, q in pairs])


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


# States that validate accepts at its default tolerances, with defects at
# the edge: two eigenvalues at -9e-10 in one diagonal block, which a 2x2
# block trace doubles, and a 6e-11 hermiticity defect in each diagonal block,
# which validate drops by holding the Hermitian part.
EDGE_NEGATIVE_BLOCK = np.diag([-9e-10, -9e-10, 0.5 + 9e-10, 0.5 + 9e-10]).astype(complex)
EDGE_SKEW_BLOCKS = np.eye(4, dtype=complex) / 4
EDGE_SKEW_BLOCKS[0, 1] += 6e-11
EDGE_SKEW_BLOCKS[2, 3] += 6e-11
# Its trace deviates from 1 by just under TRACE_TOL; summed in the order of the
# second 2x2 block trace, the same diagonal deviates by just over it.
EDGE_TRACE = np.diag([0.15248470865730118, 0.45161117671210116,
                      0.18663110835152466, 0.2092730063790728]).astype(complex)
