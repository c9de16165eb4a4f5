import numpy as np

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
