import numpy as np
import pytest
from conftest import EDGE_NEGATIVE_BLOCK, EDGE_SKEW_BLOCKS, PHI_PLUS

from qbell.channels import BlockPartition, block_trace_first, block_trace_second
from qbell.density import HERM_TOL, PSD_TOL, random_density, validate
from qbell.entropy import check_subadditivity
from qbell.tomography import EulerAngles, su2


def test_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(0, 2)
    assert BlockPartition(2, 3).dim == 6


def test_first_map_matches_entrywise_formula():
    # dim 4, 2x2 blocks: entry-wise [[r11+r22, r13+r24], [r31+r42, r33+r44]]
    for seed in range(25):
        rho = random_density(4, seed)
        r = rho.mat
        expected = np.array(
            [
                [r[0, 0] + r[1, 1], r[0, 2] + r[1, 3]],
                [r[2, 0] + r[3, 1], r[2, 2] + r[3, 3]],
            ]
        )
        got = block_trace_first(rho, BlockPartition(2, 2)).mat
        assert np.max(np.abs(got - expected)) <= 1e-15


def test_second_map_matches_entrywise_formula():
    # dim 4, 2x2 blocks: entry-wise [[r11+r33, r12+r34], [r21+r43, r22+r44]]
    for seed in range(25):
        rho = random_density(4, seed)
        r = rho.mat
        expected = np.array(
            [
                [r[0, 0] + r[2, 2], r[0, 1] + r[2, 3]],
                [r[1, 0] + r[3, 2], r[1, 1] + r[3, 3]],
            ]
        )
        got = block_trace_second(rho, BlockPartition(2, 2)).mat
        assert np.max(np.abs(got - expected)) <= 1e-15


def test_maximally_mixed_reduces_to_maximally_mixed():
    rho = validate(np.eye(4) / 4)
    p = BlockPartition(2, 2)
    assert np.allclose(block_trace_first(rho, p).mat, np.eye(2) / 2, atol=1e-15)
    assert np.allclose(block_trace_second(rho, p).mat, np.eye(2) / 2, atol=1e-15)


def test_product_state_reduces_to_point_mass():
    rho = validate(np.diag([1.0, 0.0, 0.0, 0.0]))
    got = block_trace_second(rho, BlockPartition(2, 2))
    assert np.array_equal(got.mat, np.diag([1.0, 0.0]).astype(complex))


def test_entangled_projector_reduces_to_maximally_mixed():
    rho = validate(PHI_PLUS)
    p = BlockPartition(2, 2)
    assert np.max(np.abs(block_trace_first(rho, p).mat - np.eye(2) / 2)) <= 1e-15
    assert np.max(np.abs(block_trace_second(rho, p).mat - np.eye(2) / 2)) <= 1e-15


def test_kronecker_products_reduce_to_their_factors():
    for seed in range(25):
        a = random_density(2, seed)
        b = random_density(3, seed + 1000)
        joint = validate(np.kron(a.mat, b.mat))
        p = BlockPartition(2, 3)
        assert np.max(np.abs(block_trace_first(joint, p).mat - a.mat)) <= 1e-14
        assert np.max(np.abs(block_trace_second(joint, p).mat - b.mat)) <= 1e-14


def test_dimension_mismatch():
    rho = random_density(4, 0)
    with pytest.raises(ValueError, match="does not factor"):
        block_trace_first(rho, BlockPartition(2, 3))


@pytest.mark.parametrize(
    "dim,partitions",
    [(4, [(2, 2), (1, 4), (4, 1)]), (6, [(2, 3), (3, 2), (1, 6), (6, 1)])],
)
def test_maps_preserve_density_invariants(dim, partitions):
    # block_trace_* validate their output, so any violation raises here
    for seed in range(500):
        rho = random_density(dim, seed)
        for n, m in partitions:
            p = BlockPartition(n, m)
            out1 = block_trace_first(rho, p)
            out2 = block_trace_second(rho, p)
            assert abs(np.trace(out1.mat) - 1.0) <= 1e-12
            assert abs(np.trace(out2.mat) - 1.0) <= 1e-12
            assert out1.spectrum[0] >= -1e-9
            assert out2.spectrum[0] >= -1e-9


def test_maps_are_linear():
    p = BlockPartition(2, 3)
    for seed in range(25):
        r1 = random_density(6, seed)
        r2 = random_density(6, seed + 500)
        alpha = 0.3
        mix = validate(alpha * r1.mat + (1 - alpha) * r2.mat)
        for trace_map in (block_trace_first, block_trace_second):
            lhs = trace_map(mix, p).mat
            rhs = alpha * trace_map(r1, p).mat + (1 - alpha) * trace_map(r2, p).mat
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_dual_factorizations_give_different_reductions():
    rho = random_density(6, 99)
    a1 = block_trace_first(rho, BlockPartition(2, 3))
    a2 = block_trace_first(rho, BlockPartition(3, 2))
    assert a1.dim == 2 and a2.dim == 3
    b1 = block_trace_second(rho, BlockPartition(2, 3))
    b2 = block_trace_second(rho, BlockPartition(3, 2))
    assert b1.dim == 3 and b2.dim == 2
    # generic matrices give genuinely different reduced pairs
    assert np.max(np.abs(a1.mat - b2.mat)) > 1e-3


def test_reductions_of_edge_states_are_accepted():
    # Each reduced entry sums two entries of the input, so the reductions
    # carry twice the input's defects; the block traces allow for that.
    p = BlockPartition(2, 2)
    neg = validate(EDGE_NEGATIVE_BLOCK)
    assert abs(block_trace_first(neg, p).spectrum[0] + 1.8e-9) <= 1e-20
    skew = validate(EDGE_SKEW_BLOCKS)
    second = block_trace_second(skew, p)
    assert abs(second.mat[0, 1] - second.mat[1, 0].conjugate() - 1.2e-10) <= 1e-20
    for rho in (neg, skew):
        report = check_subadditivity(rho, p)
        assert report.subadditivity_holds and report.araki_lieb_holds


def test_reductions_at_the_exact_positivity_edge_allow_for_rounding():
    # Two eigenvalues at exactly -PSD_TOL land in the same reduced entry;
    # rounding in the rotation takes the sum just below -2 PSD_TOL.
    u = np.kron(np.eye(2), su2(EulerAngles(0.0, 1.5)))
    rho = validate(u @ np.diag([-1e-9, 0.25, -1e-9, 0.75 + 2e-9]) @ u.conj().T)
    second = block_trace_second(rho, BlockPartition(2, 2))
    assert -(2 * PSD_TOL + HERM_TOL) <= second.spectrum[0] < -2 * PSD_TOL
