import math

import numpy as np
import pytest
from conftest import PHI_PLUS, random_unitary

from qbell.channels import BlockPartition
from qbell.density import CLAMP_TOL, HERM_TOL, PSD_TOL, embed_qutrit, random_density, validate
from qbell.entropy import (
    DIVERGENT,
    check_subadditivity,
    relative_entropy,
    von_neumann,
)
from qbell.tomography import EulerAngles, joint_tomogram, tomogram


def test_entropy_of_maximally_mixed():
    assert abs(von_neumann(validate(np.eye(4) / 4)) - math.log(4)) <= 1e-12


def test_entropy_of_pure_states_is_zero():
    assert von_neumann(validate(PHI_PLUS)) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = random_unitary(rng, 4)[:, 0]
        rho = validate(np.outer(v, v.conj()))
        assert von_neumann(rho) <= 1e-12


def test_entropy_binary_spectrum():
    # scalar oracle: -sum(lam ln lam) evaluated directly
    expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
    assert abs(expected - (math.log(3) - (2 / 3) * math.log(2))) <= 1e-15
    got = von_neumann(validate(np.diag([2 / 3, 1 / 3])))
    assert abs(got - expected) <= 1e-12


def test_entropy_is_unitary_invariant():
    rng = np.random.default_rng(12)
    for seed in range(50):
        rho = random_density(4, seed)
        u = random_unitary(rng, 4)
        rotated = validate(u @ rho.mat @ u.conj().T)
        assert abs(von_neumann(rotated) - von_neumann(rho)) <= 1e-9


def test_subadditivity_equality_for_maximally_mixed():
    rep = check_subadditivity(validate(np.eye(4) / 4), BlockPartition(2, 2))
    assert abs(rep.s_joint - math.log(4)) <= 1e-12
    assert abs(rep.s_first - math.log(2)) <= 1e-12
    assert abs(rep.s_second - math.log(2)) <= 1e-12
    assert abs(rep.slack_sub) <= 1e-12
    assert rep.subadditivity_holds


def test_subadditivity_for_entangled_projector():
    rep = check_subadditivity(validate(PHI_PLUS), BlockPartition(2, 2))
    assert rep.s_joint == 0.0
    assert abs(rep.slack_sub - 2 * math.log(2)) <= 1e-12
    assert rep.subadditivity_holds


def test_subadditivity_for_embedded_uniform_qutrit():
    # closed-form spectra: joint {1/3 x3, 0}, both reductions {2/3, 1/3}
    rho4 = embed_qutrit(validate(np.diag([1 / 3, 1 / 3, 1 / 3])))
    rep = check_subadditivity(rho4, BlockPartition(2, 2))
    side = math.log(3) - (2 / 3) * math.log(2)
    assert abs(rep.s_joint - math.log(3)) <= 1e-12
    assert abs(rep.s_first - side) <= 1e-12
    assert abs(rep.s_second - side) <= 1e-12
    assert rep.subadditivity_holds


def test_araki_lieb_equalities():
    rep = check_subadditivity(validate(PHI_PLUS), BlockPartition(2, 2))
    assert rep.araki_lieb_holds
    assert abs(rep.slack_al) <= 1e-12

    prod = validate(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
    rep = check_subadditivity(prod, BlockPartition(2, 2))
    assert abs(rep.s_joint - math.log(2)) <= 1e-12
    assert abs(rep.slack_al) <= 1e-12
    assert rep.araki_lieb_holds


def test_subadditivity_holds_at_the_positivity_edge():
    # The eigenvalue at -1e-9 lowers the second reduction's 1/9 by 1e-9,
    # which moves its entropy by 1.2e-9, beyond PSD_TOL.
    rep = check_subadditivity(validate(np.diag([1 / 9, 8 / 9 + 1e-9, -1e-9, 0.0])),
                              BlockPartition(2, 2))
    assert -1.3e-9 < rep.slack_sub < -PSD_TOL
    assert rep.subadditivity_holds and rep.araki_lieb_holds
    # The report carries the margin its verdicts used.
    assert 4.7e-8 < rep.margin < 4.9e-8
    assert -rep.slack_sub < rep.margin


def test_margin_is_psd_tol_without_negative_eigenvalues():
    for rho in (validate(PHI_PLUS), validate(np.eye(4) / 4), random_density(6, 3)):
        p = BlockPartition(2, rho.dim // 2)
        assert check_subadditivity(rho, p).margin == PSD_TOL


@pytest.mark.parametrize("dim,partition", [(4, (2, 2)), (6, (2, 3)), (6, (3, 2))])
def test_both_inequalities_hold_on_random_states(dim, partition):
    p = BlockPartition(*partition)
    for seed in range(1000):
        rep = check_subadditivity(random_density(dim, seed), p)
        assert rep.subadditivity_holds
        assert rep.araki_lieb_holds


def test_report_field_relations():
    rep = check_subadditivity(random_density(4, 8), BlockPartition(2, 2))
    assert rep.mutual_information == rep.s_first + rep.s_second - rep.s_joint
    assert rep.slack_sub == rep.mutual_information
    assert rep.slack_al == rep.s_joint - abs(rep.s_first - rep.s_second)


def test_relative_entropy_values():
    assert relative_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert abs(relative_entropy([1.0, 0.0], [0.5, 0.5]) - math.log(2)) <= 1e-15


def test_relative_entropy_divergence_marker():
    out = relative_entropy([1.0, 0.0], [0.0, 1.0])
    assert out is DIVERGENT
    assert out == math.inf


def test_relative_entropy_input_validation():
    with pytest.raises(ValueError, match="equal-length"):
        relative_entropy([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"non-empty equal-length vectors, got \(0,\) and \(0,\)"):
        relative_entropy([], [])
    with pytest.raises(ValueError, match="sums to"):
        relative_entropy([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError, match="negative"):
        relative_entropy([1.1, -0.1], [0.5, 0.5])
    # a NaN entry must not pass as part of a distribution
    for w in ([math.nan, 0.5, 0.5], [0.5, math.nan, 0.5]):
        with pytest.raises(ValueError, match="w2 sums to nan"):
            relative_entropy([0.25, 0.25, 0.5], w)


def test_relative_entropy_of_a_tomogram_at_the_positivity_edge():
    # validate accepts an eigenvalue at -5e-10, so the on-axis tomogram has
    # that entry; it carries no weight, as in the clipped distribution.
    rho = validate(np.diag([-5e-10, 0.2, 0.3, 0.5 + 5e-10]))
    w = joint_tomogram(rho, EulerAngles(0.0, 0.0), EulerAngles(0.0, 0.0))
    assert w[0] == -5e-10
    clipped = np.clip(w, 0.0, None)
    want = sum(p * math.log(p / 0.25) for p in clipped if p > 0.0)
    assert abs(relative_entropy(w, np.full(4, 0.25)) - want) <= 1e-15


def test_relative_entropy_accepts_a_tomogram_rounded_past_the_edge():
    # A tomogram of an eigenvalue at exactly -PSD_TOL, read off the axis of
    # its eigenbasis, can pick up rounding below it.
    w = np.array([0.0, 0.0, 1.0 + PSD_TOL, np.nextafter(-PSD_TOL, -1.0)])
    assert w[3] < -PSD_TOL
    assert relative_entropy(w, w) == 0.0


def test_relative_entropy_accepts_an_entry_at_exactly_the_negative_edge():
    edge = -(PSD_TOL + HERM_TOL)
    w = [edge, 0.5, 0.5 - edge]
    assert relative_entropy(w, w) == 0.0


def test_relative_entropy_gives_an_entry_of_exactly_clamp_tol_no_weight():
    # counted, the first entry would meet q = 0 and diverge
    assert relative_entropy([CLAMP_TOL, 1.0 - CLAMP_TOL], [0.0, 1.0]) == 0.0


def test_relative_entropy_diverges_where_q_is_exactly_clamp_tol():
    assert relative_entropy([0.5, 0.5], [CLAMP_TOL, 1.0 - CLAMP_TOL]) is DIVERGENT


def test_relative_entropy_within_tolerance_of_distributions_is_not_negative():
    # Three eigenvalues at the positivity edge leave the fourth on-axis entry
    # at 1 + 3e-9, so the raw sum is ln(1 / (1 + 3e-9)) < -PSD_TOL.
    axis = EulerAngles(0.0, 0.0)
    w2 = joint_tomogram(validate(np.diag([-1e-9, -1e-9, -1e-9, 1 + 3e-9])), axis, axis)
    w1 = joint_tomogram(validate(np.diag([0.0, 0.0, 0.0, 1.0])), axis, axis)
    assert relative_entropy(w1, w2) == 0.0
    assert relative_entropy(w1, w1) == 0.0


def test_relative_entropy_of_tomograms_is_nonnegative():
    rng = np.random.default_rng(77)
    for seed in range(1000):
        # both tomograms must come from the same rotation
        u = random_unitary(rng, 4)
        w1 = tomogram(random_density(4, seed), u)
        w2 = tomogram(random_density(4, seed + 10_000), u)
        out = relative_entropy(w1, w2)
        assert out is DIVERGENT or out >= -1e-12
