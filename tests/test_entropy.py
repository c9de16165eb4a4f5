import math

import numpy as np
import pytest
from conftest import PHI_PLUS, random_unitary

from qbell.channels import BlockPartition
from qbell.density import embed_qutrit, random_density, validate
from qbell.entropy import (
    DIVERGENT,
    Divergent,
    check_subadditivity,
    relative_entropy,
    von_neumann,
)
from qbell.tomography import tomogram


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
    assert repr(out) == "DIVERGENT"
    assert Divergent() is DIVERGENT


def test_relative_entropy_input_validation():
    with pytest.raises(ValueError, match="equal-length"):
        relative_entropy([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="sums to"):
        relative_entropy([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError, match="negative"):
        relative_entropy([1.1, -0.1], [0.5, 0.5])


def test_relative_entropy_of_tomograms_is_nonnegative():
    rng = np.random.default_rng(77)
    for seed in range(1000):
        # both tomograms must come from the same rotation
        u = random_unitary(rng, 4)
        w1 = tomogram(random_density(4, seed), u)
        w2 = tomogram(random_density(4, seed + 10_000), u)
        out = relative_entropy(w1, w2)
        assert out is DIVERGENT or out >= -1e-12
