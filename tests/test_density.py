import warnings

import numpy as np
import pytest
from conftest import PHI_PLUS, random_unitary

from qbell.channels import BlockPartition, block_trace_first, block_trace_second
from qbell.density import (
    embed_qutrit,
    partial_transpose,
    random_density,
    separable_sample,
    validate,
    verdict,
)
from qbell.errors import HermiticityError, PositivityError, QbellError, TraceError


def test_validate_maximally_mixed():
    rho = validate(np.eye(4) / 4)
    assert rho.dim == 4
    assert np.allclose(rho.spectrum, 0.25, atol=1e-14)


def test_validate_boundary_rank_one():
    rho = validate(np.diag([1.0, 0.0, 0.0, 0.0]))
    assert rho.spectrum[0] >= -1e-15


def test_a_verdict_at_its_bound_holds_with_margin_0():
    # the rule holds at slack == -margin itself
    assert verdict("edge", 0.5, 0.5, 0.0) == {"check_name": "edge", "value": 0.5, "bound": 0.5,
                                              "margin": 0.0, "holds": True, "slack": 0.0}
    assert verdict("edge", 0.5, 0.5, 0.0, lower=True)["holds"]


def test_validate_rejects_indefinite():
    with pytest.raises(PositivityError, match="-5.0"):
        validate(np.diag([1.5, -0.5, 0.0, 0.0]))


def test_validate_rejects_non_hermitian():
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = 1e-3
    with pytest.raises(HermiticityError, match="1.0"):
        validate(m)


def test_validate_rejects_bad_trace():
    with pytest.raises(TraceError, match="deviates"):
        validate(np.eye(4) / 2)


def test_validate_scales_positivity_and_trace_tolerances_by_traced():
    negative = np.diag([-1.5e-9, 1.0 + 1.5e-9])
    with pytest.raises(PositivityError, match="below tolerance -1.0e-09"):
        validate(negative)
    assert validate(negative, traced=2).spectrum[0] == -1.5e-9
    with pytest.raises(PositivityError, match="below tolerance -2.1e-09"):
        validate(np.diag([-2.5e-9, 1.0 + 2.5e-9]), traced=2)
    # the block traces of a held state are exactly Hermitian, so HERM_TOL stays as it is
    skew = np.eye(2, dtype=complex) / 2
    skew[0, 1] = 1.5e-10
    with pytest.raises(HermiticityError, match="exceeds tolerance 1.0e-10"):
        validate(skew, traced=2)
    # the trace allows HERM_TOL of rounding for each of the traced - 1 sums,
    # and names the tolerance it compared, as the other two checks do
    validate(np.diag([0.5, 0.5 + 3.9e-10]), traced=4)
    with pytest.raises(TraceError, match="by 4.100e-10, exceeds tolerance 4.0e-10$"):
        validate(np.diag([0.5, 0.5 + 4.1e-10]), traced=4)
    with pytest.raises(TraceError, match="by 1.500e-10, exceeds tolerance 1.0e-10$"):
        validate(np.diag([0.5, 0.5 + 1.5e-10]), traced=1)


def test_validate_reads_entries_near_the_float_limit_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityError, match="-1.000000e\\+308"):
            validate(np.diag([1e308, -1e308, 1.0, 0.0]))
        with pytest.raises(HermiticityError, match="defect inf"):
            validate(np.array([[0.5, 1e308], [-1e308, 0.5]]))
        # a trace that overflows, to NaN or to inf, fails the trace check
        with pytest.raises(TraceError, match="deviates from 1 by nan"):
            validate(np.diag([1e308, 1e308, -1e308, -1e308]))
        with pytest.raises(TraceError, match="deviates from 1 by inf"):
            validate(np.diag([1e308, 1e308, 1e308, 1e308]))


def test_validate_rejects_a_spectrum_that_overflows():
    # trace 1, entries finite, largest eigenvalue 3e308
    huge = 1e308 * (np.ones((4, 4)) - np.eye(4)) + np.eye(4) / 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QbellError, match="validate: eigenvalues overflow"):
            validate(huge)


def test_validate_accepts_random_spectral_mixtures():
    # V diag(p) V† for random unitaries V and probability vectors p
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        v = random_unitary(rng, 4)
        p = rng.dirichlet(np.ones(4))
        validate(v @ np.diag(p) @ v.conj().T)


@pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(np.nan, 0.0),
                                 complex(0.0, np.inf), complex(0.0, np.nan)],
                         ids=["inf-real", "nan-real", "inf-imag", "nan-imag"])
def test_validate_rejects_non_finite_entries(bad):
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = bad
    # exactly one of the two parts carries the non-finite value
    assert np.isfinite(m.real).all() != np.isfinite(m.imag).all()
    with pytest.raises(ValueError, match="non-finite"):
        validate(m)


def test_density_matrix_is_read_only():
    rho = validate(np.eye(4) / 4)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 9.0
    with pytest.raises(ValueError):
        rho.spectrum[0] = -1.0


def test_embed_qutrit_diagonal():
    rho3 = validate(np.diag([1 / 3, 1 / 3, 1 / 3]))
    rho4 = embed_qutrit(rho3)
    assert np.array_equal(rho4.mat, np.diag([1 / 3, 1 / 3, 1 / 3, 0.0]).astype(complex))


def test_embed_qutrit_spectrum_gains_a_zero():
    for seed in range(25):
        rho3 = random_density(3, seed)
        rho4 = embed_qutrit(rho3)
        expected = np.sort(np.concatenate([rho3.spectrum, [0.0]]))
        assert np.max(np.abs(rho4.spectrum - expected)) <= 1e-12


def test_embed_qutrit_copies_exactly():
    rho3 = random_density(3, 77)
    rho4 = embed_qutrit(rho3)
    assert np.array_equal(rho4.mat[:3, :3], rho3.mat)
    assert np.all(rho4.mat[3, :] == 0) and np.all(rho4.mat[:, 3] == 0)


def test_embed_qutrit_reduced_matrices():
    # block-tracing the embedded matrix must reproduce the 3x3 reductions
    # [[r11+r22, r13], [r31, r33]] and [[r11+r33, r12], [r21, r22]]
    for seed in range(25):
        rho3 = random_density(3, seed)
        r = rho3.mat
        rho4 = embed_qutrit(rho3)
        p = BlockPartition(2, 2)
        first = np.array([[r[0, 0] + r[1, 1], r[0, 2]], [r[2, 0], r[2, 2]]])
        second = np.array([[r[0, 0] + r[2, 2], r[0, 1]], [r[1, 0], r[1, 1]]])
        assert np.max(np.abs(block_trace_first(rho4, p).mat - first)) <= 1e-15
        assert np.max(np.abs(block_trace_second(rho4, p).mat - second)) <= 1e-15


def test_embed_qutrit_wrong_dimension():
    with pytest.raises(ValueError, match="3x3"):
        embed_qutrit(validate(np.eye(4) / 4))


def test_separable_sample_is_valid_and_deterministic():
    for seed in (0, 1, 17):
        rho = separable_sample(seed, 3)
        again = separable_sample(seed, 3)
        assert np.array_equal(rho.mat, again.mat)
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12


def test_separable_sample_rejects_bad_terms():
    with pytest.raises(ValueError, match="terms"):
        separable_sample(0, 0)


def test_partial_transpose_fixes_diagonals():
    d = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.array_equal(partial_transpose(d), d)


def test_partial_transpose_of_entangled_projector():
    pt = partial_transpose(PHI_PLUS)
    w = np.linalg.eigvalsh(pt)
    assert abs(w[0] - (-0.5)) <= 1e-12


def test_separable_samples_have_positive_partial_transpose():
    for seed in range(500):
        rho = separable_sample(seed, 1 + seed % 5)
        w = np.linalg.eigvalsh(partial_transpose(rho))
        assert w[0] >= -1e-9


def test_partial_transpose_rejects_other_shapes():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6) / 6)


def test_random_density_reproducible_full_rank():
    a = random_density(4, 123)
    b = random_density(4, 123)
    assert np.array_equal(a.mat, b.mat)
    assert a.spectrum[0] > 0.0
