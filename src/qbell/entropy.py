"""Von Neumann entropy and the entropic inequality checks.

Entropies are always computed from spectra, never from a dense matrix
logarithm, so rank-deficient states need no special casing. All logarithms
are natural; results are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import BlockPartition, block_trace_first, block_trace_second
from .density import CLAMP_TOL, HERM_TOL, PSD_TOL, DensityMatrix


# The relative entropy of distributions with disjoint support.
DIVERGENT = math.inf


def von_neumann(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * ln(lam)) over the spectrum, with 0 ln 0 = 0.

    Tiny negative eigenvalues left by the positivity tolerance count as
    zero, like exact zeros.
    """
    spectrum = rho.spectrum
    lams = spectrum[spectrum > 0.0]
    s = float(-(lams * np.log(lams)).sum())
    # an eigenvalue a rounding error above 1 can push the sum below zero
    return s if s > 0.0 else 0.0


@dataclass(frozen=True)
class EntropyReport:
    """Joint and reduced entropies plus both inequality verdicts (nats), and
    the margin by which a slack may read below zero and still hold."""

    s_joint: float
    s_first: float
    s_second: float
    mutual_information: float
    subadditivity_holds: bool
    araki_lieb_holds: bool
    slack_sub: float
    slack_al: float
    margin: float


def _entropy_margin(rho: DensityMatrix) -> float:
    """How far below zero an entropic slack of ``rho`` may read and still hold:
    ``PSD_TOL``, widened by the total weight delta of the negative eigenvalues
    ``validate`` accepts. The reduced matrices lie delta in trace below those
    of the positive part P, which moves a reduced entropy by at most
    delta ln(dim / delta) (Weyl, concavity of -x ln x); P's trace 1 + delta
    moves a slack by about 3 delta more."""
    delta = -float(rho.spectrum[rho.spectrum < 0.0].sum())
    if delta == 0.0:
        return PSD_TOL
    return PSD_TOL + delta * (4.0 + math.log(rho.dim) - 2.0 * math.log(delta))


def check_subadditivity(rho: DensityMatrix, p: BlockPartition) -> EntropyReport:
    """Verify S(joint) <= S(first) + S(second) (subadditivity) and
    S(joint) >= |S(first) - S(second)| (Araki-Lieb) for the given block
    partition, each within :func:`_entropy_margin`."""
    s_joint = von_neumann(rho)
    s_first = von_neumann(block_trace_first(rho, p))
    s_second = von_neumann(block_trace_second(rho, p))
    mutual = s_first + s_second - s_joint
    slack_al = s_joint - abs(s_first - s_second)
    margin = _entropy_margin(rho)
    return EntropyReport(
        s_joint=s_joint,
        s_first=s_first,
        s_second=s_second,
        mutual_information=mutual,
        subadditivity_holds=mutual >= -margin,
        araki_lieb_holds=slack_al >= -margin,
        slack_sub=mutual,
        slack_al=slack_al,
        margin=margin,
    )


def relative_entropy(w1, w2):
    """Kullback-Leibler divergence sum w1 ln(w1/w2) between two distributions.

    Entries of ``w1`` at or below ``CLAMP_TOL`` contribute nothing;
    if ``w1`` has support where ``w2`` has none the result is
    :data:`DIVERGENT`, which is ``math.inf``. The result is never negative.
    """
    a = np.asarray(w1, dtype=float)
    b = np.asarray(w2, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"expected two equal-length vectors, got {a.shape} and {b.shape}")
    for name, v in (("w1", a), ("w2", b)):
        # A tomogram of a state validate accepted can read as low as -PSD_TOL,
        # less the rounding of u rho u†, at most HERM_TOL.
        if np.min(v) < -(PSD_TOL + HERM_TOL):
            raise ValueError(f"{name} has negative entry {np.min(v)}")
        if abs(float(np.sum(v)) - 1.0) > PSD_TOL:
            raise ValueError(f"{name} sums to {float(np.sum(v))}, expected 1")
    total = 0.0
    for p, q in zip(a, b):
        if p <= CLAMP_TOL:
            continue
        if q <= CLAMP_TOL:
            return DIVERGENT
        total += p * math.log(p / q)
    # Entries within tolerance of a distribution can push the sum below zero.
    return total if total >= 0.0 else 0.0
