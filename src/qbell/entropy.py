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
from .density import DensityMatrix

NUM_TOL = 1e-9
EPS_SUPPORT = 1e-12


class Divergent:
    """Marker for an infinite relative entropy.

    A distinguished singleton rather than ``float('inf')`` so reports can
    serialize it portably.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DIVERGENT"


DIVERGENT = Divergent()


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
    """Joint and reduced entropies plus both inequality verdicts (nats)."""

    s_joint: float
    s_first: float
    s_second: float
    mutual_information: float
    subadditivity_holds: bool
    araki_lieb_holds: bool
    slack_sub: float
    slack_al: float


def check_subadditivity(rho: DensityMatrix, p: BlockPartition) -> EntropyReport:
    """Verify S(joint) <= S(first) + S(second) (subadditivity) and
    S(joint) >= |S(first) - S(second)| (Araki-Lieb) for the given block partition."""
    s_joint = von_neumann(rho)
    s_first = von_neumann(block_trace_first(rho, p))
    s_second = von_neumann(block_trace_second(rho, p))
    mutual = s_first + s_second - s_joint
    slack_al = s_joint - abs(s_first - s_second)
    return EntropyReport(
        s_joint=s_joint,
        s_first=s_first,
        s_second=s_second,
        mutual_information=mutual,
        subadditivity_holds=mutual >= -NUM_TOL,
        araki_lieb_holds=slack_al >= -NUM_TOL,
        slack_sub=mutual,
        slack_al=slack_al,
    )


def relative_entropy(w1, w2):
    """Kullback-Leibler divergence sum w1 ln(w1/w2) between two distributions.

    Entries of ``w1`` at or below the support cutoff contribute nothing;
    if ``w1`` has support where ``w2`` has none the result is the
    :data:`DIVERGENT` marker.
    """
    a = np.asarray(w1, dtype=float)
    b = np.asarray(w2, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"expected two equal-length vectors, got {a.shape} and {b.shape}")
    for name, v in (("w1", a), ("w2", b)):
        if np.min(v) < -EPS_SUPPORT:
            raise ValueError(f"{name} has negative entry {np.min(v)}")
        if abs(float(np.sum(v)) - 1.0) > NUM_TOL:
            raise ValueError(f"{name} sums to {float(np.sum(v))}, expected 1")
    total = 0.0
    for p, q in zip(a, b):
        if p <= EPS_SUPPORT:
            continue
        if q <= EPS_SUPPORT:
            return DIVERGENT
        total += p * math.log(p / q)
    return total
