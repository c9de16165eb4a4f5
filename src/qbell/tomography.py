"""Spin tomograms: rotated-basis outcome distributions of a state.

A measurement direction is a point on the sphere given by azimuth ``phi``
and polar angle ``theta``. The third Euler angle ``psi`` of a rotation taking
the z axis there is an outer phase that cancels in every outcome probability,
so the spin projectors here ignore it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import CLAMP_TOL, HERM_TOL, DensityMatrix, require_square


@dataclass(frozen=True)
class EulerAngles:
    """SU(2) rotation angles (radians); all values must be finite."""

    phi: float
    theta: float
    psi: float = 0.0

    def __post_init__(self):
        for name in ("phi", "theta", "psi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"angle {name} must be finite")


def _clamped(probs: np.ndarray) -> np.ndarray:
    probs[(probs < 0.0) & (probs >= -CLAMP_TOL)] = 0.0  # rounding negatives read as 0
    return probs


def tomogram(rho: DensityMatrix, u) -> np.ndarray:
    """Outcome distribution: the diagonal of u rho u†.

    ``u`` must be unitary within ``HERM_TOL`` and match the state's
    dimension. Rounding negatives at or above ``-CLAMP_TOL`` are clamped to 0.
    """
    um = require_square(u)
    if um.shape[0] != rho.dim:
        raise ValueError(f"unitary dim {um.shape[0]} does not match state dim {rho.dim}")
    uh = um.conj().T
    gram = uh @ um
    # A fresh C-contiguous product, so ravel() is a view: this subtracts I.
    gram.ravel()[:: rho.dim + 1] -= 1.0
    defect = float(np.abs(gram).max())
    if defect > HERM_TOL:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
    return _clamped((um @ rho.mat @ uh).diagonal().real.copy())


def _projectors(a: EulerAngles) -> np.ndarray:
    """The (2, 2, 2) spin projectors (I +- n.sigma)/2 along ``a``; exact on the z axis."""
    s, z = math.sin(a.theta), math.cos(a.theta)
    low = complex(s * math.cos(a.phi), s * math.sin(a.phi)) / 2.0  # (n_x + i n_y) / 2
    up, plus, minus = low.conjugate(), (1.0 + z) / 2.0, (1.0 - z) / 2.0
    entries = (plus, up, low, minus, minus, -up, -low, plus)
    return np.array(entries, dtype=np.complex128).reshape(2, 2, 2)


def joint_tomogram(rho: DensityMatrix, a1: EulerAngles, a2: EulerAngles) -> np.ndarray:
    """Joint outcome distribution of a 4x4 state for spin measurements along ``a1``
    and ``a2``, ordered (+,+), (+,-), (-,+), (-,-): Re Tr(rho (P_s kron P_t)), clamped."""
    if rho.dim != 4:
        raise ValueError(f"joint tomogram needs a 4x4 state, got dim {rho.dim}")
    # rho[(i, k), (j, l)] P_s[j, i] P_t[l, k], summed over i, j, k, l
    t = np.einsum("ikjl,sji,tlk->st", rho.mat.reshape(2, 2, 2, 2), _projectors(a1), _projectors(a2))
    return _clamped(t.real).ravel()
