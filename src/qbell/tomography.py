"""Spin tomograms: rotated-basis outcome distributions of a state.

A measurement direction is a point on the sphere given by azimuth ``phi``
and polar angle ``theta``. The third Euler angle ``psi`` enters the 2x2
unitary only as an outer diagonal phase, which cancels in every diagonal
matrix element; direction-level interfaces therefore fix psi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .density import CLAMP_TOL, HERM_TOL, DensityMatrix


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


def su2(angles: EulerAngles) -> np.ndarray:
    """Special unitary 2x2 rotation for the given Euler angles.

    Rotates the z axis to the direction
    (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)); the residual
    phase psi never affects outcome probabilities.
    """
    half = angles.theta / 2.0
    c, s = math.cos(half), math.sin(half)
    plus = 1j * (angles.psi + angles.phi) / 2.0
    minus = 1j * (angles.psi - angles.phi) / 2.0
    return np.array(
        [
            [c * np.exp(plus), s * np.exp(minus)],
            [-s * np.exp(-minus), c * np.exp(-plus)],
        ],
        dtype=np.complex128,
    )


def tomogram(rho: DensityMatrix, u) -> np.ndarray:
    """Outcome distribution: the diagonal of u rho u†.

    ``u`` must be unitary within ``HERM_TOL`` and match the state's
    dimension. Rounding negatives above ``-CLAMP_TOL`` are clamped to 0.
    """
    um = linalg.require_square(u)
    if um.shape[0] != rho.dim:
        raise ValueError(f"unitary dim {um.shape[0]} does not match state dim {rho.dim}")
    uh = um.conj().T
    gram = uh @ um
    # A fresh C-contiguous product, so ravel() is a view: this subtracts I.
    gram.ravel()[:: rho.dim + 1] -= 1.0
    defect = linalg.max_abs(gram)
    if defect > HERM_TOL:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
    probs = (um @ rho.mat @ uh).diagonal().real.copy()
    probs[(probs < 0.0) & (probs >= -CLAMP_TOL)] = 0.0
    return probs


def joint_tomogram(rho: DensityMatrix, a1: EulerAngles, a2: EulerAngles) -> np.ndarray:
    """Joint outcome distribution of a 4x4 state under a product rotation.

    Outcomes are ordered (+,+), (+,-), (-,+), (-,-) in the two-subsystem
    reading of the four indices.
    """
    if rho.dim != 4:
        raise ValueError(f"joint tomogram needs a 4x4 state, got dim {rho.dim}")
    return tomogram(rho, linalg.kron(su2(a1), su2(a2)))
