"""qbell: entropic and Bell-CHSH inequality checks for small Hermitian matrices.

Decides whether subadditivity, Araki-Lieb and the CHSH bounds (2 for
separable matrices, 2 sqrt(2) universally) hold for 4x4 (and general
N = n*m) Hermitian unit-trace matrices, and searches measurement settings
that maximize the Bell functional.
"""

from .appendix import (
    BoundCheck,
    ObservableMatrix,
    UnitaryQuadruple,
    appendix_bell_value,
    min_admissible_x,
    observable_bound_check,
    rho_of_x,
    separable_observable_check,
    stochastic_omega,
)
from .bell import (
    CLASSIFY_TOL,
    SEPARABLE_BOUND,
    SIGN_MATRIX,
    TSIRELSON_BOUND,
    BellClass,
    BellReport,
    BellSetting,
    OptimizerStats,
    bell_number,
    classify,
    correlation_tensor,
    maximize_bell,
)
from .channels import BlockPartition, block_trace_first, block_trace_second
from .density import (
    DensityMatrix,
    SeparableDecomposition,
    embed_qutrit,
    partial_transpose,
    random_density,
    random_separable,
    separable_sample,
    validate,
)
from .entropy import (
    DIVERGENT,
    EntropyReport,
    check_subadditivity,
    relative_entropy,
    von_neumann,
)
from .errors import (
    DomainError,
    HermiticityError,
    PositivityError,
    QbellError,
    TraceError,
)
from .linalg import kron
from .tomography import EulerAngles, joint_tomogram, su2, tomogram

__version__ = "0.1.0"

__all__ = [
    "BoundCheck", "ObservableMatrix", "UnitaryQuadruple", "appendix_bell_value",
    "min_admissible_x", "observable_bound_check", "rho_of_x",
    "separable_observable_check", "stochastic_omega",
    "CLASSIFY_TOL", "SEPARABLE_BOUND", "SIGN_MATRIX", "TSIRELSON_BOUND",
    "BellClass", "BellReport", "BellSetting", "OptimizerStats", "bell_number",
    "classify", "correlation_tensor", "maximize_bell",
    "BlockPartition", "block_trace_first", "block_trace_second",
    "DensityMatrix", "SeparableDecomposition", "embed_qutrit",
    "partial_transpose", "random_density", "random_separable",
    "separable_sample", "validate",
    "DIVERGENT", "EntropyReport", "check_subadditivity", "relative_entropy", "von_neumann",
    "DomainError", "HermiticityError", "PositivityError", "QbellError", "TraceError",
    "kron", "EulerAngles", "joint_tomogram", "su2", "tomogram",
    "__version__",
]
