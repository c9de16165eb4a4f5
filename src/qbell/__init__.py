"""qbell: entropic and Bell-CHSH inequality checks for small Hermitian matrices.

Decides whether subadditivity, Araki-Lieb and the CHSH bounds (2 for
separable matrices, 2 sqrt(2) universally) hold for 4x4 (and general
N = n*m) Hermitian unit-trace matrices, and searches measurement settings
that maximize the Bell functional.

The package root re-exports the names that the README example and the
benchmark workloads call; every other name is reached through its module,
such as ``qbell.bell.bell_number`` or ``qbell.errors.QbellError``.
"""

from .appendix import ObservableMatrix, UnitaryQuadruple, appendix_bell_value
from .bell import classify, maximize_bell
from .channels import BlockPartition
from .density import validate
from .entropy import DIVERGENT, check_subadditivity, relative_entropy
from .tomography import EulerAngles, joint_tomogram

__version__ = "0.1.0"
