"""The README's Python example runs and prints what its comments claim, and
the package root exports only the names that the README and the benchmark call."""

import math
import re
import types
from pathlib import Path

import qbell
from qbell.bell import BellClass

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_prints_what_it_claims(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    first, second = capsys.readouterr().out.splitlines()

    holds, mutual = first.split()
    assert holds == "True"
    assert abs(float(mutual) - 2 * math.log(2)) <= 1e-12

    # The comment on the last print reads "# ~<digits>..., <classification>".
    digits, label = re.search(r"# ~([\d.]+)\.\.\., (\w+)", code).groups()
    value, cls = second.split()
    assert value.startswith(digits)
    assert abs(float(value) - 2 * math.sqrt(2)) <= 1e-6
    assert cls == label == BellClass.HIDDEN_BELL_CORRELATION.value


def test_the_package_root_exports_only_the_names_its_callers_reach():
    public = {n for n, v in vars(qbell).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == {
        "BlockPartition", "DIVERGENT", "EulerAngles", "ObservableMatrix", "UnitaryQuadruple",
        "appendix_bell_value", "check_subadditivity", "classify", "joint_tomogram",
        "maximize_bell", "relative_entropy", "validate",
    }
    assert qbell.__version__ == "0.1.0"
