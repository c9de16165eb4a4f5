"""The README's Python example runs and prints what its comments claim."""

import math
import re
from pathlib import Path

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
    assert cls == str(BellClass(label)) == str(BellClass.HIDDEN_BELL_CORRELATION)
