"""Boundary mutants of the package.

Flips each comparison in ``src/qbell`` between strict and non-strict (``<`` and
``<=``, ``>`` and ``>=``), one site at a time, and runs the tier-1 suite with
``-x -q`` on each mutant. A mutant survives when the suite still passes: then
no test reaches that comparison at equality, or the two forms agree there.

Every mutant is written into a copy of the repository in a temporary
directory, so the checkout is never edited. Standard library only; run it
from anywhere as ``python tools/mutants.py``.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "qbell"
FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".bench_work", ".benchmarks")
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_S = 900  # a mutant that loops forever counts as killed


def sites(root: Path) -> list:
    """(path relative to ``root``, line, column, operator) of every comparison
    operator in the package, in file and source order. Operators inside strings
    are STRING tokens, so they never count."""
    found = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        src = path.read_text()
        for tok in tokenize.generate_tokens(io.StringIO(src).readline):
            if tok.type == tokenize.OP and tok.string in FLIP:
                found.append((path.relative_to(root), *tok.start, tok.string))
    return found


def mutate(src: str, line: int, col: int, op: str) -> str:
    lines = src.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(op)] == op, (line, col, op, text)
    lines[line - 1] = text[:col] + FLIP[op] + text[col + len(op):]
    return "".join(lines)


def run_suite(root: Path) -> str:
    """'pass', 'fail' or 'timeout' for tier-1 on the tree at ``root``."""
    # No bytecode: two mutants of one file can share its size and mtime second.
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def main() -> int:
    todo = sites(REPO)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="qbell-mutants-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=SKIP)
        if run_suite(root) != "pass":
            print("the unmutated suite does not pass; no mutant was run", file=sys.stderr)
            return 2
        for path, line, col, op in todo:
            target = root / path
            original = target.read_text()
            target.write_text(mutate(original, line, col, op))
            start = time.perf_counter()
            try:
                outcome = run_suite(root)
            finally:
                target.write_text(original)
            status = {"pass": "SURVIVED", "fail": "killed", "timeout": "killed (timeout)"}[outcome]
            code = original.splitlines()[line - 1].strip()
            print(f"{path}:{line}:{col}: {op} -> {FLIP[op]}  {status}  "
                  f"({time.perf_counter() - start:.0f} s)  {code}", flush=True)
            if outcome == "pass":
                survivors.append(f"{path}:{line}:{col}: {op} -> {FLIP[op]}  {code}")

    print(f"\n{len(todo) - len(survivors)} of {len(todo)} mutants killed; "
          f"{len(survivors)} survived")
    for s in survivors:
        print(f"  {s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
