"""Command-line interface: JSON matrix files in, JSON verdict reports out.

Matrix file schema::

    {"dim": 4, "re": [[...], ...], "im": [[...], ...], "label": "name"}

``im`` defaults to all zeros and ``label`` to the file path. Each subparser
declares its handler and its input: a dimension (or any) and a kind, a state
or an observable. :func:`_load` checks the dimension, then validates; the
handler returns the report body, and :func:`main` wraps it in the envelope
and decides the exit code. ``bell``, ``bell-max`` and ``appendix`` share one
Bell stage, :func:`_bell_stage`: the setting from ``--angles``, or from the
optimizer without them. Each then reads one Bell value there and decides its
verdicts on it: ``bell_number`` of the state, or ``appendix_bell_value`` of
the observable.
Every verdict, with keys in the order check_name, value, bound, margin, holds,
slack, is decided with its margin by the module that owns its rule (``check``'s
by ``validate``), and printed as it comes back; the handlers name no tolerance.
Reports are emitted on stdout with a fixed key order (command, input_label,
verdicts, seed, optimizer, result, wall_time_ms) by ``json.dumps``:
every float prints in Python's shortest round-trip form and parses back to the
same float, and an integral float keeps its ``.0``.
``wall_time_ms`` is the only nondeterministic field and always comes last.

Exit codes: 1 exactly when a verdict that is not a finding (``bell.FINDINGS``)
fails (a violated inequality or bound), 2 invalid input or usage, 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import time

import numpy as np

from . import appendix as apx
from . import bell as bl
from . import channels, density, entropy, tomography
from .errors import QbellError

SCHEMA_HELP = '{"dim": n, "re": [[...]], "im": [[...]], "label": "..."}'


class InputError(Exception):
    """Problem with user-supplied files or arguments; exits with code 2."""


# ---------------------------------------------------------------------------
# JSON emission.

def format_json(obj) -> str:
    """Serialize a report: dict order kept, floats in shortest round-trip form."""
    return json.dumps(obj, allow_nan=False)


# ---------------------------------------------------------------------------
# Matrix-file ingestion.

def _read_text(path: str) -> str:
    try:
        if path == "-":  # as bytes, so stdin decodes as strictly as a file
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8 at byte {e.start} ({e.reason})") from None


def _as_real_grid(name: str, value, dim: int):
    if (
        not isinstance(value, list)
        or len(value) != dim
        or any(not isinstance(row, list) or len(row) != dim for row in value)
    ):
        raise InputError(f"field {name!r} must be a {dim}x{dim} array of numbers")
    grid = []
    for row in value:
        out_row = []
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise InputError(f"field {name!r} contains a non-numeric entry {v!r}")
            try:
                x = float(v)
            except OverflowError:
                raise InputError(f"field {name!r} contains an integer too large for float64") from None
            if not math.isfinite(x):
                raise InputError(f"field {name!r} contains a non-finite entry {v!r}")
            out_row.append(x)
        grid.append(out_row)
    return grid


def parse_matrix(path: str):
    """Read a matrix file (or stdin for '-'); returns (matrix, label)."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (RecursionError, ValueError) as e:  # nesting too deep, an integer too long
        raise InputError(f"JSON parse error: {e}") from None
    if not isinstance(doc, dict):
        raise InputError(f"matrix file must be a JSON object: {SCHEMA_HELP}")
    unknown = set(doc) - {"dim", "re", "im", "label"}
    if unknown:
        raise InputError(f"unknown matrix-file fields: {sorted(unknown)}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError("field 'dim' must be a positive integer")
    if "re" not in doc:
        raise InputError("field 're' is required")
    re_grid = _as_real_grid("re", doc["re"], dim)
    if "im" in doc:
        im_grid = _as_real_grid("im", doc["im"], dim)
    else:
        im_grid = [[0.0] * dim for _ in range(dim)]
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError("field 'label' must be a string")
    mat = np.array(re_grid, dtype=np.complex128) + 1j * np.array(im_grid, dtype=np.complex128)
    return mat, (label if label is not None else path)


def matrix_to_file_dict(mat: np.ndarray) -> dict:
    return {"dim": int(mat.shape[0]), "re": mat.real.tolist(), "im": mat.imag.tolist()}


# ---------------------------------------------------------------------------
# Input loading and report assembly.

def _load(args):
    """The state or observable ``args.matrix`` names, dimension checked first, and its label."""
    mat, label = parse_matrix(args.matrix)
    if args.dim is not None and mat.shape[0] != args.dim:
        raise InputError(f"{args.command} subcommand needs a {args.dim}x{args.dim} matrix, "
                         f"got dim {mat.shape[0]}")
    try:
        data = apx.ObservableMatrix(mat) if args.kind == "observable" else density.validate(mat)
    except QbellError as e:
        raise InputError(f"matrix is not a valid {args.kind}: {e}") from e
    return data, label


def _angles_dict(a: tomography.EulerAngles) -> dict:
    return {"phi": a.phi, "theta": a.theta}


def _directions_dict(record) -> dict:
    """A setting's or a quadruple's directions, keyed by field name in field order."""
    return {f.name: _angles_dict(getattr(record, f.name)) for f in dataclasses.fields(record)}


# ---------------------------------------------------------------------------
# Subcommand handlers: each maps the loaded input to its report body.

def cmd_check(rho, args):
    result = {"dim": rho.dim, "spectrum": rho.spectrum.tolist()}
    return {"verdicts": rho.verdicts, "result": result}


def cmd_entropy(rho, args):
    n, m = args.partition
    rep = entropy.check_subadditivity(rho, channels.BlockPartition(n, m))
    result = {
        "partition": {"n": n, "m": m},
        "s_joint": rep.s_joint,
        "s_first": rep.s_first,
        "s_second": rep.s_second,
        "mutual_information": rep.mutual_information,
    }
    return {"verdicts": rep.verdicts, "result": result}


def cmd_tomogram(rho, args):
    first, second = (tomography.EulerAngles(*args.angles[k:k + 2]) for k in (0, 2))
    probs = tomography.joint_tomogram(rho, first, second).tolist()
    result = {
        "angles": {"first": _angles_dict(first), "second": _angles_dict(second)},
        "probabilities": probs,
        "clamp_tol": tomography.CLAMP_TOL,
    }
    return {"verdicts": [entropy.normalization_verdict(probs)], "result": result}


def _bell_stage(rho, args):
    """The setting ``--angles`` names, or else the one ``maximize_bell`` finds
    for ``rho``, and the report body the Bell subcommands share: the seed and
    optimizer's :class:`~qbell.bell.OptimizerStats`, when the optimizer ran."""
    body = {"verdicts": []}  # report order
    if args.angles is not None:
        return bl.BellSetting.from_flat(args.angles), body
    opt = bl.maximize_bell(rho, restarts=args.restarts, seed=args.seed)
    body.update(seed=args.seed, optimizer=dataclasses.asdict(opt.stats))
    return opt.setting, body


def cmd_bell(rho, args):
    setting, body = _bell_stage(rho, args)
    b = bl.bell_number(rho, setting)
    body["verdicts"] = bl.bound_verdicts(b)
    body["result"] = {"setting": _directions_dict(setting), "bell_number": b, "value": abs(b),
                      "classification": bl.classify(abs(b)).value}
    return body


def cmd_appendix(f, args):
    rho = apx.rho_of_x(f, args.x)
    setting, body = _bell_stage(rho, args)
    quad = apx.UnitaryQuadruple(*(getattr(setting, f.name) for f in dataclasses.fields(setting)))
    value = apx.appendix_bell_value(f, args.x, quad)
    body["verdicts"] = apx.bound_verdicts(f, value, quad)
    body["result"] = {
        "x": float(args.x),
        "min_admissible_x": apx.min_admissible_x(f),
        "quadruple": _directions_dict(quad),
        "value": value,
        "rho_x_spectrum": rho.spectrum.tolist(),
    }
    return body


def cmd_embed_qutrit(rho3, args):
    return matrix_to_file_dict(density.embed_qutrit(rho3).mat)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.

def _int_from(low: int):
    """An argparse type: an integer of at least ``low``, else a usage error naming it."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # a non-integer still reads "invalid int value"
    return parse


def _add_optimizer_args(p):
    p.add_argument("--restarts", type=_int_from(1), default=8,
                   help="optimizer restarts (default 8)")
    p.add_argument("--seed", type=_int_from(0), default=0, help="PRNG seed (default 0)")


class _Angles(argparse.Action):  # a value that is not finite is a usage error naming it
    def __call__(self, parser, namespace, values, option_string=None):
        for k, (name, v) in enumerate(zip(self.metavar, values), 1):
            if not math.isfinite(v):
                parser.error(f"--angles value {k} ({name}) must be finite, got {v}")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # argparse alone reads -1e-3 and -inf as options
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbell",
        description="Entropic and Bell-CHSH inequality checks for small Hermitian matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help, dim=None, kind="density matrix"):
        p = sub.add_parser(name, help=help)
        p.add_argument("matrix", help="matrix file path, or - for stdin")
        p.set_defaults(handler=handler, dim=dim, kind=kind)
        return p

    subcommand("check", cmd_check, "validate a density matrix")

    p = subcommand("entropy", cmd_entropy, "subadditivity and Araki-Lieb checks")
    p.add_argument("--partition", type=int, nargs=2, required=True, metavar=("N", "M"),
                   help="block partition: N outer blocks of size M")

    p = subcommand("tomogram", cmd_tomogram,
                   "joint outcome distribution under a product rotation", dim=4)
    p.add_argument("--angles", type=float, nargs=4, required=True, action=_Angles,
                   metavar=("PHI1", "THETA1", "PHI2", "THETA2"),
                   help="radians for the two measurement directions")

    p = subcommand("bell", cmd_bell, "Bell number at a fixed setting", dim=4)
    p.add_argument("--angles", type=float, nargs=8, required=True, action=_Angles,
                   metavar=tuple(f"{f.name}_{x}" for f in dataclasses.fields(bl.BellSetting)
                                 for x in ("PHI", "THETA")),
                   help="radians: phi and theta for directions a, d, b, c")

    p = subcommand("bell-max", cmd_bell, "maximize |Bell number| over settings", dim=4)
    p.set_defaults(angles=None)
    _add_optimizer_args(p)

    p = subcommand("appendix", cmd_appendix, "shifted-observable Bell bounds", dim=4,
                   kind="observable")
    p.add_argument("--x", type=float, required=True,
                   help="shift; must exceed the largest |eigenvalue| of the matrix")
    p.add_argument("--angles", type=float, nargs=8, default=None, action=_Angles,
                   metavar=tuple(f"{f.name}_{x}" for f in dataclasses.fields(apx.UnitaryQuadruple)
                                 for x in ("PHI", "THETA")),
                   help="radians for the rotation quadruple (default: optimizer search)")
    _add_optimizer_args(p)

    subcommand("embed-qutrit", cmd_embed_qutrit, "embed a 3x3 density matrix into 4x4", dim=3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; preserve both.
        return int(e.code) if e.code else 0
    start = time.perf_counter()
    try:
        data, label = _load(args)
        body = args.handler(data, args)
    except (InputError, ValueError) as e:
        print(f"qbell: error: {e}", file=sys.stderr)
        return 2
    if args.command == "embed-qutrit":  # a matrix file, piped back in as input
        report = {**body, "label": label}
    else:
        wall_time_ms = round((time.perf_counter() - start) * 1000.0, 3)
        report = {"command": args.command, "input_label": label, **body,
                  "wall_time_ms": wall_time_ms}
    print(format_json(report))
    return int(any(not v["holds"] for v in body.get("verdicts", ())
                   if v["check_name"] not in bl.FINDINGS))


if __name__ == "__main__":
    sys.exit(main())
