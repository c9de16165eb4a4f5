"""Command-line interface: JSON matrix files in, JSON verdict reports out.

Matrix file schema::

    {"dim": 4, "re": [[...], ...], "im": [[...], ...], "label": "name"}

``im`` defaults to all zeros and ``label`` to the file path. Each subparser
declares its handler and its input: a dimension (or any) and a kind, a state
or an observable. :func:`_load` checks the dimension, then validates; the
handler returns the report body, and :func:`main` wraps it in the envelope
and decides the exit code.
Reports are emitted on stdout with a fixed key order (command, input_label,
verdicts, tolerances, seed, optimizer, result, wall_time_ms) by ``json.dumps``:
every float prints in Python's shortest round-trip form and parses back to the
same float, and an integral float keeps its ``.0``.
``wall_time_ms`` is the only nondeterministic field and always comes last.

Exit codes: 1 exactly when a verdict other than ``separable_bound`` fails (a
violated inequality or bound), 2 invalid input or usage, 0 otherwise.
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


def matrix_to_file_dict(mat: np.ndarray, label=None) -> dict:
    out = {
        "dim": int(mat.shape[0]),
        "re": [[float(v) for v in row] for row in mat.real],
        "im": [[float(v) for v in row] for row in mat.imag],
    }
    if label is not None:
        out["label"] = label
    return out


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


def _verdict(check_name: str, value: float, bound: float, holds: bool, slack: float) -> dict:
    return {"check_name": check_name, "value": float(value), "bound": float(bound),
            "holds": bool(holds), "slack": float(slack)}


def _angles_dict(a: tomography.EulerAngles) -> dict:
    return {"phi": a.phi, "theta": a.theta}


def _setting_dict(s: bl.BellSetting) -> dict:
    return {k: _angles_dict(getattr(s, k)) for k in ("a", "d", "b", "c")}


# ---------------------------------------------------------------------------
# Subcommand handlers: each maps the loaded input to its report body.

def cmd_check(rho, args):
    herm = density.hermitian_part(rho.mat)[1]  # the defect validate compared
    tr_dev = abs(complex(np.trace(rho.mat)) - 1.0)
    min_eig = float(rho.spectrum[0])
    verdicts = [
        _verdict("hermiticity", herm, density.HERM_TOL, True, density.HERM_TOL - herm),
        _verdict("trace_normalization", tr_dev, density.TRACE_TOL, True,
                 density.TRACE_TOL - tr_dev),
        _verdict("positivity", min_eig, -density.PSD_TOL, True, min_eig + density.PSD_TOL),
    ]
    tol = {"herm_tol": density.HERM_TOL, "trace_tol": density.TRACE_TOL,
           "psd_tol": density.PSD_TOL}
    result = {"dim": rho.dim, "spectrum": [float(v) for v in rho.spectrum]}
    return {"verdicts": verdicts, "tolerances": tol, "result": result}


def cmd_entropy(rho, args):
    n, m = args.partition
    if n * m != rho.dim:
        raise InputError(f"partition {n}x{m} does not factor dimension {rho.dim}")
    rep = entropy.check_subadditivity(rho, channels.BlockPartition(n, m))
    verdicts = [
        _verdict("subadditivity", rep.s_joint, rep.s_first + rep.s_second,
                 rep.subadditivity_holds, rep.slack_sub),
        _verdict("araki_lieb", rep.s_joint, abs(rep.s_first - rep.s_second),
                 rep.araki_lieb_holds, rep.slack_al),
    ]
    tol = {"num_tol": density.PSD_TOL, "entropy_margin": rep.margin}
    result = {
        "partition": {"n": n, "m": m},
        "s_joint": rep.s_joint,
        "s_first": rep.s_first,
        "s_second": rep.s_second,
        "mutual_information": rep.mutual_information,
    }
    return {"verdicts": verdicts, "tolerances": tol, "result": result}


def cmd_tomogram(rho, args):
    phi1, th1, phi2, th2 = args.angles
    probs = tomography.joint_tomogram(
        rho, tomography.EulerAngles(phi1, th1), tomography.EulerAngles(phi2, th2)
    )
    total = float(np.sum(probs))
    holds = abs(total - 1.0) <= density.PSD_TOL
    verdicts = [_verdict("normalization", total, 1.0, holds,
                         density.PSD_TOL - abs(total - 1.0))]
    tol = {"num_tol": density.PSD_TOL, "clamp_tol": density.CLAMP_TOL}
    result = {
        "angles": {"first": {"phi": phi1, "theta": th1},
                   "second": {"phi": phi2, "theta": th2}},
        "probabilities": [float(p) for p in probs],
    }
    return {"verdicts": verdicts, "tolerances": tol, "result": result}


def _bell_verdicts(value: float, names=("separable_bound", "tsirelson_bound")) -> list:
    bounds = {"separable_bound": bl.SEPARABLE_BOUND, "tsirelson_bound": bl.TSIRELSON_BOUND}
    holds = dict(zip(bounds, bl.bounds_hold(value)))
    return [_verdict(n, value, bounds[n], holds[n], bounds[n] - value) for n in names]


def cmd_bell(rho, args):
    setting = bl.BellSetting.from_flat(args.angles)
    b = bl.bell_number(rho, setting)
    value = abs(b)
    result = {"setting": _setting_dict(setting), "bell_number": b, "abs_value": value,
              "classification": bl.classify(value).value}
    return {"verdicts": _bell_verdicts(value), "tolerances": {"classify_tol": bl.CLASSIFY_TOL},
            "result": result}


def cmd_bell_max(rho, args):
    rep = bl.maximize_bell(rho, restarts=args.restarts, seed=args.seed)
    result = {"value": rep.value, "setting": _setting_dict(rep.setting),
              "classification": bl.classify(rep).value}
    return {"verdicts": _bell_verdicts(rep.value),
            "tolerances": {"classify_tol": bl.CLASSIFY_TOL, "step_tol": bl.STEP_TOL},
            "seed": args.seed, "optimizer": dataclasses.asdict(rep.stats), "result": result}


def cmd_appendix(f, args):
    rho = apx.rho_of_x(f, args.x)
    if args.angles is not None:
        setting, optimizer = bl.BellSetting.from_flat(args.angles), None
    else:
        opt = bl.maximize_bell(rho, restarts=args.restarts, seed=args.seed)
        setting, optimizer = opt.setting, dataclasses.asdict(opt.stats)
    quad = apx.UnitaryQuadruple(u1=setting.a, u2=setting.d, u3=setting.b, u4=setting.c)
    value = abs(bl.bell_number(rho, setting))

    verdicts = _bell_verdicts(value, ("tsirelson_bound",))
    tol = {"classify_tol": bl.CLASSIFY_TOL}
    result = {
        "x": float(args.x),
        "min_admissible_x": apx.min_admissible_x(f),
        "quadruple": {k: _angles_dict(getattr(quad, k)) for k in ("u1", "u2", "u3", "u4")},
        "value": value,
        "rho_x_spectrum": [float(v) for v in rho.spectrum],
    }
    if float(f.spectrum[0]) > 0.0:
        chk = apx.observable_bound_check(f, quad)
        verdicts.append(_verdict("observable_bound", chk.value, chk.bound,
                                 chk.holds, chk.slack))
        result["observable_check"] = {"value": chk.value, "bound": chk.bound, "holds": chk.holds}
        tol["num_tol"] = density.PSD_TOL  # the margin of BoundCheck.holds
    body = {"verdicts": verdicts, "tolerances": tol}
    if optimizer is not None:
        body.update(seed=args.seed, optimizer=optimizer)
    body["result"] = result
    return body


def cmd_embed_qutrit(rho3, args):
    return matrix_to_file_dict(np.asarray(density.embed_qutrit(rho3).mat))


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
                   metavar=tuple(f"{n}_{x}" for n in ("a", "d", "b", "c") for x in ("PHI", "THETA")),
                   help="radians: phi and theta for directions a, d, b, c")

    p = subcommand("bell-max", cmd_bell_max, "maximize |Bell number| over settings", dim=4)
    _add_optimizer_args(p)

    p = subcommand("appendix", cmd_appendix, "shifted-observable Bell bounds", dim=4,
                   kind="observable")
    p.add_argument("--x", type=float, required=True,
                   help="shift; must exceed the largest |eigenvalue| of the matrix")
    p.add_argument("--angles", type=float, nargs=8, default=None, action=_Angles,
                   metavar=tuple(f"u{k}_{x}" for k in (1, 2, 3, 4) for x in ("PHI", "THETA")),
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
    # Exceeding the separable bound is a finding, not a violated check.
    return int(any(not v["holds"] for v in body.get("verdicts", ())
                   if v["check_name"] != "separable_bound"))


if __name__ == "__main__":
    sys.exit(main())
