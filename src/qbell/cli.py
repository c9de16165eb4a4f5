"""Command-line interface: JSON matrix files in, JSON verdict reports out.

Matrix file schema::

    {"dim": 4, "re": [[...], ...], "im": [[...], ...], "label": "name"}

``im`` defaults to all zeros and ``label`` to the file path. Reports are
emitted on stdout with a fixed key order (command, input_label, verdicts,
tolerances, seed, optimizer, result, wall_time_ms); every float is printed
with 17 significant digits so reports round-trip exactly. ``wall_time_ms``
is the only nondeterministic field and always comes last.

Exit codes: 0 all requested checks hold, 1 an inequality is violated
(universal-ceiling exceedance), 2 invalid input or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
# JSON emission with reproducible float formatting.

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x}")
    return format(x, ".17g")


def format_json(obj) -> str:
    """Serialize a report; dict order is preserved, floats use 17 digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(format_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {format_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Matrix-file ingestion.

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


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
# Report assembly.

def _verdict(check_name: str, value: float, bound: float, holds: bool, slack: float) -> dict:
    return {
        "check_name": check_name,
        "value": float(value),
        "bound": float(bound),
        "holds": bool(holds),
        "slack": float(slack),
    }


def _report(command, input_label, verdicts, tolerances, result, seed=None, optimizer=None):
    rep = {"command": command, "input_label": input_label, "verdicts": verdicts,
           "tolerances": tolerances}
    if seed is not None:
        rep["seed"] = seed
    if optimizer is not None:
        rep["optimizer"] = optimizer
    rep["result"] = result
    return rep


def _angles_dict(a: tomography.EulerAngles) -> dict:
    return {"phi": a.phi, "theta": a.theta}


def _setting_dict(s: bl.BellSetting) -> dict:
    return {k: _angles_dict(getattr(s, k)) for k in ("a", "d", "b", "c")}


def _validated(mat) -> density.DensityMatrix:
    try:
        return density.validate(mat)
    except QbellError as e:
        raise InputError(f"matrix is not a valid density matrix: {e}") from e


def _validated_4x4(args):
    """The validated 4x4 state named by ``args.matrix``, and its label."""
    mat, label = parse_matrix(args.matrix)
    rho = _validated(mat)
    if rho.dim != 4:
        raise InputError(f"{args.command} subcommand needs a 4x4 matrix, got dim {rho.dim}")
    return rho, label


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report, exit_code).

def cmd_check(args):
    mat, label = parse_matrix(args.matrix)
    rho = _validated(mat)
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    tr_dev = abs(complex(np.trace(mat)) - 1.0)
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
    return _report("check", label, verdicts, tol, result), 0


def cmd_entropy(args):
    mat, label = parse_matrix(args.matrix)
    rho = _validated(mat)
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
    code = 0 if (rep.subadditivity_holds and rep.araki_lieb_holds) else 1
    return _report("entropy", label, verdicts, tol, result), code


def cmd_tomogram(args):
    rho, label = _validated_4x4(args)
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
    return _report("tomogram", label, verdicts, tol, result), 0 if holds else 1


def _bell_verdicts(value: float, names=("separable_bound", "tsirelson_bound")) -> list:
    bounds = {"separable_bound": bl.SEPARABLE_BOUND, "tsirelson_bound": bl.TSIRELSON_BOUND}
    holds = dict(zip(bounds, bl.bounds_hold(value)))
    return [_verdict(n, value, bounds[n], holds[n], bounds[n] - value) for n in names]


def cmd_bell(args):
    rho, label = _validated_4x4(args)
    setting = bl.BellSetting.from_flat(args.angles)
    b = bl.bell_number(rho, setting)
    value = abs(b)
    cls = bl.classify(value)
    tol = {"classify_tol": bl.CLASSIFY_TOL}
    result = {
        "setting": _setting_dict(setting),
        "bell_number": b,
        "abs_value": value,
        "classification": cls.value,
    }
    code = 1 if cls is bl.BellClass.TSIRELSON_VIOLATION_ERROR else 0
    return _report("bell", label, _bell_verdicts(value), tol, result), code


def cmd_bell_max(args):
    rho, label = _validated_4x4(args)
    rep = bl.maximize_bell(rho, restarts=args.restarts, seed=args.seed)
    cls = bl.classify(rep)
    tol = {"classify_tol": bl.CLASSIFY_TOL, "step_tol": bl.STEP_TOL}
    result = {
        "value": rep.value,
        "setting": _setting_dict(rep.setting),
        "classification": cls.value,
    }
    code = 1 if cls is bl.BellClass.TSIRELSON_VIOLATION_ERROR else 0
    return _report("bell-max", label, _bell_verdicts(rep.value), tol, result,
                   seed=args.seed, optimizer=dataclasses.asdict(rep.stats)), code


def cmd_appendix(args):
    mat, label = parse_matrix(args.matrix)
    try:
        f = apx.ObservableMatrix(mat)
    except QbellError as e:
        raise InputError(f"matrix is not a valid observable: {e}") from e
    rho = apx.rho_of_x(f, args.x)

    if args.angles is not None:
        setting, optimizer = bl.BellSetting.from_flat(args.angles), None
    else:
        opt = bl.maximize_bell(rho, restarts=args.restarts, seed=args.seed)
        setting, optimizer = opt.setting, dataclasses.asdict(opt.stats)
    quad = apx.UnitaryQuadruple(u1=setting.a, u2=setting.d, u3=setting.b, u4=setting.c)
    value = apx.appendix_bell_value(f, args.x, quad)

    verdicts = _bell_verdicts(value, ("tsirelson_bound",))
    tol = {"classify_tol": bl.CLASSIFY_TOL}
    result = {
        "x": float(args.x),
        "min_admissible_x": apx.min_admissible_x(f),
        "quadruple": {k: _angles_dict(getattr(quad, k)) for k in ("u1", "u2", "u3", "u4")},
        "value": value,
        "rho_x_spectrum": [float(v) for v in rho.spectrum],
        # The stochastic-matrix contraction against the tensor form.
        "consistency_gap": abs(value - abs(bl.bell_number(rho, setting))),
    }
    if float(f.spectrum[0]) > 0.0:
        chk = apx.observable_bound_check(f, quad)
        verdicts.append(_verdict("observable_bound", chk.value, chk.bound,
                                 chk.holds, chk.slack))
        result["observable_check"] = {"value": chk.value, "bound": chk.bound, "holds": chk.holds}
    code = 0 if all(v["holds"] for v in verdicts) else 1
    return _report("appendix", label, verdicts, tol, result,
                   seed=(args.seed if optimizer is not None else None),
                   optimizer=optimizer), code


def cmd_embed_qutrit(args):
    mat, label = parse_matrix(args.matrix)
    if mat.shape != (3, 3):
        raise InputError(f"embed-qutrit needs a 3x3 matrix, got shape {mat.shape}")
    rho3 = _validated(mat)
    rho4 = density.embed_qutrit(rho3)
    doc = matrix_to_file_dict(np.asarray(rho4.mat), label=label)
    return doc, 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.

def _add_matrix_arg(p):
    p.add_argument("matrix", help="matrix file path, or - for stdin")


def _add_optimizer_args(p):
    p.add_argument("--restarts", type=int, default=8, help="optimizer restarts (default 8)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbell",
        description="Entropic and Bell-CHSH inequality checks for small Hermitian matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a density matrix")
    _add_matrix_arg(p)

    p = sub.add_parser("entropy", help="subadditivity and Araki-Lieb checks")
    _add_matrix_arg(p)
    p.add_argument("--partition", type=int, nargs=2, required=True, metavar=("N", "M"),
                   help="block partition: N outer blocks of size M")

    p = sub.add_parser("tomogram", help="joint outcome distribution under a product rotation")
    _add_matrix_arg(p)
    p.add_argument("--angles", type=float, nargs=4, required=True,
                   metavar=("PHI1", "THETA1", "PHI2", "THETA2"),
                   help="radians for the two measurement directions")

    p = sub.add_parser("bell", help="Bell number at a fixed setting")
    _add_matrix_arg(p)
    p.add_argument("--angles", type=float, nargs=8, required=True,
                   metavar=tuple(f"{n}_{x}" for n in ("a", "d", "b", "c") for x in ("PHI", "THETA")),
                   help="radians: phi and theta for directions a, d, b, c")

    p = sub.add_parser("bell-max", help="maximize |Bell number| over settings")
    _add_matrix_arg(p)
    _add_optimizer_args(p)

    p = sub.add_parser("appendix", help="shifted-observable Bell bounds")
    _add_matrix_arg(p)
    p.add_argument("--x", type=float, required=True,
                   help="shift; must exceed the largest |eigenvalue| of the matrix")
    p.add_argument("--angles", type=float, nargs=8, default=None,
                   metavar=tuple(f"u{k}_{x}" for k in (1, 2, 3, 4) for x in ("PHI", "THETA")),
                   help="radians for the rotation quadruple (default: optimizer search)")
    _add_optimizer_args(p)

    p = sub.add_parser("embed-qutrit", help="embed a 3x3 density matrix into 4x4")
    _add_matrix_arg(p)

    return parser


_HANDLERS = {
    "check": cmd_check,
    "entropy": cmd_entropy,
    "tomogram": cmd_tomogram,
    "bell": cmd_bell,
    "bell-max": cmd_bell_max,
    "appendix": cmd_appendix,
    "embed-qutrit": cmd_embed_qutrit,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; preserve both.
        return int(e.code) if e.code else 0
    start = time.perf_counter()
    try:
        report, code = _HANDLERS[args.command](args)
    except (InputError, ValueError) as e:
        print(f"qbell: error: {e}", file=sys.stderr)
        return 2
    if args.command != "embed-qutrit":
        report["wall_time_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    print(format_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
