import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import EDGE_NEGATIVE_BLOCK, EDGE_SKEW_BLOCKS, EDGE_TRACE, PHI_PLUS
from hypothesis import given, settings
from hypothesis import strategies as st

from qbell import appendix, bell, channels, cli, density, entropy
from qbell.cli import InputError, format_json, main, matrix_to_file_dict, parse_matrix
from qbell.tomography import EulerAngles


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _phi_plus_file(tmp_path):
    return _write(
        tmp_path,
        "phi_plus.json",
        {"dim": 4, "re": [[float(v) for v in row] for row in PHI_PLUS.real], "label": "phi-plus"},
    )


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# Matrix file parsing.

def test_parse_matrix_real_shorthand(tmp_path):
    path = _write(tmp_path, "m.json", {"dim": 2, "re": [[1, 0], [0, 0]]})
    mat, label = parse_matrix(path)
    assert np.array_equal(mat, np.diag([1.0, 0.0]).astype(complex))
    assert label == path


def test_parse_matrix_with_imaginary_part(tmp_path):
    doc = {"dim": 2, "re": [[0, 0], [0, 0]], "im": [[0, 1], [-1, 0]], "label": "y-ish"}
    mat, label = parse_matrix(_write(tmp_path, "m.json", doc))
    assert mat[0, 1] == 1j and mat[1, 0] == -1j
    assert label == "y-ish"


def test_parse_matrix_shape_mismatch(tmp_path):
    path = _write(tmp_path, "m.json", {"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(InputError, match="'re'"):
        parse_matrix(path)


def test_parse_matrix_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n "re": [[1, 0], [0, }')
    with pytest.raises(InputError, match="line 2"):
        parse_matrix(str(path))


def test_parse_matrix_rejects_unknown_fields_and_bad_values(tmp_path):
    with pytest.raises(InputError, match="unknown"):
        parse_matrix(_write(tmp_path, "a.json", {"dim": 1, "re": [[1]], "extra": 1}))
    with pytest.raises(InputError, match="non-numeric"):
        parse_matrix(_write(tmp_path, "b.json", {"dim": 1, "re": [["x"]]}))
    path = tmp_path / "inf.json"
    path.write_text('{"dim": 1, "re": [[Infinity]]}')
    with pytest.raises(InputError, match="non-finite"):
        parse_matrix(str(path))


def test_an_integer_too_large_for_float64_is_invalid_input(tmp_path, capsys):
    path = _write(tmp_path, "big.json", {"dim": 1, "re": [[10**400]]})
    code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "qbell: error: field 're' contains an integer too large for float64\n"


def test_nesting_too_deep_for_the_json_parser_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 1, "re": ' + "[" * 100000 + "]" * 100000 + "}")
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("qbell: error: JSON parse error: maximum recursion depth")


# JSON numbers. JSON integers have no size limit, so some are m * 10**k with
# up to 400 digits: past the float64 range.
_NUMBERS = (st.integers() | st.floats()
            | st.builds(lambda m, k: m * 10**k, st.integers(-9, 9), st.integers(0, 400)))
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                   max_size=4),
    max_leaves=20,
)


def _matrix_doc(n):
    """Documents shaped like an n x n matrix file, so the checks on entries
    are reached; an entry, ``im`` or ``label`` may hold any JSON value."""
    grid = st.lists(st.lists(_NUMBERS | _JSON, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.fixed_dictionaries({"dim": st.just(n), "re": grid}, optional={
        "im": grid | _JSON, "label": st.text(max_size=5) | _JSON,
    })


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(doc=_JSON | st.integers(1, 3).flatmap(_matrix_doc))
def test_parse_matrix_raises_only_input_errors(doc):
    text = json.dumps(doc)
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")))
    try:
        parse_matrix("-")
    except InputError:
        pass
    finally:
        sys.stdin = stdin


_NOT_UTF8 = b'{"dim": 1, "re": [[1]], "label": "\xff"}'


def test_a_matrix_file_that_is_not_utf8_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(_NOT_UTF8)
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"qbell: error: cannot read {path}: not UTF-8 at byte 34"
                            " (invalid start byte)\n")


def test_stdin_that_is_not_utf8_is_invalid_input(monkeypatch, capsys):
    # A text stdin that escapes undecodable bytes, as under a C locale, must
    # not pass the byte on into the label.
    stdin = io.TextIOWrapper(io.BytesIO(_NOT_UTF8), errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    code = main(["check", "-"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("qbell: error: cannot read -: not UTF-8 at byte 34"
                            " (invalid start byte)\n")


# ---------------------------------------------------------------------------
# Subcommands.

def test_check_valid_density(tmp_path, capsys):
    code, rep = _run(capsys, ["check", _phi_plus_file(tmp_path)])
    assert code == 0
    assert rep["command"] == "check"
    assert rep["input_label"] == "phi-plus"
    assert all(v["holds"] for v in rep["verdicts"])
    assert rep["result"]["spectrum"] == [0, 0, 0, 1]


@pytest.mark.parametrize("state", [PHI_PLUS, EDGE_TRACE, EDGE_NEGATIVE_BLOCK],
                         ids=["phi-plus", "trace", "negative-block"])
def test_check_prints_the_verdicts_validate_accepted_the_state_with(tmp_path, capsys, state):
    path = _write(tmp_path, "state.json", matrix_to_file_dict(state))
    code, rep = _run(capsys, ["check", path])
    assert code == 0
    assert rep["verdicts"] == density.validate(state).verdicts
    assert [v["check_name"] for v in rep["verdicts"]] == ["hermiticity", "trace_normalization",
                                                         "positivity"]


def test_check_accepts_a_hermiticity_defect_of_exactly_the_tolerance(tmp_path, capsys):
    # the input's float defect is exactly HERM_TOL
    doc = {"dim": 2, "re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 0], [1e-10, 0]]}
    code, rep = _run(capsys, ["check", _write(tmp_path, "edge.json", doc)])
    assert code == 0
    herm = rep["verdicts"][0]
    assert herm["check_name"] == "hermiticity" and herm["value"] == density.HERM_TOL
    assert herm["holds"] is True and herm["slack"] == 0.0


def test_check_indefinite_matrix_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"dim": 2, "re": [[1.5, 0], [0, -0.5]]})
    code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "negative eigenvalue" in captured.err


def test_check_rejects_a_trace_that_overflows_in_one_line(tmp_path, capsys):
    big = np.diag([1e308, 1e308, -1e308, -1e308])
    path = _write(tmp_path, "big.json", {"dim": 4, "re": big.tolist()})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and caught == []
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("qbell: error: matrix is not a valid density matrix: trace ")


def test_entropy_on_entangled_projector(tmp_path, capsys):
    code, rep = _run(capsys, ["entropy", _phi_plus_file(tmp_path), "--partition", "2", "2"])
    assert code == 0
    assert rep["result"]["s_joint"] == 0
    assert abs(rep["result"]["s_first"] - math.log(2)) <= 1e-12
    assert abs(rep["result"]["s_second"] - math.log(2)) <= 1e-12
    assert all(v["holds"] for v in rep["verdicts"])


def test_entropy_prints_the_margin_in_force(tmp_path, capsys):
    state = np.diag([1 / 9, 8 / 9 + 1e-9, -1e-9, 0.0]).astype(complex)
    path = _write(tmp_path, "edge.json", {**matrix_to_file_dict(state), "label": "edge"})
    code, rep = _run(capsys, ["entropy", path, "--partition", "2", "2"])
    assert code == 0
    sub, al = rep["verdicts"]
    assert sub["margin"] == al["margin"]
    assert 4.7e-8 < sub["margin"] < 4.9e-8
    assert sub["holds"] and -sub["margin"] < sub["slack"] < -1e-9


def test_entropy_rejects_bad_partition(tmp_path, capsys):
    for partition, message in ((("2", "3"), "partition (2, 3) does not factor dimension 4"),
                               (("0", "4"), "partition sizes must be >= 1, got (0, 4)")):
        code = main(["entropy", _phi_plus_file(tmp_path), "--partition", *partition])
        assert code == 2
        assert capsys.readouterr().err == f"qbell: error: {message}\n"


@pytest.mark.parametrize("state", [EDGE_NEGATIVE_BLOCK, EDGE_SKEW_BLOCKS, EDGE_TRACE],
                         ids=["negative-block", "skew-blocks", "trace"])
def test_entropy_accepts_edge_states(tmp_path, capsys, state):
    path = _write(tmp_path, "edge.json", {**matrix_to_file_dict(state), "label": "edge"})
    code, rep = _run(capsys, ["entropy", path, "--partition", "2", "2"])
    assert code == 0
    assert all(v["holds"] for v in rep["verdicts"])


def test_tomogram_along_z(tmp_path, capsys):
    code, rep = _run(
        capsys, ["tomogram", _phi_plus_file(tmp_path), "--angles", "0", "0", "0", "0"]
    )
    assert code == 0
    assert rep["result"]["probabilities"] == [0.5, 0, 0, 0.5]


@pytest.mark.parametrize("state", [PHI_PLUS, EDGE_NEGATIVE_BLOCK, EDGE_TRACE],
                         ids=["phi-plus", "negative-block", "trace"])
@pytest.mark.parametrize("angles", [["0", "-1e-05", "0", "0"], ["0.3", "1.1", "-2.0", "0.7"]])
def test_tomogram_prints_the_normalization_verdict_of_its_probabilities(tmp_path, capsys,
                                                                       state, angles):
    path = _write(tmp_path, "state.json", matrix_to_file_dict(state))
    code, rep = _run(capsys, ["tomogram", path, "--angles", *angles])
    assert code == 0
    assert rep["verdicts"] == [entropy.normalization_verdict(rep["result"]["probabilities"])]


def test_bell_at_optimal_angles(tmp_path, capsys):
    angles = ["0", "0", "0", str(math.pi / 2), "0", str(math.pi / 4), "0", str(-math.pi / 4)]
    code, rep = _run(capsys, ["bell", _phi_plus_file(tmp_path), "--angles", *angles])
    assert code == 0
    assert list(rep["result"]) == ["setting", "bell_number", "value", "classification"]
    assert rep["result"]["value"] == abs(rep["result"]["bell_number"])
    assert abs(rep["result"]["value"] - 2 * math.sqrt(2)) <= 1e-9
    assert rep["result"]["classification"] == "hidden_bell_correlation"
    names = [v["check_name"] for v in rep["verdicts"]]
    assert names == ["separable_bound", "tsirelson_bound"]
    assert not rep["verdicts"][0]["holds"]
    assert rep["verdicts"][1]["holds"]


def test_bell_max_finds_the_optimum(tmp_path, capsys):
    code, rep = _run(
        capsys,
        ["bell-max", _phi_plus_file(tmp_path), "--restarts", "16", "--seed", "7"],
    )
    assert code == 0
    assert list(rep["result"]) == ["setting", "bell_number", "value", "classification"]
    assert rep["result"]["value"] == abs(rep["result"]["bell_number"])
    assert abs(rep["result"]["value"] - 2.8284271) <= 1e-6
    assert rep["result"]["classification"] == "hidden_bell_correlation"
    assert [v["margin"] for v in rep["verdicts"]] == [bell.CLASSIFY_TOL] * 2
    assert rep["seed"] == 7
    assert list(rep["optimizer"]) == ["method", "restarts", "evaluations", "converged",
                                      "step_tol"]
    assert rep["optimizer"]["method"] == "sender_pattern_search_receiver_closed_form"
    assert rep["optimizer"]["restarts"] == 16
    assert rep["optimizer"]["converged"] is True
    assert rep["optimizer"]["step_tol"] == bell.STEP_TOL


@pytest.mark.parametrize("command, options", [("bell-max", []), ("appendix", ["--x", "10"])])
def test_max_evals_is_a_usage_error(tmp_path, capsys, command, options):
    # The per-restart budget is the constant bell.MAX_EVALS: a budget of 0
    # used to exit 0 with |B| = 1.28 for a state whose value is 2 sqrt(2).
    code = main([command, _phi_plus_file(tmp_path), *options, "--max-evals", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unrecognized arguments: --max-evals 0" in captured.err


_FIXED_QUAD = ["--angles", "0", "0", "0", "1.5707963", "0", "0.78539816", "0", "-0.78539816"]


@pytest.mark.parametrize("command, options", [
    ("bell-max", ["--seed", "-1"]),
    ("appendix", ["--x", "10", "--seed", "-1"]),
    ("appendix", ["--x", "10", *_FIXED_QUAD, "--seed", "-1"]),
    ("bell-max", ["--restarts", "0"]),
    ("appendix", ["--x", "10", *_FIXED_QUAD, "--restarts", "0"]),
])
def test_a_negative_seed_is_invalid_input_naming_it(tmp_path, capsys, command, options):
    # A usage error on every path, also where --angles leaves the optimizer idle.
    code = main([command, _phi_plus_file(tmp_path), *options])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    name, value = options[-2:]
    low = {"--seed": 0, "--restarts": 1}[name]
    assert captured.err.splitlines()[-1] == (
        f"qbell {command}: error: argument {name}: must be >= {low}, got {value}"
    )


def test_appendix_with_fixed_angles(tmp_path, capsys):
    angles = ["0", "0", "0", str(math.pi / 2), "0", str(math.pi / 4), "0", str(-math.pi / 4)]
    code, rep = _run(
        capsys, ["appendix", _phi_plus_file(tmp_path), "--x", "10", "--angles", *angles]
    )
    assert code == 0
    assert abs(rep["result"]["value"] - 2 * math.sqrt(2) / 41) <= 1e-12
    assert rep["result"]["min_admissible_x"] == 1
    # the projector has zero eigenvalues, so no positive-observable verdict
    assert [v["check_name"] for v in rep["verdicts"]] == ["tsirelson_bound"]


@pytest.mark.parametrize("command, options, values, message", [
    ("tomogram", [], ["0", "0", "nan", "0"], "--angles value 3 (PHI2) must be finite, got nan"),
    ("bell", [], ["0"] * 7 + ["inf"], "--angles value 8 (c_THETA) must be finite, got inf"),
    ("appendix", ["--x", "10"], ["0", "nan"] + ["0"] * 6,
     "--angles value 2 (u1_THETA) must be finite, got nan"),
    ("tomogram", [], ["0", "-inf", "0", "0"], "--angles value 2 (THETA1) must be finite, got -inf"),
], ids=["tomogram", "bell", "appendix", "tomogram-negative-inf"])
def test_non_finite_angles_name_the_value(tmp_path, capsys, command, options, values, message):
    code = main([command, _phi_plus_file(tmp_path), *options, "--angles", *values])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"qbell {command}: error: {message}"


@pytest.mark.parametrize("command, options, values", [
    ("tomogram", [], ["0", "-1e-3", "0", "-2.5E-1"]),
    ("bell", [], ["-1e-3", "0", "-2e0", "1", "0", "-7.5e-1", "0", "-1e-05"]),
    ("appendix", ["--x", "10"], ["0", "-1e-3", "0", "1", "-2e-1", "0", "0", "-1e-05"]),
], ids=["tomogram", "bell", "appendix"])
def test_exponent_form_negative_angles_are_values(tmp_path, capsys, command, options, values):
    # argparse alone takes "-1e-3" for an option; it must read as -0.001 does.
    path = _phi_plus_file(tmp_path)
    reports = []
    for form in (values, [f"{float(v):.10f}" for v in values]):
        code, rep = _run(capsys, [command, path, *options, "--angles", *form])
        assert code == 0
        del rep["wall_time_ms"]
        reports.append(rep)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("x, shown", [("-1e-3", "-0.001"), ("-inf", "-inf")])
def test_exponent_form_negative_x_reaches_the_domain_check(tmp_path, capsys, x, shown):
    code = main(["appendix", _phi_plus_file(tmp_path), "--x", x])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"qbell: error: x must strictly exceed the largest |eigenvalue| 1.0; got {shown}"
    ]


@pytest.mark.parametrize("angles", [None, ["0", "0", "0", "1.5", "0", "0.7", "0", "-0.7"]],
                         ids=["optimizer", "fixed-angles"])
def test_appendix_builds_and_validates_rho_of_x_once(tmp_path, capsys, monkeypatch, angles):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(appendix, "rho_of_x", counted("rho_of_x", appendix.rho_of_x))
    original = density.validate
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "qbell"]:
        if getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", counted("validate", original))
    argv = ["appendix", _phi_plus_file(tmp_path), "--x", "10", "--restarts", "1"]
    code, rep = _run(capsys, argv + (["--angles", *angles] if angles else []))
    assert code == 0
    assert calls == {"rho_of_x": 1, "validate": 1}
    # the value is still appendix_bell_value's, bit for bit
    quad = rep["result"]["quadruple"]
    quad = appendix.UnitaryQuadruple(**{k: EulerAngles(**v) for k, v in quad.items()})
    f = appendix.ObservableMatrix(PHI_PLUS)
    assert rep["result"]["value"] == appendix.appendix_bell_value(f, 10.0, quad)


@pytest.mark.parametrize("which", ["phi_plus", "small_scale"])
def test_appendix_at_its_printed_quadruple_prints_the_same_value_and_verdicts(
        tmp_path, capsys, which):
    # Both paths read the value through appendix_bell_value at the same setting.
    path, x = ((_phi_plus_file(tmp_path), "10") if which == "phi_plus"
               else _observable_file(tmp_path, which))
    code, searched = _run(capsys, ["appendix", path, "--x", x])
    quad = searched["result"]["quadruple"]
    angles = [repr(quad[u][k]) for u in ("u1", "u2", "u3", "u4") for k in ("phi", "theta")]
    fixed_code, fixed = _run(capsys, ["appendix", path, "--x", x, "--angles", *angles])
    assert code == fixed_code == 0
    assert fixed["result"] == searched["result"]
    assert fixed["verdicts"] == searched["verdicts"]
    assert searched["verdicts"][0]["value"] == searched["result"]["value"]


def test_bell_max_leaves_numpy_random_unimported(tmp_path):
    # numpy.random costs about 6 MB and 19 ms to import. numpy >= 2 loads it on
    # first use only; older numpy loads it with numpy, so compare with that.
    script = ("import json, sys\n"
              "import numpy\n"
              "before = 'numpy.random' in sys.modules\n"
              "from qbell.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(json.dumps([code, before, 'numpy.random' in sys.modules]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    argv = ["bell-max", _phi_plus_file(tmp_path), "--restarts", "2", "--seed", "3"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, before, after = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert after == before


def test_check_reports_the_defect_validate_compared(tmp_path, capsys):
    # A subnormal asymmetry is reported as it is, not as its rounded half.
    state = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    state[0, 1] = 5e-324
    path = _write(tmp_path, "tiny.json", {**matrix_to_file_dict(state), "label": "tiny"})
    code, rep = _run(capsys, ["check", path])
    assert code == 0
    assert rep["verdicts"][0]["value"] == density.hermitian_part(parse_matrix(path)[0])[1] == 5e-324


@pytest.mark.parametrize("command, options, mat, want", [
    ("tomogram", ["--angles", "0", "0", "0", "0"], np.eye(3) / 3, 4),
    ("bell", ["--angles", *["0"] * 8], np.eye(3) / 3, 4),
    ("bell-max", [], np.eye(3) / 3, 4),
    ("appendix", ["--x", "10"], np.eye(3) / 3, 4),
    ("embed-qutrit", [], PHI_PLUS, 3),
    # The dimension is checked before validation, so it is named first.
    ("tomogram", ["--angles", "0", "0", "0", "0"], np.diag([-0.1, 0.6, 0.5]), 4),
], ids=["tomogram-options0", "bell-options1", "bell-max-options2", "appendix-options3",
        "embed-qutrit-4x4", "tomogram-not-psd"])
def test_a_4x4_subcommand_names_itself_for_another_dimension(tmp_path, capsys, command, options,
                                                              mat, want):
    path = _write(tmp_path, "m.json", {**matrix_to_file_dict(mat.astype(complex)), "label": "m"})
    code = main([command, path, *options])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"qbell: error: {command} subcommand needs a {want}x{want} matrix, got dim {len(mat)}"
    ]


@pytest.mark.parametrize("command, options, dim", [
    ("check", [], 4),
    ("entropy", ["--partition", "2", "2"], 4),
    ("tomogram", ["--angles", "0", "0", "0", "0"], 4),
    ("bell", ["--angles", *["0"] * 8], 4),
    ("bell-max", [], 4),
    ("appendix", ["--x", "10"], 4),
    ("embed-qutrit", [], 3),
])
def test_every_subcommand_rejects_an_invalid_matrix_of_its_dimension(tmp_path, capsys, command,
                                                                      options, dim):
    mat = np.eye(dim, dtype=complex) / dim
    mat[0, 1] += 1e-3  # not Hermitian: neither a state nor an observable
    path = _write(tmp_path, "bad.json", {**matrix_to_file_dict(mat), "label": "bad"})
    code = main([command, path, *options])
    captured = capsys.readouterr()
    kind = "observable" if command == "appendix" else "density matrix"
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"qbell: error: matrix is not a valid {kind}: ")


def test_appendix_rejects_inadmissible_x(tmp_path, capsys):
    code = main(["appendix", _phi_plus_file(tmp_path), "--x", "0.5"])
    assert code == 2
    assert "strictly exceed" in capsys.readouterr().err


def _observable_file(tmp_path, which):
    """An observable and a shift that rho(x) used to reject: a small scale, whose
    accepted hermiticity defect 4x + Tr f = 0.3 tripled, and a near-scalar f,
    for which 4x + Tr f cancels to about 4e-10."""
    if which == "small_scale":
        m = np.diag([0.01, 0.02, 0.03, 0.04]).astype(complex)
        m[0, 1] = 9e-11
        x = 0.05
    else:
        g = np.random.default_rng(5).standard_normal((4, 8)).view(complex)
        m = -np.eye(4) + 1e-10 * (g + g.conj().T) / 2
        x = appendix.min_admissible_x(appendix.ObservableMatrix(m)) * (1 + 1e-12)
    return _write(tmp_path, f"{which}.json", {**matrix_to_file_dict(m), "label": which}), repr(x)


@pytest.mark.parametrize("which", ["small_scale", "near_scalar"])
def test_appendix_accepts_what_the_observable_accepted(tmp_path, capsys, which):
    path, x = _observable_file(tmp_path, which)
    code, rep = _run(capsys, ["appendix", path, "--x", x, "--restarts", "1"])
    assert code == 0
    assert rep["result"]["x"] == float(x)
    assert abs(sum(rep["result"]["rho_x_spectrum"]) - 1.0) <= 1e-12


def test_appendix_prints_the_margin_of_each_bound(tmp_path, capsys):
    angles = ["0", "0", "0", str(math.pi / 2), "0", str(math.pi / 4), "0", str(-math.pi / 4)]
    _, rep = _run(capsys, ["appendix", _phi_plus_file(tmp_path), "--x", "10", "--angles", *angles])
    assert [(v["check_name"], v["margin"]) for v in rep["verdicts"]] == [
        ("tsirelson_bound", 1e-6)]
    path, x = _observable_file(tmp_path, "small_scale")
    _, rep = _run(capsys, ["appendix", path, "--x", x, "--angles", *angles])
    assert [(v["check_name"], v["margin"]) for v in rep["verdicts"]] == [
        ("tsirelson_bound", 1e-6), ("observable_bound", density.PSD_TOL)]


def test_appendix_prints_the_verdicts_of_bound_verdicts(tmp_path, capsys):
    rng = np.random.default_rng(40)
    g = rng.standard_normal((4, 8)).view(complex)
    for m, x in ((np.diag([0.01, 0.02, 0.03, 0.04]), 0.05), (g @ g.conj().T + np.eye(4), 50.0)):
        path = _write(tmp_path, "f.json", matrix_to_file_dict(m.astype(complex)))
        angles = rng.uniform(0.0, 2.0 * math.pi, 8)
        code, rep = _run(capsys, ["appendix", path, "--x", repr(x),
                                  "--angles", *map(repr, angles.tolist())])
        quad = appendix.UnitaryQuadruple(*(EulerAngles(*angles[k:k + 2]) for k in range(0, 8, 2)))
        f = appendix.ObservableMatrix(parse_matrix(path)[0])
        assert code == 0
        assert rep["verdicts"] == appendix.bound_verdicts(f, rep["result"]["value"], quad)
        assert rep["verdicts"][-1]["check_name"] == "observable_bound"


def test_appendix_at_a_trace_below_2_to_the_minus_1024_prints_a_report(tmp_path, capsys):
    path = _write(tmp_path, "zero.json", matrix_to_file_dict(np.zeros((4, 4), dtype=complex)))
    code, rep = _run(capsys, ["appendix", path, "--x", "5e-324", "--restarts", "1"])
    assert code == 0
    assert rep["result"]["value"] == 0.0
    assert rep["result"]["rho_x_spectrum"] == [0.25] * 4


@pytest.mark.parametrize("failing, want", [
    ((), 0),
    (("separable_bound",), 0),
    (("tsirelson_bound",), 1),
    (("separable_bound", "observable_bound"), 1),
])
def test_main_exits_1_exactly_when_a_verdict_other_than_the_separable_bound_fails(
        tmp_path, capsys, monkeypatch, failing, want):
    assert bell.FINDINGS == ("separable_bound",)
    names = ("separable_bound", "tsirelson_bound", "observable_bound")
    body = {"verdicts": [{"check_name": n, "holds": n not in failing} for n in names]}
    monkeypatch.setattr(cli, "cmd_check", lambda rho, args: body)
    assert main(["check", _phi_plus_file(tmp_path)]) == want
    assert json.loads(capsys.readouterr().out)["verdicts"] == body["verdicts"]


def test_appendix_rejects_infinite_x_without_warnings(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["appendix", _phi_plus_file(tmp_path), "--x", "inf"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["qbell: error: x must be finite; got inf"]
    assert caught == []


def test_embed_qutrit_round_trips(tmp_path, capsys):
    third = 1 / 3
    path = _write(
        tmp_path,
        "qutrit.json",
        {"dim": 3, "re": [[third, 0, 0], [0, third, 0], [0, 0, third]], "label": "q3"},
    )
    code, doc = _run(capsys, ["embed-qutrit", path])
    assert code == 0
    assert doc["dim"] == 4
    assert doc["label"] == "q3"
    assert doc["re"][3] == [0, 0, 0, 0]
    # output parses as a matrix file again
    out_path = tmp_path / "embedded.json"
    out_path.write_text(json.dumps(doc))
    mat, _ = parse_matrix(str(out_path))
    assert mat.shape == (4, 4)


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


_OPTIMAL_ANGLES = ["0", "0", "0", str(math.pi / 2), "0", str(math.pi / 4), "0", str(-math.pi / 4)]
_EVERY_SUBCOMMAND = {
    "check": [],
    "entropy": ["--partition", "2", "2"],
    "tomogram": ["--angles", "0", "0", "0", "0"],
    "bell": ["--angles", *_OPTIMAL_ANGLES],
    "bell-max": [],
    "appendix": ["--x", "10"],
    "embed-qutrit": [],
}


def _float_fields(doc):
    """Each verdict's value, bound and slack, each angle and each matrix entry."""
    for v in doc.get("verdicts", ()):
        yield from (v["value"], v["bound"], v["slack"])
    result = doc.get("result", {})
    for group in ("angles", "setting", "quadruple"):
        for direction in result.get(group, {}).values():
            yield from (direction["phi"], direction["theta"])
    for part in ("re", "im"):
        for row in doc.get(part, ()):
            yield from row


@pytest.mark.parametrize("command", list(_EVERY_SUBCOMMAND))
def test_reports_round_trip_byte_identically(tmp_path, capsys, command):
    if command == "embed-qutrit":
        q3 = {"dim": 3, "re": [[0.5, 0, 0], [0, 0.25, 0], [0, 0, 0.25]]}
        path = _write(tmp_path, "q3.json", q3)
    else:
        path = _phi_plus_file(tmp_path)
    assert main([command, path, *_EVERY_SUBCOMMAND[command]]) == 0
    text = capsys.readouterr().out.strip()
    doc = json.loads(text)
    assert format_json(doc) == text
    # An integral float keeps its ".0": the separable bound reads back as 2.0, not 2.
    fields = list(_float_fields(doc))
    assert fields and all(type(v) is float for v in fields)
    # Every verdict is decided by the one rule and prints the margin it used.
    assert "tolerances" not in doc
    for v in doc.get("verdicts", ()):
        assert list(v) == ["check_name", "value", "bound", "margin", "holds", "slack"]
        assert type(v["margin"]) is float
        assert v["holds"] == (v["slack"] >= -v["margin"])


def test_cli_verdicts_agree_with_the_library_at_the_edges(tmp_path, capsys, monkeypatch):
    for state in (EDGE_NEGATIVE_BLOCK, EDGE_SKEW_BLOCKS, EDGE_TRACE):
        path = _write(tmp_path, "edge.json", {**matrix_to_file_dict(state), "label": "edge"})
        _, rep = _run(capsys, ["entropy", path, "--partition", "2", "2"])
        lib = entropy.check_subadditivity(density.validate(state), channels.BlockPartition(2, 2))
        assert [v["margin"] for v in rep["verdicts"]] == [lib.margin] * 2
        assert [v["holds"] for v in rep["verdicts"]] == [lib.subadditivity_holds,
                                                        lib.araki_lieb_holds]
    # |B| = fl(2 + CLASSIFY_TOL) lies just beyond the separable bound's margin.
    edge = bell.SEPARABLE_BOUND + bell.CLASSIFY_TOL
    for value, within in ((edge, False), (float(np.nextafter(edge, 0.0)), True)):
        monkeypatch.setattr(bell, "bell_number", lambda rho, setting: value)
        code, rep = _run(capsys, ["bell", _phi_plus_file(tmp_path), "--angles", *["0"] * 8])
        separable = rep["verdicts"][0]
        assert code == 0 and separable["value"] == value
        assert separable["holds"] is within
        assert (rep["result"]["classification"] == "within_separable_bound") is within


@pytest.mark.parametrize("state", [EDGE_NEGATIVE_BLOCK, EDGE_SKEW_BLOCKS, EDGE_TRACE],
                         ids=["negative-block", "skew-blocks", "trace"])
def test_entropy_prints_the_verdicts_of_check_subadditivity(tmp_path, capsys, state):
    path = _write(tmp_path, "edge.json", matrix_to_file_dict(state))
    _, rep = _run(capsys, ["entropy", path, "--partition", "2", "2"])
    lib = entropy.check_subadditivity(density.validate(state), channels.BlockPartition(2, 2))
    assert rep["verdicts"] == lib.verdicts
    sub, al = lib.verdicts
    assert (lib.subadditivity_holds, lib.araki_lieb_holds) == (sub["holds"], al["holds"])
    assert (lib.slack_sub, lib.slack_al) == (sub["slack"], al["slack"])
    assert lib.mutual_information == sub["slack"]


def test_matrix_file_dict_round_trip(tmp_path):
    mat = PHI_PLUS + 0j
    doc = {**matrix_to_file_dict(mat), "label": "x"}
    path = tmp_path / "round.json"
    path.write_text(format_json(doc))
    back, label = parse_matrix(str(path))
    assert label == "x"
    assert np.array_equal(back, mat)
