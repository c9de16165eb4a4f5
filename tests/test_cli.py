import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from conftest import EDGE_NEGATIVE_BLOCK, EDGE_SKEW_BLOCKS, PHI_PLUS
from hypothesis import given, settings
from hypothesis import strategies as st

from qbell.cli import InputError, format_json, main, matrix_to_file_dict, parse_matrix


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
    sys.stdin = io.StringIO(text)
    try:
        parse_matrix("-")
    except InputError:
        pass
    finally:
        sys.stdin = stdin


# ---------------------------------------------------------------------------
# Subcommands.

def test_check_valid_density(tmp_path, capsys):
    code, rep = _run(capsys, ["check", _phi_plus_file(tmp_path)])
    assert code == 0
    assert rep["command"] == "check"
    assert rep["input_label"] == "phi-plus"
    assert all(v["holds"] for v in rep["verdicts"])
    assert rep["result"]["spectrum"] == [0, 0, 0, 1]


def test_check_indefinite_matrix_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"dim": 2, "re": [[1.5, 0], [0, -0.5]]})
    code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "negative eigenvalue" in captured.err


def test_entropy_on_entangled_projector(tmp_path, capsys):
    code, rep = _run(capsys, ["entropy", _phi_plus_file(tmp_path), "--partition", "2", "2"])
    assert code == 0
    assert rep["result"]["s_joint"] == 0
    assert abs(rep["result"]["s_first"] - math.log(2)) <= 1e-12
    assert abs(rep["result"]["s_second"] - math.log(2)) <= 1e-12
    assert all(v["holds"] for v in rep["verdicts"])


def test_entropy_prints_the_margin_in_force(tmp_path, capsys):
    state = np.diag([1 / 9, 8 / 9 + 1e-9, -1e-9, 0.0]).astype(complex)
    path = _write(tmp_path, "edge.json", matrix_to_file_dict(state, label="edge"))
    code, rep = _run(capsys, ["entropy", path, "--partition", "2", "2"])
    assert code == 0
    assert list(rep["tolerances"]) == ["num_tol", "entropy_margin"]
    assert rep["tolerances"]["num_tol"] == 1e-9
    assert 4.7e-8 < rep["tolerances"]["entropy_margin"] < 4.9e-8
    sub = rep["verdicts"][0]
    assert sub["holds"] and -rep["tolerances"]["entropy_margin"] < sub["slack"] < -1e-9


def test_entropy_rejects_bad_partition(tmp_path, capsys):
    code = main(["entropy", _phi_plus_file(tmp_path), "--partition", "2", "3"])
    assert code == 2
    assert "does not factor" in capsys.readouterr().err


@pytest.mark.parametrize("state", [EDGE_NEGATIVE_BLOCK, EDGE_SKEW_BLOCKS],
                         ids=["negative-block", "skew-blocks"])
def test_entropy_accepts_edge_states(tmp_path, capsys, state):
    path = _write(tmp_path, "edge.json", matrix_to_file_dict(state, label="edge"))
    code, rep = _run(capsys, ["entropy", path, "--partition", "2", "2"])
    assert code == 0
    assert all(v["holds"] for v in rep["verdicts"])


def test_tomogram_along_z(tmp_path, capsys):
    code, rep = _run(
        capsys, ["tomogram", _phi_plus_file(tmp_path), "--angles", "0", "0", "0", "0"]
    )
    assert code == 0
    assert rep["result"]["probabilities"] == [0.5, 0, 0, 0.5]


def test_bell_at_optimal_angles(tmp_path, capsys):
    angles = ["0", "0", "0", str(math.pi / 2), "0", str(math.pi / 4), "0", str(-math.pi / 4)]
    code, rep = _run(capsys, ["bell", _phi_plus_file(tmp_path), "--angles", *angles])
    assert code == 0
    assert abs(rep["result"]["abs_value"] - 2 * math.sqrt(2)) <= 1e-9
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
    assert abs(rep["result"]["value"] - 2.8284271) <= 1e-6
    assert rep["result"]["classification"] == "hidden_bell_correlation"
    assert rep["seed"] == 7
    assert rep["optimizer"]["restarts"] == 16
    assert rep["optimizer"]["converged"] is True


@pytest.mark.parametrize("command, options", [("bell-max", []), ("appendix", ["--x", "10"])])
def test_max_evals_is_a_usage_error(tmp_path, capsys, command, options):
    # The per-restart budget is the constant bell.MAX_EVALS: a budget of 0
    # used to exit 0 with |B| = 1.28 for a state whose value is 2 sqrt(2).
    code = main([command, _phi_plus_file(tmp_path), *options, "--max-evals", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unrecognized arguments: --max-evals 0" in captured.err


def test_appendix_with_fixed_angles(tmp_path, capsys):
    angles = ["0", "0", "0", str(math.pi / 2), "0", str(math.pi / 4), "0", str(-math.pi / 4)]
    code, rep = _run(
        capsys, ["appendix", _phi_plus_file(tmp_path), "--x", "10", "--angles", *angles]
    )
    assert code == 0
    assert abs(rep["result"]["value"] - 2 * math.sqrt(2) / 41) <= 1e-12
    assert rep["result"]["min_admissible_x"] == 1
    assert rep["result"]["consistency_gap"] <= 1e-12
    # the projector has zero eigenvalues, so no positive-observable verdict
    assert [v["check_name"] for v in rep["verdicts"]] == ["tsirelson_bound"]


def test_appendix_rejects_inadmissible_x(tmp_path, capsys):
    code = main(["appendix", _phi_plus_file(tmp_path), "--x", "0.5"])
    assert code == 2
    assert "strictly exceed" in capsys.readouterr().err


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


def test_reports_round_trip_byte_identically(tmp_path, capsys):
    angles = ["0", "0", "0", str(math.pi / 2), "0", str(math.pi / 4), "0", str(-math.pi / 4)]
    main(["bell", _phi_plus_file(tmp_path), "--angles", *angles])
    text = capsys.readouterr().out.strip()
    assert format_json(json.loads(text)) == text


def test_matrix_file_dict_round_trip(tmp_path):
    mat = PHI_PLUS + 0j
    doc = matrix_to_file_dict(mat, label="x")
    path = tmp_path / "round.json"
    path.write_text(format_json(doc))
    back, label = parse_matrix(str(path))
    assert label == "x"
    assert np.array_equal(back, mat)
