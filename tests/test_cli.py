import json
import math
import warnings

import numpy as np
import pytest
from conftest import EDGE_NEGATIVE_BLOCK, EDGE_SKEW_BLOCKS, PHI_PLUS

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


def test_bell_max_seed_env_fallback(tmp_path, capsys, monkeypatch):
    path = _phi_plus_file(tmp_path)
    monkeypatch.setenv("QBELL_SEED", "7")
    _, rep_env = _run(capsys, ["bell-max", path, "--restarts", "4"])
    monkeypatch.delenv("QBELL_SEED")
    _, rep_flag = _run(capsys, ["bell-max", path, "--restarts", "4", "--seed", "7"])
    assert rep_env["result"] == rep_flag["result"]
    assert rep_env["seed"] == 7


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
