import json
import math

import numpy as np
import pytest

from qperc.cli import main
from qperc.gates import generate_set, standard_gate
from qperc.serialize import parse_model, parse_training_set, serialize_training_set


def _write_set(tmp_path, name, gate, mode, seed=0):
    path = tmp_path / name
    s = generate_set(standard_gate(gate), mode, seed=seed)
    path.write_text(serialize_training_set(s))
    return str(path)


def _contradictory_file(tmp_path):
    path = tmp_path / "contradictory.json"
    doc = {
        "dim": 2,
        "pairs": [
            {"x": [[1, 0], [0, 0]], "y": [[1, 0], [0, 0]]},
            {"x": [[1, 0], [0, 0]], "y": [[0, 0], [1, 0]]},
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_train_writes_model_file(tmp_path, capsys):
    set_path = _write_set(tmp_path, "h.json", "H", "complete")
    out = tmp_path / "model.json"
    assert main(["train", set_path, "--out", str(out)]) == 0
    model = parse_model(out.read_text())
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    np.testing.assert_allclose(model.unitary.array, h, atol=1e-9)


def test_train_to_stdout(tmp_path, capsys):
    set_path = _write_set(tmp_path, "s.json", "S", "complete")
    assert main(["train", set_path]) == 0
    model = parse_model(capsys.readouterr().out)
    assert model.dim == 2


def test_train_predict_pipeline(tmp_path, capsys):
    set_path = _write_set(tmp_path, "h.json", "H", "over", seed=4)
    out = tmp_path / "model.json"
    main(["train", set_path, "--out", str(out)])
    assert main(["predict", str(out), "--state", "[1, 0]", "--json"]) == 0
    amps = json.loads(capsys.readouterr().out)
    got = [complex(re, im) for re, im in amps]
    half = 1 / math.sqrt(2)
    np.testing.assert_allclose(got, [half, half], atol=1e-9)


def test_predict_reads_state_from_file(tmp_path, capsys):
    set_path = _write_set(tmp_path, "c.json", "CNOT", "complete")
    out = tmp_path / "model.json"
    main(["train", set_path, "--out", str(out)])
    state_file = tmp_path / "state.json"
    state_file.write_text("[0, 0, 0, 1]")
    assert main(["predict", str(out), "--state", "@" + str(state_file), "--json"]) == 0
    amps = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose([complex(re, im) for re, im in amps], [0, 0, 1, 0], atol=1e-12)


def test_predict_normalize_flag(tmp_path, capsys):
    set_path = _write_set(tmp_path, "h.json", "H", "complete")
    out = tmp_path / "model.json"
    main(["train", set_path, "--out", str(out)])
    assert main(["predict", str(out), "--state", "[3, 3]"]) == 2
    assert main(["predict", str(out), "--state", "[3, 3]", "--normalize", "--json"]) == 0
    amps = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose([complex(re, im) for re, im in amps], [1, 0], atol=1e-9)


def _error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


# A JSON integer too large for a float.
BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "state",
    ['["a", 1]', "[[1]]", "[1, [0]]", "[true, 1]", "{}", "[]", "[0, 0]", pytest.param("[%s, 0]" % BIG, id="400-digit")],
)
def test_predict_normalize_rejects_malformed_amplitudes(tmp_path, capsys, state):
    set_path = _write_set(tmp_path, "h.json", "H", "complete")
    out = tmp_path / "model.json"
    main(["train", set_path, "--out", str(out)])
    capsys.readouterr()
    assert main(["predict", str(out), "--state", state, "--normalize"]) == 2
    assert len(_error_lines(capsys.readouterr().err)) == 1


@pytest.mark.parametrize("rank_tol", ['"abc"', "null", "true", "-1", "NaN", "Infinity", "1" + "0" * 400])
def test_model_with_bad_rank_tol_exits_2(tmp_path, capsys, rank_tol):
    set_path = _write_set(tmp_path, "h.json", "H", "complete")
    out = tmp_path / "model.json"
    main(["train", set_path, "--out", str(out)])
    doc = json.loads(out.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"rank_tol": 1e-10', '"rank_tol": ' + rank_tol))
    capsys.readouterr()
    assert main(["predict", str(bad), "--state", "[1, 0]"]) == 2
    assert len(_error_lines(capsys.readouterr().err)) == 1


@pytest.mark.parametrize("rank_tol", ["nan", "inf", "-inf", "-1"])
def test_train_rejects_non_finite_or_negative_rank_tol(tmp_path, capsys, rank_tol):
    set_path = _write_set(tmp_path, "h.json", "H", "complete")
    capsys.readouterr()
    assert main(["train", set_path, "--rank-tol", rank_tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(_error_lines(captured.err)) == 1


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_validate_rejects_non_finite_or_negative_tol(capsys, tol):
    assert main(["validate", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(_error_lines(captured.err)) == 1


@pytest.mark.parametrize("command", ["gen-set", "baseline"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    args = ["gen-set", "h", "--mode", "over"] if command == "gen-set" else [
        "baseline", _write_set(tmp_path, "h.json", "H", "complete"), "--init", "seeded"
    ]
    assert main(args + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(_error_lines(captured.err)) == 1


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(b'{"dim": 2, "note": "caf\xe9"}', id="not-utf-8"),
        pytest.param(("[" * 5000 + "]" * 5000).encode(), id="nested-5000-deep"),
        pytest.param(('{"dim": 1, "pairs": [{"x": [%s], "y": [1]}]}' % BIG).encode(), id="400-digit-amplitude"),
        pytest.param(('{"dim": 1, "pairs": [{"x": [[0, %s]], "y": [1]}]}' % BIG).encode(), id="400-digit-imaginary"),
        pytest.param(('{"dim": 1, "pairs": [{"x": [1%s], "y": [1]}]}' % ("0" * 5000)).encode(), id="5000-digit-integer"),
        pytest.param(b'{"dim": true, "pairs": [{"x": [1], "y": [1]}]}', id="dim-true"),
    ],
)
def test_malformed_set_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert main(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(_error_lines(captured.err)) == 1


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: doc.update(f=[[1, 0], [0]]), id="ragged-row"),
        pytest.param(lambda doc: doc["sigma"].__setitem__(0, "BIG"), id="400-digit-sigma"),
    ],
)
def test_malformed_model_file_exits_2(tmp_path, capsys, edit):
    set_path = _write_set(tmp_path, "h.json", "H", "complete")
    out = tmp_path / "model.json"
    main(["train", set_path, "--out", str(out)])
    doc = json.loads(out.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"BIG"', BIG))
    capsys.readouterr()
    assert main(["predict", str(bad), "--state", "[1, 0]"]) == 2
    assert len(_error_lines(capsys.readouterr().err)) == 1


def test_predict_wrong_dimension_state(tmp_path, capsys):
    set_path = _write_set(tmp_path, "c.json", "CNOT", "complete")
    out = tmp_path / "model.json"
    main(["train", set_path, "--out", str(out)])
    assert main(["predict", str(out), "--state", "[1, 0]"]) == 2
    assert "error:" in capsys.readouterr().err


def test_predict_human_output_labels_basis_states(tmp_path, capsys):
    set_path = _write_set(tmp_path, "t.json", "Toffoli", "complete")
    out = tmp_path / "model.json"
    main(["train", set_path, "--out", str(out)])
    assert main(["predict", str(out), "--state", "[0,0,0,0,0,0,0,1]"]) == 0
    text = capsys.readouterr().out
    assert "|110>" in text and "|111>" in text


def test_validate_all_examples(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "passed 14/14 examples" in out
    assert out.count("PASS") == 14


def test_validate_single_example_prints_note(capsys):
    assert main(["validate", "--example", "9"]) == 0
    out = capsys.readouterr().out
    assert "passed 1/1 examples" in out
    assert "note:" in out and "4/5" in out


def test_validate_respects_tol_flag(capsys):
    assert main(["validate", "--example", "1", "--tol", "1e-20"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_classify_command(tmp_path, capsys):
    less = _write_set(tmp_path, "less.json", "CNOT", "less", seed=3)
    assert main(["classify", less]) == 0
    assert capsys.readouterr().out.strip() == "LessComplete"
    over = _write_set(tmp_path, "over.json", "CNOT", "over", seed=3)
    assert main(["classify", over]) == 0
    assert capsys.readouterr().out.strip() == "OverComplete"
    comp = _write_set(tmp_path, "comp.json", "CNOT", "complete")
    assert main(["classify", comp]) == 0
    assert capsys.readouterr().out.strip() == "Complete"


def test_train_contradictory_set_exits_2(tmp_path, capsys):
    path = _contradictory_file(tmp_path)
    assert main(["train", path]) == 2
    err = capsys.readouterr().err
    assert "pairs 0 and 1" in err
    assert "inconsistent" in err


def test_train_force_overrides_consistency(tmp_path, capsys):
    path = _contradictory_file(tmp_path)
    assert main(["train", path, "--force"]) == 0
    model = parse_model(capsys.readouterr().out)
    assert model.dim == 2


def test_gen_set_roundtrips_and_is_deterministic(tmp_path, capsys):
    assert main(["gen-set", "Fredkin", "--mode", "less", "--seed", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["gen-set", "Fredkin", "--mode", "less", "--seed", "8"]) == 0
    second = capsys.readouterr().out
    assert first == second
    s = parse_training_set(first)
    assert s.dim == 8
    doc = json.loads(first)
    assert doc["metadata"]["gate"] == "Fredkin"
    assert doc["metadata"]["mode"] == "less"


def test_gate_command_prints_matrix(capsys):
    assert main(["gate", "CNOT"]) == 0
    out = capsys.readouterr().out
    assert "CNOT on 2 qubit(s):" in out
    assert main(["gate", "T", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["qubits"] == 1
    assert doc["matrix"][1][1][0] == pytest.approx(math.sqrt(0.5))


def test_gate_unknown_name_is_usage_error(capsys):
    assert main(["gate", "warp"]) == 1
    assert "no gate named" in capsys.readouterr().err


def test_baseline_command_reports_unitarity_verdict(tmp_path, capsys):
    set_path = _write_set(tmp_path, "h.json", "H", "complete")
    assert main(["baseline", set_path]) == 0
    out = capsys.readouterr().out
    assert "iterations: 66" in out
    assert "final weight unitary at 1e-06: no" in out


def test_baseline_divergence_exits_3(tmp_path, capsys):
    set_path = _write_set(tmp_path, "h.json", "H", "complete")
    assert main(["baseline", set_path, "--eta", "5.0", "--stop-tol", "0"]) == 3
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("junk")
    assert main(["classify", str(path)]) == 2


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["train", "--bogus"]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["transmogrify"]) == 1
