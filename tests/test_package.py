import numpy as np
import pytest

import qperc
from qperc import cli, linalg, perceptron
from qperc.gates import generate_set, standard_gate
from qperc.linalg import Matrix
from qperc.svd import svd

REMOVED = ("ClassicalResult", "classical_perceptron_train", "oracle_uf", "BadTableLength", "fidelity", "inner")


def test_every_exported_name_resolves_once():
    assert len(set(qperc.__all__)) == len(qperc.__all__)
    for name in qperc.__all__:
        assert hasattr(qperc, name), name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in qperc.__all__
        assert not hasattr(qperc, name), name
    assert not hasattr(perceptron, "fidelity") and not hasattr(perceptron, "FIDELITY_TOL")
    assert not hasattr(linalg, "inner")


def test_removed_accessors_are_gone():
    s = qperc.TrainingSet.from_arrays(np.eye(2), np.eye(2))
    assert not hasattr(s, "pairs")
    with pytest.raises(TypeError):
        iter(s)
    v = qperc.StateVector.basis(2, 0)
    for name in ("norm", "__getitem__", "__len__"):
        assert not hasattr(v, name), name
    assert not hasattr(qperc.Matrix.identity(2), "__getitem__")
    # The names these removals keep.
    assert len(s) == 2 and qperc.StateVector.unchecked(v.amps).dim == 2
    for name in ("TrainingPair", "apply", "polar_unitary", "compose", "tensor", "max_abs_diff"):
        assert name in qperc.__all__, name


# The layers perfbench/tracing.py times, each by the name its caller
# looks it up under at call time: TrainingSet and train resolve the
# first four in `perceptron`, the CLI commands the other four in `cli`.
LAYER_HOOKS = (
    (perceptron, "classify_set"),
    (perceptron, "consistency_check"),
    (perceptron, "total_weight"),
    (perceptron, "svd"),
    (cli, "parse_training_set"),
    (cli, "serialize_model"),
    (cli, "parse_model"),
    (cli, "run_fixture"),
)


def test_every_timed_layer_is_called_through_its_hook(tmp_path, monkeypatch, capsys):
    calls = {name: 0 for _, name in LAYER_HOOKS}
    for mod, name in LAYER_HOOKS:

        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)

    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    by_arrays = qperc.TrainingSet.from_arrays(np.eye(2), h)
    assert calls["classify_set"] == 1
    by_pairs = qperc.TrainingSet(
        qperc.TrainingPair(qperc.StateVector(a), qperc.StateVector(b)) for a, b in zip(np.eye(2), h.T)
    )
    assert calls["classify_set"] == 2
    qperc.train(by_pairs)
    set_path, model_path = tmp_path / "h.json", tmp_path / "model.json"
    set_path.write_text(qperc.serialize_training_set(by_arrays))
    assert cli.main(["train", str(set_path), "--out", str(model_path)]) == 0
    assert cli.main(["predict", str(model_path), "--state", "[1, 0]"]) == 0
    assert cli.main(["validate", "--example", "1"]) == 0
    capsys.readouterr()
    assert all(calls.values()), calls


def test_classify_makes_no_svd_call_and_train_makes_exactly_one(monkeypatch):
    calls = {"n": 0}

    def counted(*args, _fn=perceptron.svd, **kwargs):
        calls["n"] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(perceptron, "svd", counted)
    g = np.random.default_rng(7)
    for dim, m in ((4, 4), (4, 9), (12, 12), (12, 30), (32, 32)):
        x = g.standard_normal((dim, m)) + 1j * g.standard_normal((dim, m))
        x /= np.linalg.norm(x, axis=0)
        s = qperc.TrainingSet.from_arrays(x, x)
        assert perceptron.classify_set(x) is s.completeness
        assert calls["n"] == 0
        qperc.train(s)
        assert calls["n"] == 1
        calls["n"] = 0


def _class_by_full_svd(x):
    """classify_set's decision with the rank taken from a full svd, as
    it was made before classification read singular values alone."""
    dim, count = x.shape
    if count < dim:
        return perceptron.Completeness.LESS_COMPLETE
    a = x if count == dim else np.linalg.qr(x.conj().T, mode="r")
    if svd(Matrix.wrap(a)).rank < dim:
        return perceptron.Completeness.LESS_COMPLETE
    return perceptron.Completeness.COMPLETE if count == dim else perceptron.Completeness.OVER_COMPLETE


GATE_NAMES = ("I", "X", "H", "S", "T", "CNOT", "Toffoli", "Fredkin", "composite")
MODE_CLASS = {
    "complete": perceptron.Completeness.COMPLETE,
    "over": perceptron.Completeness.OVER_COMPLETE,
    "less": perceptron.Completeness.LESS_COMPLETE,
}


def test_completeness_classes_are_unchanged():
    for f in qperc.all_fixtures():
        assert f.training.completeness is f.completeness is _class_by_full_svd(f.training.x), f.name
    for name in GATE_NAMES:
        gate = standard_gate(name)
        for mode, want in MODE_CLASS.items():
            for seed in range(21):
                s = generate_set(gate, mode, seed=seed)
                assert s.completeness is want is _class_by_full_svd(s.x), (name, mode, seed)
