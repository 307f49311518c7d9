import json
import math

import numpy as np
import pytest

from qperc.errors import ParseError, ValidationError
from qperc.fixtures import fixture
from qperc.gates import complete_training_set, generate_set, standard_gate
from qperc.linalg import normalize
from qperc.perceptron import TrainingPair, TrainingSet, train
from qperc.serialize import (
    parse_model,
    parse_state,
    parse_training_set,
    serialize_model,
    serialize_training_set,
)


def _roundtrip_set(s):
    return parse_training_set(serialize_training_set(s))


def test_training_set_roundtrip_is_bit_exact():
    s = generate_set(standard_gate("Toffoli"), "over", seed=9)
    back = _roundtrip_set(s)
    assert back.dim == s.dim
    assert len(back) == len(s)
    for p, q in zip(s, back):
        np.testing.assert_array_equal(p.input.amps, q.input.amps)
        np.testing.assert_array_equal(p.target.amps, q.target.amps)


def test_surd_amplitudes_roundtrip_exactly():
    s = fixture(13).training
    back = _roundtrip_set(s)
    for p, q in zip(s, back):
        assert p.input.amps.tolist() == q.input.amps.tolist()
        assert p.target.amps.tolist() == q.target.amps.tolist()


def test_metadata_is_written():
    s = TrainingSet([TrainingPair(normalize([1, 0]), normalize([1, 1]))])
    doc = json.loads(serialize_training_set(s, metadata={"origin": "test"}))
    assert doc["metadata"] == {"origin": "test"}
    assert doc["dim"] == 2
    # metadata stays optional
    assert "metadata" not in json.loads(serialize_training_set(s))


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_training_set("{not json")


def test_parse_rejects_wrong_shapes():
    with pytest.raises(ParseError):
        parse_training_set(json.dumps([1, 2, 3]))
    with pytest.raises(ParseError):
        parse_training_set(json.dumps({"dim": 2}))
    with pytest.raises(ParseError):
        parse_training_set(json.dumps({"dim": 2, "pairs": []}))
    with pytest.raises(ParseError):
        parse_training_set(json.dumps({"dim": 0, "pairs": [{"x": [1], "y": [1]}]}))
    with pytest.raises(ParseError):
        parse_training_set(json.dumps({"dim": 2, "pairs": [{"x": [[1, 0], [0, 0]]}]}))
    with pytest.raises(ParseError):
        parse_training_set(
            json.dumps({"dim": 2, "pairs": [{"x": [[1, 0], "bad"], "y": [[1, 0], [0, 0]]}]})
        )


def test_parse_norm_violation_names_the_pair():
    doc = {
        "dim": 2,
        "pairs": [
            {"x": [[1, 0], [0, 0]], "y": [[1, 0], [0, 0]]},
            {"x": [[0.5, 0], [0, 0]], "y": [[1, 0], [0, 0]]},
        ],
    }
    with pytest.raises(ValidationError) as exc:
        parse_training_set(json.dumps(doc))
    assert "pair 1" in str(exc.value)


def test_parse_dim_mismatch_names_the_pair():
    doc = {"dim": 4, "pairs": [{"x": [[1, 0], [0, 0]], "y": [[1, 0], [0, 0]]}]}
    with pytest.raises(ValidationError) as exc:
        parse_training_set(json.dumps(doc))
    assert "pair 0" in str(exc.value)


def test_model_roundtrip_is_bit_exact():
    model = train(fixture(7).training)
    back = parse_model(serialize_model(model))
    assert back.dim == model.dim
    assert back.rank == model.rank
    assert back.rank_tol == model.rank_tol
    assert back.sigma == model.sigma
    np.testing.assert_array_equal(back.f.array, model.f.array)
    np.testing.assert_array_equal(back.w_new.array, model.w_new.array)
    np.testing.assert_array_equal(back.unitary.array, model.unitary.array)


def test_model_parse_validates_shapes():
    model = train(complete_training_set(standard_gate("H")))
    doc = json.loads(serialize_model(model))
    broken = dict(doc, f=doc["f"][:1])
    with pytest.raises(ValidationError):
        parse_model(json.dumps(broken))
    broken = dict(doc, sigma=[1.0])
    with pytest.raises(ValidationError):
        parse_model(json.dumps(broken))
    broken = dict(doc, rank=7)
    with pytest.raises(ValidationError):
        parse_model(json.dumps(broken))
    broken = dict(doc)
    del broken["unitary"]
    with pytest.raises(ParseError):
        parse_model(json.dumps(broken))


def test_parse_state_accepts_reals_and_pairs():
    x = parse_state("[1, 0]")
    np.testing.assert_array_equal(x.amps, [1, 0])
    y = parse_state("[[0.6, 0], [0, 0.8]]")
    np.testing.assert_array_equal(y.amps, [0.6, 0.8j])
    half = 1 / math.sqrt(2)
    z = parse_state(json.dumps([[half, 0], [half, 0]]))
    assert z.norm() == pytest.approx(1.0)


def test_parse_state_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_state("nope")
    with pytest.raises(ParseError):
        parse_state("[]")
    with pytest.raises(ParseError):
        parse_state('[[1, 0, 0]]')
    with pytest.raises(ValidationError):
        parse_state("[0.5, 0.5]")


def _trained_model_doc():
    # A less-complete CNOT set of two pairs: rank 2 of 4, so sigma ends
    # in zeros.
    model = train(generate_set(standard_gate("CNOT"), "less", seed=3))
    doc = json.loads(serialize_model(model))
    assert parse_model(json.dumps(doc)).rank == model.rank == 2
    return doc


def _set_sigma(k, value):
    def edit(doc):
        doc["sigma"][k] = value
    return edit


def _swap_first_two_sigma(doc):
    doc["sigma"][0], doc["sigma"][1] = doc["sigma"][1], doc["sigma"][0]


TWICE_IDENTITY = [[[2.0 * (i == j), 0.0] for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: doc.update(unitary=TWICE_IDENTITY), id="unitary-2I"),
        pytest.param(lambda doc: doc.update(unitary=doc["f"]), id="unitary-not-f-w_new"),
        pytest.param(_set_sigma(0, "1e999"), id="sigma-inf"),
        pytest.param(_set_sigma(0, "NaN"), id="sigma-nan"),
        pytest.param(_set_sigma(-1, -1e-3), id="sigma-negative"),
        pytest.param(_swap_first_two_sigma, id="sigma-ascending"),
        pytest.param(lambda doc: doc.update(rank=doc["rank"] + 1), id="rank-too-high"),
        pytest.param(lambda doc: doc.update(rank=doc["rank"] - 1), id="rank-too-low"),
        pytest.param(lambda doc: doc.update(rank_tol=0.5), id="rank_tol-changes-rank"),
    ],
)
def test_model_that_contradicts_itself_is_rejected(edit):
    doc = _trained_model_doc()
    edit(doc)
    # json.dumps quotes the two non-finite spellings; unquote them.
    text = json.dumps(doc).replace('"1e999"', "1e999").replace('"NaN"', "NaN")
    with pytest.raises(ValidationError):
        parse_model(text)


def test_dim_true_is_rejected():
    s = TrainingSet([TrainingPair(normalize([1]), normalize([1]))])
    set_doc = json.loads(serialize_training_set(s))
    model_doc = json.loads(serialize_model(train(s)))
    assert parse_training_set(json.dumps(set_doc)).dim == 1
    assert parse_model(json.dumps(model_doc)).dim == 1
    with pytest.raises(ParseError):
        parse_training_set(json.dumps(dict(set_doc, dim=True)))
    with pytest.raises(ParseError):
        parse_model(json.dumps(dict(model_doc, dim=True)))
