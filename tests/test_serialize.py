import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 16), data=st.data())
def test_training_set_roundtrip_is_bit_exact(seed, dim, data):
    m = data.draw(st.integers(1, 4 * dim), label="m")
    g = np.random.default_rng(seed)
    x, y = g.standard_normal((2, dim, m)) + 1j * g.standard_normal((2, dim, m))
    s = TrainingSet.from_arrays(x / np.linalg.norm(x, axis=0), y / np.linalg.norm(y, axis=0))
    back = _roundtrip_set(s)
    assert (back.dim, len(back)) == (dim, m)
    assert back.x.tobytes() == s.x.tobytes()
    assert back.y.tobytes() == s.y.tobytes()


def test_surd_amplitudes_roundtrip_exactly():
    s = fixture(13).training
    back = _roundtrip_set(s)
    assert s.x.tolist() == back.x.tolist()
    assert s.y.tolist() == back.y.tolist()


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


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 16), data=st.data())
def test_model_roundtrip_is_bit_exact(seed, dim, data):
    m = data.draw(st.integers(1, 4 * dim), label="m")
    g = np.random.default_rng(seed)
    x, y = g.standard_normal((2, dim, m)) + 1j * g.standard_normal((2, dim, m))
    s = TrainingSet.from_arrays(x / np.linalg.norm(x, axis=0), y / np.linalg.norm(y, axis=0))
    model = train(s, force=True)
    back = parse_model(serialize_model(model))
    assert back.dim == model.dim
    assert back.rank == model.rank
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
    with pytest.raises(ParseError, match="top level must be an object"):
        parse_model(json.dumps([doc]))


def test_parse_state_accepts_reals_and_pairs():
    x = parse_state("[1, 0]")
    np.testing.assert_array_equal(x.amps, [1, 0])
    y = parse_state("[[0.6, 0], [0, 0.8]]")
    np.testing.assert_array_equal(y.amps, [0.6, 0.8j])
    half = 1 / math.sqrt(2)
    z = parse_state(json.dumps([[half, 0], [half, 0]]))
    assert np.linalg.norm(z.amps) == pytest.approx(1.0)


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


def _scaled_identity(c, dim=4):
    return [[[c * (i == j), 0.0] for j in range(dim)] for i in range(dim)]


TWICE_IDENTITY = _scaled_identity(2.0)


def _non_unitary_factors(doc):
    # f @ w_new = I is unitary and equals "unitary", but neither factor is.
    doc.update(f=TWICE_IDENTITY, w_new=_scaled_identity(0.5), unitary=_scaled_identity(1.0))


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: doc.update(unitary=TWICE_IDENTITY), id="unitary-2I"),
        pytest.param(lambda doc: doc.update(unitary=doc["f"]), id="unitary-not-f-w_new"),
        pytest.param(_non_unitary_factors, id="f-2I-w_new-I/2"),
        pytest.param(_set_sigma(0, "1e999"), id="sigma-inf"),
        pytest.param(_set_sigma(0, "NaN"), id="sigma-nan"),
        pytest.param(_set_sigma(-1, -1e-3), id="sigma-negative"),
        pytest.param(_swap_first_two_sigma, id="sigma-ascending"),
        pytest.param(lambda doc: doc.update(rank=doc["rank"] + 1), id="rank-too-high"),
        pytest.param(lambda doc: doc.update(rank=doc["rank"] - 1), id="rank-too-low"),
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


@pytest.mark.parametrize("rank", [1.0, True])
def test_rank_must_be_an_integer(rank):
    # The dim-1 model has rank 1, which 1.0 and True both equal.
    doc = json.loads(serialize_model(train(TrainingSet([TrainingPair(normalize([1]), normalize([1]))]))))
    assert parse_model(json.dumps(doc)).rank == doc["rank"] == rank
    with pytest.raises(ValidationError, match="'rank' must be an integer"):
        parse_model(json.dumps(dict(doc, rank=rank)))
