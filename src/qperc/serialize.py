"""JSON serialization of training sets, models and states.

Complex numbers are stored as two-element [re, im] arrays.  Floats are
emitted with repr precision, so a serialize/parse round trip restores
bit-identical doubles.

Training set file:
    {"dim": 4, "pairs": [{"x": [[re,im], ...], "y": [...]}, ...],
     "metadata": {...}}            # metadata optional, free-form

Model file:
    {"dim": 4, "f": [[[re,im], ...] per row], "w_new": ..., "unitary": ...,
     "sigma": [...], "rank": 3, "rank_tol": 1e-10}
"""

from __future__ import annotations

import json
import sys
from typing import Optional


from .errors import ParseError, ValidationError
from .linalg import Matrix, StateVector
from .perceptron import PerceptronModel, TrainingPair, TrainingSet


def _c2j(z: complex):
    return [float(z.real), float(z.imag)]


def _j2c(v, where: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in v)
    ):
        return complex(v[0], v[1])
    raise ParseError("%s: expected a number or [re, im], got %r" % (where, v))


def state_to_json(x: StateVector):
    return [_c2j(z) for z in x.amps]


def matrix_to_json(m: Matrix):
    return [[_c2j(z) for z in row] for row in m.array]


def _amplitudes_from_json(v, where: str) -> list:
    if not isinstance(v, list) or not v:
        raise ParseError("%s: expected a non-empty amplitude array" % where)
    return [_j2c(t, where) for t in v]


def _state_from_json(v, where: str) -> StateVector:
    amps = _amplitudes_from_json(v, where)
    try:
        return StateVector(amps)
    except ValidationError as e:
        raise ValidationError("%s: %s" % (where, e)) from None


def _matrix_from_json(v, where: str) -> Matrix:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ParseError("%s: expected an array of rows" % where)
    return Matrix([[_j2c(t, where) for t in row] for row in v])


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e) from None


def parse_amplitudes(text: str) -> list:
    """Parse a JSON amplitude array, such as "[1, 0]" or
    "[[0.6, 0], [0, 0.8]]", into complex numbers without checking the
    norm."""
    return _amplitudes_from_json(_loads(text), "state")


def parse_state(text: str) -> StateVector:
    """Parse one state from a JSON amplitude array such as
    "[1, 0]" or "[[0.6, 0], [0, 0.8]]"."""
    return _state_from_json(_loads(text), "state")


def serialize_training_set(s: TrainingSet, metadata: Optional[dict] = None) -> str:
    doc = {
        "dim": s.dim,
        "pairs": [
            {"x": state_to_json(p.input), "y": state_to_json(p.target)} for p in s
        ],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2)


def parse_training_set(text: str) -> TrainingSet:
    """Parse a training-set file.

    Raises ParseError when the JSON or its shape is wrong, and
    ValidationError (naming the offending pair) when a state fails the
    norm or dimension checks.
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if "dim" not in doc or "pairs" not in doc:
        raise ParseError("missing required key 'dim' or 'pairs'")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    raw_pairs = doc["pairs"]
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise ParseError("'pairs' must be a non-empty array")
    pairs = []
    for k, rp in enumerate(raw_pairs):
        if not isinstance(rp, dict) or "x" not in rp or "y" not in rp:
            raise ParseError("pair %d: expected an object with 'x' and 'y'" % k)
        x = _state_from_json(rp["x"], "pair %d input" % k)
        y = _state_from_json(rp["y"], "pair %d target" % k)
        if x.dim != dim:
            raise ValidationError("pair %d input has %d amplitudes, dim is %d" % (k, x.dim, dim))
        if y.dim != dim:
            raise ValidationError("pair %d target has %d amplitudes, dim is %d" % (k, y.dim, dim))
        pairs.append(TrainingPair(x, y))
    return TrainingSet(pairs)


def serialize_model(m: PerceptronModel) -> str:
    doc = {
        "dim": m.dim,
        "f": matrix_to_json(m.f),
        "w_new": matrix_to_json(m.w_new),
        "unitary": matrix_to_json(m.unitary),
        "sigma": [float(s) for s in m.sigma],
        "rank": m.rank,
        "rank_tol": m.rank_tol,
    }
    return json.dumps(doc, indent=2)


def parse_model(text: str) -> PerceptronModel:
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("dim", "f", "w_new", "unitary", "sigma", "rank", "rank_tol"):
        if key not in doc:
            raise ParseError("missing required key %r" % key)
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    f = _matrix_from_json(doc["f"], "f")
    w_new = _matrix_from_json(doc["w_new"], "w_new")
    unitary = _matrix_from_json(doc["unitary"], "unitary")
    for name, m in (("f", f), ("w_new", w_new), ("unitary", unitary)):
        if m.shape != (dim, dim):
            raise ValidationError("%s must be %dx%d, got %dx%d" % ((name, dim, dim) + m.shape))
    sigma = doc["sigma"]
    if (
        not isinstance(sigma, list)
        or len(sigma) != dim
        or not all(isinstance(s, (int, float)) and not isinstance(s, bool) for s in sigma)
    ):
        raise ValidationError("'sigma' must list %d real values" % dim)
    if not isinstance(doc["rank"], int) or not 0 <= doc["rank"] <= dim:
        raise ValidationError("'rank' out of range")
    rank_tol = doc["rank_tol"]
    # The chained comparison is exact for ints of any size and false for NaN.
    if (
        not isinstance(rank_tol, (int, float))
        or isinstance(rank_tol, bool)
        or not 0 <= rank_tol <= sys.float_info.max
    ):
        raise ValidationError("'rank_tol' must be a finite non-negative number")
    return PerceptronModel(
        dim=dim,
        f=f,
        sigma=tuple(float(s) for s in sigma),
        w_new=w_new,
        unitary=unitary,
        rank=doc["rank"],
        rank_tol=float(rank_tol),
    )
