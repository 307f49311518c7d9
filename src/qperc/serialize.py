"""JSON serialization of training sets, models and states.

Complex numbers are stored as two-element [re, im] arrays.  Floats are
emitted with repr precision, so a serialize/parse round trip restores
bit-identical doubles.

Training set file:
    {"dim": 4, "pairs": [{"x": [[re,im], ...], "y": [...]}, ...],
     "metadata": {...}}            # metadata optional, free-form

Model file:
    {"dim": 4, "f": [[[re,im], ...] per row], "w_new": ..., "unitary": ...,
     "sigma": [...], "rank": 3}
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .errors import ParseError, ValidationError
from .linalg import DEFAULT_UNITARY_TOL, Matrix, StateVector, is_unitary, max_abs_diff
from .perceptron import PerceptronModel, TrainingSet
from .svd import numerical_rank


def array_to_json(a):
    """A complex array as nested lists, each entry an [re, im] pair."""
    return a.copy(order="C").view(float).reshape(a.shape + (2,)).tolist()


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v, where: str) -> float:
    # JSON integers have no size limit; float() overflows past ~1.8e308.
    try:
        return float(v)
    except OverflowError:
        raise ParseError("%s: number too large for a float" % where) from None


def _j2c(v, where: str) -> complex:
    if _is_real(v):
        return complex(_float(v, where))
    if isinstance(v, list) and len(v) == 2 and all(_is_real(t) for t in v):
        return complex(_float(v[0], where), _float(v[1], where))
    raise ParseError("%s: expected a number or [re, im], got %r" % (where, v))


def _amplitudes_from_json(v, where: str) -> list:
    if not isinstance(v, list) or not v:
        raise ParseError("%s: expected a non-empty amplitude array" % where)
    return [_j2c(t, where) for t in v]


def _matrix_from_json(v, where: str) -> Matrix:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ParseError("%s: expected an array of rows" % where)
    if any(len(r) != len(v[0]) for r in v):
        raise ParseError("%s: rows differ in length" % where)
    return Matrix([[_j2c(t, where) for t in row] for row in v])


def _loads(text: str):
    # ValueError covers JSONDecodeError and integers past Python's
    # digit limit; RecursionError, arrays nested thousands deep.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ParseError("invalid JSON: %s" % e) from None


def _dim(doc) -> int:
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    return dim


def parse_amplitudes(text: str) -> list:
    """Parse a JSON amplitude array, such as "[1, 0]" or
    "[[0.6, 0], [0, 0.8]]", into complex numbers without checking the
    norm."""
    return _amplitudes_from_json(_loads(text), "state")


def parse_state(text: str) -> StateVector:
    """Parse one state from a JSON amplitude array such as
    "[1, 0]" or "[[0.6, 0], [0, 0.8]]"."""
    amps = parse_amplitudes(text)
    try:
        return StateVector(amps)
    except ValidationError as e:
        raise ValidationError("state: %s" % e) from None


def serialize_training_set(s: TrainingSet, metadata: Optional[dict] = None) -> str:
    doc = {
        "dim": s.dim,
        "pairs": [
            {"x": x, "y": y} for x, y in zip(array_to_json(s.x.T), array_to_json(s.y.T))
        ],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2)


def parse_training_set(text: str) -> TrainingSet:
    """Parse a training-set file.

    Raises ParseError when the JSON or its shape is wrong, and
    ValidationError (naming the offending pair) when a state fails the
    dimension check or, all pairs having passed it, the norm and
    finiteness checks of TrainingSet.from_arrays.
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if "dim" not in doc or "pairs" not in doc:
        raise ParseError("missing required key 'dim' or 'pairs'")
    dim = _dim(doc)
    raw_pairs = doc["pairs"]
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise ParseError("'pairs' must be a non-empty array")
    xs, ys = [], []
    for k, rp in enumerate(raw_pairs):
        if not isinstance(rp, dict) or "x" not in rp or "y" not in rp:
            raise ParseError("pair %d: expected an object with 'x' and 'y'" % k)
        for side, v, out in (("input", rp["x"], xs), ("target", rp["y"], ys)):
            amps = _amplitudes_from_json(v, "pair %d %s" % (k, side))
            if len(amps) != dim:
                raise ValidationError("pair %d %s has %d amplitudes, dim is %d" % (k, side, len(amps), dim))
            out.append(amps)
    # xs and ys list the pairs' amplitudes by rows; X and Y hold them as columns.
    return TrainingSet.from_arrays(list(zip(*xs)), list(zip(*ys)))


def serialize_model(m: PerceptronModel) -> str:
    doc = {
        "dim": m.dim,
        "f": array_to_json(m.f.array),
        "w_new": array_to_json(m.w_new.array),
        "unitary": array_to_json(m.unitary.array),
        "sigma": [float(s) for s in m.sigma],
        "rank": m.rank,
    }
    return json.dumps(doc, indent=2)


def parse_model(text: str) -> PerceptronModel:
    """Parse a model file.

    Raises ParseError when the JSON or its shape is wrong, and
    ValidationError when the model contradicts itself: "f", "w_new" or
    "unitary" is not unitary, or "unitary" differs from f @ w_new, at
    DEFAULT_UNITARY_TOL;
    "sigma" is not finite, non-negative and descending; or "rank" is
    not the number of sigma above DEFAULT_RANK_TOL * max(1, sigma[0]).
    Keys it does not know are ignored, so files of older versions,
    which carry one more key, still load.
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("dim", "f", "w_new", "unitary", "sigma", "rank"):
        if key not in doc:
            raise ParseError("missing required key %r" % key)
    dim = _dim(doc)
    f = _matrix_from_json(doc["f"], "f")
    w_new = _matrix_from_json(doc["w_new"], "w_new")
    unitary = _matrix_from_json(doc["unitary"], "unitary")
    for name, m in (("f", f), ("w_new", w_new), ("unitary", unitary)):
        if m.shape != (dim, dim):
            raise ValidationError("%s must be %dx%d, got %dx%d" % ((name, dim, dim) + m.shape))
    sigma = doc["sigma"]
    if not isinstance(sigma, list) or len(sigma) != dim or not all(_is_real(s) for s in sigma):
        raise ValidationError("'sigma' must list %d real values" % dim)
    sigma = tuple(_float(s, "sigma") for s in sigma)
    if not all(math.isfinite(s) and s >= 0.0 for s in sigma):
        raise ValidationError("'sigma' must be finite and non-negative")
    if any(a < b for a, b in zip(sigma, sigma[1:])):
        raise ValidationError("'sigma' must be in descending order")
    rank = doc["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValidationError("'rank' must be an integer")
    expected = numerical_rank(sigma)
    if rank != expected:
        raise ValidationError("'rank' is %r but %d of 'sigma' exceed the rank cutoff" % (rank, expected))
    for name, m in (("f", f), ("w_new", w_new), ("unitary", unitary)):
        if not is_unitary(m):
            raise ValidationError("%r is not unitary at %g" % (name, DEFAULT_UNITARY_TOL))
    if max_abs_diff(unitary, f.array @ w_new.array) > DEFAULT_UNITARY_TOL:
        raise ValidationError("'unitary' differs from f @ w_new by more than %g" % DEFAULT_UNITARY_TOL)
    return PerceptronModel(
        dim=dim,
        f=f,
        sigma=sigma,
        w_new=w_new,
        unitary=unitary,
        rank=rank,
    )
