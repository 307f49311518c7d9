"""Worked examples 1 through 14: curated training sets with known
targets, used by the validate command and the test suite.

Odd-numbered examples pair an over-complete training set (all basis
states plus one superposition) with a gate; the following even example
exercises the same gate with a less-complete set.  Gates covered: H,
S, T, CNOT, Toffoli, Fredkin and the two-qubit composite gate.  All
amplitudes are exact surd values evaluated at double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import ValidationError
from .linalg import StateVector, normalize
from .perceptron import Completeness, TrainingPair, TrainingSet, train

DEFAULT_TOL = 1e-9

_W = np.exp(1j * np.pi / 4.0)        # phase of the T gate
_OM = np.exp(3j * np.pi / 4.0)       # phase in the composite gate columns


@dataclass(frozen=True)
class Fixture:
    id: int
    name: str
    gate: str
    completeness: Completeness
    training: TrainingSet
    note: str = ""


@dataclass(frozen=True)
class PairResult:
    index: int
    max_err: float
    ok: bool


@dataclass(frozen=True)
class FixtureReport:
    id: int
    name: str
    completeness: Completeness
    rank: int
    sigma: Tuple[float, ...]
    pairs: Tuple[PairResult, ...]
    passed: bool
    note: str


def _pair(x, y) -> TrainingPair:
    xv = x if isinstance(x, StateVector) else normalize(x)
    yv = y if isinstance(y, StateVector) else normalize(y)
    return TrainingPair(xv, yv)


def _basis_pairs(dim, perm):
    return [
        _pair(StateVector.basis(dim, k), StateVector.basis(dim, perm[k]))
        for k in range(dim)
    ]


def _example_1():  # H, over-complete
    return [
        _pair([1, 0], [1, 1]),
        _pair([0, 1], [1, -1]),
        _pair([1, 2], [3, -1]),
    ]


def _example_2():  # H, less-complete
    return [_pair([-11, 7], [-4, -18])]


def _example_3():  # S, over-complete
    return [
        _pair([1, 0], [1, 0]),
        _pair([0, 1], [0, 1j]),
        _pair([1, 1], [1, 1j]),
    ]


def _example_4():  # S, less-complete
    return [_pair([1, 3], [1, 3j])]


def _example_5():  # T, over-complete
    return [
        _pair([1, 0], [1, 0]),
        _pair([0, 1], [0, _W]),
        _pair([-8, -9], [-8, -9 * _W]),
    ]


def _example_6():  # T, less-complete
    return [_pair([13, -10], [13, -10 * _W])]


def _example_7():  # CNOT, over-complete
    return _basis_pairs(4, [0, 1, 3, 2]) + [_pair([3, 0, 0, 4], [3, 0, 4, 0])]


def _example_8():  # CNOT, less-complete
    return [
        _pair([1, 0, 0, 0], [1, 0, 0, 0]),
        _pair([0, 5, 0, -6], [0, 5, -6, 0]),
    ]


def _example_9():  # Toffoli, over-complete
    return _basis_pairs(8, [0, 1, 2, 3, 4, 5, 7, 6]) + [
        _pair([0, 3, 0, 0, 0, 0, 4, 0], [0, 3, 0, 0, 0, 0, 0, 4])
    ]


def _example_10():  # Toffoli, less-complete
    return [
        _pair([1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]),
        _pair([0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]),
        _pair([0, 0, 0, 0, 0, 1, 0, 2], [0, 0, 0, 0, 0, 1, 2, 0]),
    ]


def _example_11():  # Fredkin, over-complete
    return _basis_pairs(8, [0, 1, 2, 3, 4, 6, 5, 7]) + [
        _pair([0, 0, 2, 0, 0, -7, 0, 0], [0, 0, 2, 0, 0, 0, -7, 0])
    ]


def _example_12():  # Fredkin, less-complete
    return [
        _pair([0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]),
        _pair([0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]),
        _pair([3, 0, 0, 0, 0, 0, 2, 0], [3, 0, 0, 0, 0, 2, 0, 0]),
    ]


def _example_13():  # composite, over-complete
    return [
        _pair([1, 0, 0, 0], [1, 0, 0, _OM]),
        _pair([0, 1, 0, 0], [0, 1, _OM, 0]),
        _pair([0, 0, 1, 0], [1, 0, 0, -_OM]),
        _pair([0, 0, 0, 1], [0, 1, -_OM, 0]),
        _pair([6, 0, 8, 0], [14, 0, 0, -2 * _OM]),
    ]


def _example_14():  # composite, less-complete
    return [
        _pair([1, 0, 0, 0], [1, 0, 0, _OM]),
        _pair([0, 2, 0, 1], [0, 3, _OM, 0]),
    ]


_CATALOG = {
    1: ("H", Completeness.OVER_COMPLETE, _example_1, ""),
    2: ("H", Completeness.LESS_COMPLETE, _example_2, ""),
    3: ("S", Completeness.OVER_COMPLETE, _example_3, ""),
    4: ("S", Completeness.LESS_COMPLETE, _example_4, ""),
    5: ("T", Completeness.OVER_COMPLETE, _example_5, ""),
    6: ("T", Completeness.LESS_COMPLETE, _example_6, ""),
    7: ("CNOT", Completeness.OVER_COMPLETE, _example_7, ""),
    8: ("CNOT", Completeness.LESS_COMPLETE, _example_8, ""),
    9: (
        "Toffoli",
        Completeness.OVER_COMPLETE,
        _example_9,
        "pair 9 target is (3|001> + 4|111>)/5; the 4/5 coefficient is "
        "forced by linearity once the basis pairs are fixed",
    ),
    10: ("Toffoli", Completeness.LESS_COMPLETE, _example_10, ""),
    11: ("Fredkin", Completeness.OVER_COMPLETE, _example_11, ""),
    12: ("Fredkin", Completeness.LESS_COMPLETE, _example_12, ""),
    13: ("composite", Completeness.OVER_COMPLETE, _example_13, ""),
    14: ("composite", Completeness.LESS_COMPLETE, _example_14, ""),
}

FIXTURE_IDS = tuple(sorted(_CATALOG))


@lru_cache(maxsize=None)
def fixture(fid: int) -> Fixture:
    """The example with the given id (1..14)."""
    if fid not in _CATALOG:
        raise ValidationError("no example %r (valid ids: 1..%d)" % (fid, len(_CATALOG)))
    gate, comp, build, note = _CATALOG[fid]
    return Fixture(
        id=fid,
        name="example %d: %s, %s" % (fid, gate, comp.value),
        gate=gate,
        completeness=comp,
        training=TrainingSet(build()),
        note=note,
    )


def all_fixtures() -> Tuple[Fixture, ...]:
    return tuple(fixture(fid) for fid in FIXTURE_IDS)


def run_fixture(fid: int, tol: Optional[float] = None) -> FixtureReport:
    """Train on one example and score every pair against its target.

    A pair passes when the predicted state matches the stored target
    entrywise (global phase included) within tol, default 1e-9.
    """
    if tol is None:
        tol = DEFAULT_TOL
    fx = fixture(fid)
    s = fx.training
    model = train(s)
    errs = np.abs(model.unitary.array @ s.x - s.y).max(axis=0)
    results = tuple(PairResult(k, float(e), bool(e <= tol)) for k, e in enumerate(errs, start=1))
    return FixtureReport(
        id=fx.id,
        name=fx.name,
        completeness=s.completeness,
        rank=model.rank,
        sigma=model.sigma,
        pairs=results,
        passed=all(r.ok for r in results),
        note=fx.note,
    )
