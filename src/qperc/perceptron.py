"""One-shot quantum perceptron.

A training set of m (input, target) state pairs in dimension dim is
held as two dim x m arrays, X with the inputs as columns and Y with the
targets.  Training sums the rank-one maps |y_i><x_i| into the weight
W = Y X†, and replaces W by its unitary polar factor: with
W = u diag(sigma) v_dag, every singular value is forced to one and the
learned operator is u @ v_dag.  There is no update loop; one SVD is the
whole of training.

Consistency compares the Gram matrices X†X and Y†Y entrywise, and the
completeness class comes from the rank of X: by a Jacobi SVD of X
itself when m = dim, and of the square R of a Householder QR of X†
when m > dim (fewer than dim inputs cannot span the space).

For a consistent training set (one whose pairs preserve pairwise inner
products, i.e. could have come from some unitary) the learned operator
reproduces every target exactly on the span of the inputs.  When the
inputs span the whole space the generating unitary itself is recovered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, InconsistentTrainingSet, ValidationError
from .linalg import Matrix, StateVector, apply, inner, max_abs_diff, outer
from .svd import DEFAULT_RANK_TOL, svd, triangular_factor

# Pairwise inner-product preservation slack accepted by train().
CONSISTENCY_TOL = 1e-8

# Default tolerance used by fidelity() in exact (phase-sensitive) mode.
FIDELITY_TOL = 1e-9


class Completeness(enum.Enum):
    """How the training inputs sit in the state space."""

    LESS_COMPLETE = "LessComplete"     # inputs span a proper subspace
    COMPLETE = "Complete"              # exactly dim pairs spanning everything
    OVER_COMPLETE = "OverComplete"     # more than dim pairs, full span

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TrainingPair:
    """An (input, target) pair of equal-dimension states."""

    input: StateVector
    target: StateVector

    def __post_init__(self):
        if self.input.dim != self.target.dim:
            raise DimensionMismatch(
                "pair mixes dim %d input with dim %d target"
                % (self.input.dim, self.target.dim)
            )


class TrainingSet:
    """A non-empty collection of equal-dimension training pairs.

    At construction the inputs and targets are stacked as the columns
    of two read-only dim x m arrays, ``x`` and ``y``, and the
    completeness class is computed once from the numerical rank of x
    (see :func:`classify_set`).
    """

    def __init__(self, pairs: Iterable[TrainingPair]):
        pairs = tuple(pairs)
        if not pairs:
            raise ValidationError("training set needs at least one pair")
        dim = pairs[0].input.dim
        for k, p in enumerate(pairs):
            if p.input.dim != dim:
                raise DimensionMismatch(
                    "pair %d has dim %d, expected %d" % (k, p.input.dim, dim)
                )
        self._pairs = pairs
        self._dim = dim
        self._x = _columns([p.input.amps for p in pairs])
        self._y = _columns([p.target.amps for p in pairs])
        self._completeness = classify_set(self._x)

    @property
    def pairs(self) -> Tuple[TrainingPair, ...]:
        return self._pairs

    @property
    def x(self) -> np.ndarray:
        """The inputs as the columns of a read-only dim x m array."""
        return self._x

    @property
    def y(self) -> np.ndarray:
        """The targets as the columns of a read-only dim x m array."""
        return self._y

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def completeness(self) -> Completeness:
        return self._completeness

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs)

    def __repr__(self) -> str:
        return "TrainingSet(dim=%d, pairs=%d, %s)" % (
            self._dim, len(self._pairs), self._completeness.value,
        )


@dataclass(frozen=True)
class ConsistencyReport:
    """Worst pairwise inner-product violation over a training set.

    ok is True when every |<x_i|x_j> - <y_i|y_j>| is within tolerance;
    worst_pair holds the offending (i, j) indices (None for a single
    pair, where there is nothing to compare).
    """

    ok: bool
    worst_pair: Optional[Tuple[int, int]]
    violation: float
    tol: float


@dataclass(frozen=True)
class PerceptronModel:
    """The trained operator together with its SVD diagnostics.

    f and w_new are the unitary factors of the accumulated weight
    matrix (w_new stored conjugate-transposed, so the accumulated
    weight is f @ diag(sigma) @ w_new); unitary = f @ w_new is the
    operator actually used for prediction.
    """

    dim: int
    f: Matrix
    sigma: Tuple[float, ...]
    w_new: Matrix
    unitary: Matrix
    rank: int
    rank_tol: float


def _columns(vectors) -> np.ndarray:
    a = np.stack(vectors, axis=1)
    a.setflags(write=False)
    return a


def pair_weight(p: TrainingPair) -> Matrix:
    """The rank-one weight |target><input| contributed by one pair."""
    return outer(p.target, p.input)


def total_weight(s: TrainingSet) -> Matrix:
    """Sum of the per-pair weights of a training set, Y X†."""
    return Matrix.wrap(s.y @ s.x.conj().T)


def classify_set(x: np.ndarray) -> Completeness:
    """Classify input coverage as less-complete, complete or over-complete.

    x holds the inputs as its columns (dim x m).  Fewer than dim inputs
    cannot span the space.  Otherwise the rank is the number of
    singular values of x above DEFAULT_RANK_TOL * max(1, sigma_max),
    taken from a Jacobi SVD of x when it is square, and of the dim x dim
    R of a Householder QR of x† when it is tall (R has the singular
    values of x).  The Gram matrix x x† is never formed: it would square
    the condition number.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.size == 0:
        raise ValidationError("cannot classify an empty set of pairs")
    dim, count = x.shape
    if count < dim:
        return Completeness.LESS_COMPLETE
    a = x if count == dim else triangular_factor(x.conj().T)
    if svd(Matrix.wrap(a)).rank < dim:
        return Completeness.LESS_COMPLETE
    if count == dim:
        return Completeness.COMPLETE
    return Completeness.OVER_COMPLETE


def consistency_check(s: TrainingSet) -> ConsistencyReport:
    """Check that the pairs could all have come from one unitary map.

    A unitary preserves inner products, so for every i, j the inputs
    and targets must satisfy <x_i|x_j> = <y_i|y_j> within
    CONSISTENCY_TOL, that is X†X = Y†Y.  The report carries the worst
    violating pair (the first in row-major order on ties) and its
    magnitude.
    """
    m = len(s)
    g = s.x.conj().T @ s.x
    g -= s.y.conj().T @ s.y
    np.abs(g, out=g)
    g[np.tri(m, dtype=bool)] = 0.0  # keep the strict upper triangle
    # Complex values compare by real part first, and every imaginary
    # part is now 0, so this is the first largest |violation|.
    k = int(np.argmax(g))
    worst = float(g.flat[k].real)
    worst_pair = divmod(k, m) if worst > 0.0 else None
    return ConsistencyReport(
        ok=worst <= CONSISTENCY_TOL, worst_pair=worst_pair, violation=worst, tol=CONSISTENCY_TOL
    )


def train(
    s: TrainingSet,
    rank_tol: float = DEFAULT_RANK_TOL,
    force: bool = False,
) -> PerceptronModel:
    """Learn a unitary operator from the training set in one shot.

    Accumulates the total weight, takes its SVD once, and sets every
    singular value to one.  Raises InconsistentTrainingSet when the
    pairs cannot come from a single unitary (override with force=True
    to fit the polar factor of the contradictory weight anyway); the
    slack allowed on inner-product preservation is CONSISTENCY_TOL.

    Parameters
    ----------
    s : TrainingSet
    rank_tol : float
        Passed through to the SVD rank decision.
    force : bool
        Train even if the consistency check fails.

    Returns
    -------
    PerceptronModel
    """
    report = consistency_check(s)
    if not report.ok and not force:
        raise InconsistentTrainingSet(report)
    w = total_weight(s)
    r = svd(w, rank_tol=rank_tol)
    return PerceptronModel(
        dim=s.dim,
        f=r.u,
        sigma=r.sigma,
        w_new=r.v_dag,
        unitary=Matrix.wrap(r.u.array @ r.v_dag.array),
        rank=r.rank,
        rank_tol=r.rank_tol,
    )


def predict(model: PerceptronModel, x: StateVector) -> StateVector:
    """Apply the learned unitary to a state."""
    if x.dim != model.dim:
        raise DimensionMismatch("model dim %d, state dim %d" % (model.dim, x.dim))
    return apply(model.unitary, x)


def fidelity(a: StateVector, b: StateVector, phase_invariant: bool = False, tol: float = FIDELITY_TOL) -> float:
    """Agreement score between two states in [0, 1].

    With phase_invariant=True this is |<a|b>|^2, blind to a global
    phase.  Otherwise the comparison is exact and entrywise: 1.0 when
    the largest amplitude difference is within tol, else 1 - min(d, 1)
    where d is that difference.
    """
    if phase_invariant:
        return float(abs(inner(a, b)) ** 2)
    d = max_abs_diff(a, b)
    if d <= tol:
        return 1.0
    return 1.0 - min(d, 1.0)
