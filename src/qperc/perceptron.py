"""One-shot quantum perceptron.

A training set of m (input, target) state pairs in dimension dim is
two dim x m arrays, X with the inputs as columns and Y with the
targets; TrainingSet.from_arrays(x, y) takes them as they are.
Training sums the rank-one maps |y_i><x_i| into the weight W = Y X†,
and replaces W by its unitary polar factor: with W = u diag(sigma)
v_dag, every singular value is forced to one and the learned operator
is u @ v_dag.  There is no update loop; one SVD is the whole of
training.

Consistency compares the Gram matrices X†X and Y†Y entrywise, and the
completeness class comes from the rank of X (fewer than dim inputs
cannot span the space).  For m >= dim numpy's QR of X† gives a
dim x dim R with the singular values of X, and the rank is read from
those of R† alone.  No singular vectors are formed, so the weight's is
the only full SVD a fit makes.

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
from .linalg import Matrix, StateVector, apply, unit_state_check, unit_state_reason
from .svd import numerical_rank, singular_values, svd

# Pairwise inner-product preservation slack accepted by train().
CONSISTENCY_TOL = 1e-8


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
    """A non-empty set of equal-dimension training pairs.

    It holds the inputs and targets as the columns of two read-only
    dim x m arrays, ``x`` and ``y``, and the completeness class,
    computed once from the numerical rank of x (see :func:`classify_set`).
    ``TrainingSet(pairs)`` trusts its states, which StateVector has
    checked; :meth:`from_arrays` checks every column.
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
        self._hold(
            np.stack([p.input.amps for p in pairs], axis=1),
            np.stack([p.target.amps for p in pairs], axis=1),
        )

    @classmethod
    def from_arrays(cls, x, y) -> "TrainingSet":
        """The set whose pair k is (x[:, k], y[:, k]), from copies of x
        and y.  Raises DimensionMismatch if their shapes differ, and
        ValidationError unless they are non-empty and 2-d with every
        column a finite unit state by linalg.unit_state_check, the one
        check StateVector also makes.  The error names the first bad
        pair, its input before its target."""
        x = np.array(x, dtype=complex, order="C")
        y = np.array(y, dtype=complex, order="C")
        if x.shape != y.shape:
            raise DimensionMismatch("inputs have shape %s, targets %s" % (x.shape, y.shape))
        if x.ndim != 2 or x.size == 0:
            raise ValidationError("inputs and targets must be non-empty 2-d arrays")
        bad_x, n2_x = unit_state_check(x)
        bad_y, n2_y = unit_state_check(y)
        bad = bad_x | bad_y
        if bad.any():
            k = int(np.argmax(bad))
            side, a, n2 = ("input", x, n2_x) if bad_x[k] else ("target", y, n2_y)
            raise ValidationError("pair %d %s: %s" % (k, side, unit_state_reason(a[:, k], n2[k])))
        s = cls.__new__(cls)
        s._hold(x, y)
        return s

    def _hold(self, x: np.ndarray, y: np.ndarray) -> None:
        x.setflags(write=False)
        y.setflags(write=False)
        self._x, self._y = x, y
        self._completeness = classify_set(x)

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
        return self._x.shape[0]

    @property
    def completeness(self) -> Completeness:
        return self._completeness

    def __len__(self) -> int:
        return self._x.shape[1]

    def __repr__(self) -> str:
        return "TrainingSet(dim=%d, pairs=%d, %s)" % (
            self.dim, len(self), self._completeness.value,
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


def total_weight(s: TrainingSet) -> Matrix:
    """Sum of the per-pair weights of a training set, Y X†."""
    return Matrix.wrap(s.y @ s.x.conj().T)


def classify_set(x: np.ndarray) -> Completeness:
    """Classify input coverage as less-complete, complete or over-complete.

    x holds the inputs as its columns (dim x m), all finite; a
    non-finite entry raises ValidationError.  Fewer than dim inputs
    cannot span the space.  Otherwise the rank is the number of
    singular values of x above DEFAULT_RANK_TOL * max(1, sigma_max),
    taken from the dim x dim R of numpy's QR of x†, which has the
    singular values of x.  Only the singular values of R† are computed
    (:func:`singular_values`, no U or V): one-sided Jacobi runs on R†,
    as in the preconditioning of Drmač and Veselić ("New fast and
    accurate Jacobi SVD algorithm", SIMAX 2008).  The Gram matrix x x†
    is never formed: it would square the condition number.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.size == 0:
        raise ValidationError("cannot classify an empty set of pairs")
    finite = np.isfinite(x)
    if not finite.all():
        i, k = np.unravel_index(np.argmin(finite), x.shape)
        raise ValidationError("non-finite entry (nan or inf): x[%d, %d] = %s" % (i, k, x[i, k]))
    dim, count = x.shape
    if count < dim:
        return Completeness.LESS_COMPLETE
    # R† made C-contiguous is swept without a copy, and R is freed
    # first: a fit's peak memory is measured.
    r_dag = np.conjugate(np.linalg.qr(x.conj().T, mode="r").T, order="C")
    if numerical_rank(singular_values(r_dag)) < dim:
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


def train(s: TrainingSet, force: bool = False) -> PerceptronModel:
    """Learn a unitary operator from the training set in one shot.

    Accumulates the total weight, takes its SVD once, and sets every
    singular value to one.  Raises InconsistentTrainingSet when the
    pairs cannot come from a single unitary (override with force=True
    to fit the polar factor of the contradictory weight anyway); the
    slack allowed on inner-product preservation is CONSISTENCY_TOL.

    With W = Y X† = u diag(sigma) v_dag, the polar factor u @ v_dag
    minimises sum_i ||U x_i - y_i||^2 over all unitaries U: this is
    orthogonal Procrustes (Schönemann, Psychometrika 1966).  So on an
    inconsistent set, force=True gives the least-squares unitary.

    Parameters
    ----------
    s : TrainingSet
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
    r = svd(w)
    return PerceptronModel(
        dim=s.dim,
        f=r.u,
        sigma=r.sigma,
        w_new=r.v_dag,
        unitary=Matrix.wrap(r.u.array @ r.v_dag.array),
        rank=r.rank,
    )


def predict(model: PerceptronModel, x: StateVector) -> StateVector:
    """Apply the learned unitary to a state."""
    if x.dim != model.dim:
        raise DimensionMismatch("model dim %d, state dim %d" % (model.dim, x.dim))
    return apply(model.unitary, x)
