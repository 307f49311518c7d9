"""Typed complex vectors and matrices plus the handful of operations
the perceptron needs (tensor product, matrix-vector product,
unitarity test).

Amplitudes are stored as immutable ``numpy`` arrays of ``complex128``.
Construction validates shape, finiteness and (for states) the norm;
nothing is ever silently renormalized.  One function,
:func:`unit_state_check`, decides whether amplitudes are a finite
unit state, for one state or for every column of an array at once.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, NotSquare, ValidationError

# Tolerance on | ||x||^2 - 1 | accepted by unit_state_check.
NORM_TOL = 1e-9

# Default tolerance for is_unitary (max entrywise deviation of m m† from I).
DEFAULT_UNITARY_TOL = 1e-10


def _freeze(a: np.ndarray, copy: bool = True) -> np.ndarray:
    # Without a copy, a view is frozen so the caller's array keeps its flags.
    a = np.array(a, dtype=complex) if copy else np.asarray(a, dtype=complex).view()
    if not np.all(np.isfinite(a)):
        raise ValidationError("non-finite entry (nan or inf)")
    a.setflags(write=False)
    return a


def unit_state_check(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each column of a 2-d complex array, or a 1-d array as a
    whole, fails to be a finite unit state, and its squared norm.

    A column fails when ``|sum |a_i|^2 - 1| <= NORM_TOL`` is not true,
    so a nan entry (nan norm) fails, and so does an inf entry or a
    square that overflows (inf norm).  See :func:`unit_state_reason`
    for the reason.
    """
    with np.errstate(over="ignore"):
        n2 = (a.real ** 2 + a.imag ** 2).sum(axis=0)
    return ~(np.abs(n2 - 1.0) <= NORM_TOL), n2


def unit_state_reason(a: np.ndarray, n2: float) -> str:
    """Why the state a, with squared norm n2, failed :func:`unit_state_check`."""
    if not np.isfinite(a).all():
        return "non-finite entry (nan or inf)"
    return "state is not normalized: sum |a_i|^2 = %.12g" % n2


class StateVector:
    """A quantum state: a unit-norm complex amplitude vector.

    Parameters
    ----------
    amps : sequence of complex
        The amplitudes.  Their squared moduli must sum to 1 within
        ``NORM_TOL``; use :func:`normalize` for raw coefficient lists.
    """

    __slots__ = ("_a",)

    def __init__(self, amps: Iterable[complex]):
        a = np.array(amps if isinstance(amps, np.ndarray) else list(amps), dtype=complex)
        if a.ndim != 1 or a.size == 0:
            raise ValidationError("state must be a non-empty 1-d amplitude list")
        bad, n2 = unit_state_check(a)
        if bad:
            raise ValidationError(unit_state_reason(a, n2))
        a.setflags(write=False)
        self._a = a

    @classmethod
    def basis(cls, dim: int, k: int) -> "StateVector":
        """The computational basis state |k> in a dim-dimensional space."""
        if not 0 <= k < dim:
            raise ValidationError("basis index %d out of range for dim %d" % (k, dim))
        a = np.zeros(dim, dtype=complex)
        a[k] = 1.0
        return cls(a)

    @classmethod
    def unchecked(cls, amps) -> "StateVector":
        """Wrap amplitudes without the norm check.

        Used by :func:`apply`, whose result is deliberately not
        renormalized; callers that care must inspect
        ``np.linalg.norm(v.amps)``.
        Finiteness is still enforced.
        """
        v = object.__new__(cls)
        a = _freeze(np.asarray(amps))
        if a.ndim != 1 or a.size == 0:
            raise ValidationError("state must be a non-empty 1-d amplitude list")
        v._a = a
        return v

    @property
    def amps(self) -> np.ndarray:
        return self._a

    @property
    def dim(self) -> int:
        return self._a.size

    def __repr__(self) -> str:
        return "StateVector(%s)" % np.array2string(self._a, separator=", ")


class Matrix:
    """A complex matrix (not necessarily square)."""

    __slots__ = ("_m",)

    def __init__(self, rows):
        m = _freeze(np.asarray([list(r) for r in rows] if not isinstance(rows, np.ndarray) else rows))
        if m.ndim != 2 or m.size == 0:
            raise ValidationError("matrix must be a non-empty 2-d array")
        self._m = m

    @classmethod
    def wrap(cls, a: np.ndarray) -> "Matrix":
        """Wrap a complex array without copying it.

        For arrays the caller has just built and will not write to
        again: the array is checked finite and the wrapped view is
        read-only.
        """
        m = object.__new__(cls)
        m._m = _freeze(a, copy=False)
        if m._m.ndim != 2 or m._m.size == 0:
            raise ValidationError("matrix must be a non-empty 2-d array")
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(np.eye(n, dtype=complex))

    @property
    def array(self) -> np.ndarray:
        return self._m

    @property
    def rows(self) -> int:
        return self._m.shape[0]

    @property
    def cols(self) -> int:
        return self._m.shape[1]

    @property
    def shape(self):
        return self._m.shape

    def __repr__(self) -> str:
        return "Matrix(%s)" % np.array2string(self._m, separator=", ")


def normalize(coeffs: Iterable[complex]) -> StateVector:
    """Scale a coefficient list to unit norm and return it as a state.

    Raises ValidationError on the zero vector or a non-finite entry.
    The norm is taken after dividing the real and imaginary parts, as
    floats, by the largest of them: squares of huge parts overflow, and
    so does complex division by a subnormal.
    """
    p = _freeze(np.asarray(list(coeffs))).view(float)
    top = float(np.abs(p).max(initial=0.0))
    if top == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    a = (p / top).view(complex)
    return StateVector(a / np.linalg.norm(a))


def tensor(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker (tensor) product, row-major block layout."""
    return Matrix(np.kron(a.array, b.array))


def apply(m: Matrix, x: StateVector) -> StateVector:
    """Matrix-vector product m|x>.

    The result is returned as-is, not renormalized: applying a
    non-unitary matrix yields a non-unit vector and the caller is
    expected to check the norm if it matters.
    """
    if m.cols != x.dim:
        raise DimensionMismatch("cannot apply %dx%d to dim-%d state" % (m.rows, m.cols, x.dim))
    return StateVector.unchecked(m.array @ x.amps)


def is_unitary(m: Matrix, tol: float = DEFAULT_UNITARY_TOL) -> bool:
    """True when max |(m m†)_ij - δ_ij| <= tol.  Raises NotSquare."""
    if m.rows != m.cols:
        raise NotSquare("unitarity is only defined for square matrices")
    d = m.array @ m.array.conj().T - np.eye(m.rows)
    return float(np.max(np.abs(d))) <= tol


def max_abs_diff(a, b) -> float:
    """Largest entrywise |a_i - b_i| between two states/matrices/arrays."""
    aa = a.amps if isinstance(a, StateVector) else a.array if isinstance(a, Matrix) else np.asarray(a)
    bb = b.amps if isinstance(b, StateVector) else b.array if isinstance(b, Matrix) else np.asarray(b)
    if aa.shape != bb.shape:
        raise DimensionMismatch("shape %s vs %s" % (aa.shape, bb.shape))
    return float(np.max(np.abs(aa - bb)))
