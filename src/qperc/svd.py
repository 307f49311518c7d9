"""Singular value decomposition of square complex matrices by one-sided
Jacobi rotations, written from scratch on top of plain array arithmetic.

The decomposition is m = U diag(sigma) V†.  One-sided Jacobi works on
the columns of a copy B of m: for every column pair (p, q) it applies a
unitary 2x2 rotation on the right that makes the two columns orthogonal,
and accumulates the same rotations into V.  When a full sweep over all
pairs performs no rotation the columns of B are mutually orthogonal, so
B = U diag(sigma) with sigma the column norms and U the normalized
columns.  Rotations only ever act on the right, hence U's columns stay
inside the column space of m.

The stop test is purely relative: a pair rests once its coupling is
below ORTH_TOL times the product of its column norms, which gives
one-sided Jacobi high relative accuracy (Demmel and Veselić, "Jacobi's
method is more accurate than QR", SIMAX 1992).  A column whose norm
falls to n·eps of the (unit) Frobenius norm carries no direction above
rounding; it is deflated, that is, never rotated again, and its U
direction is completed from the canonical basis instead of normalized
(LAPACK's zgesvj deflates in the same way).

The output is made deterministic: singular values are sorted in
descending order (stable towards the original column order on ties) and
each column of U is rotated so that its largest-modulus entry is real
and positive, with the paired V column absorbing the opposite phase so
the product U diag(sigma) V† is untouched.

:func:`triangular_factor` is the R of a Householder QR.  The singular
values of a tall matrix are those of its square R, so a rank can be
taken from a Jacobi SVD of R (the preconditioning of Drmač and Veselić,
"New fast and accurate Jacobi SVD algorithm", SIMAX 2008).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSquare, NumericalFailure
from .linalg import Matrix

# A column pair is rotated only while |<b_p|b_q>| exceeds this fraction
# of ||b_p|| * ||b_q||.  Columns that have collapsed to rounding noise,
# whose coupling could never drop below it, are deflated instead (see
# _jacobi_orthogonalize).
ORTH_TOL = 1e-14

# One-sided Jacobi converges quadratically once sorted; a handful of
# sweeps suffices in practice and hitting this cap signals a pathology.
MAX_SWEEPS = 100

DEFAULT_RANK_TOL = 1e-10

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SvdResult:
    """Factors of m = u @ diag(sigma) @ v_dag.

    Attributes
    ----------
    u, v_dag : Matrix
        Unitary factors; ``v_dag`` is stored already conjugate-transposed.
    sigma : tuple of float
        Singular values, descending, one per column of u.
    rank : int
        Number of singular values above ``rank_tol * max(1, sigma[0])``.
    rank_tol : float
        The relative threshold used for ``rank``.
    """

    u: Matrix
    sigma: tuple
    v_dag: Matrix
    rank: int
    rank_tol: float


def _jacobi_orthogonalize(av: np.ndarray, max_sweeps: int) -> None:
    """Rotate the columns of av = [a; v] (a over v, each n x n) in
    place until the columns of a are mutually orthogonal; v collects
    the rotations, so a_out = a_in @ v_out when v starts as I.  Expects
    a at unit Frobenius norm and av column-major, so one update rotates
    both halves of a contiguous column."""
    n = av.shape[1]
    a = av[:n]
    # Squared norm at or below which a column is deflated.
    tiny = (n * _EPS) ** 2
    vdot = np.vdot
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            ap = a[:, p]
            for q in range(p + 1, n):
                aq = a[:, q]
                alpha = vdot(ap, ap).real
                beta = vdot(aq, aq).real
                if alpha <= tiny or beta <= tiny:
                    continue
                gamma = complex(vdot(ap, aq))
                g = abs(gamma)
                if g <= ORTH_TOL * math.sqrt(alpha * beta):
                    continue
                # Factor out the phase of gamma, then the 2x2 Gram
                # matrix [[alpha, g], [g, beta]] is real symmetric and
                # a real Givens rotation with tan(2t) = 2g/(beta-alpha)
                # zeroes the coupling.  Smaller-angle root for
                # stability.
                phase = gamma / g
                if alpha == beta:
                    t = 1.0
                else:
                    tau = (beta - alpha) / (2.0 * g)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                bp = av[:, p]
                bq = av[:, q]
                rp = c * bp - s * phase.conjugate() * bq
                bq *= c
                bq += s * phase * bp
                bp[:] = rp
                rotated = True
        if not rotated:
            return
    raise NumericalFailure(
        "Jacobi SVD did not converge within %d sweeps" % max_sweeps
    )


def _complete_null_columns(u: np.ndarray, filled: np.ndarray) -> None:
    """Fill the columns of u marked False in `filled` with unit vectors
    orthogonal to everything already present, in column order.

    Each is the canonical basis vector with the largest residual after
    two Gram-Schmidt passes against the columns present, normalized
    (the lowest index on ties).  The squared residuals of all n basis
    vectors sum to the number of columns still missing, so the largest
    is at least 1/sqrt(n) whenever the present columns are orthonormal.
    """
    n = u.shape[0]
    filled = filled.copy()
    for i in np.flatnonzero(~filled):
        q = u[:, filled]
        cand = np.eye(n, dtype=complex)
        for _ in range(2):
            cand -= q @ (q.conj().T @ cand)
        r = np.linalg.norm(cand, axis=0)
        k = int(np.argmax(r))
        if r[k] < 0.5 / math.sqrt(n):  # present columns not orthonormal
            raise NumericalFailure("failed to complete orthonormal basis")
        u[:, i] = cand[:, k] / r[k]
        filled[i] = True


def numerical_rank(sigma, rank_tol: float) -> int:
    """The number of singular values (given in descending order) above
    rank_tol * max(1, sigma[0])."""
    cut = rank_tol * max(1.0, sigma[0])
    return sum(s > cut for s in sigma)


def svd(m: Matrix, rank_tol: float = DEFAULT_RANK_TOL, max_sweeps: int = MAX_SWEEPS) -> SvdResult:
    """Decompose a square complex matrix as u @ diag(sigma) @ v_dag.

    Parameters
    ----------
    m : Matrix
        Square input.  Raises NotSquare otherwise.
    rank_tol : float
        Relative cutoff for counting a singular value as nonzero.
    max_sweeps : int
        Rotation sweep cap; exceeding it raises NumericalFailure.

    Returns
    -------
    SvdResult
        With u, v_dag unitary (to working precision), sigma descending
        and real nonnegative, and the numerical rank.
    """
    if m.rows != m.cols:
        raise NotSquare("svd here is restricted to square matrices, got %dx%d" % m.shape)
    n = m.rows
    # Work at unit Frobenius norm so the convergence thresholds are
    # scale free and column products cannot underflow.  The norm is
    # taken after dividing by the largest modulus, because the squares
    # of entries below about 1e-162 underflow and of those above about
    # 1e154 overflow.  The scaled copy is dropped before the sweeps.
    amax = float(np.abs(m.array).max()) or 1.0
    b = m.array / amax
    fro = math.sqrt(np.vdot(b, b).real) or 1.0
    av = np.zeros((2 * n, n), dtype=complex, order="F")
    np.divide(b, fro, out=av[:n])
    del b
    np.fill_diagonal(av[n:], 1.0)
    _jacobi_orthogonalize(av, max_sweeps)

    norms = np.linalg.norm(av[:n], axis=0)
    order = np.argsort(-norms, kind="stable")
    u = av[:n, order]
    v = av[n:, order]
    del av
    norms = norms[order]

    # Deflated columns are directionless noise; their U direction is
    # completed from the canonical basis instead of normalized.
    live = norms > n * _EPS
    u /= np.where(live, norms, 1.0)
    _complete_null_columns(u, live)

    # Phase convention: largest-modulus entry of every u column made
    # real positive; the paired v column absorbs the conjugate phase
    # whenever its singular value is nonzero so the product is kept.
    z = u[np.argmax(np.abs(u), axis=0), np.arange(n)]
    ph = (z / np.abs(z)).conj()
    u *= ph
    v *= np.where(live, ph, 1.0)

    sigma = tuple(float(x) for x in norms * fro * amax)
    rank = numerical_rank(sigma, rank_tol)
    np.conjugate(v, out=v)
    return SvdResult(
        u=Matrix.wrap(u),
        sigma=sigma,
        v_dag=Matrix.wrap(v.T),
        rank=rank,
        rank_tol=float(rank_tol),
    )


def triangular_factor(a: np.ndarray) -> np.ndarray:
    """The n x n upper-triangular R of a Householder QR of a tall m x n
    complex array (m >= n), which has the singular values of a.

    Column k is reflected onto -e^{i arg a_kk} ||a[k:, k]|| e_k, one
    reflection per column as array operations; Q is not formed.
    """
    a = np.array(a, dtype=complex)
    n = a.shape[1]
    for k in range(n):
        x = a[k:, k]
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            continue
        x0 = x[0]
        alpha = -(x0 / abs(x0) if x0 != 0 else 1.0) * norm
        w = x.copy()
        w[0] -= alpha
        w /= np.linalg.norm(w)
        tail = a[k:, k:]
        tail -= 2.0 * np.outer(w, w.conj() @ tail)
    return np.triu(a[:n])


def polar_unitary(m: Matrix):
    """The unitary polar factor u @ v_dag of m, plus m's numerical rank
    at DEFAULT_RANK_TOL.

    For full-rank m this is the unique nearest unitary in the Frobenius
    sense; when m is rank deficient the factor is still unitary and
    still maps every right-singular direction with nonzero singular
    value exactly where m/sigma does, while the completion on the null
    space follows the deterministic convention of :func:`svd`.
    """
    r = svd(m)
    return Matrix.wrap(r.u.array @ r.v_dag.array), r.rank
