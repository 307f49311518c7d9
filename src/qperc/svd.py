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

When only the singular values are wanted, :func:`singular_values`
sweeps a alone: no V is accumulated, which halves the rotation work,
and no U, phase or null-space completion is formed.  Its values are
those of :func:`svd`, bit for bit, since the rotations of a never read
V.

Two kernels sweep the pairs, with the same stop test, deflation and
rotation.  Below order _VECTOR_MIN, :func:`_jacobi_orthogonalize`
visits the pairs one at a time in row order.  From _VECTOR_MIN on,
:func:`_jacobi_rounds` takes each sweep in the round-robin order of
Brent and Luk ("The solution of singular-value and symmetric
eigenvalue problems on multiprocessor arrays", SIAM J. Sci. Stat.
Comput. 1985): n - 1 rounds of n/2 pairs that share no column, each
round tested and rotated by a few array operations.  A round's norms
and couplings are two ``np.vecdot`` calls on its gathered columns
(vecdot conjugates its first argument, so no conjugate copy is made).
The array operations cost more per call than the scalar loop's, so the
scalar loop is faster on small matrices.  Both end at the same contract
below, and their factors agree to rounding wherever the SVD is unique.

The output is made deterministic: singular values are sorted in
descending order (stable towards the original column order on ties) and
each column of U is rotated so that its largest-modulus entry is real
and positive, with the paired V column absorbing the opposite phase so
the product U diag(sigma) V† is untouched.
"""

from __future__ import annotations

import functools
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

# From this order on, svd sweeps by the rounds of _jacobi_rounds.  Below
# it the pair-at-a-time loop is faster, because a round's array calls
# cost more than they save on few pairs (the two meet near n = 9).
_VECTOR_MIN = 10


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
        Number of singular values above
        ``DEFAULT_RANK_TOL * max(1, sigma[0])``.
    """

    u: Matrix
    sigma: tuple
    v_dag: Matrix
    rank: int


def _jacobi_orthogonalize(av: np.ndarray, max_sweeps: int) -> None:
    """Rotate the columns of av = [a; v] (a over v, each n x n) in
    place until the columns of a are mutually orthogonal; v collects
    the rotations, so a_out = a_in @ v_out when v starts as I.  av may
    also be a alone (n rows), when only the singular values are wanted.
    Expects a at unit Frobenius norm and av column-major, so one update
    rotates both halves of a contiguous column."""
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


@functools.lru_cache(maxsize=None)
def _rounds(n: int) -> tuple:
    """One round-robin sweep over the column pairs of n columns, as a
    tuple of rounds.  A round is an index array [p, q] of 2k distinct
    columns that pairs p[i] < q[i]; every pair p < q < n occurs in
    exactly one round.

    Column 0 stays put while the others turn one place per round (the
    order of Brent and Luk).  Odd n is padded with a dummy column, and
    the pair that touches it is left out of its round.
    """
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [
            (min(i, j), max(i, j))
            for i, j in zip(ring[: m // 2], reversed(ring[m // 2 :]))
            if max(i, j) < n
        ]
        rounds.append(np.array(pairs, dtype=np.intp).reshape(-1, 2).T.ravel())
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(rounds)


def _rotate(x: np.ndarray, pq: np.ndarray, xpq: np.ndarray, c, to_q, to_p) -> None:
    """Rotate the k column pairs (p, q) of x, pq = [p, q], given
    xpq = x[:, pq]: x_p <- c x_p - to_p x_q and x_q <- c x_q + to_q x_p.
    The coefficients are complex, so no ufunc needs a cast buffer."""
    k = len(c)
    xp = xpq[:, :k]
    xq = xpq[:, k:]
    from_q = xq * to_p
    xq *= c
    xq += xp * to_q
    xp *= c
    xp -= from_q
    x[:, pq] = xpq


def _jacobi_rounds(av: np.ndarray, max_sweeps: int) -> None:
    """The contract of :func:`_jacobi_orthogonalize`, with each sweep
    taken as the rounds of :func:`_rounds`.  The pairs of a round share
    no column, so all of them are tested and rotated by a few array
    operations at once, the a half first and then the v half, if av
    has one.  Each temporary is dropped once spent and the rotation is
    done in place, so at most one gathered half and two products of
    its size are alive at once: the rounds run inside training, whose
    peak memory is measured."""
    n = av.shape[1]
    a = av[:n]
    v = av[n:]
    tiny = (n * _EPS) ** 2
    for _ in range(max_sweeps):
        rotated = False
        for pq in _rounds(n):
            k = len(pq) // 2
            apq = a[:, pq]
            # vecdot conjugates its first argument.
            norms = np.vecdot(apq, apq, axis=0).real
            gamma = np.vecdot(apq[:, :k], apq[:, k:], axis=0)
            alpha = norms[:k]
            beta = norms[k:]
            g = np.abs(gamma)
            live = (alpha > tiny) & (beta > tiny) & (g > ORTH_TOL * np.sqrt(alpha * beta))
            kept = np.count_nonzero(live)
            if not kept:
                continue
            if kept < k:
                pq = pq[np.concatenate((live, live))]
                apq = a[:, pq]
                alpha, beta, gamma, g = alpha[live], beta[live], gamma[live], g[live]
            # The rotation of the scalar kernel, one per pair; at
            # alpha == beta, tau is +0 and t comes out as 1.
            tau = (beta - alpha) / (2.0 * g)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            to_q = (c * t) * (gamma / g)
            to_p = to_q.conj()
            c = c.astype(complex)
            _rotate(a, pq, apq, c, to_q, to_p)
            del apq
            if len(v):
                _rotate(v, pq, v[:, pq], c, to_q, to_p)
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


def numerical_rank(sigma) -> int:
    """The number of singular values (given in descending order) above
    DEFAULT_RANK_TOL * max(1, sigma[0])."""
    cut = DEFAULT_RANK_TOL * max(1.0, sigma[0])
    return sum(s > cut for s in sigma)


def _orthogonalized(a: np.ndarray, with_v: bool, max_sweeps: int):
    """(work, fro, amax): the square array a / (amax * fro), at unit
    Frobenius norm, swept by the Jacobi kernel for its order until its
    columns are orthogonal.  work is [a; v] (2n rows, v from I) when
    with_v, else a alone (n rows).  The kernels never read v to rotate
    a, so work[:n] is the same, bit for bit, in both forms."""
    n = a.shape[0]
    # Work at unit Frobenius norm so the convergence thresholds are
    # scale free and column products cannot underflow.  The norm is
    # taken after dividing by the largest modulus, because the squares
    # of entries below about 1e-162 underflow and of those above about
    # 1e154 overflow; it divides the float view, as a complex division
    # by a subnormal amax overflows.  The scaled copy is dropped before
    # the sweeps.
    a = np.ascontiguousarray(a, dtype=complex)
    amax = float(np.abs(a).max()) or 1.0
    b = (a.view(float) / amax).view(complex)
    fro = math.sqrt(np.vdot(b, b).real) or 1.0
    work = np.zeros((2 * n if with_v else n, n), dtype=complex, order="F")
    np.divide(b, fro, out=work[:n])
    del b
    if with_v:
        np.fill_diagonal(work[n:], 1.0)
    if n >= _VECTOR_MIN:
        _jacobi_rounds(work, max_sweeps)
    else:
        _jacobi_orthogonalize(work, max_sweeps)
    return work, fro, amax


def singular_values(a) -> tuple:
    """The singular values of a square complex array, descending, as a
    tuple of floats: the ``sigma`` of :func:`svd`, bit for bit, for
    about half its rotation work, since no V is accumulated and no U
    is formed.  Raises NotSquare unless a is square."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare("svd here is restricted to square matrices, got shape %s" % (a.shape,))
    work, fro, amax = _orthogonalized(a, False, MAX_SWEEPS)
    norms = np.sort(np.linalg.norm(work, axis=0))[::-1]
    return tuple(float(x) for x in norms * fro * amax)


def svd(m: Matrix, max_sweeps: int = MAX_SWEEPS) -> SvdResult:
    """Decompose a square complex matrix as u @ diag(sigma) @ v_dag.

    Parameters
    ----------
    m : Matrix
        Square input.  Raises NotSquare otherwise.
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
    av, fro, amax = _orthogonalized(m.array, True, max_sweeps)

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
    np.conjugate(v, out=v)
    return SvdResult(
        u=Matrix.wrap(u),
        sigma=sigma,
        v_dag=Matrix.wrap(v.T),
        rank=numerical_rank(sigma),
    )


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
