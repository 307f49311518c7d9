import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qperc.errors import NotSquare, NumericalFailure
from qperc.linalg import Matrix, normalize, outer
from qperc.svd import polar_unitary, svd, triangular_factor

SQRT2 = math.sqrt(2.0)

# accumulated weight of worked example 1; its singular values are
# exactly 2 and 1 and its polar factor is the Hadamard gate
W_EX1 = Matrix(np.array([[1.6, 2.2], [0.8, -1.4]]) / SQRT2)
H = np.array([[1, 1], [1, -1]]) / SQRT2


def _rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _rand_unitary(rng, n):
    q, _ = np.linalg.qr(_rand_complex(rng, n))
    return q


def _reconstruct(r):
    return r.u.array @ np.diag(r.sigma) @ r.v_dag.array


def test_example_weight_singular_values():
    r = svd(W_EX1)
    np.testing.assert_allclose(r.sigma, (2.0, 1.0), atol=1e-9)
    assert r.rank == 2


def test_example_weight_reconstruction():
    r = svd(W_EX1)
    np.testing.assert_allclose(_reconstruct(r), W_EX1.array, atol=1e-14)


def test_identity_matrix():
    r = svd(Matrix.identity(4))
    assert r.sigma == (1.0, 1.0, 1.0, 1.0)
    assert r.rank == 4
    np.testing.assert_allclose(r.u.array @ r.v_dag.array, np.eye(4), atol=1e-14)


def test_diagonal_with_zero():
    r = svd(Matrix(np.diag([3.0, 0.0])))
    np.testing.assert_allclose(r.sigma, (3.0, 0.0), atol=1e-15)
    assert r.rank == 1


def test_zero_matrix():
    r = svd(Matrix(np.zeros((3, 3))))
    assert r.sigma == (0.0, 0.0, 0.0)
    assert r.rank == 0
    # factors must still be unitary thanks to basis completion
    np.testing.assert_allclose(r.u.array @ r.u.array.conj().T, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(r.v_dag.array @ r.v_dag.array.conj().T, np.eye(3), atol=1e-14)


def test_sigma_sorted_and_nonnegative(rng):
    for _ in range(25):
        r = svd(Matrix(_rand_complex(rng, 5)))
        assert all(s >= 0.0 for s in r.sigma)
        assert all(r.sigma[i] >= r.sigma[i + 1] for i in range(4))


def test_random_reconstruction(rng):
    for trial in range(60):
        n = (2, 4, 8)[trial % 3]
        m = _rand_complex(rng, n)
        r = svd(Matrix(m))
        assert np.max(np.abs(_reconstruct(r) - m)) < 1e-10


def test_factors_unitary(rng):
    for trial in range(30):
        n = (2, 4, 8)[trial % 3]
        r = svd(Matrix(_rand_complex(rng, n)))
        eye = np.eye(n)
        assert np.max(np.abs(r.u.array @ r.u.array.conj().T - eye)) < 1e-12
        assert np.max(np.abs(r.v_dag.array @ r.v_dag.array.conj().T - eye)) < 1e-12


def test_rank_deficient_reconstruction(rng):
    for trial in range(20):
        n, k = ((4, 2), (8, 3))[trial % 2]
        m = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) @ (
            rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        )
        r = svd(Matrix(m))
        assert r.rank == k
        assert np.max(np.abs(_reconstruct(r) - m)) < 1e-10


def test_singular_values_of_unitary_are_ones(rng):
    for n in (2, 4, 8):
        r = svd(Matrix(_rand_unitary(rng, n)))
        np.testing.assert_allclose(r.sigma, np.ones(n), atol=1e-10)


def test_scaling_leaves_polar_factor_alone(rng):
    m = Matrix(_rand_complex(rng, 4))
    scaled = Matrix(3.7 * m.array)
    u1, rank1 = polar_unitary(m)
    u2, rank2 = polar_unitary(scaled)
    assert rank1 == rank2
    np.testing.assert_allclose(u1.array, u2.array, atol=1e-9)
    np.testing.assert_allclose(
        svd(scaled).sigma, 3.7 * np.asarray(svd(m).sigma), atol=1e-9
    )


def test_polar_factor_of_example_weight_is_hadamard():
    u, rank = polar_unitary(W_EX1)
    np.testing.assert_allclose(u.array, H, atol=1e-9)
    assert rank == 2


def test_polar_factor_of_unitary_is_itself(rng):
    for n in (2, 4, 8):
        q = _rand_unitary(rng, n)
        u, rank = polar_unitary(Matrix(q))
        assert rank == n
        np.testing.assert_allclose(u.array, q, atol=1e-10)


def test_polar_factor_matches_inverse_sqrt_construction(rng):
    # independent route: m (m† m)^(-1/2) via a hermitian eigenbasis
    for trial in range(30):
        n = (2, 4, 8)[trial % 3]
        m = _rand_complex(rng, n)
        lam, q = np.linalg.eigh(m.conj().T @ m)
        oracle = m @ (q @ np.diag(lam ** -0.5) @ q.conj().T)
        u, _ = polar_unitary(Matrix(m))
        assert np.max(np.abs(u.array - oracle)) < 1e-8


def test_rank_one_outer_product():
    x = normalize([-11, 7])
    y = normalize([-4, -18])
    w = outer(y, x)
    r = svd(w)
    assert r.rank == 1
    np.testing.assert_allclose(r.sigma, (1.0, 0.0), atol=1e-12)
    u, _ = polar_unitary(w)
    np.testing.assert_allclose(u.array @ x.amps, y.amps, atol=1e-12)


def test_null_space_completion_is_deterministic():
    w = outer(normalize([1, 2, 3]), normalize([3, 1, 1]))
    r1 = svd(w)
    r2 = svd(Matrix(w.array.copy()))
    np.testing.assert_array_equal(r1.u.array, r2.u.array)
    np.testing.assert_array_equal(r1.v_dag.array, r2.v_dag.array)


def test_rank_tol_is_respected():
    m = Matrix(np.diag([1.0, 1e-12]))
    assert svd(m).rank == 1  # default 1e-10 cutoff
    assert svd(m, rank_tol=1e-14).rank == 2


def test_rejects_rectangular():
    with pytest.raises(NotSquare):
        svd(Matrix([[1, 0, 0], [0, 1, 0]]))


def test_sweep_cap_raises(rng):
    m = Matrix(_rand_complex(rng, 4))
    with pytest.raises(NumericalFailure):
        svd(m, max_sweeps=1)
    # a diagonal matrix needs no rotations, so one sweep is enough
    assert svd(Matrix(np.diag([2.0, 1.0])), max_sweeps=1).rank == 2


def _oracle_rank(m, rank_tol=1e-10):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > rank_tol * max(1.0, s[0])))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16), data=st.data())
def test_rank_deficient_products_are_exact_and_unitary(seed, n, data):
    # A_{n x r} B_{r x n}: noise columns must be deflated and completed,
    # never normalized into U.
    r = data.draw(st.integers(0, n - 1), label="r")
    g = np.random.default_rng(seed)
    m = (g.standard_normal((n, r)) + 1j * g.standard_normal((n, r))) @ (
        g.standard_normal((r, n)) + 1j * g.standard_normal((r, n))
    )
    res = svd(Matrix(m))
    eye = np.eye(n)
    scale = max(1.0, float(np.linalg.norm(m)))
    assert np.max(np.abs(_reconstruct(res) - m)) < 1e-12 * scale
    assert np.max(np.abs(res.u.array @ res.u.array.conj().T - eye)) < 1e-12
    assert np.max(np.abs(res.v_dag.array @ res.v_dag.array.conj().T - eye)) < 1e-12
    assert res.rank == r == _oracle_rank(m)
    np.testing.assert_allclose(res.sigma, np.linalg.svd(m, compute_uv=False), atol=1e-12 * scale)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    kind=st.sampled_from(["graded", "clustered", "ill-conditioned"]),
)
def test_prescribed_spectra_match_the_oracle(seed, n, kind):
    g = np.random.default_rng(seed)
    if kind == "graded":
        s = 10.0 ** -np.arange(n)
    elif kind == "clustered":
        s = 1.0 + 1e-9 * g.standard_normal(n)
    else:
        s = np.concatenate([np.ones(n - 1), [1e-13]])
    m = _rand_unitary(g, n) @ np.diag(s) @ _rand_unitary(g, n)
    res = svd(Matrix(m))
    eye = np.eye(n)
    assert np.max(np.abs(_reconstruct(res) - m)) < 1e-12
    assert np.max(np.abs(res.u.array @ res.u.array.conj().T - eye)) < 1e-12
    assert np.max(np.abs(res.v_dag.array @ res.v_dag.array.conj().T - eye)) < 1e-12
    np.testing.assert_allclose(res.sigma, np.linalg.svd(m, compute_uv=False), atol=1e-13)
    assert res.rank == _oracle_rank(m)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), extra=st.integers(0, 120), data=st.data())
def test_triangular_factor_keeps_the_singular_values(seed, n, extra, data):
    r = data.draw(st.integers(0, n), label="rank")
    g = np.random.default_rng(seed)
    a = (g.standard_normal((n + extra, r)) + 1j * g.standard_normal((n + extra, r))) @ (
        g.standard_normal((r, n)) + 1j * g.standard_normal((r, n))
    )
    t = triangular_factor(a)
    assert t.shape == (n, n)
    assert np.all(np.tril(t, -1) == 0)
    scale = max(1.0, float(np.linalg.norm(a)))
    np.testing.assert_allclose(t.conj().T @ t, a.conj().T @ a, atol=1e-12 * scale**2)
    np.testing.assert_allclose(
        np.linalg.svd(t, compute_uv=False), np.linalg.svd(a, compute_uv=False), atol=1e-12 * scale
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    c=st.sampled_from([1e-200, 1e-100, 1e100, 1e160]),
    data=st.data(),
)
def test_sigma_scales_with_the_input_without_overflow_or_underflow(seed, n, c, data):
    # The squares of entries near 1e-200 underflow and those near 1e160
    # overflow, so the scale must be taken without squaring the input.
    r = data.draw(st.integers(0, n), label="r")
    g = np.random.default_rng(seed)
    m = (g.standard_normal((n, r)) + 1j * g.standard_normal((n, r))) @ (
        g.standard_normal((r, n)) + 1j * g.standard_normal((r, n))
    )
    base = svd(Matrix(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = svd(Matrix(c * m))
    np.testing.assert_allclose(
        res.sigma, c * np.asarray(base.sigma), rtol=0, atol=1e-12 * c * base.sigma[0]
    )
    # The rank cutoff is rank_tol * max(1, sigma[0]): absolute below 1,
    # relative above.
    assert res.rank == (0 if c < 1 else base.rank)
