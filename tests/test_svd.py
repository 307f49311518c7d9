import gc
import importlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperc.errors import NotSquare, NumericalFailure
from qperc.linalg import Matrix, normalize
from qperc.perceptron import Completeness, classify_set
from qperc.svd import numerical_rank, polar_unitary, singular_values, svd

# The module itself: the package exports a function of the same name.
svd_module = importlib.import_module("qperc.svd")

SQRT2 = math.sqrt(2.0)

# _VECTOR_MIN settings that force svd onto one kernel at every order.
KERNELS = {"scalar": 10**9, "rounds": 2}

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
    w = Matrix(np.outer(y.amps, x.amps.conj()))
    r = svd(w)
    assert r.rank == 1
    np.testing.assert_allclose(r.sigma, (1.0, 0.0), atol=1e-12)
    u, _ = polar_unitary(w)
    np.testing.assert_allclose(u.array @ x.amps, y.amps, atol=1e-12)


def test_null_space_completion_is_deterministic():
    w = Matrix(np.outer(normalize([1, 2, 3]).amps, normalize([3, 1, 1]).amps.conj()))
    r1 = svd(w)
    r2 = svd(Matrix(w.array.copy()))
    np.testing.assert_array_equal(r1.u.array, r2.u.array)
    np.testing.assert_array_equal(r1.v_dag.array, r2.v_dag.array)


def test_rank_tol_is_respected():
    m = Matrix(np.diag([1.0, 1e-12]))
    assert svd(m).rank == 1  # default 1e-10 cutoff
    # A value exactly at the cutoff does not count.
    assert numerical_rank((1.0, 1e-10)) == 1


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
        # Half a decade off every power of ten, so no value sits on the
        # 1e-10 rank cutoff, where rounding would decide the rank.
        s = 10.0 ** -(np.arange(n) + 0.5)
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


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12), extra=st.integers(0, 120), data=st.data())
def test_classification_matches_the_lapack_rank(seed, dim, extra, data):
    # x = B C of rank r over dim + extra unit columns; dim reaches
    # _VECTOR_MIN, so the rank is read by both kernels.
    r = data.draw(st.integers(1, dim), label="rank")
    g = np.random.default_rng(seed)
    m = dim + extra
    x = (g.standard_normal((dim, r)) + 1j * g.standard_normal((dim, r))) @ (
        g.standard_normal((r, m)) + 1j * g.standard_normal((r, m))
    )
    x /= np.linalg.norm(x, axis=0)
    if _oracle_rank(x) < dim:
        want = Completeness.LESS_COMPLETE
    elif extra == 0:
        want = Completeness.COMPLETE
    else:
        want = Completeness.OVER_COMPLETE
    assert classify_set(x) is want


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


def test_subnormal_input_scales_without_overflow():
    # Dividing a complex array by a subnormal largest modulus overflows,
    # so the pre-scale divides the real and imaginary parts instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = svd(Matrix(np.diag([1e-320, 1e-321])))
    assert res.sigma == (1e-320, 1e-321)
    assert res.rank == 0


@pytest.mark.parametrize("n", [3, 12])
def test_non_contiguous_input_matches_the_oracle(rng, n):
    a = _rand_complex(rng, n)
    m = Matrix.wrap(a.T)
    assert not m.array.flags.c_contiguous
    res = svd(m)
    np.testing.assert_allclose(res.sigma, np.linalg.svd(a.T, compute_uv=False), rtol=1e-12)
    rebuilt = res.u.array @ np.diag(res.sigma) @ res.v_dag.array
    np.testing.assert_allclose(rebuilt, a.T, rtol=0, atol=1e-12 * res.sigma[0])


def test_rounds_cover_every_pair_once_in_disjoint_rounds():
    for n in range(2, 66):
        rounds = svd_module._rounds(n)
        assert len(rounds) == n - 1 + n % 2
        pairs = []
        for pq in rounds:
            k = len(pq) // 2
            p, q = pq[:k], pq[k:]
            assert len(set(pq.tolist())) == len(pq)
            assert np.all(p < q) and np.all(q < n)
            pairs += zip(p.tolist(), q.tolist())
        assert sorted(pairs) == list(itertools.combinations(range(n), 2))


SPECTRA = ["full", "deficient", "graded", "clustered"]


def _spectrum_case(seed, n, kind, data):
    """An n x n complex matrix: random (full), a product through a
    drawn inner rank below n (deficient), or with singular values
    graded over nine decades or clustered within 1e-9 of one."""
    g = np.random.default_rng(seed)
    if kind == "full":
        return _rand_complex(g, n)
    if kind == "deficient":
        r = data.draw(st.integers(0, n - 1), label="r")
        return (g.standard_normal((n, r)) + 1j * g.standard_normal((n, r))) @ (
            g.standard_normal((r, n)) + 1j * g.standard_normal((r, n))
        )
    s = 10.0 ** -np.linspace(0, 9, n) if kind == "graded" else 1.0 + 1e-9 * g.standard_normal(n)
    return _rand_unitary(g, n) @ np.diag(s) @ _rand_unitary(g, n)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(9, 40),
    kind=st.sampled_from(SPECTRA),
    data=st.data(),
)
def test_round_robin_kernel_matches_the_oracle(seed, n, kind, data):
    m = _spectrum_case(seed, n, kind, data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svd_module, "_VECTOR_MIN", KERNELS["rounds"])
        res = svd(Matrix(m))
    oracle = np.linalg.svd(m, compute_uv=False)
    scale = max(1.0, oracle[0])
    eye = np.eye(n)
    np.testing.assert_allclose(res.sigma, oracle, rtol=0, atol=1e-12 * scale)
    assert np.max(np.abs(_reconstruct(res) - m)) < 1e-12 * scale
    assert np.max(np.abs(res.u.array @ res.u.array.conj().T - eye)) < 1e-12
    assert np.max(np.abs(res.v_dag.array @ res.v_dag.array.conj().T - eye)) < 1e-12
    assert res.rank == _oracle_rank(m)


@pytest.mark.parametrize(
    "diagonal",
    [
        np.ones(12),
        np.array([2.0, 2.0] + [1.0] * 10),
        np.array([1.0, 2.0j, -2.0, 1.0, 0.0, 3.0, -3.0j] + [0.5] * 6),
    ],
    ids=["identity", "leading-tie", "phased-ties"],
)
def test_kernels_agree_on_exact_ties(monkeypatch, diagonal):
    # Neither kernel rotates a diagonal matrix, so the stable sort and
    # the phase convention alone fix the factors, bit for bit.
    m = Matrix(np.diag(diagonal))
    results = []
    for setting in KERNELS.values():
        monkeypatch.setattr(svd_module, "_VECTOR_MIN", setting)
        results.append(svd(m))
    scalar, rounds = results
    assert scalar.sigma == rounds.sigma
    np.testing.assert_allclose(scalar.sigma, sorted(np.abs(diagonal), reverse=True), rtol=1e-15)
    np.testing.assert_array_equal(scalar.u.array, rounds.u.array)
    np.testing.assert_array_equal(scalar.v_dag.array, rounds.v_dag.array)
    np.testing.assert_allclose(_reconstruct(rounds), m.array, atol=1e-15)


def test_tied_singular_values_keep_their_column_order():
    # A diagonal matrix makes no rotation, so equal column norms tie
    # exactly and only a stable sort keeps each tie in column order.
    d = np.array([1.0, 2.0] * 16)
    r = svd(Matrix(np.diag(d)))
    np.testing.assert_array_equal(np.argmax(np.abs(r.u.array), axis=0), np.argsort(-d, kind="stable"))
    assert r.sigma == tuple(sorted(d, reverse=True))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_sweep_cap_raises_on_either_kernel(rng, monkeypatch, kernel):
    monkeypatch.setattr(svd_module, "_VECTOR_MIN", KERNELS[kernel])
    with pytest.raises(NumericalFailure):
        svd(Matrix(_rand_complex(rng, 32)), max_sweeps=1)


def test_round_robin_kernel_peak_memory_stays_under_twice_its_work_array(rng):
    # The kernel gathers, rotates and scatters one round at a time; its
    # transients must stay well below a second copy of the work array.
    n = 32

    def work_array():
        av = np.zeros((2 * n, n), dtype=complex, order="F")
        m = _rand_complex(rng, n)
        av[:n] = m / np.linalg.norm(m)
        np.fill_diagonal(av[n:], 1.0)
        return av

    svd_module._jacobi_rounds(work_array(), svd_module.MAX_SWEEPS)  # fill the schedule cache
    av = work_array()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        svd_module._jacobi_rounds(av, svd_module.MAX_SWEEPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * av.nbytes


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    kind=st.sampled_from(SPECTRA),
    kernel=st.sampled_from(sorted(KERNELS)),
    data=st.data(),
)
def test_singular_values_are_the_svd_sigma_bit_for_bit(seed, n, kind, kernel, data):
    # Both sweep the same scaled copy of m with the same rotations; the
    # values-only path just carries no V along.
    m = _spectrum_case(seed, n, kind, data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svd_module, "_VECTOR_MIN", KERNELS[kernel])
        values = singular_values(m)
        res = svd(Matrix(m))
    assert values == res.sigma
    assert all(type(v) is float for v in values)
    assert numerical_rank(values) == res.rank


def test_singular_values_take_real_arrays_and_reject_rectangular():
    assert singular_values(np.diag([1.0, 3.0, 2.0])) == (3.0, 2.0, 1.0)
    assert singular_values(np.zeros((1, 1))) == (0.0,)
    with pytest.raises(NotSquare):
        singular_values(np.ones((2, 3)))
    with pytest.raises(NotSquare):
        singular_values(np.ones(4))


def test_values_only_work_array_peak_memory_stays_under_three_times_its_size(rng):
    # Without a v half, a round of n/2 pairs gathers every column of a,
    # so its transients are one copy of the work array plus the two
    # half-size products of _rotate, and numpy's index buffers: just
    # over twice the array (the [a; v] array above is twice as large
    # for the same transients).  They must stay below a third copy.
    n = 32

    def work_array():
        m = _rand_complex(rng, n)
        return np.asfortranarray(m / np.linalg.norm(m))

    svd_module._jacobi_rounds(work_array(), svd_module.MAX_SWEEPS)  # fill the schedule cache
    a = work_array()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        svd_module._jacobi_rounds(a, svd_module.MAX_SWEEPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 3 * a.nbytes
