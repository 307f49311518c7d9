import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qperc.linalg as linalg_mod
import qperc.perceptron as perceptron_mod
from qperc.errors import DimensionMismatch, InconsistentTrainingSet, ValidationError
from qperc.gates import complete_training_set, standard_gate
from qperc.linalg import Matrix, StateVector, apply, is_unitary, max_abs_diff, normalize
from qperc.perceptron import (
    CONSISTENCY_TOL,
    Completeness,
    TrainingPair,
    TrainingSet,
    classify_set,
    consistency_check,
    predict,
    total_weight,
    train,
)
from qperc.serialize import array_to_json, parse_state
from qperc.svd import DEFAULT_RANK_TOL

SQRT2 = math.sqrt(2.0)


def _pair(x, y):
    return TrainingPair(normalize(x), normalize(y))


def _example1_pairs():
    return [
        _pair([1, 0], [1, 1]),
        _pair([0, 1], [1, -1]),
        _pair([1, 2], [3, -1]),
    ]


def _example1_set():
    return TrainingSet(_example1_pairs())


def _contradictory_set():
    return TrainingSet([
        _pair([1, 0], [1, 0]),
        _pair([1, 0], [0, 1]),
    ])


def _rand_state(rng, n):
    return normalize(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _rand_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Matrix(q)


def test_training_pair_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        TrainingPair(StateVector.basis(2, 0), StateVector.basis(4, 0))


def test_training_set_rejects_empty_and_mixed():
    with pytest.raises(ValidationError):
        TrainingSet([])
    with pytest.raises(DimensionMismatch):
        TrainingSet([
            TrainingPair(StateVector.basis(2, 0), StateVector.basis(2, 0)),
            TrainingPair(StateVector.basis(4, 0), StateVector.basis(4, 0)),
        ])


def test_total_weight_of_example_1():
    w = total_weight(_example1_set())
    expected = np.array([[1.6, 2.2], [0.8, -1.4]]) / SQRT2
    np.testing.assert_allclose(w.array, expected, atol=1e-15)


def test_total_weight_of_complete_basis_set_is_the_gate():
    g = standard_gate("CNOT")
    w = total_weight(complete_training_set(g))
    np.testing.assert_allclose(w.array, g.matrix.array, atol=1e-15)


def test_classify_set_labels():
    assert _example1_set().completeness is Completeness.OVER_COMPLETE
    less = TrainingSet([_pair([-11, 7], [-4, -18])])
    assert less.completeness is Completeness.LESS_COMPLETE
    comp = complete_training_set(standard_gate("Toffoli"))
    assert comp.completeness is Completeness.COMPLETE


def test_classify_duplicated_basis_pairs_are_less_complete():
    e0 = StateVector.basis(2, 0)
    s = TrainingSet([TrainingPair(e0, e0), TrainingPair(e0, e0)])
    assert s.completeness is Completeness.LESS_COMPLETE


def test_classify_rejects_empty():
    with pytest.raises(ValidationError):
        classify_set([])


@pytest.mark.parametrize("shape", [(3, 3), (3, 4)], ids=["square", "tall"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_classify_rejects_a_non_finite_entry(shape, bad):
    # Bad input, not a numerical failure of the sweeps.
    x = np.eye(*shape, dtype=complex)
    x[1, 2] = bad
    with pytest.raises(ValidationError, match=r"non-finite entry \(nan or inf\): x\[1, 2\]"):
        classify_set(x)


def test_consistency_of_good_set():
    rep = consistency_check(_example1_set())
    assert rep.ok
    assert rep.violation <= 1e-12


def test_consistency_single_pair_has_nothing_to_compare():
    rep = consistency_check(TrainingSet([_pair([1, 3], [1, 3j])]))
    assert rep.ok
    assert rep.worst_pair is None
    assert rep.violation == 0.0


def test_consistency_of_contradictory_set(monkeypatch):
    rep = consistency_check(_contradictory_set())
    assert not rep.ok
    assert rep.worst_pair == (0, 1)
    assert rep.violation == pytest.approx(1.0, abs=1e-12)
    # A violation exactly at the tolerance passes.
    monkeypatch.setattr(perceptron_mod, "CONSISTENCY_TOL", rep.violation)
    assert consistency_check(_contradictory_set()).ok


def test_train_recovers_hadamard_from_example_1():
    model = train(_example1_set())
    h = np.array([[1, 1], [1, -1]]) / SQRT2
    assert max_abs_diff(model.unitary, Matrix(h)) < 1e-9
    np.testing.assert_allclose(model.sigma, (2.0, 1.0), atol=1e-9)
    assert model.rank == 2


def test_train_model_factors_multiply_back():
    model = train(_example1_set())
    w = model.f.array @ np.diag(model.sigma) @ model.w_new.array
    np.testing.assert_allclose(w, total_weight(_example1_set()).array, atol=1e-12)
    np.testing.assert_allclose(
        model.unitary.array, model.f.array @ model.w_new.array, atol=1e-15
    )


def test_train_rejects_contradictory_set():
    with pytest.raises(InconsistentTrainingSet) as exc:
        train(_contradictory_set())
    assert exc.value.report.worst_pair == (0, 1)
    assert "0" in str(exc.value) and "1" in str(exc.value)


def test_train_force_fits_polar_factor_anyway():
    model = train(_contradictory_set(), force=True)
    assert is_unitary(model.unitary, 1e-10)


def test_train_performs_exactly_one_svd(monkeypatch):
    s = _example1_set()  # build first: classification has its own svd call
    calls = []
    real_svd = perceptron_mod.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(perceptron_mod, "svd", counting_svd)
    train(s)
    assert len(calls) == 1


def test_predict_reproduces_training_targets():
    s = _example1_set()
    model = train(s)
    for a, b in zip(s.x.T, s.y.T):
        assert max_abs_diff(predict(model, StateVector(a)), b) < 1e-9


def test_predict_dimension_mismatch():
    model = train(_example1_set())
    with pytest.raises(DimensionMismatch):
        predict(model, StateVector.basis(4, 0))


def test_learned_map_is_linear_on_the_span():
    s = complete_training_set(standard_gate("Fredkin"))
    model = train(s)
    x = normalize([3, 0, 0, 0, 0, 0, 2, 0])
    want = normalize([3, 0, 0, 0, 0, 2, 0, 0])
    assert max_abs_diff(predict(model, x), want) < 1e-12


def test_recovery_from_random_complete_sets(rng):
    for trial in range(12):
        n = (2, 4, 8)[trial % 3]
        g = _rand_unitary(rng, n)
        pairs = [
            TrainingPair(StateVector.basis(n, k), apply(g, StateVector.basis(n, k)))
            for k in range(n)
        ]
        model = train(TrainingSet(pairs))
        assert max_abs_diff(model.unitary, g) < 1e-8


def test_recovery_from_random_over_complete_sets(rng):
    for trial in range(9):
        n = (2, 4, 8)[trial % 3]
        g = _rand_unitary(rng, n)
        pairs = [
            TrainingPair(StateVector.basis(n, k), apply(g, StateVector.basis(n, k)))
            for k in range(n)
        ]
        for _ in range(3):
            x = _rand_state(rng, n)
            pairs.append(TrainingPair(x, apply(g, x)))
        s = TrainingSet(pairs)
        assert s.completeness is Completeness.OVER_COMPLETE
        model = train(s)
        assert max_abs_diff(model.unitary, g) < 1e-8


def test_less_complete_set_predicts_inside_the_span(rng):
    for n in (4, 8):
        g = _rand_unitary(rng, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        span = q[:, : n // 2]
        pairs = []
        for j in range(n // 2):
            x = StateVector(span[:, j])
            pairs.append(TrainingPair(x, apply(g, x)))
        s = TrainingSet(pairs)
        assert s.completeness is Completeness.LESS_COMPLETE
        model = train(s)
        assert model.rank == n // 2
        # any combination of training inputs must still map correctly
        coeff = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
        x = StateVector(span @ (coeff / np.linalg.norm(coeff)))
        assert max_abs_diff(predict(model, x), apply(g, x)) < 1e-9
        assert is_unitary(model.unitary, 1e-10)


def test_completeness_str_values():
    assert str(Completeness.LESS_COMPLETE) == "LessComplete"
    assert str(Completeness.COMPLETE) == "Complete"
    assert str(Completeness.OVER_COMPLETE) == "OverComplete"


def _pairwise_consistency(s):
    """Reference: the O(m^2) pairwise loop, first strict maximum wins."""
    worst, worst_pair = 0.0, None
    x, y = s.x.T, s.y.T
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            d = abs(np.vdot(x[i], x[j]) - np.vdot(y[i], y[j]))
            if d > worst:
                worst, worst_pair = d, (i, j)
    return worst, worst_pair


def _unit_columns(a):
    return a / np.linalg.norm(a, axis=0)


def _random_set(seed, dim, m, rank, consistent):
    """m pairs whose inputs span a random rank-dimensional subspace;
    targets Q x for a random unitary Q, or unrelated random states."""
    g = np.random.default_rng(seed)
    basis = g.standard_normal((dim, rank)) + 1j * g.standard_normal((dim, rank))
    x = _unit_columns(basis @ (g.standard_normal((rank, m)) + 1j * g.standard_normal((rank, m))))
    if consistent:
        q, _ = np.linalg.qr(g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim)))
        y = q @ x
    else:
        y = _unit_columns(g.standard_normal((dim, m)) + 1j * g.standard_normal((dim, m)))
    return TrainingSet(TrainingPair(StateVector(x[:, j]), StateVector(y[:, j])) for j in range(m))


@st.composite
def _sets(draw):
    dim = draw(st.integers(1, 6), label="dim")
    m = draw(st.one_of(st.just(dim), st.integers(1, 32 * dim)), label="m")
    rank = draw(st.integers(1, min(dim, m)), label="rank")
    return _random_set(draw(st.integers(0, 2**32 - 1)), dim, m, rank, draw(st.booleans(), label="consistent"))


def test_consistency_tie_goes_to_the_first_pair_in_row_major_order():
    # inputs |0>..|3> map to |0>, |1>, |1>, |0>: pairs (0, 3) and (1, 2)
    # both violate by exactly 1; the pairwise loop meets (0, 3) first
    e = [StateVector.basis(4, k) for k in range(4)]
    s = TrainingSet(TrainingPair(e[k], e[t]) for k, t in enumerate((0, 1, 1, 0)))
    rep = consistency_check(s)
    assert rep.worst_pair == (0, 3) == _pairwise_consistency(s)[1]
    assert rep.violation == 1.0
    e0, e1 = StateVector.basis(2, 0), StateVector.basis(2, 1)
    s = TrainingSet([TrainingPair(e0, e0), TrainingPair(e0, e1), TrainingPair(e0, e0)])
    assert consistency_check(s).worst_pair == (0, 1) == _pairwise_consistency(s)[1]


def test_consistency_of_a_set_that_preserves_every_product_names_no_pair():
    s = complete_training_set(standard_gate("Toffoli"))
    rep = consistency_check(s)
    assert rep.ok and rep.violation == 0.0 and rep.worst_pair is None


@given(s=_sets())
def test_consistency_check_matches_the_pairwise_loop(s):
    rep = consistency_check(s)
    worst, worst_pair = _pairwise_consistency(s)
    assert abs(rep.violation - worst) <= 1e-12
    assert rep.ok == (rep.violation <= CONSISTENCY_TOL)
    if worst_pair is None:
        return
    # The array path rounds differently; the pair may differ only
    # between near ties, and then it is as bad as the loop's choice.
    i, j = rep.worst_pair
    assert i < j
    d = abs(np.vdot(s.x[:, i], s.x[:, j]) - np.vdot(s.y[:, i], s.y[:, j]))
    assert d >= worst - 1e-12


@given(s=_sets())
def test_total_weight_is_the_sum_of_pair_weights(s):
    ref = sum(np.outer(b, a.conj()) for a, b in zip(s.x.T, s.y.T))
    np.testing.assert_allclose(total_weight(s).array, ref, rtol=0, atol=1e-12 * len(s))


@given(s=_sets())
def test_completeness_matches_the_oracle_rank(s):
    sv = np.linalg.svd(s.x, compute_uv=False)
    rank = int(np.sum(sv > DEFAULT_RANK_TOL * max(1.0, sv[0])))
    if rank < s.dim:
        want = Completeness.LESS_COMPLETE
    elif len(s) == s.dim:
        want = Completeness.COMPLETE
    else:
        want = Completeness.OVER_COMPLETE
    assert s.completeness is want


def test_training_set_holds_inputs_and_targets_as_read_only_columns():
    pairs = _example1_pairs()
    s = TrainingSet(pairs)
    np.testing.assert_array_equal(s.x, np.stack([p.input.amps for p in pairs], axis=1))
    np.testing.assert_array_equal(s.y, np.stack([p.target.amps for p in pairs], axis=1))
    assert not s.x.flags.writeable and not s.y.flags.writeable


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8, 16]), data=st.data())
def test_train_on_less_complete_sets_is_unitary_and_meets_every_target(seed, dim, data):
    r = data.draw(st.integers(1, dim - 1), label="r")
    s = _random_set(seed, dim, r, r, consistent=True)
    assert s.completeness is Completeness.LESS_COMPLETE
    model = train(s)
    assert model.rank == r
    assert is_unitary(model.unitary, 1e-10)
    assert np.max(np.abs(model.unitary.array @ s.x - s.y)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12), data=st.data())
def test_train_on_complete_and_over_complete_sets_is_unitary_and_meets_every_target(seed, dim, data):
    m = data.draw(st.integers(dim, 4 * dim), label="m")
    g = np.random.default_rng(seed)
    x = _unit_columns(g.standard_normal((dim, m)) + 1j * g.standard_normal((dim, m)))
    # Haar: the QR of a complex Gaussian, with the phases of R's
    # diagonal moved into Q (Mezzadri 2007).
    q, r = np.linalg.qr(g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim)))
    q *= np.diagonal(r) / np.abs(np.diagonal(r))
    s = TrainingSet.from_arrays(x, q @ x)
    assert s.completeness is (Completeness.COMPLETE if m == dim else Completeness.OVER_COMPLETE)
    model = train(s)
    assert is_unitary(model.unitary, 1e-10)
    assert np.max(np.abs(model.unitary.array @ s.x - s.y)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), data=st.data())
def test_forced_train_is_the_least_squares_unitary(seed, dim, data):
    # Orthogonal Procrustes: no unitary, the generating Q included,
    # fits noisy targets Y = Q X + noise better than the polar factor.
    m = data.draw(st.integers(1, 4 * dim), label="m")
    rank = data.draw(st.integers(1, min(dim, m)), label="rank")
    eps = 10.0 ** data.draw(st.floats(-6.0, math.log10(0.5)), label="log10 eps")
    g = np.random.default_rng(seed)
    basis = g.standard_normal((dim, rank)) + 1j * g.standard_normal((dim, rank))
    x = _unit_columns(basis @ (g.standard_normal((rank, m)) + 1j * g.standard_normal((rank, m))))
    q, _ = np.linalg.qr(g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim)))
    y = _unit_columns(q @ x + eps * (g.standard_normal((dim, m)) + 1j * g.standard_normal((dim, m))))
    u = train(TrainingSet.from_arrays(x, y), force=True).unitary.array
    assert np.linalg.norm(u @ x - y) <= np.linalg.norm(q @ x - y) + 1e-10


def _pairs_from_columns(x, y):
    return TrainingSet(TrainingPair(StateVector(a), StateVector(b)) for a, b in zip(x.T, y.T))


def _assert_same_set_and_model(x, y):
    by_pairs = _pairs_from_columns(x, y)
    by_arrays = TrainingSet.from_arrays(x, y)
    for a, b in ((by_pairs.x, by_arrays.x), (by_pairs.y, by_arrays.y)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert by_arrays.completeness is by_pairs.completeness
    m1, m2 = train(by_pairs, force=True), train(by_arrays, force=True)
    assert m1.unitary.array.tobytes() == m2.unitary.array.tobytes()
    assert m1.sigma == m2.sigma and m1.rank == m2.rank


def test_from_arrays_matches_the_pairs_on_every_fixture():
    from qperc.fixtures import all_fixtures

    for fx in all_fixtures():
        _assert_same_set_and_model(fx.training.x, fx.training.y)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), data=st.data())
def test_from_arrays_matches_the_pairs_on_random_sets(seed, dim, data):
    m = data.draw(st.integers(1, 4 * dim), label="m")
    g = np.random.default_rng(seed)
    x = _unit_columns(g.standard_normal((dim, m)) + 1j * g.standard_normal((dim, m)))
    y = _unit_columns(g.standard_normal((dim, m)) + 1j * g.standard_normal((dim, m)))
    _assert_same_set_and_model(x, y)


@pytest.mark.parametrize(
    "x, y, error",
    [
        pytest.param(np.ones(2), np.ones(2), ValidationError, id="1-d"),
        pytest.param(np.zeros((2, 0)), np.zeros((2, 0)), ValidationError, id="no-columns"),
        pytest.param(np.zeros((0, 2)), np.zeros((0, 2)), ValidationError, id="no-rows"),
        pytest.param(np.eye(2), np.eye(4)[:, :2], DimensionMismatch, id="dims-differ"),
        pytest.param(np.eye(2), np.eye(2)[:, :1], DimensionMismatch, id="counts-differ"),
        pytest.param(np.eye(2), np.ones(2) / SQRT2, DimensionMismatch, id="ndims-differ"),
    ],
)
def test_from_arrays_rejects_bad_shapes(x, y, error):
    with pytest.raises(error):
        TrainingSet.from_arrays(x, y)


@pytest.mark.parametrize("side", ["input", "target"])
@pytest.mark.parametrize(
    "value, why",
    [
        (0.5, "state is not normalized: sum |a_i|^2 = 0.25"),
        (1e200, "state is not normalized: sum |a_i|^2 = inf"),
        (np.nan, "non-finite entry (nan or inf)"),
        (np.inf, "non-finite entry (nan or inf)"),
        (complex(0, -np.inf), "non-finite entry (nan or inf)"),
    ],
)
def test_from_arrays_names_the_first_bad_column(side, value, why):
    x, y = np.eye(4, dtype=complex), np.eye(4, dtype=complex)
    a = x if side == "input" else y
    a[:, 2] = [value, 0, 0, 0]
    a[:, 3] = [0.5, 0, 0, 0]  # a later fault is not the one reported
    with pytest.raises(ValidationError) as exc:
        TrainingSet.from_arrays(x, y)
    assert str(exc.value) == "pair 2 %s: %s" % (side, why)
    # StateVector and parse_state make the same check in the same words.
    with pytest.raises(ValidationError) as exc:
        StateVector(a[:, 2])
    assert str(exc.value) == why
    with pytest.raises(ValidationError) as exc:
        parse_state(json.dumps(array_to_json(a[:, 2])))
    assert str(exc.value) == "state: " + why


def test_norm_tolerance_boundary_is_the_same_for_states_and_sets(monkeypatch):
    # |1 + 0.5^2 - 1| is exactly 0.25; a deviation at the tolerance passes.
    x = np.array([[1.0], [0.5]])
    monkeypatch.setattr(linalg_mod, "NORM_TOL", 0.25)
    assert StateVector(x[:, 0]).dim == 2
    assert len(TrainingSet.from_arrays(x, x)) == 1
    monkeypatch.setattr(linalg_mod, "NORM_TOL", np.nextafter(0.25, 0.0))
    with pytest.raises(ValidationError, match="= 1.25$"):
        StateVector(x[:, 0])
    with pytest.raises(ValidationError, match="^pair 0 input: .* = 1.25$"):
        TrainingSet.from_arrays(x, x)


def test_from_arrays_reports_an_input_before_a_later_target():
    x, y = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    y[:, 0] = [2, 0]
    x[:, 1] = [2, 0]
    with pytest.raises(ValidationError, match="^pair 0 target: "):
        TrainingSet.from_arrays(x, y)
    y[:, 0] = [1, 0]
    x[:, 0] = [np.nan, 0]
    with pytest.raises(ValidationError, match=r"^pair 0 input: non-finite"):
        TrainingSet.from_arrays(x, y)


def test_from_arrays_holds_read_only_copies():
    x = np.eye(2, dtype=complex)
    y = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
    s = TrainingSet.from_arrays(x, y)
    assert not s.x.flags.writeable and not s.y.flags.writeable
    assert s.x.flags.c_contiguous and s.y.flags.c_contiguous
    with pytest.raises(ValueError):
        s.x[0, 0] = 0
    x[0, 0] = 5.0
    y[:] = 0.0
    np.testing.assert_array_equal(s.x, np.eye(2))
    np.testing.assert_array_equal(s.y, np.array([[1, 1], [1, -1]]) / SQRT2)


def test_from_arrays_accepts_nested_lists_and_real_arrays():
    s = TrainingSet.from_arrays([[1, 0], [0, 1]], np.eye(2))
    assert s.x.dtype == complex and s.completeness is Completeness.COMPLETE
    assert (s.dim, len(s)) == (2, 2)
