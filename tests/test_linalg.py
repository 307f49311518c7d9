import math

import numpy as np
import pytest

from qperc.errors import DimensionMismatch, NotSquare, ValidationError
from qperc.linalg import (
    Matrix,
    StateVector,
    apply,
    is_unitary,
    max_abs_diff,
    normalize,
    tensor,
)

SQRT2 = math.sqrt(2.0)

H = Matrix(np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2)
S = Matrix(np.diag([1.0, 1.0j]))


def test_state_accepts_unit_norm():
    x = StateVector([1 / SQRT2, 1j / SQRT2])
    assert x.dim == 2
    assert np.linalg.norm(x.amps) == pytest.approx(1.0)


def test_state_rejects_bad_norm():
    with pytest.raises(ValidationError):
        StateVector([0.9, 0.0])
    # Squares that overflow read as inf, without a numpy warning.
    for amps in ([1e200, 0.0], [complex(1.5e308, 1.5e308), 0.0]):
        with pytest.raises(ValidationError, match="= inf"):
            StateVector(amps)


def test_state_rejects_non_finite():
    with pytest.raises(ValidationError):
        StateVector([np.nan, 0.0])
    with pytest.raises(ValidationError):
        StateVector([np.inf, 0.0])


def test_state_rejects_empty():
    with pytest.raises(ValidationError):
        StateVector([])


def test_unchecked_state_rejects_non_1d_amplitudes():
    with pytest.raises(ValidationError, match="1-d"):
        StateVector.unchecked(np.eye(2, dtype=complex))
    with pytest.raises(ValidationError, match="1-d"):
        StateVector.unchecked(np.zeros(0, dtype=complex))


def test_basis_state():
    e2 = StateVector.basis(4, 2)
    np.testing.assert_array_equal(e2.amps, [0, 0, 1, 0])
    with pytest.raises(ValidationError):
        StateVector.basis(4, 4)


def test_normalize_scales_to_unit():
    x = normalize([1, 2])
    np.testing.assert_allclose(x.amps, [1 / math.sqrt(5), 2 / math.sqrt(5)])


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValidationError):
        normalize([0, 0, 0])


def test_normalize_is_scale_free():
    v = np.array([0.3 - 1.2j, 2.5, -0.7j, 1e-3])
    want = normalize(v).amps
    for c in 10.0 ** np.arange(-300, 301, 25):
        assert max_abs_diff(normalize(c * v), want) <= 1e-15, c


def test_matrix_shape_checks():
    with pytest.raises(ValidationError):
        Matrix([])
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)


def test_matrix_wrap_shares_the_array_and_freezes_only_its_view():
    a = np.eye(2, dtype=complex)
    m = Matrix.wrap(a)
    assert np.shares_memory(m.array, a)
    assert not m.array.flags.writeable and a.flags.writeable
    with pytest.raises(ValidationError):
        Matrix.wrap(np.array([[1.0, np.nan]], dtype=complex))
    with pytest.raises(ValidationError):
        Matrix.wrap(np.ones(2, dtype=complex))


def test_tensor_of_basis_states():
    ket0 = Matrix([[1], [0]])
    ket1 = Matrix([[0], [1]])
    np.testing.assert_array_equal(tensor(ket0, ket1).array, [[0], [1], [0], [0]])


def test_tensor_identity_with_h_on_00():
    big = tensor(Matrix.identity(2), H)
    got = apply(big, StateVector.basis(4, 0))
    np.testing.assert_allclose(got.amps, [1 / SQRT2, 1 / SQRT2, 0, 0], atol=1e-15)


def test_tensor_is_associative(rng):
    ms = [
        Matrix(rng.integers(-3, 4, size=(2, 2)).astype(complex))
        for _ in range(3)
    ]
    a, b, c = ms
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    np.testing.assert_array_equal(left.array, right.array)


def test_apply_h_to_zero_gives_plus():
    got = apply(H, StateVector.basis(2, 0))
    np.testing.assert_allclose(got.amps, [1 / SQRT2, 1 / SQRT2])


def test_apply_does_not_renormalize():
    w = Matrix([[2.0, 0.0], [0.0, 2.0]])
    got = apply(w, StateVector.basis(2, 0))
    assert np.linalg.norm(got.amps) == pytest.approx(2.0)


def test_apply_unitary_preserves_norm(rng):
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        x = normalize(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert np.linalg.norm(apply(Matrix(q), x).amps) == pytest.approx(1.0, abs=1e-12)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(H, StateVector.basis(4, 0))


def test_is_unitary_on_gates_and_weights():
    assert is_unitary(H, 1e-12)
    assert is_unitary(S, 1e-12)
    w = Matrix(np.array([[1.6, 2.2], [0.8, -1.4]]) / SQRT2)
    assert not is_unitary(w, 1e-6)
    assert not is_unitary(Matrix(np.zeros((2, 2))), 1e-6)
    # A deviation exactly at the tolerance passes: here it is 1.5^2 - 1.
    assert is_unitary(Matrix(np.diag([1.0, 1.5])), tol=1.25)


def test_is_unitary_requires_square():
    with pytest.raises(NotSquare):
        is_unitary(Matrix([[1, 0]]))


def test_max_abs_diff():
    a = StateVector.basis(2, 0)
    b = normalize([1, 1])
    assert max_abs_diff(a, a) == 0.0
    assert max_abs_diff(a, b) == pytest.approx(1 / SQRT2)
    with pytest.raises(DimensionMismatch):
        max_abs_diff(a, StateVector.basis(4, 0))
