import math

import numpy as np
import pytest

from qperc.errors import (
    PlacementOutOfRange,
    UnknownGate,
    ValidationError,
)
from qperc.gates import (
    GateSpec,
    complete_training_set,
    compose,
    composite_gate,
    generate_set,
    standard_gate,
)
from qperc.linalg import Matrix, is_unitary, max_abs_diff, tensor
from qperc.perceptron import Completeness, consistency_check, train

SQRT2 = math.sqrt(2.0)


def test_single_qubit_gate_matrices():
    np.testing.assert_allclose(
        standard_gate("H").matrix.array, np.array([[1, 1], [1, -1]]) / SQRT2
    )
    np.testing.assert_array_equal(standard_gate("S").matrix.array, np.diag([1, 1j]))
    np.testing.assert_allclose(
        standard_gate("T").matrix.array, np.diag([1, np.exp(1j * np.pi / 4)])
    )
    np.testing.assert_array_equal(standard_gate("X").matrix.array, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(standard_gate("I").matrix.array, np.eye(2))


def test_cnot_swaps_the_last_two_basis_states():
    m = standard_gate("CNOT").matrix.array
    expected = np.eye(4)[:, [0, 1, 3, 2]]
    np.testing.assert_array_equal(m, expected)


def test_toffoli_and_fredkin_permutations():
    t = standard_gate("Toffoli").matrix.array
    np.testing.assert_array_equal(t, np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]])
    f = standard_gate("Fredkin").matrix.array
    np.testing.assert_array_equal(f, np.eye(8)[:, [0, 1, 2, 3, 4, 6, 5, 7]])


def test_every_library_gate_is_unitary():
    for name in ("I", "X", "H", "S", "T", "CNOT", "Toffoli", "Fredkin", "composite"):
        g = standard_gate(name)
        assert is_unitary(g.matrix, 1e-12), name
        assert g.matrix.shape == (g.dim, g.dim)


def test_lookup_is_case_insensitive():
    assert standard_gate("cnot").name == "CNOT"
    assert standard_gate("TOFFOLI").name == "Toffoli"


def test_unknown_gate():
    with pytest.raises(UnknownGate):
        standard_gate("Q")


def test_gatespec_rejects_non_unitary():
    with pytest.raises(ValidationError):
        GateSpec("bad", 1, Matrix([[1, 0], [0, 2]]))
    with pytest.raises(ValidationError):
        GateSpec("bad", 2, Matrix.identity(2))


def test_compose_single_gate_at_offset_zero():
    h = standard_gate("H")
    c = compose([(h, 0)])
    np.testing.assert_array_equal(c.matrix.array, h.matrix.array)
    assert c.qubits == 1


def test_compose_h_twice_is_identity():
    h = standard_gate("H")
    c = compose([(h, 0), (h, 0)])
    np.testing.assert_allclose(c.matrix.array, np.eye(2), atol=1e-15)


def test_compose_cnot_twice_is_identity():
    cnot = standard_gate("CNOT")
    c = compose([(cnot, 0), (cnot, 0)])
    np.testing.assert_allclose(c.matrix.array, np.eye(4), atol=1e-15)


def test_compose_offset_lifts_to_the_low_qubit():
    h = standard_gate("H")
    c = compose([(h, 1)])
    np.testing.assert_allclose(
        c.matrix.array, tensor(Matrix.identity(2), h.matrix).array
    )


def test_compose_applies_first_listed_first():
    h = standard_gate("H")
    s = standard_gate("S")
    hs = compose([(h, 0), (s, 0)])  # S @ H as matrices
    np.testing.assert_allclose(hs.matrix.array, s.matrix.array @ h.matrix.array)
    sh = compose([(s, 0), (h, 0)])
    assert max_abs_diff(hs.matrix, sh.matrix) > 0.5


def test_compose_width_grows_to_fit():
    h = standard_gate("H")
    cnot = standard_gate("CNOT")
    c = compose([(h, 0), (cnot, 1)])
    assert c.qubits == 3


def test_compose_placement_out_of_range():
    cnot = standard_gate("CNOT")
    with pytest.raises(PlacementOutOfRange):
        compose([(cnot, -1)])
    with pytest.raises(ValidationError):
        compose([])


def test_composite_gate_equals_its_circuit():
    h = standard_gate("H")
    cnot = standard_gate("CNOT")
    s = standard_gate("S")
    t = standard_gate("T")
    circuit = compose([(h, 0), (cnot, 0), (t, 0), (s, 0)])
    assert max_abs_diff(circuit.matrix, composite_gate().matrix) < 1e-14


def test_composite_gate_columns():
    w = np.exp(3j * np.pi / 4)
    g = composite_gate().matrix.array
    np.testing.assert_allclose(g[:, 0], np.array([1, 0, 0, w]) / SQRT2)
    np.testing.assert_allclose(g[:, 1], np.array([0, 1, w, 0]) / SQRT2)
    np.testing.assert_allclose(g[:, 2], np.array([1, 0, 0, -w]) / SQRT2)
    np.testing.assert_allclose(g[:, 3], np.array([0, 1, -w, 0]) / SQRT2)


def test_complete_training_set_covers_the_basis():
    g = standard_gate("CNOT")
    s = complete_training_set(g)
    assert len(s) == 4
    assert s.completeness is Completeness.COMPLETE
    for k, (a, b) in enumerate(zip(s.x.T, s.y.T)):
        np.testing.assert_array_equal(a, np.eye(4)[k])
        np.testing.assert_array_equal(b, g.matrix.array[:, k])


def test_training_on_complete_set_recovers_each_gate():
    for name in ("H", "S", "T", "CNOT", "Toffoli", "Fredkin", "composite"):
        g = standard_gate(name)
        model = train(complete_training_set(g))
        assert max_abs_diff(model.unitary, g.matrix) < 1e-8, name


@pytest.mark.parametrize("mode,expected", [
    ("complete", Completeness.COMPLETE),
    ("less", Completeness.LESS_COMPLETE),
    ("over", Completeness.OVER_COMPLETE),
])
def test_generate_set_completeness(mode, expected):
    for name in ("H", "S", "T", "CNOT", "Toffoli", "Fredkin", "composite"):
        s = generate_set(standard_gate(name), mode, seed=11)
        assert s.completeness is expected, (name, mode)
        assert consistency_check(s).ok


def test_generate_set_is_deterministic():
    g = standard_gate("Toffoli")
    s1 = generate_set(g, "over", seed=5)
    s2 = generate_set(g, "over", seed=5)
    np.testing.assert_array_equal(s1.x, s2.x)
    np.testing.assert_array_equal(s1.y, s2.y)
    s3 = generate_set(g, "over", seed=6)
    assert max_abs_diff(s1.x[:, -1], s3.x[:, -1]) > 1e-3


def test_generate_set_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        generate_set(standard_gate("H"), "partial")
