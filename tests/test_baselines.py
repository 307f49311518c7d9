import math

import numpy as np
import pytest

from qperc.baselines import (
    DIVERGENCE_LIMIT,
    IterativeConfig,
    iterative_quantum_train,
)
from qperc.errors import DivergenceDetected, ValidationError
from qperc.gates import complete_training_set, generate_set, standard_gate
from qperc.linalg import is_unitary, max_abs_diff
from qperc.perceptron import train

def _h_set():
    return complete_training_set(standard_gate("H"))


def test_config_validation():
    with pytest.raises(ValidationError):
        IterativeConfig(eta=-0.1)
    with pytest.raises(ValidationError):
        IterativeConfig(max_iters=0)
    with pytest.raises(ValidationError):
        IterativeConfig(stop_tol=-1e-3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            IterativeConfig(eta=bad)
        with pytest.raises(ValidationError):
            IterativeConfig(stop_tol=bad)
    IterativeConfig(eta=0.0)  # zero step size is allowed


def test_iterative_error_shrinks_on_h_set():
    res = iterative_quantum_train(_h_set(), IterativeConfig(eta=0.1, max_iters=1000, stop_tol=0.0))
    assert res.iterations == 1000
    assert len(res.errors) == 1000
    assert min(i for i, e in enumerate(res.errors, start=1) if e < 1e-2) < 100
    assert res.final_error < 1e-6


def test_iterative_stops_at_tolerance():
    res = iterative_quantum_train(_h_set(), IterativeConfig(eta=0.1, max_iters=1000, stop_tol=1e-3))
    assert res.iterations < 1000
    assert res.final_error <= 1e-3
    assert res.errors[-1] == res.final_error


def test_iterative_final_weight_approximates_but_is_not_unitary():
    res = iterative_quantum_train(_h_set(), IterativeConfig())
    h = standard_gate("H").matrix
    assert max_abs_diff(res.weight, h) < 1e-2
    assert not is_unitary(res.weight, 1e-6)


def test_one_shot_beats_iterative_on_unitarity():
    s = _h_set()
    one_shot = train(s)
    iterative = iterative_quantum_train(s, IterativeConfig())
    assert is_unitary(one_shot.unitary, 1e-10)
    assert not is_unitary(iterative.weight, 1e-6)


def test_iterative_zero_eta_never_moves():
    res = iterative_quantum_train(_h_set(), IterativeConfig(eta=0.0, max_iters=5, stop_tol=0.0))
    assert len(set(res.errors)) == 1
    np.testing.assert_array_equal(res.weight.array, np.zeros((2, 2)))


def test_iterative_divergence_detected():
    with pytest.raises(DivergenceDetected):
        iterative_quantum_train(_h_set(), IterativeConfig(eta=5.0, max_iters=1000, stop_tol=0.0))
    assert DIVERGENCE_LIMIT == 1e6
    # The weight overflows in the first pass and the mean error is NaN,
    # which no comparison with DIVERGENCE_LIMIT calls large.
    s = generate_set(standard_gate("H"), "over", seed=3)
    with pytest.raises(DivergenceDetected, match="mean error nan after 1 iteration"):
        iterative_quantum_train(s, IterativeConfig(eta=1e200))


def test_final_error_is_the_mean_of_the_per_pair_errors():
    # Reference: the per-pair loop over the states of the set.
    s = generate_set(standard_gate("CNOT"), "over", seed=3)
    res = iterative_quantum_train(s, IterativeConfig(max_iters=7))
    w = res.weight.array
    ref = np.mean([np.linalg.norm(w @ a - b) for a, b in zip(s.x.T, s.y.T)])
    assert res.final_error == pytest.approx(ref, rel=1e-13, abs=1e-15)
