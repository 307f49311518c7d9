import numpy as np
import pytest

from qperc.errors import ValidationError
from qperc.fixtures import FIXTURE_IDS, all_fixtures, fixture, run_fixture
from qperc.gates import standard_gate
from qperc.linalg import StateVector, is_unitary, max_abs_diff
from qperc.perceptron import Completeness, consistency_check, predict, train


def test_catalog_has_fourteen_examples():
    assert FIXTURE_IDS == tuple(range(1, 15))
    assert len(all_fixtures()) == 14


def test_unknown_fixture_id():
    with pytest.raises(ValidationError):
        fixture(0)
    with pytest.raises(ValidationError):
        fixture(15)


def test_odd_examples_over_complete_even_less_complete():
    for fx in all_fixtures():
        expected = (
            Completeness.OVER_COMPLETE if fx.id % 2 == 1 else Completeness.LESS_COMPLETE
        )
        assert fx.completeness is expected
        assert fx.training.completeness is expected


def test_every_example_set_is_consistent():
    for fx in all_fixtures():
        rep = consistency_check(fx.training)
        assert rep.ok, (fx.id, rep)


@pytest.mark.parametrize("fid", range(1, 15))
def test_examples_reproduce_their_targets(fid):
    rep = run_fixture(fid)
    assert rep.passed
    for pr in rep.pairs:
        assert pr.ok
        assert pr.max_err <= 1e-9


def test_report_carries_diagnostics():
    rep = run_fixture(1)
    assert rep.rank == 2
    np.testing.assert_allclose(rep.sigma, (2.0, 1.0), atol=1e-9)
    assert rep.completeness is Completeness.OVER_COMPLETE
    assert "example 1" in rep.name


def test_toffoli_over_complete_note_mentions_the_forced_coefficient():
    assert "4/5" in fixture(9).note
    assert run_fixture(9).note == fixture(9).note


def test_tolerance_is_honoured():
    # at an impossible tolerance even exact arithmetic noise fails
    rep = run_fixture(1, tol=1e-20)
    assert not rep.passed
    rep = run_fixture(1, tol=1e-6)
    assert rep.passed


def test_over_complete_examples_recover_their_gate():
    for fid in range(1, 15, 2):
        fx = fixture(fid)
        g = standard_gate(fx.gate)
        model = train(fx.training)
        assert max_abs_diff(model.unitary, g.matrix) < 1e-9, fid


def test_less_complete_examples_learn_some_unitary():
    for fid in range(2, 15, 2):
        model = train(fixture(fid).training)
        assert is_unitary(model.unitary, 1e-10)
        assert model.rank < model.dim


def test_pair_errors_match_the_per_pair_predictions():
    # Reference: predict each input on its own and compare with its target.
    for fx in all_fixtures():
        model = train(fx.training)
        for pr, a, b in zip(run_fixture(fx.id).pairs, fx.training.x.T, fx.training.y.T):
            assert pr.max_err == pytest.approx(max_abs_diff(predict(model, StateVector(a)), b), abs=1e-15)
