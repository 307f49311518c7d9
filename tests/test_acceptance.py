"""Acceptance checks.  Each test covers one release criterion at its
stated tolerance and prints a single [PASS]/[FAIL] line, bypassing
capture so the verdicts show up in the terminal run.
"""

import json
import math
import time

import numpy as np

import qperc.perceptron as perceptron_mod
from qperc.baselines import IterativeConfig, iterative_quantum_train
from qperc.cli import main
from qperc.fixtures import FIXTURE_IDS, run_fixture
from qperc.gates import complete_training_set, generate_set, standard_gate
from qperc.linalg import Matrix, StateVector, is_unitary, max_abs_diff, normalize
from qperc.perceptron import (
    Completeness,
    TrainingPair,
    TrainingSet,
    consistency_check,
    predict,
    train,
)
from qperc.svd import polar_unitary, svd

SQRT2 = math.sqrt(2.0)

GRID_GATES = ("H", "S", "T", "CNOT", "Toffoli", "Fredkin")

# test input and exact expected output for each gate's comparison row
TABLE_ROWS = {
    "H": (0, [1 / SQRT2, 1 / SQRT2]),
    "S": (1, [0, 1j]),
    "T": (1, [0, np.exp(1j * np.pi / 4)]),
    "CNOT": (3, [0, 0, 1, 0]),
    "Toffoli": (7, [0, 0, 0, 0, 0, 0, 1, 0]),
    "Fredkin": (7, [0, 0, 0, 0, 0, 0, 0, 1]),
}


def _verdict(capsys, ok, label, detail=""):
    line = "[%s] %s" % ("PASS" if ok else "FAIL", label)
    if detail:
        line += "  -- " + detail
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_worked_examples(capsys):
    t0 = time.perf_counter()
    reports = [run_fixture(fid) for fid in FIXTURE_IDS]
    elapsed = time.perf_counter() - t0
    worst = max(p.max_err for rep in reports for p in rep.pairs)
    ok = all(rep.passed for rep in reports) and worst <= 1e-9 and elapsed < 1.0
    _verdict(
        capsys, ok,
        "criterion 1: all 14 worked examples reproduce their targets at 1e-9",
        "worst err %.2e, %.3fs" % (worst, elapsed),
    )


def test_criterion_2_example_weight_singular_values(capsys):
    w = Matrix(np.array([[1.6, 2.2], [0.8, -1.4]]) / SQRT2)
    sigma = svd(w).sigma
    err = max(abs(sigma[0] - 2.0), abs(sigma[1] - 1.0))
    _verdict(
        capsys, err <= 1e-9,
        "criterion 2: example-1 weight has singular values (2, 1) at 1e-9",
        "err %.2e" % err,
    )


def test_criterion_3_gate_recovery_from_complete_sets(capsys):
    worst = 0.0
    for name in GRID_GATES + ("composite",):
        g = standard_gate(name)
        model = train(complete_training_set(g))
        worst = max(worst, max_abs_diff(model.unitary, g.matrix))
    _verdict(
        capsys, worst <= 1e-8,
        "criterion 3: every library gate is recovered from its complete set at 1e-8",
        "worst err %.2e" % worst,
    )


def test_criterion_4_single_svd_and_table_outputs(capsys, monkeypatch):
    real_svd = perceptron_mod.svd
    counter = {"n": 0}

    def counting_svd(*args, **kwargs):
        counter["n"] += 1
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(perceptron_mod, "svd", counting_svd)
    ok = True
    worst = 0.0
    for name in GRID_GATES:
        g = standard_gate(name)
        s = complete_training_set(g)
        counter["n"] = 0
        model = train(s)
        ok = ok and counter["n"] == 1
        k, want = TABLE_ROWS[name]
        got = predict(model, StateVector.basis(g.dim, k))
        worst = max(worst, float(np.max(np.abs(got.amps - np.asarray(want)))))
    ok = ok and worst <= 1e-9
    _verdict(
        capsys, ok,
        "criterion 4: one SVD per training run and table outputs match at 1e-9",
        "worst err %.2e" % worst,
    )


def test_criterion_5_completeness_grid(capsys):
    modes = {
        "complete": Completeness.COMPLETE,
        "less": Completeness.LESS_COMPLETE,
        "over": Completeness.OVER_COMPLETE,
    }
    cells = 0
    worst = 0.0
    for i, name in enumerate(GRID_GATES):
        g = standard_gate(name)
        for j, (mode, expected) in enumerate(modes.items()):
            s = generate_set(g, mode, seed=100 + 10 * i + j)
            if s.completeness is not expected:
                continue
            model = train(s)
            err = max(max_abs_diff(predict(model, StateVector(a)), b) for a, b in zip(s.x.T, s.y.T))
            worst = max(worst, err)
            if err <= 1e-9:
                cells += 1
    res = iterative_quantum_train(
        complete_training_set(standard_gate("H")), IterativeConfig(eta=0.1)
    )
    iterative_not_unitary = not is_unitary(res.weight, 1e-6)
    ok = cells == 18 and iterative_not_unitary
    _verdict(
        capsys, ok,
        "criterion 5: 18/18 gate-completeness cells succeed and the iterative "
        "weight fails unitarity at 1e-6",
        "cells %d/18, worst err %.2e" % (cells, worst),
    )


def test_criterion_6_svd_properties_and_unitary_recovery(capsys):
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    worst_rec = worst_uni = worst_polar = 0.0
    for trial in range(500):
        n = (2, 4, 8)[trial % 3]
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = svd(Matrix(m))
        rec = r.u.array @ np.diag(r.sigma) @ r.v_dag.array
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - m))))
        eye = np.eye(n)
        worst_uni = max(
            worst_uni,
            float(np.max(np.abs(r.u.array @ r.u.array.conj().T - eye))),
            float(np.max(np.abs(r.v_dag.array @ r.v_dag.array.conj().T - eye))),
        )
        if r.sigma[-1] > 1e-6 * r.sigma[0]:  # full rank: oracle comparison valid
            lam, q = np.linalg.eigh(m.conj().T @ m)
            oracle = m @ (q @ np.diag(lam ** -0.5) @ q.conj().T)
            u, _ = polar_unitary(Matrix(m))
            worst_polar = max(worst_polar, float(np.max(np.abs(u.array - oracle))))
    worst_gate = 0.0
    for n in (2, 4, 8):
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            g = Matrix(q)
            pairs = [
                TrainingPair(
                    StateVector.basis(n, k),
                    StateVector.unchecked(q[:, k]),
                )
                for k in range(n)
            ]
            model = train(TrainingSet(pairs))
            worst_gate = max(worst_gate, max_abs_diff(model.unitary, g))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_rec <= 1e-10
        and worst_uni <= 1e-10
        and worst_polar <= 1e-8
        and worst_gate <= 1e-8
        and elapsed < 30.0
    )
    _verdict(
        capsys, ok,
        "criterion 6: 500 random SVDs and 300 unitary recoveries hold their bounds",
        "rec %.1e uni %.1e polar %.1e gates %.1e, %.1fs"
        % (worst_rec, worst_uni, worst_polar, worst_gate, elapsed),
    )


def test_criterion_7_contradictory_set_is_rejected(capsys, tmp_path):
    s = TrainingSet([
        TrainingPair(normalize([1, 0]), normalize([1, 0])),
        TrainingPair(normalize([1, 0]), normalize([0, 1])),
    ])
    rep = consistency_check(s)
    report_ok = (
        not rep.ok
        and rep.worst_pair == (0, 1)
        and abs(rep.violation - 1.0) <= 1e-12
    )
    path = tmp_path / "contradictory.json"
    path.write_text(json.dumps({
        "dim": 2,
        "pairs": [
            {"x": [[1, 0], [0, 0]], "y": [[1, 0], [0, 0]]},
            {"x": [[1, 0], [0, 0]], "y": [[0, 0], [1, 0]]},
        ],
    }))
    code = main(["train", str(path)])
    err = capsys.readouterr().err
    cli_ok = code == 2 and "pairs 0 and 1" in err
    _verdict(
        capsys, report_ok and cli_ok,
        "criterion 7: contradictory training set rejected with exit code 2 "
        "naming the pair",
        "violation %.12f, exit %d" % (rep.violation, code),
    )


def test_criterion_8_iterative_baseline_convergence(capsys):
    s = complete_training_set(standard_gate("H"))
    res = iterative_quantum_train(
        s, IterativeConfig(eta=0.1, max_iters=1000, stop_tol=0.0)
    )
    reached = [i for i, e in enumerate(res.errors, start=1) if e < 1e-2]
    tail = res.errors[-100:]
    non_increasing = all(tail[i + 1] <= tail[i] + 1e-15 for i in range(len(tail) - 1))
    ok = bool(reached) and reached[0] <= 1000 and non_increasing
    _verdict(
        capsys, ok,
        "criterion 8: iterative baseline reaches 1e-2 mean error and settles "
        "monotonically",
        "first below 1e-2 at iteration %s" % (reached[0] if reached else "never"),
    )
