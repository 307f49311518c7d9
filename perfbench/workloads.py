"""Workloads of the qperc benchmark: the training sets made from a seed,
the operations timed on them, and the checks on what they return.

Every workload runs the same closed loop, one operation at a time from
one process.  A round is `fits` timed in-process fits of `fit_sets`
sets each, every set followed by a batch of predictions, then
`cli_sets` sets sent through `python -m qperc.cli` (train, then predict
on a basis state and on a random state), then one `validate`.  The
workloads differ in the sets.

A run always completes one cycle: the rounds after which every set has
had its fit, and every set of the CLI pool its CLI calls.  Each distinct
operation (a set's fit, a set's CLI train, each of its two CLI
predicts, validate) is graded once whatever the number of times it
runs, failed if any of its runs failed.  So `attempted` and `failed`
depend on the seed alone, not on how many rounds fit in the time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import qperc
from qperc import cli

from tracing import NO_TRACE, Tracer, patched

FIT_TOL = 1e-9     # the repo's per-amplitude tolerance (validate, fixtures)
# Past this an output is a wrong answer, not lost precision.  Lost
# precision is counted in `failed` against the repo's bounds: on
# ill-conditioned `wide` sets the learned operator's |UU†-I| reaches 3e-6.
GROSS_TOL = 1e-3
BATCH = 16         # states predicted after each fit
POOL = 16          # distinct random sets of `wide` and `tall`, used in turn
GATES = ("H", "S", "T", "CNOT", "Toffoli", "Fredkin", "composite")
MODES = ("over", "less")
PROBE_RUNS = 5     # subprocesses per interpreter / import probe


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int       # dimension of the random sets; 0 selects the gate sets
    pairs: int     # pairs per random set
    fits: int      # timed in-process fits per round
    fit_sets: int  # sets trained in one timed fit
    cli_sets: int  # sets sent through the CLI per round
    cli_pool: int  # sets the CLI part takes in turn; 0 for all


WORKLOADS = {
    w.name: w
    for w in (
        # Complete, dim 32 (5 qubits), m = 32 random non-orthogonal inputs,
        # targets Y = Q X for a random unitary Q.  Nearly all the time goes
        # into two 32x32 Jacobi SVDs: classify_set on the inputs and train on
        # the weight.  Consistency is only 496 comparisons, so the svd kernel
        # has the most work here.  Non-orthogonal inputs give the weight a
        # non-trivial spectrum; with basis inputs W is already unitary and
        # Jacobi has nothing to do.
        Workload("wide", 32, 32, fits=4, fit_sets=1, cli_sets=1, cli_pool=4),
        # Over-complete, dim 4 (2 qubits), m = 128 = 32*dim pairs.
        # classify_set zero-pads the inputs to 128x128 and consistency_check
        # loops in Python over 8128 pairs, while the weight SVD is 4x4.  This
        # is where storing a set as arrays acts; an SVD change shows up here
        # only through the padded classify.
        Workload("tall", 4, 128, fits=2, fit_sets=1, cli_sets=1, cli_pool=8),
        # What a user of the paper types: the CLI on the sets `gen-set` writes
        # for H, S, T, CNOT, Toffoli, Fredkin and composite in modes over and
        # less.  dim <= 8, so the compute layers do little; the time goes to
        # interpreter start, the numpy import, argparse, JSON parse and
        # serialize, and the 14 fixtures of validate.  One timed fit trains
        # all 14 sets: their sizes differ so much that a median over single
        # sets would sit on the edge between two size groups.  The CLI part
        # of a round covers one mode: 7 train/predict/predict triples.
        Workload("cli-gates", 0, 0, fits=10, fit_sets=14, cli_sets=2, cli_pool=0),
    )
}


@dataclass(frozen=True)
class Case:
    """One training set and what is needed to check what is learned from it."""

    path: str          # the set file the CLI reads
    x: np.ndarray      # inputs, one per row
    y: np.ndarray      # targets, one per row
    gate: np.ndarray   # the unitary that made the targets: the oracle
    states: np.ndarray  # BATCH random unit states in the span of the inputs
    batch: tuple       # the same states as qperc.StateVector
    probe: np.ndarray  # the basis state given to `predict`


def _unit_rows(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(_gaussian(rng, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _amps(v):
    return [[float(z.real), float(z.imag)] for z in v]


def _case(path, x, y, gate, rng, probe):
    # Random states inside the span of the inputs, where the gate fixes
    # what a correct model returns (for less-complete sets it does not
    # elsewhere).
    states = _unit_rows(_gaussian(rng, (BATCH, len(x))) @ x)
    return Case(path, x, y, gate, states, tuple(qperc.StateVector(s) for s in states), probe)


def _random_cases(w, rng, workdir):
    cases = []
    for i in range(POOL):
        q = _haar_unitary(rng, w.dim)
        x = _unit_rows(_gaussian(rng, (w.pairs, w.dim)))
        y = x @ q.T
        path = os.path.join(workdir, "%s-%d.json" % (w.name, i))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"dim": w.dim, "pairs": [{"x": _amps(a), "y": _amps(b)} for a, b in zip(x, y)]}, fh)
        cases.append(_case(path, x, y, q, rng, np.eye(w.dim)[rng.integers(w.dim)]))
    return cases


def _gate_cases(seed, rng, workdir):
    cases = []
    for mode in MODES:
        for name in GATES:
            path = os.path.join(workdir, "%s-%s.json" % (name, mode))
            rc, _ = main_in_process(["gen-set", name, "--mode", mode, "--seed", str(seed), "--out", path])
            if rc != 0:
                raise RuntimeError("gen-set %s --mode %s exited with %d" % (name, mode, rc))
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            x = np.array([[complex(*a) for a in p["x"]] for p in doc["pairs"]])
            y = np.array([[complex(*a) for a in p["y"]] for p in doc["pairs"]])
            # A less-complete set of a one-qubit gate has no basis input; its
            # only input then stands in for the basis state.
            basis = [v for v in x if np.count_nonzero(v) == 1] or [x[0]]
            probe = basis[rng.integers(len(basis))]
            cases.append(_case(path, x, y, qperc.standard_gate(name).matrix.array, rng, probe))
    return cases


def prepare(name, seed, workdir):
    """Make the workload's sets from the seed and write their files."""
    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    return _gate_cases(seed, rng, workdir) if w.dim == 0 else _random_cases(w, rng, workdir)


def fit(c, tr=NO_TRACE):
    """One fit: from the raw arrays in hand to the trained model."""
    with tr.span("linalg.state_build", count=2 * len(c.x)):
        pairs = [qperc.TrainingPair(qperc.StateVector(a), qperc.StateVector(b)) for a, b in zip(c.x, c.y)]
    with tr.span("perceptron.trainingset"):
        s = qperc.TrainingSet(pairs)
    with tr.span("perceptron.train"):
        return qperc.train(s)


def predict_batch(c, model, times):
    """Predict every batch state, appending each call's seconds to times."""
    out = np.empty_like(c.states)
    for k, x in enumerate(c.batch):
        t0 = perf_counter()
        y = qperc.predict(model, x)
        times.append(perf_counter() - t0)
        out[k] = y.amps
    return out


def check_fit(c, model, predicted):
    """(failed, wrong, |UU†-I|).  A fit fails when its operator is not
    unitary under is_unitary at the repo's 1e-10 bound or misses a
    training target by more than FIT_TOL; it is wrong when a target or
    a prediction is off by more than GROSS_TOL, and then fails too."""
    u = model.unitary.array
    miss = float(np.max(np.abs(c.x @ u.T - c.y)))
    wrong = max(miss, float(np.max(np.abs(predicted - c.states @ c.gate.T)))) > GROSS_TOL
    dev = float(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))))
    return wrong or miss > FIT_TOL or not qperc.is_unitary(model.unitary), wrong, dev


def _verdict(err):
    return err > FIT_TOL, err > GROSS_TOL


def check_train(rc, model_path, c):
    if rc != 0:
        return True, True
    with open(model_path, encoding="utf-8") as fh:
        u = np.array([[complex(*z) for z in row] for row in json.load(fh)["unitary"]])
    return _verdict(float(np.max(np.abs(c.x @ u.T - c.y))))


def check_predict(rc, out, c, x):
    if rc != 0:
        return True, True
    got = np.array([complex(*z) for z in json.loads(out)])
    return _verdict(float(np.max(np.abs(got - c.gate @ x))))


def check_validate(rc, out):
    n = len(qperc.FIXTURE_IDS)
    ok = rc == 0 and out.strip().endswith("passed %d/%d examples" % (n, n))
    return not ok, not ok


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def run_cli(args, env):
    """Run `python -m qperc.cli ARGS`; (seconds, exit code, stdout)."""
    t0 = perf_counter()
    p = subprocess.run(
        [sys.executable, "-m", "qperc.cli", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return perf_counter() - t0, p.returncode, p.stdout


def main_in_process(args):
    """Run cli.main(ARGS) in this process; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(args))
    return rc, out.getvalue()


class Tally:
    """Samples in seconds by name; per kind of operation how many runs
    were made, failed and wrong; and per distinct operation whether any
    of its runs failed."""

    def __init__(self):
        self.samples = {}
        self.ops = {}
        self.distinct = {}

    def add(self, name, seconds):
        self.samples.setdefault(name, []).append(seconds)

    def grade(self, key, failed, wrong):
        """key is (kind, what it ran on ...)."""
        counts = self.ops.setdefault(key[0], [0, 0, 0])
        counts[0] += 1
        counts[1] += bool(failed)
        counts[2] += bool(wrong)
        self.distinct[key] = self.distinct.get(key, False) or bool(failed)

    def total(self, i):
        return sum(counts[i] for counts in self.ops.values())

    def attempted(self):
        return len(self.distinct)

    def failed(self):
        return sum(self.distinct.values())

    @contextlib.contextmanager
    def op(self, *keys):
        """Operations: an exception counts each of them failed and wrong."""
        try:
            yield
        except Exception:
            traceback.print_exc(file=sys.stderr)
            for key in keys:
                self.grade(key, True, True)


def round_cases(cases, r, per_round):
    """The per_round cases of round r, taking the cases in turn."""
    return [cases[(r * per_round + j) % len(cases)] for j in range(per_round)]


def cli_cases(w, cases):
    return cases[:w.cli_pool] if w.cli_pool else cases


def cycle(w, cases):
    """Rounds until every set has been fitted and every set of the CLI
    pool sent through the CLI."""
    fits = -(-len(cases) // (w.fits * w.fit_sets))
    return max(fits, -(-len(cli_cases(w, cases)) // w.cli_sets))


def fit_groups(w, cases, r):
    """The sets of round r's timed fits, fit_sets to a fit."""
    flat = round_cases(cases, r, w.fits * w.fit_sets)
    return [flat[i:i + w.fit_sets] for i in range(0, len(flat), w.fit_sets)]


def pairs_per_fit(w, cases):
    return sum(len(c.x) for c in fit_groups(w, cases, 0)[0])


def first_round_sets(w, cases):
    return cases[:min(len(cases), w.fits * w.fit_sets)]


def _cli_round(w, cases, r, tally, call, model_path):
    """The CLI part of round r; call(args) -> (seconds, exit code, stdout)."""
    for c in round_cases(cli_cases(w, cases), r, w.cli_sets):
        key = ("cli_train", c.path)
        with tally.op(key):
            dt, rc, _ = call(["train", c.path, "--out", model_path])
            tally.add("cli_train", dt)
            tally.grade(key, *check_train(rc, model_path, c))
        for j, x in enumerate((c.probe, c.states[0])):
            key = ("cli_predict", c.path, j)
            with tally.op(key):
                dt, rc, out = call(["predict", model_path, "--state", json.dumps(_amps(x)), "--json"])
                tally.add("cli_predict", dt)
                tally.grade(key, *check_predict(rc, out, c, x))
    key = ("cli_validate",)
    with tally.op(key):
        dt, rc, out = call(["validate"])
        tally.add("cli_validate", dt)
        tally.grade(key, *check_validate(rc, out))


def warm_up(cases):
    """The untimed operation before the first timed one."""
    c = cases[0]
    predict_batch(c, fit(c), [])


def _fit_keys(group):
    return [("fit", c.path) for c in group]


def measure(name, cases, seconds, workdir):
    """Rounds until `seconds` have passed and a cycle is complete; the Tally."""
    w = WORKLOADS[name]
    tally = Tally()
    env = cli_env()
    model_path = os.path.join(workdir, "model.json")
    deadline = perf_counter() + seconds
    r, rounds = 0, cycle(w, cases)
    while r < rounds or perf_counter() < deadline:
        for group in fit_groups(w, cases, r):
            with tally.op(*_fit_keys(group)):
                t0 = perf_counter()
                models = [fit(c) for c in group]
                tally.add("fit", perf_counter() - t0)
                for c, key, model in zip(group, _fit_keys(group), models):
                    predicted = predict_batch(c, model, tally.samples.setdefault("predict", []))
                    tally.grade(key, *check_fit(c, model, predicted)[:2])
        _cli_round(w, cases, r, tally, lambda args: run_cli(args, env), model_path)
        r += 1
    return tally


def _timed_main(tr, name, args):
    with tr.span(name) as s:
        rc, out = main_in_process(args)
    return s.seconds, rc, out


def measure_traced(name, cases, seconds, workdir):
    """Rounds as in measure, with spans around each layer's public
    functions and cli.main run in-process on the same argv.  Each
    traced fit is followed by the same fit untraced, to price the
    tracing.  Returns (tracer, tally, untraced fit seconds, unitarity
    deviations, spans of the first round)."""
    w = WORKLOADS[name]
    tr, tally = Tracer(), Tally()
    untraced, devs = [], []
    model_path = os.path.join(workdir, "model.json")
    names = {"train": "cli.main_train", "predict": "cli.main_predict", "validate": "cli.main_validate"}
    deadline = perf_counter() + seconds
    r, first, rounds = 0, 0, cycle(w, cases)
    while r < rounds or perf_counter() < deadline:
        for group in fit_groups(w, cases, r):
            with tally.op(*_fit_keys(group)):
                with patched(tr):
                    with tr.span("fit"):
                        models = [fit(c, tr) for c in group]
                    predicted = [predict_batch(c, m, tally.samples.setdefault("predict", []))
                                 for c, m in zip(group, models)]
                for key, c, m, p in zip(_fit_keys(group), group, models, predicted):
                    failed, wrong, dev = check_fit(c, m, p)
                    tally.grade(key, failed, wrong)
                    devs.append(dev)
                t0 = perf_counter()
                for c in group:
                    fit(c)
                untraced.append(perf_counter() - t0)
        with patched(tr):
            _cli_round(w, cases, r, tally, lambda args: _timed_main(tr, names[args[0]], args), model_path)
        if r == 0:
            first = len(tr.spans)
        r += 1
    return tr, tally, untraced, devs, tr.spans[:first]


def weight_sweeps(cases):
    """Largest, over the cases, of the smallest max_sweeps for which svd
    of the set's weight does not raise NumericalFailure."""
    most = 0
    for c in cases:
        s = qperc.TrainingSet(qperc.TrainingPair(qperc.StateVector(a), qperc.StateVector(b)) for a, b in zip(c.x, c.y))
        weight = qperc.total_weight(s)
        k = 1
        while True:
            try:
                qperc.svd(weight, max_sweeps=k)
                break
            except qperc.NumericalFailure:
                k += 1
        most = max(most, k)
    return most


def model_bytes(cases):
    """Mean size of serialize_model over one fit of each case."""
    return statistics.mean(len(qperc.serialize_model(fit(c)).encode()) for c in cases)


def generate_set_ms(seed):
    """Median ms of generate_set over every gate and mode of cli-gates."""
    times = []
    for name in GATES:
        g = qperc.standard_gate(name)
        for mode in MODES:
            t0 = perf_counter()
            qperc.generate_set(g, mode, seed=seed)
            times.append(perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def subprocess_ms(argv, env):
    """Median wall ms of PROBE_RUNS runs of argv."""
    times = []
    for _ in range(PROBE_RUNS):
        t0 = perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def fit_peak_kib(cases):
    """Largest tracemalloc peak, in KiB, of one fit per distinct set shape.

    Each shape is fitted once untraced first, so lazy imports and
    caches are not counted.  The result repeats to the byte only in a
    fresh interpreter with a fixed hash seed and no address-space
    randomization; run.py measures it that way.
    """
    peak, seen = 0, set()
    for c in cases:
        if c.x.shape in seen:
            continue
        seen.add(c.x.shape)
        fit(c)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            fit(c)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            gc.enable()
    return peak / 1024.0
