"""Benchmark of qperc, driven from outside the package.

Run from the root of a qperc checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0

It prints a report, one metric a line with its unit and sample count,
and as its last line one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones.  --smoke runs one cycle
of every workload in both modes and checks the names it emits against
BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

SETUP_RUNS = 5
SRC = os.path.join("src", "qperc", "__init__.py")
HERE = os.path.dirname(os.path.abspath(__file__))


def _blas_threads(np):
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath("."):
        return "unknown"
    return lines[1][:12]


def machine_lines():
    """The machine a result was measured on, and a warning when the BLAS
    thread count is not the default (one per CPU)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads(np)
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    lines = [
        "# machine: nproc=%d python=%s numpy=%s blas=%s (%s) blas_threads=%s thread_env=%s commit=%s"
        % (os.cpu_count(), platform.python_version(), np.__version__, blas.get("name"),
           blas.get("openblas configuration", blas.get("version")), threads,
           ",".join("%s=%s" % kv for kv in env.items()) or "none", _commit())
    ]
    if env or threads != os.cpu_count():
        lines.append("# WARNING: BLAS runs %s threads on %d CPUs; compare only with runs on the same thread count"
                     % (threads, os.cpu_count()))
    return lines


def _self_argv(*args):
    return [sys.executable, os.path.join(HERE, "run.py"), *args]


def setup_seconds(workload, seed):
    """Seconds from starting a fresh interpreter to the point where it
    would start its first timed operation."""
    t0 = perf_counter()
    with subprocess.Popen(_self_argv("--probe", "setup", "--workload", workload, "--seed", str(seed)),
                          stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        t1 = perf_counter()
        p.stdout.read()
    if p.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("setup probe of %s failed" % workload)
    return t1 - t0


def peak_kib(workload, seed):
    """fit_peak_kib from a fresh interpreter with a fixed hash seed and,
    where setarch can turn it off, no address-space randomization, so
    that it repeats for a seed.  (KiB, whether randomization was off)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = _self_argv("--probe", "peak", "--workload", workload, "--seed", str(seed))
    setarch = shutil.which("setarch")
    tries = [(True, [setarch, platform.machine(), "-R", *argv])] if setarch else []
    for fixed, cmd in tries + [(False, argv)]:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if p.returncode == 0 and p.stdout.strip():
            return float(p.stdout.split()[-1]), fixed
    raise RuntimeError("peak probe of %s failed" % workload)


@contextlib.contextmanager
def workdir(workload):
    """A scratch directory for set and model files inside the checkout."""
    path = os.path.join(".perfbench_run", "%s-%d" % (workload, os.getpid()))
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(".perfbench_run")
        except OSError:
            pass


def end_to_end(wl, workload, seed, seconds, setup_runs):
    """(metrics {name: (value, unit, samples)}, tally, notes)."""
    setup = [setup_seconds(workload, seed) for _ in range(setup_runs)]
    with workdir(workload) as wd:
        cases = wl.prepare(workload, seed, wd)
        wl.warm_up(cases)
        t = wl.measure(workload, cases, seconds, wd)
    peak, fixed = peak_kib(workload, seed)
    s = t.samples
    ms = [1000.0 * x for x in s["fit"]]
    metrics = {
        "fit_ms_p50": (statistics.median(ms), "ms", len(ms)),
        "fit_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms", len(ms)),
        "pairs_per_s": (1000.0 * wl.pairs_per_fit(wl.WORKLOADS[workload], cases) / statistics.median(ms), "1/s", len(ms)),
        "predict_us_p50": (1e6 * statistics.median(s["predict"]), "us", len(s["predict"])),
        "fit_peak_kib": (peak, "KiB", 1),
        "cli_train_ms_p50": (1000.0 * statistics.median(s["cli_train"]), "ms", len(s["cli_train"])),
        "cli_predict_ms_p50": (1000.0 * statistics.median(s["cli_predict"]), "ms", len(s["cli_predict"])),
        "cli_validate_ms_p50": (1000.0 * statistics.median(s["cli_validate"]), "ms", len(s["cli_validate"])),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    notes = ["# fit_peak_kib measured %s address-space randomization" % ("without" if fixed else "WITH")]
    return metrics, t, notes


def per_layer(wl, workload, seed, seconds):
    """(metrics {name: (value, unit, samples)}, tally, notes)."""
    with workdir(workload) as wd:
        cases = wl.prepare(workload, seed, wd)
        wl.warm_up(cases)
        tr, t, untraced, devs, first = wl.measure_traced(workload, cases, seconds, wd)
    first_sets = wl.first_round_sets(wl.WORKLOADS[workload], cases)
    fits = tr.select("fit")
    traced_ms = statistics.median(s.seconds for s in fits) * 1000.0
    untraced_ms = statistics.median(untraced) * 1000.0
    env = wl.cli_env()

    def mean_count(name, **where):
        spans = tr.select(name, spans=first, **where)
        return sum(s.count for s in spans) / len(spans), len(spans)

    def med(name, **where):
        return tr.median_ms(name, **where), "ms", len(tr.select(name, **where))

    per_validate = {}
    for s in tr.select("fixtures.run_fixture", parent="cli.main_validate"):
        per_validate[id(s.parent)] = per_validate.get(id(s.parent), 0.0) + 1000.0 * s.seconds
    fixture_ms = list(per_validate.values())
    states, n_states = mean_count("linalg.state_build")
    compared, n_compared = mean_count("perceptron.consistency", root="fit")
    metrics = {
        "linalg.state_build_ms": med("linalg.state_build"),
        "linalg.states_built": (states, "count", n_states),
        "perceptron.trainingset_ms": med("perceptron.trainingset"),
        "perceptron.classify_ms": med("perceptron.classify", root="fit"),
        "perceptron.consistency_ms": med("perceptron.consistency", root="fit"),
        "perceptron.pairs_compared": (compared, "count", n_compared),
        "perceptron.total_weight_ms": med("perceptron.total_weight", root="fit"),
        "perceptron.train_ms": med("perceptron.train"),
        "perceptron.predict_us": (1e6 * statistics.median(t.samples["predict"]), "us", len(t.samples["predict"])),
        "svd.weight_ms": med("svd.svd", root="fit", parent="perceptron.train"),
        "svd.weight_sweeps": (wl.weight_sweeps(first_sets), "count", len(first_sets)),
        "svd.unitarity_dev": (statistics.median(devs), "abs", len(devs)),
        "serialize.parse_set_ms": med("serialize.parse_set"),
        "serialize.dump_model_ms": med("serialize.dump_model"),
        "serialize.parse_model_ms": med("serialize.parse_model"),
        "serialize.model_bytes": (wl.model_bytes(first_sets), "bytes", len(first_sets)),
        "cli.main_train_ms": med("cli.main_train"),
        "cli.main_predict_ms": med("cli.main_predict"),
        "cli.main_validate_ms": med("cli.main_validate"),
        "cli.interpreter_ms": (wl.subprocess_ms([sys.executable, "-c", "pass"], env), "ms", wl.PROBE_RUNS),
        "cli.import_ms": (wl.subprocess_ms([sys.executable, "-c", "import qperc"], env), "ms", wl.PROBE_RUNS),
        "gates.generate_set_ms": (wl.generate_set_ms(seed), "ms", len(wl.GATES) * len(wl.MODES)),
        "fixtures.run_fixture_ms": (statistics.median(fixture_ms), "ms", len(fixture_ms)),
        "trace.overhead_pct": (100.0 * (traced_ms - untraced_ms) / untraced_ms, "%", len(fits)),
    }
    notes = ["# spans (name, calls, total ms, self ms):"]
    notes += ["#   %-28s %7d %12.3f %12.3f" % (n, c, 1000.0 * tot, 1000.0 * own) for n, c, tot, own in tr.summary()]
    notes.append("# traced fit p50 %.3f ms, untraced %.3f ms" % (traced_ms, untraced_ms))
    return metrics, t, notes


def run(wl, workload, seed, seconds, trace, setup_runs=SETUP_RUNS):
    """(report lines, result object) for one run."""
    if trace:
        metrics, t, notes = per_layer(wl, workload, seed, seconds)
    else:
        metrics, t, notes = end_to_end(wl, workload, seed, seconds, setup_runs)
    lines = ["# qperc benchmark: workload %s, seed %d, %g s, trace %d" % (workload, seed, seconds, trace)]
    lines += machine_lines() + notes
    lines += ["%-28s %18.6g %-6s n=%d" % (name, v, unit, n) for name, (v, unit, n) in metrics.items()]
    attempted, failed, wrong = t.attempted(), t.failed(), t.total(2)
    lines.append("%-28s %18.6g %-6s failed %d of %d distinct operations (runs failed: %s)" % (
        "ops_failed_frac", failed / attempted, "1", failed, attempted,
        ", ".join("%s %d/%d" % (kind, c[1], c[0]) for kind, c in t.ops.items())))
    if wrong:
        lines.append("# INCORRECT: %d operations returned wrong outputs" % wrong)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }
    return lines, result


def declared():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ([w["name"] for w in doc["workloads"]],
            {0: {m["name"] for m in doc["end_to_end"]}, 1: {m["name"] for m in doc["per_layer"]}})


def smoke(wl, seed):
    """One cycle of every workload in both modes; 0 when every workload
    and metric name emitted is declared in BENCHMARK.json and back."""
    names, metrics = declared()
    bad = []
    if sorted(names) != sorted(wl.WORKLOADS):
        bad.append("workloads: declared %s, defined %s" % (sorted(names), sorted(wl.WORKLOADS)))
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            lines, result = run(wl, workload, seed, 0, trace, setup_runs=1)
            print("\n".join(lines))
            got = set(result["metrics"])
            if got != metrics[trace]:
                bad.append("%s trace %d: undeclared %s, missing %s"
                           % (workload, trace, sorted(got - metrics[trace]), sorted(metrics[trace] - got)))
            if not result["correct"]:
                bad.append("%s trace %d: wrong outputs" % (workload, trace))
    for b in bad:
        print("smoke: " + b, file=sys.stderr)
    return 1 if bad else 0


def _probe(wl, kind, workload, seed):
    with workdir(workload) as wd:
        cases = wl.prepare(workload, seed, wd)
        if kind == "setup":
            wl.warm_up(cases)
            print("ready", flush=True)
        else:
            print(wl.fit_peak_kib(cases), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one cycle of every workload; check metric names")
    p.add_argument("--probe", choices=("setup", "peak"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(SRC):
        print("error: run from the root of a qperc checkout (no %s here)" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads as wl

    if not args.smoke and args.workload not in wl.WORKLOADS:
        p.error("--workload must be one of %s" % ", ".join(wl.WORKLOADS))

    if args.probe:
        _probe(wl, args.probe, args.workload, args.seed)
        return 0
    if args.smoke:
        return smoke(wl, args.seed)
    lines, result = run(wl, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
