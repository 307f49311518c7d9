"""Command line interface.

Subcommands:
    train      learn a model from a training-set file
    predict    apply a saved model to a state
    validate   run the built-in worked examples
    gate       print a library gate
    gen-set    generate a training set from a gate
    baseline   run the iterative baseline on a training set
    classify   report the completeness class of a training set

Exit codes: 0 success, 1 usage error, 2 parse/validation/consistency
failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .baselines import IterativeConfig, iterative_quantum_train
from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    InconsistentTrainingSet,
    NumericalFailure,
    ParseError,
    UnknownGate,
    ValidationError,
)
from .fixtures import FIXTURE_IDS, run_fixture
from .gates import generate_set, standard_gate
from .linalg import is_unitary, normalize
from .perceptron import predict as model_predict
from .perceptron import train as train_model
from .serialize import (
    array_to_json,
    parse_amplitudes,
    parse_model,
    parse_state,
    parse_training_set,
    serialize_model,
    serialize_training_set,
)

USAGE_EXIT = 1
VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, "%s: error: %s\n" % (self.prog, message))


def _tolerance(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text) from None
    if not math.isfinite(v) or v < 0:
        raise argparse.ArgumentTypeError("must be a finite non-negative number, got %r" % text)
    return v


def _seed(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if v < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer, got %r" % text)
    return v


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError("%s: not UTF-8 text (%s)" % (path, e.reason)) from None


def _write_out(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


def _fmt_complex(z: complex) -> str:
    return "%+.12g%+.12gi" % (z.real, z.imag)


def _state_lines(x) -> str:
    n = x.dim.bit_length() - 1
    lines = []
    for k, z in enumerate(x.amps):
        if 2 ** n == x.dim:
            label = "|%s>" % format(k, "0%db" % max(n, 1))
        else:
            label = "[%d]" % k
        lines.append("%-8s %s" % (label, _fmt_complex(complex(z))))
    return "\n".join(lines)


def _cmd_train(args) -> int:
    s = parse_training_set(_read_text(args.set))
    model = train_model(s, force=args.force)
    _write_out(serialize_model(model), args.out)
    return 0


def _cmd_predict(args) -> int:
    model = parse_model(_read_text(args.model))
    raw = args.state
    if raw.startswith("@"):
        raw = _read_text(raw[1:])
    x = normalize(parse_amplitudes(raw)) if args.normalize else parse_state(raw)
    y = model_predict(model, x)
    if args.json:
        import json as _json

        print(_json.dumps(array_to_json(y.amps)))
    else:
        print(_state_lines(y))
    return 0


def _cmd_validate(args) -> int:
    ids = [args.example] if args.example is not None else list(FIXTURE_IDS)
    passed = 0
    for fid in ids:
        rep = run_fixture(fid, args.tol)
        worst = max(p.max_err for p in rep.pairs)
        print(
            "%-34s %-13s rank %d  pairs %d/%d  max_err %.2e  %s"
            % (
                rep.name,
                rep.completeness.value,
                rep.rank,
                sum(p.ok for p in rep.pairs),
                len(rep.pairs),
                worst,
                "PASS" if rep.passed else "FAIL",
            )
        )
        if rep.note:
            print("    note: %s" % rep.note)
        passed += rep.passed
    print("passed %d/%d examples" % (passed, len(ids)))
    return 0 if passed == len(ids) else VALIDATION_EXIT


def _cmd_gate(args) -> int:
    g = standard_gate(args.name)
    if args.json:
        import json as _json

        print(_json.dumps({"name": g.name, "qubits": g.qubits, "matrix": array_to_json(g.matrix.array)}))
        return 0
    print("%s on %d qubit(s):" % (g.name, g.qubits))
    for row in g.matrix.array:
        print("  " + "  ".join(_fmt_complex(complex(z)) for z in row))
    return 0


def _cmd_gen_set(args) -> int:
    g = standard_gate(args.gate)
    s = generate_set(g, args.mode, seed=args.seed)
    meta = {"gate": g.name, "mode": args.mode, "seed": args.seed}
    _write_out(serialize_training_set(s, metadata=meta), args.out)
    return 0


def _cmd_baseline(args) -> int:
    s = parse_training_set(_read_text(args.set))
    cfg = IterativeConfig(eta=args.eta, max_iters=args.max_iters, stop_tol=args.stop_tol)
    res = iterative_quantum_train(s, cfg)
    print("iterations: %d" % res.iterations)
    print("final mean error: %.6e" % res.final_error)
    print(
        "final weight unitary at 1e-06: %s"
        % ("yes" if is_unitary(res.weight, 1e-6) else "no")
    )
    return 0


def _cmd_classify(args) -> int:
    s = parse_training_set(_read_text(args.set))
    print(s.completeness.value)
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="qperc", description="one-shot quantum perceptron")
    sub = p.add_subparsers(dest="command")

    t = sub.add_parser("train", parents=[], help="learn a model from a training-set file")
    t.add_argument("set", help="training-set JSON file")
    t.add_argument("--out", help="write the model here instead of stdout")
    t.add_argument("--force", action="store_true", help="train even if the set is inconsistent")
    t.set_defaults(func=_cmd_train)

    pr = sub.add_parser("predict", help="apply a saved model to a state")
    pr.add_argument("model", help="model JSON file")
    pr.add_argument("--state", required=True, help="JSON amplitudes, or @file")
    pr.add_argument("--normalize", action="store_true", help="normalize the state first")
    pr.add_argument("--json", action="store_true", help="print a JSON amplitude array")
    pr.set_defaults(func=_cmd_predict)

    v = sub.add_parser("validate", help="run the built-in worked examples")
    v.add_argument("--example", type=int, choices=FIXTURE_IDS, help="run one example only")
    v.add_argument("--tol", type=_tolerance, help="per-amplitude tolerance (default 1e-9)")
    v.set_defaults(func=_cmd_validate)

    g = sub.add_parser("gate", help="print a library gate")
    g.add_argument("name")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_gate)

    gs = sub.add_parser("gen-set", help="generate a training set from a gate")
    gs.add_argument("gate")
    gs.add_argument("--mode", required=True, choices=("complete", "less", "over"))
    gs.add_argument("--seed", type=_seed, default=0)
    gs.add_argument("--out", help="write the set here instead of stdout")
    gs.set_defaults(func=_cmd_gen_set)

    b = sub.add_parser("baseline", help="run the iterative baseline on a training set")
    b.add_argument("set", help="training-set JSON file")
    b.add_argument("--eta", type=_tolerance, default=0.1)
    b.add_argument("--max-iters", type=int, default=1000)
    b.add_argument("--stop-tol", type=_tolerance, default=1e-3)
    b.set_defaults(func=_cmd_baseline)

    c = sub.add_parser("classify", help="report the completeness class of a training set")
    c.add_argument("set", help="training-set JSON file")
    c.set_defaults(func=_cmd_classify)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return USAGE_EXIT
    try:
        return args.func(args)
    except UnknownGate as e:
        print("error: %s" % e, file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, ValidationError, InconsistentTrainingSet, DimensionMismatch) as e:
        print("error: %s" % e, file=sys.stderr)
        return VALIDATION_EXIT
    except (NumericalFailure, DivergenceDetected) as e:
        print("error: %s" % e, file=sys.stderr)
        return NUMERICAL_EXIT
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
