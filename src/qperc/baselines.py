"""Baselines the one-shot perceptron is measured against.

Two are provided: the classical threshold perceptron with the usual
error-driven update rule, and an iterative gradient-style rule on a
complex weight matrix, w <- w + eta (|y> - w|x>) <x|, applied pair by
pair.  The iterative rule approaches the target map only in the limit
and its final weight is generally not unitary, which is exactly the
contrast the one-shot method is meant to show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DivergenceDetected, ValidationError
from .linalg import Matrix
from .perceptron import TrainingSet

# Mean prediction error above which iterative training is abandoned.
DIVERGENCE_LIMIT = 1e6

_INIT_MODES = ("zero", "identity", "seeded")


@dataclass(frozen=True)
class ClassicalResult:
    """Outcome of classical perceptron training."""

    weights: Tuple[float, ...]
    iterations: int
    converged: bool


@dataclass(frozen=True)
class IterativeConfig:
    """Knobs for the iterative quantum baseline.

    init selects the starting weight: "zero", "identity" or "seeded"
    (complex entries from a seeded normal generator, so runs are
    reproducible).
    """

    eta: float = 0.1
    max_iters: int = 1000
    stop_tol: float = 1e-3
    init: str = "zero"
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValidationError("eta must be finite and nonnegative")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if not (math.isfinite(self.stop_tol) and self.stop_tol >= 0.0):
            raise ValidationError("stop_tol must be finite and nonnegative")
        if self.init not in _INIT_MODES:
            raise ValidationError("init must be one of %s" % (_INIT_MODES,))


@dataclass(frozen=True)
class IterativeResult:
    """Outcome of the iterative baseline.

    errors holds the mean prediction error after each full pass, so
    its length equals iterations.
    """

    errors: Tuple[float, ...]
    weight: Matrix
    iterations: int
    final_error: float


def classical_perceptron_train(
    samples: Sequence[Tuple[Sequence[float], int]],
    eta: float = 0.1,
    theta: float = 0.0,
    max_iters: int = 100,
) -> ClassicalResult:
    """Train a single threshold unit on +/-1 labelled samples.

    Each sample is (inputs, label).  Prediction is +1 when
    sum(w_j x_j) - theta > 0 and -1 otherwise; every mistake updates
    w += eta (label - prediction) x.  Weights start at zero so runs
    are deterministic.  converged means some pass made no mistakes;
    iterations counts the passes executed, that clean pass included.
    """
    if not samples:
        raise ValidationError("need at least one sample")
    n = len(samples[0][0])
    for x, y in samples:
        if len(x) != n:
            raise ValidationError("all samples must share one input length")
        if y not in (-1, 1):
            raise ValidationError("labels must be +1 or -1")
    w = np.zeros(n)
    for t in range(1, max_iters + 1):
        mistakes = 0
        for x, y in samples:
            z = float(np.dot(w, x)) - theta
            pred = 1 if z > 0.0 else -1
            if pred != y:
                w = w + eta * (y - pred) * np.asarray(x, dtype=float)
                mistakes += 1
        if mistakes == 0:
            return ClassicalResult(tuple(float(v) for v in w), t, True)
    return ClassicalResult(tuple(float(v) for v in w), max_iters, False)


def _initial_weight(dim: int, cfg: IterativeConfig) -> np.ndarray:
    if cfg.init == "zero":
        return np.zeros((dim, dim), dtype=complex)
    if cfg.init == "identity":
        return np.eye(dim, dtype=complex)
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def iterative_quantum_train(s: TrainingSet, cfg: IterativeConfig = IterativeConfig()) -> IterativeResult:
    """Fit a weight matrix to the training pairs by repeated updates.

    One iteration is a full pass over the pairs, each applying
    w <- w + eta (|y_j> - w|x_j>) <x_j|.  After every pass the mean of
    ||w|x_j> - |y_j>|| over the set is recorded; training stops when
    it drops to stop_tol or max_iters passes have run, and raises
    DivergenceDetected if it ever exceeds DIVERGENCE_LIMIT.
    """
    dim = s.dim
    w = _initial_weight(dim, cfg)
    xs = [p.input.amps for p in s]
    ys = [p.target.amps for p in s]
    errors = []
    for t in range(1, cfg.max_iters + 1):
        for x, y in zip(xs, ys):
            r = y - w @ x
            w = w + cfg.eta * np.outer(r, x.conj())
        err = float(np.mean([np.linalg.norm(w @ x - y) for x, y in zip(xs, ys)]))
        errors.append(err)
        if err > DIVERGENCE_LIMIT:
            raise DivergenceDetected(
                "mean error %.3g after %d iteration(s) (eta too large?)" % (err, t)
            )
        if err <= cfg.stop_tol:
            break
    return IterativeResult(
        errors=tuple(errors),
        weight=Matrix(w),
        iterations=len(errors),
        final_error=errors[-1],
    )
