"""The baseline the one-shot perceptron is measured against.

It stands for the iterative quantum perceptron algorithms: a
gradient-style rule on a complex weight matrix,
w <- w + eta (|y> - w|x>) <x|, applied pair by pair.  The iterative
rule approaches the target map only in the limit and its final weight
is generally not unitary, which is exactly the contrast the one-shot
method is meant to show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DivergenceDetected, ValidationError
from .linalg import Matrix
from .perceptron import TrainingSet

# Mean prediction error above which iterative training is abandoned.
DIVERGENCE_LIMIT = 1e6

@dataclass(frozen=True)
class IterativeConfig:
    """Knobs for the iterative quantum baseline, which starts from the
    zero weight."""

    eta: float = 0.1
    max_iters: int = 1000
    stop_tol: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValidationError("eta must be finite and nonnegative")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if not (math.isfinite(self.stop_tol) and self.stop_tol >= 0.0):
            raise ValidationError("stop_tol must be finite and nonnegative")


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


def iterative_quantum_train(s: TrainingSet, cfg: IterativeConfig = IterativeConfig()) -> IterativeResult:
    """Fit a weight matrix to the training pairs by repeated updates.

    One iteration is a full pass over the pairs, each applying
    w <- w + eta (|y_j> - w|x_j>) <x_j|.  After every pass the mean of
    ||w|x_j> - |y_j>|| over the set is recorded; training stops when
    it drops to stop_tol or max_iters passes have run, and raises
    DivergenceDetected if it ever exceeds DIVERGENCE_LIMIT or is NaN
    (a step large enough to overflow the weight).
    """
    w = np.zeros((s.dim, s.dim), dtype=complex)
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.max_iters + 1):
            for x, y in zip(s.x.T, s.y.T):
                r = y - w @ x
                w = w + cfg.eta * np.outer(r, x.conj())
            err = float(np.mean(np.linalg.norm(w @ s.x - s.y, axis=0)))
            errors.append(err)
            if not err <= DIVERGENCE_LIMIT:
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
