"""Reference gate library and circuit helpers.

Basis ordering is most-significant-bit first: qubit 0 is the leftmost
symbol of a ket label, so |q0 q1> has index 2*q0 + q1.  A gate placed
at qubit offset p inside an n-qubit register is lifted to the full
space as I(2^p) (x) g (x) I(rest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import PlacementOutOfRange, UnknownGate, ValidationError
from .linalg import Matrix, is_unitary, tensor
from .perceptron import TrainingSet

# GateSpec construction rejects anything farther from unitarity than this.
GATE_UNITARY_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GateSpec:
    """A named unitary acting on a fixed number of qubits."""

    name: str
    qubits: int
    matrix: Matrix

    def __post_init__(self):
        dim = 2 ** self.qubits
        if self.matrix.shape != (dim, dim):
            raise ValidationError(
                "gate %r on %d qubit(s) needs a %dx%d matrix, got %dx%d"
                % ((self.name, self.qubits, dim, dim) + self.matrix.shape)
            )
        if not is_unitary(self.matrix, GATE_UNITARY_TOL):
            raise ValidationError("gate %r matrix is not unitary" % self.name)

    @property
    def dim(self) -> int:
        return 2 ** self.qubits


def _hadamard() -> Matrix:
    return Matrix(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _SQRT2)


def _phase_s() -> Matrix:
    return Matrix(np.diag([1.0, 1.0j]))


def _phase_t() -> Matrix:
    return Matrix(np.diag([1.0, np.exp(1j * np.pi / 4.0)]))


def _cnot() -> Matrix:
    # control on qubit 0 (most significant), target on qubit 1
    m = np.eye(4, dtype=complex)
    m[[2, 3]] = m[[3, 2]]
    return Matrix(m)


def _toffoli() -> Matrix:
    # controls on qubits 0 and 1, target on qubit 2
    m = np.eye(8, dtype=complex)
    m[[6, 7]] = m[[7, 6]]
    return Matrix(m)


def _fredkin() -> Matrix:
    # control on qubit 0, swap of qubits 1 and 2
    m = np.eye(8, dtype=complex)
    m[[5, 6]] = m[[6, 5]]
    return Matrix(m)


_STANDARD = {
    "i": ("I", 1, lambda: Matrix.identity(2)),
    "x": ("X", 1, lambda: Matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))),
    "h": ("H", 1, _hadamard),
    "s": ("S", 1, _phase_s),
    "t": ("T", 1, _phase_t),
    "cnot": ("CNOT", 2, _cnot),
    "toffoli": ("Toffoli", 3, _toffoli),
    "fredkin": ("Fredkin", 3, _fredkin),
}


def standard_gate(name: str) -> GateSpec:
    """Look up a gate by name (case-insensitive).  Raises UnknownGate.

    Available: I, X, H, S, T, CNOT, Toffoli, Fredkin, composite.
    """
    key = name.strip().lower()
    if key == "composite":
        return composite_gate()
    if key not in _STANDARD:
        raise UnknownGate(
            "no gate named %r (try one of: %s, composite)"
            % (name, ", ".join(canon for canon, _, _ in _STANDARD.values()))
        )
    canon, qubits, build = _STANDARD[key]
    return GateSpec(canon, qubits, build())


def compose(placed: Sequence[Tuple[GateSpec, int]]) -> GateSpec:
    """Chain gates into one: first listed acts first.

    Each entry is (gate, offset) with offset the topmost qubit the gate
    touches.  The register is the smallest one that fits every
    placement.  Raises PlacementOutOfRange on a negative offset.
    """
    placed = list(placed)
    if not placed:
        raise ValidationError("compose needs at least one placed gate")
    for g, off in placed:
        if off < 0:
            raise PlacementOutOfRange("gate %s at negative offset %d" % (g.name, off))
    width = max(off + g.qubits for g, off in placed)
    total = np.eye(2 ** width, dtype=complex)
    for g, off in placed:
        lifted = g.matrix
        if off > 0:
            lifted = tensor(Matrix.identity(2 ** off), lifted)
        tail = width - off - g.qubits
        if tail > 0:
            lifted = tensor(lifted, Matrix.identity(2 ** tail))
        total = lifted.array @ total
    name = " ; ".join("%s@%d" % (g.name, off) for g, off in placed)
    return GateSpec(name, width, Matrix(total))


def composite_gate() -> GateSpec:
    """A fixed two-qubit benchmark gate, defined by its basis images.

    Columns are the images of |00>, |01>, |10>, |11>; w = exp(3i*pi/4)
    is the phase picked up by the swapped component.  The same operator
    factors as the circuit H@0 ; CNOT ; T@0 ; S@0.
    """
    w = np.exp(3j * np.pi / 4.0)
    m = np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, w, 0.0, -w],
            [w, 0.0, -w, 0.0],
        ],
        dtype=complex,
    ) / _SQRT2
    return GateSpec("composite", 2, Matrix(m))


def complete_training_set(g: GateSpec) -> TrainingSet:
    """One pair (|k>, g|k>) per computational basis state, ascending k."""
    return generate_set(g, "complete")


def generate_set(g: GateSpec, mode: str, seed: int = 0) -> TrainingSet:
    """Build a training set of the requested completeness for a gate.

    mode "complete" is one pair per basis state; "over" adds a pair for
    a random unit vector on top of that; "less" uses dim//4 random
    basis states plus one two-state superposition, which keeps the
    input span strictly short of the full space.  Deterministic for a
    given seed.
    """
    rng = np.random.default_rng(seed)
    dim = g.dim
    u = g.matrix.array
    if mode == "complete":
        return TrainingSet.from_arrays(np.eye(dim), u)
    if mode == "over":
        basis = np.arange(dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    elif mode == "less":
        basis = np.sort(rng.choice(dim, size=dim // 4, replace=False))
        a, b = rng.choice(dim, size=2, replace=False)
        coeff = rng.uniform(0.25, 1.0, size=2) * rng.choice((-1.0, 1.0), size=2)
        v = np.zeros(dim, dtype=complex)
        v[int(a)], v[int(b)] = coeff[0], coeff[1]
    else:
        raise ValidationError("mode must be one of: complete, less, over (got %r)" % mode)
    v = v / np.linalg.norm(v)
    # The basis targets are columns of g, and the last is g's product
    # with v alone: one product g @ X would round differently.
    x = np.column_stack([np.eye(dim)[:, basis], v])
    y = np.column_stack([u[:, basis], u @ v])
    return TrainingSet.from_arrays(x, y)
