"""qperc: one-shot quantum perceptron.

Learns a unitary operator from (input, target) quantum state pairs by
building the summed outer-product weight matrix and snapping it to its
unitary polar factor through a single SVD.
"""

from .baselines import (
    ClassicalResult,
    IterativeConfig,
    IterativeResult,
    classical_perceptron_train,
    iterative_quantum_train,
)
from .errors import (
    BadTableLength,
    DimensionMismatch,
    DivergenceDetected,
    InconsistentTrainingSet,
    NotSquare,
    NumericalFailure,
    ParseError,
    PlacementOutOfRange,
    QpercError,
    UnknownGate,
    ValidationError,
)
from .fixtures import FIXTURE_IDS, all_fixtures, fixture, run_fixture
from .gates import (
    GateSpec,
    complete_training_set,
    compose,
    composite_gate,
    generate_set,
    oracle_uf,
    standard_gate,
)
from .linalg import (
    Matrix,
    StateVector,
    apply,
    inner,
    is_unitary,
    max_abs_diff,
    normalize,
    outer,
    tensor,
)
from .perceptron import (
    Completeness,
    ConsistencyReport,
    PerceptronModel,
    TrainingPair,
    TrainingSet,
    classify_set,
    consistency_check,
    fidelity,
    pair_weight,
    predict,
    total_weight,
    train,
)
from .serialize import (
    parse_model,
    parse_state,
    parse_training_set,
    serialize_model,
    serialize_training_set,
)
from .svd import SvdResult, polar_unitary, svd

__version__ = "0.1.0"

__all__ = [
    "BadTableLength",
    "ClassicalResult",
    "Completeness",
    "ConsistencyReport",
    "DimensionMismatch",
    "DivergenceDetected",
    "FIXTURE_IDS",
    "GateSpec",
    "InconsistentTrainingSet",
    "IterativeConfig",
    "IterativeResult",
    "Matrix",
    "NotSquare",
    "NumericalFailure",
    "ParseError",
    "PerceptronModel",
    "PlacementOutOfRange",
    "QpercError",
    "StateVector",
    "SvdResult",
    "TrainingPair",
    "TrainingSet",
    "UnknownGate",
    "ValidationError",
    "all_fixtures",
    "apply",
    "classical_perceptron_train",
    "classify_set",
    "complete_training_set",
    "compose",
    "composite_gate",
    "consistency_check",
    "fidelity",
    "fixture",
    "generate_set",
    "inner",
    "is_unitary",
    "iterative_quantum_train",
    "max_abs_diff",
    "normalize",
    "oracle_uf",
    "outer",
    "pair_weight",
    "parse_model",
    "parse_state",
    "parse_training_set",
    "polar_unitary",
    "predict",
    "run_fixture",
    "serialize_model",
    "serialize_training_set",
    "standard_gate",
    "svd",
    "tensor",
    "total_weight",
    "train",
]
