"""qperc: one-shot quantum perceptron.

Learns a unitary operator from (input, target) quantum state pairs by
building the summed outer-product weight matrix and snapping it to its
unitary polar factor through a single SVD.
"""

from .baselines import (
    IterativeConfig,
    IterativeResult,
    iterative_quantum_train,
)
from .errors import (
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
    standard_gate,
)
from .linalg import (
    Matrix,
    StateVector,
    apply,
    is_unitary,
    max_abs_diff,
    normalize,
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
    "classify_set",
    "complete_training_set",
    "compose",
    "composite_gate",
    "consistency_check",
    "fixture",
    "generate_set",
    "is_unitary",
    "iterative_quantum_train",
    "max_abs_diff",
    "normalize",
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
