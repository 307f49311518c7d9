"""Exception types shared across the package."""


class QpercError(Exception):
    """Base class for all errors raised by qperc."""


class DimensionMismatch(QpercError):
    """Operands have incompatible shapes or lengths."""


class NotSquare(QpercError):
    """A square matrix was required but a rectangular one was given."""


class NumericalFailure(QpercError):
    """An iterative numerical routine failed to converge."""


class UnknownGate(QpercError):
    """Requested gate name is not in the library."""


class PlacementOutOfRange(QpercError):
    """A gate is placed at a negative qubit offset."""


class InconsistentTrainingSet(QpercError):
    """Training pairs do not preserve pairwise inner products.

    Carries the offending :class:`~qperc.perceptron.ConsistencyReport` in
    the ``report`` attribute.
    """

    def __init__(self, report):
        self.report = report
        i, j = report.worst_pair
        super().__init__(
            "training set is inconsistent: pairs %d and %d violate "
            "inner-product preservation by %.6g" % (i, j, report.violation)
        )


class DivergenceDetected(QpercError):
    """Iterative training error grew past the divergence threshold."""


class ParseError(QpercError):
    """Input text is not valid JSON or does not match the expected schema."""


class ValidationError(QpercError):
    """Parsed data violates a semantic constraint (norm, dimension, ...)."""
