"""Exception types shared across the pipeline.

Grouped by the stage that raises them; everything derives from FlowsiftError
so callers can catch the whole family at once. Each class carries the CLI
exit code it maps to: 2 (data error) unless it derives from
DegenerateComputation (3) or is BadConfig (1).
"""


class FlowsiftError(Exception):
    """Base class for all flowsift errors; by default a data error."""

    exit_code = 2


class DegenerateComputation(FlowsiftError):
    """Well-formed input on which the computation has no meaningful result."""

    exit_code = 3


# --- ingestion ---------------------------------------------------------------

class MalformedRow(FlowsiftError):
    """A data row that cannot be parsed. Carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.line_no, self.reason)


# --- windowing / features -----------------------------------------------------

class EmptyInput(DegenerateComputation):
    """An operation that needs at least one record/row got none."""


class EmptyValues(DegenerateComputation):
    """aggregate_stats over an empty value list."""


class TimeBeforeOrigin(FlowsiftError):
    """A flow timestamp precedes the window origin."""


class SchemaMismatch(FlowsiftError):
    """Feature names disagree between two artifacts that must align."""


# --- selection ----------------------------------------------------------------

class TooFewRows(DegenerateComputation):
    """Statistic needs more rows than the matrix has."""


class BadComponentCount(FlowsiftError):
    """PCA component count outside 1..dimension."""


# --- model --------------------------------------------------------------------

class ShapeMismatch(FlowsiftError):
    """Array shapes disagree in loss/gradient."""


class SingleClassInput(DegenerateComputation):
    """Training data contains only one class."""


class NonFiniteLoss(DegenerateComputation):
    """Optimization produced a non-finite loss (bad hyperparameters)."""


class CorruptModel(FlowsiftError):
    """Model file is truncated, unparseable, or missing fields."""


class SchemaVersionMismatch(FlowsiftError):
    """Model file written by an incompatible schema version."""


# --- evaluation / splits --------------------------------------------------------

class LengthMismatch(FlowsiftError):
    """y_true and y_pred differ in length."""


class BadBins(FlowsiftError):
    """Histogram bin configuration invalid."""


class DegenerateRow(DegenerateComputation):
    """A consistency-check row with P + R == 0."""


class DegenerateSplit(DegenerateComputation):
    """A train/test partition came out empty or single-class."""


# --- synthesis ------------------------------------------------------------------

class BadConfig(FlowsiftError):
    """Generator configuration violates its invariants."""

    exit_code = 1
