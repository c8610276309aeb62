"""Exception types shared across the pipeline.

Grouped by the stage that raises them; everything derives from FlowsiftError
so callers can catch the whole family at once. The CLI maps these onto exit
codes (data errors -> 2, degenerate computations -> 3).
"""


class FlowsiftError(Exception):
    """Base class for all flowsift errors."""


# --- ingestion ---------------------------------------------------------------

class MalformedRow(FlowsiftError):
    """A data row that cannot be parsed. Carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


# --- windowing / features -----------------------------------------------------

class EmptyInput(FlowsiftError):
    """An operation that needs at least one record/row got none."""


class EmptyValues(FlowsiftError):
    """aggregate_stats over an empty value list."""


class TimeBeforeOrigin(FlowsiftError):
    """A flow timestamp precedes the window origin."""


class SchemaMismatch(FlowsiftError):
    """Feature names disagree between two artifacts that must align."""


# --- selection ----------------------------------------------------------------

class TooFewRows(FlowsiftError):
    """Statistic needs more rows than the matrix has."""


class BadComponentCount(FlowsiftError):
    """PCA component count outside 1..dimension."""


# --- model --------------------------------------------------------------------

class ShapeMismatch(FlowsiftError):
    """Array shapes disagree in loss/gradient."""


class SingleClassInput(FlowsiftError):
    """Training data contains only one class."""


class NonFiniteLoss(FlowsiftError):
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


class DegenerateRow(FlowsiftError):
    """A consistency-check row with P + R == 0."""


class DegenerateSplit(FlowsiftError):
    """A train/test partition came out empty or single-class."""


# --- synthesis ------------------------------------------------------------------

class BadConfig(FlowsiftError):
    """Generator configuration violates its invariants."""
