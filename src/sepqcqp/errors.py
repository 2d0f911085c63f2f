"""Error types shared across the package.

Every failure mode has its own class so callers can react precisely:
structural problems (shape/relation mismatches) are distinguished from
numerical ones (reduction stalls, stale solutions), and parse errors carry
source locations.
"""


class SepqcqpError(Exception):
    """Base class for all package errors."""


class DimensionError(SepqcqpError):
    """Operands have incompatible dimensions."""


class StructureError(SepqcqpError):
    """Problem pieces cannot be combined or read as requested."""


class RangeError(SepqcqpError):
    """A parameter is outside its admissible interval."""


class GenerationError(SepqcqpError):
    """Random instance generation exhausted its resampling budget."""


class InfeasibleStructureError(SepqcqpError):
    """The linear constraint system is contradictory (detected by rank test)."""


class StaleSolutionError(SepqcqpError):
    """A solution passed in no longer (near-)satisfies its problem."""


class ReductionStallError(SepqcqpError):
    """Rank reduction made no numerical progress. Carries a partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(SepqcqpError):
    """Problem file is syntactically malformed. Carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(SepqcqpError):
    """Problem file is well-formed but semantically invalid. Carries a field path."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field
