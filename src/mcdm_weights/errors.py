"""Exception hierarchy for the weighting toolkit.

Two families matter to callers: ``InputError`` covers malformed or invalid
input data (CLI exit code 2), ``MethodError`` covers data that is valid as a
matrix but unusable by the requested weighting method (CLI exit code 3).
"""


class McdmError(Exception):
    """Base class for all toolkit errors."""


class InputError(McdmError):
    """Malformed or invalid input (bad grid, bad file, bad arguments)."""


class MethodError(McdmError):
    """Valid matrix rejected by a specific weighting method."""


# ---------------------------------------------------------------- input


class NonRectangular(InputError):
    """Grid rows or labels disagree in length."""


class NonFiniteValue(InputError):
    """NaN or infinity found in the grid."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"non-finite value at row {row}, column {col}")


class TooFewAlternatives(InputError):
    """Fewer than two alternatives (entropy's 1/ln(count) needs >= 2)."""


class DuplicateCriterionName(InputError):
    """Two criteria share a name within one matrix."""


class UnknownGrade(InputError):
    """Verbal grade missing from the Likert map."""

    def __init__(self, grade: str, line: int | None = None, col: int | None = None):
        self.grade = grade
        self.line = line
        self.col = col
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"unknown grade {grade!r}{where}")


class BadDims(InputError):
    """Requested matrix dimensions out of range."""


class BadRange(InputError):
    """Requested value range is empty or non-finite."""


class ParseError(InputError):
    """Delimited matrix text that cannot be parsed."""

    def __init__(self, line: int, col: int, reason: str):
        self.line = line
        self.col = col
        self.reason = reason
        super().__init__(f"line {line}, column {col}: {reason}")


class DimensionMismatch(InputError):
    """Paired structures disagree in criterion count."""


class LengthMismatch(InputError):
    """Paired vectors disagree in length, or are too short."""


# ---------------------------------------------------------------- method


class NegativeEntry(MethodError):
    """Negative value on the entropy path (ln rejects it)."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"negative entry at row {row}, column {col}")


class ZeroColumn(MethodError):
    """Column sums to zero; share-of-column normalization is undefined."""

    def __init__(self, col: int):
        self.col = col
        super().__init__(f"column {col} sums to zero")


class AllColumnsUniform(MethodError):
    """Every column is uniform: all divergences vanish, no entropy weights."""


class DegenerateMean(MethodError):
    """Column |mean| is at most 1e-9 of its largest |value|; CV is meaningless."""

    def __init__(self, col: int | None = None):
        self.col = col
        where = f"column {col}" if col is not None else "column"
        super().__init__(f"{where} has a near-zero mean")


class AllColumnsConstant(MethodError):
    """Every column is constant: zero dispersion everywhere, no CV weights."""


class ConstantVector(MethodError):
    """Correlation of a zero-variance vector is undefined."""
