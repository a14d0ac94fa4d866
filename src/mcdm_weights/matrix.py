"""Decision-matrix data model: validation, Likert conversion, generation.

A decision matrix holds one row per alternative (option) and one column per
criterion. All downstream operations treat it as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BadDims,
    BadRange,
    DuplicateCriterionName,
    NonFiniteValue,
    NonRectangular,
    TooFewAlternatives,
    UnknownGrade,
)

Direction = str  # "benefit" | "cost"


@dataclass(frozen=True)
class CriterionSpec:
    """One column's metadata.

    ``direction`` and ``likert_reverse`` are recorded for provenance and for
    verbal-grade conversion; neither weighting method consumes the direction.
    """

    name: str
    direction: Direction = "benefit"
    likert_reverse: bool = False

    def __post_init__(self):
        if self.direction not in ("benefit", "cost"):
            raise ValueError(f"direction must be benefit|cost, got {self.direction!r}")


@dataclass(frozen=True)
class LikertMap:
    """Ordered verbal-grade scale with strictly increasing positive scores.

    Grades match case- and whitespace-insensitively. Reverse coding reflects
    a score about the scale midpoint: ``reversed = (max + min) - score``.
    """

    grades: tuple[tuple[str, float], ...]
    #: normalized label -> (score, reverse-coded score)
    _scores: dict[str, tuple[float, float]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "grades", tuple((str(g), float(s)) for g, s in self.grades)
        )
        if not self.grades:
            raise ValueError("Likert map needs at least one grade")
        scores = [s for _, s in self.grades]
        if any(s <= 0 for s in scores):
            raise ValueError("Likert scores must be positive")
        if any(b <= a for a, b in zip(scores, scores[1:])):
            raise ValueError("Likert scores must be strictly increasing")
        span = scores[-1] + scores[0]
        object.__setattr__(
            self, "_scores", {self._key(g): (s, span - s) for g, s in self.grades}
        )
        if len(self._scores) != len(self.grades):
            raise ValueError("duplicate grade labels")

    @staticmethod
    def _key(grade: str) -> str:
        return " ".join(grade.split()).casefold()

    def score(self, grade: str, reverse: bool = False) -> float:
        try:
            forward, reflected = self._scores[self._key(grade)]
        except KeyError:
            raise UnknownGrade(grade) from None
        return reflected if reverse else forward


#: Seven-point scale; the unique monotone 1-7 assignment consistent with the
#: verbal grades used by the bundled fixtures (forward and reverse coded).
DEFAULT_LIKERT_MAP = LikertMap(
    (
        ("Extremely low", 1.0),
        ("Low", 2.0),
        ("Relatively low", 3.0),
        ("Medium", 4.0),
        ("Relatively high", 5.0),
        ("High", 6.0),
        ("Extremely high", 7.0),
    )
)


def apply_likert(
    grade: str, likert_map: LikertMap = DEFAULT_LIKERT_MAP, reverse: bool = False
) -> float:
    """Convert a verbal grade to its numeric score.

    With ``reverse`` the score is reflected about the scale midpoint, so on
    the default 1-7 scale "Extremely high" becomes 1.
    """
    return likert_map.score(grade, reverse=reverse)


def _readonly(values) -> np.ndarray:
    """A float64 copy of ``values`` that cannot be written to."""
    frozen = np.array(values, dtype=np.float64, copy=True)
    frozen.flags.writeable = False
    return frozen


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """Validated alternatives x criteria value grid.

    Construct through :func:`validate_matrix`; the ``values`` array is
    read-only and every field is fixed after construction.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def n_criteria(self) -> int:
        return len(self.criteria)

    @property
    def criterion_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.criteria)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionMatrix):
            return NotImplemented
        return (
            self.alternatives == other.alternatives
            and self.criteria == other.criteria
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Per-criterion weights on the simplex, tagged with their method.

    ``weights`` is a read-only float64 copy of the values passed in.
    """

    weights: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")
        total = float(self.weights.sum())
        # a NaN or infinite weight makes the total NaN or infinite: refused
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


def _scaled_columns(
    values: np.ndarray, zero_column: type[Exception]
) -> tuple[np.ndarray, np.ndarray]:
    """Each column divided by its largest |value|, and those largest values.

    Shares and CVs do not depend on a column's unit, and sums of entries in
    [-1, 1] cannot overflow (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 4). The first zero column ``j`` raises
    ``zero_column(j)`` before any division.
    """
    scales = np.abs(values).max(axis=0)
    zero = np.flatnonzero(scales == 0.0)
    if zero.size:
        raise zero_column(int(zero[0]))
    return values / scales, scales


def _coerce_criteria(
    criteria: Sequence[CriterionSpec | str] | None, n_cols: int
) -> tuple[CriterionSpec, ...]:
    if criteria is None:
        return tuple(CriterionSpec(f"C{j + 1}") for j in range(n_cols))
    specs = tuple(
        spec if isinstance(spec, CriterionSpec) else CriterionSpec(str(spec))
        for spec in criteria
    )
    return specs


def validate_matrix(
    values: Sequence[Sequence[float]] | np.ndarray,
    alternatives: Sequence[str] | None = None,
    criteria: Sequence[CriterionSpec | str] | None = None,
) -> DecisionMatrix:
    """Check a raw grid plus labels and wrap them as a DecisionMatrix.

    Idempotent: feeding a matrix's own fields back returns an equal matrix.

    Raises:
        NonRectangular: ragged grid, or label counts disagree with the grid.
        TooFewAlternatives: fewer than 2 rows.
        BadDims: zero columns.
        NonFiniteValue: NaN or infinity anywhere in the grid.
        DuplicateCriterionName: repeated criterion name.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 2:
            raise NonRectangular(f"expected a 2-D grid, got {values.ndim}-D")
    else:
        widths = {len(row) for row in values}
        if not widths:
            raise TooFewAlternatives("matrix has no rows")
        if len(widths) != 1:
            raise NonRectangular(f"row lengths differ: {sorted(widths)}")
    # DecisionMatrix makes the read-only copy; a float64 ndarray is not copied here
    grid = np.asarray(values, dtype=np.float64)

    n_rows, n_cols = grid.shape
    if n_rows < 2:
        raise TooFewAlternatives(f"need at least 2 alternatives, got {n_rows}")
    if n_cols < 1:
        raise BadDims("matrix needs at least one criterion")

    bad = np.argwhere(~np.isfinite(grid))
    if bad.size:
        row, col = (int(v) for v in bad[0])
        raise NonFiniteValue(row, col)

    if alternatives is None:
        alternatives = tuple(f"A{i + 1}" for i in range(n_rows))
    else:
        alternatives = tuple(str(a) for a in alternatives)
        if len(alternatives) != n_rows:
            raise NonRectangular(
                f"{len(alternatives)} alternative labels for {n_rows} rows"
            )

    specs = _coerce_criteria(criteria, n_cols)
    if len(specs) != n_cols:
        raise NonRectangular(f"{len(specs)} criterion specs for {n_cols} columns")
    names = [spec.name for spec in specs]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateCriterionName(f"criterion {name!r} appears twice")
        seen.add(name)

    return DecisionMatrix(alternatives=alternatives, criteria=specs, values=grid)


def generate_matrix(
    seed: int,
    dims: tuple[int, int],
    value_range: tuple[float, float],
) -> DecisionMatrix:
    """Deterministic synthetic matrix with entries uniform in [lo, hi].

    A pure function of its arguments: the same (seed, dims, range) always
    yields the same matrix.
    """
    n_rows, n_cols = dims
    lo, hi = value_range
    if n_rows < 2 or n_cols < 1:
        raise BadDims(f"dims must be at least 2x1, got {n_rows}x{n_cols}")
    # an infinite bound, or a width past the float range, leaves hi - lo infinite
    if not lo < hi or not math.isfinite(float(hi) - float(lo)):
        raise BadRange(f"need lo < hi with a finite hi - lo, got [{lo}, {hi}]")

    rng = np.random.default_rng(seed)
    grid = rng.uniform(lo, hi, size=(n_rows, n_cols))
    return validate_matrix(grid)
