"""Decision-matrix data model: validation, Likert conversion, generation.

A decision matrix holds one row per alternative (option) and one column per
criterion. All downstream operations treat it as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BadDims,
    BadRange,
    DuplicateCriterionName,
    InputError,
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
    """Ordered verbal-grade scale with strictly increasing, finite, positive
    scores; grades match case- and whitespace-insensitively."""

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
        if not all(map(math.isfinite, scores)):
            raise ValueError("Likert scores must be finite")
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
        """A verbal grade's score; ``reverse`` reflects it about the scale
        midpoint to ``(max + min) - score``, so on the default 1-7 scale
        "Extremely high" becomes 1."""
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


def _readonly(values) -> np.ndarray:
    """The read-only, C-ordered float64 copy of any array a caller passes.

    Raises:
        NonRectangular: ``values`` is ragged, is complex or holds a cell
            that is not a real number or an int past the float range.
    """
    try:
        raw = np.asarray(values)
        # the float64 copy would drop an imaginary part without a word; an
        # object array, such as one holding an int past int64, hides it in a cell
        if raw.dtype.kind == "c" or (
            raw.dtype.kind == "O"
            and any(isinstance(v, (complex, np.complexfloating)) for v in raw.flat)
        ):
            raise NonRectangular("not an array of real numbers: complex values")
        frozen = np.array(raw, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        # numpy refuses ragged rows, non-real cells and ints past the float range
        raise NonRectangular(f"not an array of real numbers: {exc}") from None
    frozen.flags.writeable = False
    return frozen


def _freeze_fields(instance, *names: str) -> None:
    """Set each named field of a frozen dataclass to its read-only copy.

    Raises:
        ValueError: a field is not 1-D, or the fields differ in length.
    """
    lengths = set()
    for name in names:
        vector = _readonly(getattr(instance, name))
        if vector.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {vector.shape}")
        lengths.add(len(vector))
        object.__setattr__(instance, name, vector)
    if len(lengths) > 1:
        raise ValueError(f"{', '.join(names)} must have one length")


@lru_cache(maxsize=32)
def _default_alternatives(n_rows: int) -> tuple[str, ...]:
    return tuple(f"A{i + 1}" for i in range(n_rows))


@lru_cache(maxsize=32)
def _default_criteria(n_cols: int) -> tuple[CriterionSpec, ...]:
    # CriterionSpec is frozen, so every matrix of this width can share these
    return tuple(CriterionSpec(f"C{j + 1}") for j in range(n_cols))


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """Alternatives x criteria value grid, checked when it is built.

    ``values`` is kept as a read-only, C-ordered float64 copy, so a grid
    weighs to the same bits in any memory layout; the labels are kept as a
    tuple of str and a tuple of CriterionSpec (a str is a criterion name).
    ``None`` for either label field names the rows ``A1, A2, ...`` or the
    columns ``C1, C2, ...``.

    Raises:
        NonRectangular: a grid that is not 2-D, is ragged, is complex or
            holds a cell that is not a real number or an int past the float
            range, or a wrong label count.
        TooFewAlternatives: fewer than 2 rows.
        BadDims: zero columns.
        NonFiniteValue: NaN or infinity, the first in row-major order.
        DuplicateCriterionName: repeated criterion name.
    """

    alternatives: tuple[str, ...] | None
    criteria: tuple[CriterionSpec, ...] | None
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        grid = _readonly(self.values)
        if grid.shape == (0,):
            raise TooFewAlternatives("matrix has no rows")
        if grid.ndim != 2:
            raise NonRectangular(f"expected a 2-D grid, got {grid.ndim}-D")

        n_rows, n_cols = grid.shape
        if n_rows < 2:
            raise TooFewAlternatives(f"need at least 2 alternatives, got {n_rows}")
        if n_cols < 1:
            raise BadDims("matrix needs at least one criterion")

        if bad := _first_fault(~np.isfinite(grid)):
            raise NonFiniteValue(*bad)

        if self.alternatives is None:
            labels = _default_alternatives(n_rows)
        else:
            labels = tuple(map(str, self.alternatives))
        if len(labels) != n_rows:
            raise NonRectangular(f"{len(labels)} alternative labels for {n_rows} rows")

        if self.criteria is None:
            specs = _default_criteria(n_cols)
        else:
            specs = tuple(
                spec if isinstance(spec, CriterionSpec) else CriterionSpec(str(spec))
                for spec in self.criteria
            )
        if len(specs) != n_cols:
            raise NonRectangular(f"{len(specs)} criterion specs for {n_cols} columns")
        seen: set[str] = set()
        for spec in specs:
            if spec.name in seen:
                raise DuplicateCriterionName(f"criterion {spec.name!r} appears twice")
            seen.add(spec.name)

        object.__setattr__(self, "alternatives", labels)
        object.__setattr__(self, "criteria", specs)
        object.__setattr__(self, "values", grid)

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
        _freeze_fields(self, "weights")
        weights = self.weights
        if np.count_nonzero(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        total = float(np.add.reduce(weights, None))
        # a NaN or infinite weight makes the total NaN or infinite: refused
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


def _first_fault(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True of ``mask`` in row-major order, or None.

    The same position as ``np.argwhere(mask)[0]``: ``nonzero`` lists cells
    in C order for any memory layout. A clean mask costs one
    ``count_nonzero``, several times cheaper than ``mask.any()`` on a small
    array.
    """
    if not np.count_nonzero(mask):
        return None
    return tuple(int(axis[0]) for axis in mask.nonzero())


#: a CV at or below this is no dispersion, to both weighers
_NO_SPREAD = 1e-12


def _pow2_scaled(values: np.ndarray, axis: int) -> tuple[np.ndarray, ...]:
    """``values`` times the power of two that brings the largest |value|
    along ``axis`` into [0.5, 1), exact but for a subnormal result (an
    all-zero slice stays as it is); then that scaled largest |value| (the
    mantissa) and the exponent, with ``axis`` kept at length 1."""
    largest = np.maximum.reduce(np.abs(values), axis, keepdims=True)
    mantissa, exponent = np.frexp(largest)
    return np.ldexp(values, -exponent), mantissa, exponent


def validate_matrix(
    values: Sequence[Sequence[float]] | np.ndarray,
    alternatives: Sequence[str] | None = None,
    criteria: Sequence[CriterionSpec | str] | None = None,
) -> DecisionMatrix:
    """A DecisionMatrix of ``values``, its rows named ``A1, A2, ...`` and
    its columns ``C1, C2, ...`` unless labels are given.

    Idempotent: feeding a matrix's own fields back returns an equal matrix.
    Raises what :class:`DecisionMatrix` raises, in the same order.
    """
    return DecisionMatrix(alternatives, criteria, values)


def _is_pair(value, kinds: tuple[type, ...]) -> bool:
    # concrete types, not the ``numbers`` ABCs: the agreement bench checks
    # its dims and range once per trial, and an ABC check costs far more
    return (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and isinstance(value[0], kinds)
        and isinstance(value[1], kinds)
    )


def _check_draw(
    seed: int, dims: tuple[int, int], value_range: tuple[float, float]
) -> None:
    """:func:`generate_matrix`'s seed, dims and range rules, which the
    agreement bench also checks before it draws anything."""
    # numpy would draw a None seed from OS entropy, so two calls would differ
    if not isinstance(seed, (int, np.integer)):
        raise InputError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InputError(f"seed must be at least 0, got {seed}")
    if not _is_pair(dims, (int, np.integer)):
        raise BadDims(f"dims must be integers (rows, cols), got {dims!r}")
    if not _is_pair(value_range, (int, float, np.integer, np.floating)):
        raise BadRange(f"range must be real numbers (lo, hi), got {value_range!r}")
    n_rows, n_cols = dims
    lo, hi = value_range
    if n_rows < 2 or n_cols < 1:
        raise BadDims(f"dims must be at least 2x1, got {n_rows}x{n_cols}")
    try:
        width = float(hi) - float(lo)
    except OverflowError:
        raise BadRange("range bounds must fit in a float") from None
    # an infinite bound, or a width past the float range, leaves hi - lo infinite
    if not lo < hi or not math.isfinite(width):
        raise BadRange(f"need lo < hi with a finite hi - lo, got [{lo}, {hi}]")


def generate_matrix(
    seed: int,
    dims: tuple[int, int],
    value_range: tuple[float, float],
) -> DecisionMatrix:
    """Deterministic synthetic matrix with entries uniform in [lo, hi].

    A pure function of its arguments: the same (seed, dims, range) always
    yields the same matrix.

    Raises:
        InputError: a seed that is not an int (numpy's included) or is
            below 0.
        BadDims: dims that are not a tuple or list of two ints (numpy's
            included), fewer than 2 rows or no column.
        BadRange: a range that is not a tuple or list of two ints or floats
            (numpy's included), an int bound past the float range,
            ``lo >= hi``, or an infinite ``hi - lo``.
    """
    _check_draw(seed, dims, value_range)
    grid = np.random.default_rng(seed).uniform(*value_range, size=dims)
    return validate_matrix(grid)
