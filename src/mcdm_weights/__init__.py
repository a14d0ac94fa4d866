"""Criterion weighting for multi-attribute decision matrices.

Two data-driven weighting methods over one immutable decision-matrix model:

* Shannon entropy weighting: weight by degree of divergence 1 - E of each
  criterion's share-of-column distribution.
* Dispersion weighting (DWM): weight by each criterion's coefficient of
  variation, computed directly on raw values with no normalization.

Plus simple additive scoring, rank extraction, Pearson/Spearman method
comparison, delimited-file I/O with deterministic reports, and a seeded
Monte Carlo agreement benchmark behind the ``mcdm-weights`` CLI.
"""

from .compare import (
    ComparisonReport,
    compare_methods,
    compare_weights,
    pearson,
    rank_desc,
    saw_scores,
    spearman,
)
from .dispersion import (
    DispersionBreakdown,
    dwm_weights,
)
from .entropy import (
    EntropyBreakdown,
    entropy_weights,
    normalize_columns,
)
from .errors import (
    AllColumnsConstant,
    AllColumnsUniform,
    BadDims,
    BadRange,
    ConstantVector,
    DegenerateMean,
    DimensionMismatch,
    DuplicateCriterionName,
    InputError,
    LengthMismatch,
    McdmError,
    MethodError,
    NegativeEntry,
    NonFiniteValue,
    NonRectangular,
    ParseError,
    TooFewAlternatives,
    UnknownGrade,
    ZeroColumn,
)
from .io import (
    ReportDocument,
    build_report,
    emit_matrix,
    emit_plot_series,
    emit_report,
    fixture_path,
    load_fixture,
    parse_matrix,
    parse_report,
    sha256_digest,
)
from .matrix import (
    DEFAULT_LIKERT_MAP,
    CriterionSpec,
    DecisionMatrix,
    LikertMap,
    WeightVector,
    apply_likert,
    generate_matrix,
    validate_matrix,
)
from .version import __version__

__all__ = [
    "__version__",
    # data model
    "CriterionSpec",
    "DecisionMatrix",
    "DEFAULT_LIKERT_MAP",
    "LikertMap",
    "WeightVector",
    "apply_likert",
    "generate_matrix",
    "validate_matrix",
    # entropy method
    "EntropyBreakdown",
    "entropy_weights",
    "normalize_columns",
    # dispersion method
    "DispersionBreakdown",
    "dwm_weights",
    # scoring and comparison
    "ComparisonReport",
    "compare_methods",
    "compare_weights",
    "pearson",
    "rank_desc",
    "saw_scores",
    "spearman",
    # input/output
    "ReportDocument",
    "build_report",
    "emit_matrix",
    "emit_plot_series",
    "emit_report",
    "fixture_path",
    "load_fixture",
    "parse_matrix",
    "parse_report",
    "sha256_digest",
    # errors
    "McdmError",
    "InputError",
    "MethodError",
    "AllColumnsConstant",
    "AllColumnsUniform",
    "BadDims",
    "BadRange",
    "ConstantVector",
    "DegenerateMean",
    "DimensionMismatch",
    "DuplicateCriterionName",
    "LengthMismatch",
    "NegativeEntry",
    "NonFiniteValue",
    "NonRectangular",
    "ParseError",
    "TooFewAlternatives",
    "UnknownGrade",
    "ZeroColumn",
]
