"""Matrix ingestion, report emission, and the bundled example datasets.

Matrix files are comma-delimited UTF-8. The first header cell is blank or
"alternative"; each remaining header cell is a criterion name, optionally
annotated with ``:cost`` and/or ``:reverse``. Data rows carry the
alternative label followed by one cell per criterion; cells are numeric
literals or verbal grades resolved through a Likert map. File coordinates
in errors are 1-based, matrix coordinates 0-based.

Reports are emitted as JSON or CSV with fixed key order and fixed 6-decimal
formatting, so identical inputs produce byte-identical output anywhere.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from io import StringIO
from pathlib import Path

import numpy as np

from .compare import ComparisonReport, rank_desc
from .dispersion import DispersionBreakdown
from .entropy import EntropyBreakdown
from .errors import DimensionMismatch, ParseError, UnknownGrade
from .matrix import (
    DEFAULT_LIKERT_MAP,
    CriterionSpec,
    DecisionMatrix,
    LikertMap,
    WeightVector,
    validate_matrix,
)
from .version import __version__

TOOL = f"mcdm-weights {__version__}"
REPORT_SCHEMA = "mcdm-weights/report/v1"
PLOT_HEADER = "criterion,weight_entropy,weight_dwm"


# ---------------------------------------------------------------- parsing


def _parse_header(header: list[str], line: int) -> tuple[CriterionSpec, ...]:
    if header[0].casefold() not in ("", "alternative"):
        raise ParseError(line, 1, "first header cell must be blank or 'alternative'")
    if len(header) < 2:
        raise ParseError(line, 2, "no criterion columns")
    criteria = []
    for col, cell in enumerate(header[1:], start=2):
        name, *annotations = [p.strip() for p in cell.split(":")]
        if not name:
            raise ParseError(line, col, "empty criterion name")
        direction = "benefit"
        reverse = False
        for annotation in annotations:
            key = annotation.casefold()
            if key == "cost":
                direction = "cost"
            elif key == "reverse":
                reverse = True
            else:
                raise ParseError(line, col, f"unknown annotation {annotation!r}")
        criteria.append(CriterionSpec(name, direction, reverse))
    return tuple(criteria)


def parse_matrix(
    text: str, likert_map: LikertMap = DEFAULT_LIKERT_MAP
) -> DecisionMatrix:
    """Parse delimited text into a validated DecisionMatrix.

    Numeric cells are taken as-is; textual cells are resolved through the
    Likert map, honoring each column's ``:reverse`` annotation. Rows are
    checked as they are read, so the first fault in file order is reported.

    Raises:
        ParseError: structural problems (bad header, ragged row, empty cell).
        UnknownGrade: textual cell missing from the Likert map (with file
            line/column attached).
        Any validate_matrix error (NonFiniteValue, TooFewAlternatives, ...).
    """
    reader = csv.reader(StringIO(text))
    criteria: tuple[CriterionSpec, ...] | None = None
    alternatives: list[str] = []
    grid: list[list[float]] = []
    try:
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            line = reader.line_num
            if criteria is None:
                criteria = _parse_header(cells, line)
                continue
            if len(cells) != len(criteria) + 1:
                reason = f"row has {len(cells) - 1} cells, expected {len(criteria)}"
                raise ParseError(line, 1, reason)
            label = cells[0]
            if not label:
                raise ParseError(line, 1, "missing alternative label")
            values: list[float] = []
            for col, (token, spec) in enumerate(zip(cells[1:], criteria), start=2):
                try:
                    values.append(float(token))
                except ValueError:
                    if not token:
                        raise ParseError(line, col, "empty cell") from None
                    try:
                        values.append(likert_map.score(token, spec.likert_reverse))
                    except UnknownGrade:
                        raise UnknownGrade(token, line=line, col=col) from None
            alternatives.append(label)
            grid.append(values)
    except csv.Error as exc:
        raise ParseError(reader.line_num, 1, str(exc)) from None
    if criteria is None:
        raise ParseError(1, 1, "empty document")
    return validate_matrix(grid, alternatives, criteria)


def emit_matrix(matrix: DecisionMatrix) -> str:
    """Render a matrix back to delimited text (numeric cells, full repr).

    parse_matrix(emit_matrix(m)) reproduces m exactly for numeric data.
    """
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["alternative"]
    for spec in matrix.criteria:
        name = spec.name
        if spec.direction == "cost":
            name += ":cost"
        if spec.likert_reverse:
            name += ":reverse"
        header.append(name)
    writer.writerow(header)
    for label, row in zip(matrix.alternatives, matrix.values):
        writer.writerow([label] + [repr(float(v)) for v in row])
    return out.getvalue()


def sha256_digest(text: str) -> str:
    """Hex digest used as the provenance input_digest."""
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- reports

#: A report is its JSON document: a dict in emitted key order whose values
#: are already quantized, so emitting and re-parsing yields an equal value.
ReportDocument = dict

#: Every field of the entropy, dwm and comparison blocks, in emitted order, as
#: (block, JSON key, CSV name, kind). A "column" field holds one value per
#: criterion and becomes a CSV table column; a "meta" field holds one value
#: per report and becomes a CSV ``# name=value`` line above the table.
REPORT_FIELDS = (
    ("entropy", "k", "entropy_k", "meta"),
    ("entropy", "entropy", "entropy", "column"),
    ("entropy", "divergence", "divergence", "column"),
    ("entropy", "weights", "weight_entropy", "column"),
    ("entropy", "ranks", "rank_entropy", "column"),
    ("dwm", "mean", "mean", "column"),
    ("dwm", "std", "std", "column"),
    ("dwm", "cv", "cv", "column"),
    ("dwm", "weights", "weight_dwm", "column"),
    ("dwm", "ranks", "rank_dwm", "column"),
    ("comparison", "pearson", "pearson", "meta"),
    ("comparison", "spearman", "spearman", "meta"),
    ("comparison", "rank_agreements", "rank_agreements", "meta"),
)


def _q6(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, np.ndarray):
        return [round(v, 6) for v in value.tolist()]
    if isinstance(value, tuple):
        return list(value)  # ranks are ints
    return value  # counts are ints; None marks "not applicable"


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return "NA" if value is None else str(value)


def _uncell(text: str):
    if text == "NA":
        return None
    return int(text) if text.isdigit() else float(text)


def build_report(
    criteria: tuple[str, ...],
    input_digest: str,
    entropy: tuple[WeightVector, EntropyBreakdown] | None = None,
    dwm: tuple[WeightVector, DispersionBreakdown] | None = None,
    comparison: ComparisonReport | None = None,
    notes: tuple[str, ...] = (),
) -> ReportDocument:
    """Assemble a report from full-precision results.

    Ranks are extracted before quantization; printed values are rounded to
    6 decimals, exceeding the precision of any weight this tool emits.
    Blocks for methods that did not run are omitted.

    Raises:
        ValueError: a note contains a line break, which a CSV report could
            not carry on its one ``# note=`` line.
    """
    doc: ReportDocument = {
        "schema": REPORT_SCHEMA,
        "tool": TOOL,
        "input_digest": input_digest,
        "criteria": list(criteria),
    }
    for note in notes:
        if "\n" in note or "\r" in note:
            raise ValueError(f"report note {note!r} contains a line break")
    if notes:
        doc["notes"] = list(notes)
    sources = {}
    if comparison is not None:
        sources["comparison"] = vars(comparison)
    for block, result in (("entropy", entropy), ("dwm", dwm)):
        if result is not None:
            # a method block reads its breakdown, its weight vector's
            # weights, and the ranks of those weights
            weights, breakdown = result
            ranks = rank_desc(weights.weights)
            sources[block] = {**vars(breakdown), **vars(weights), "ranks": ranks}
    for block, key, _, _ in REPORT_FIELDS:
        if block in sources:
            doc.setdefault(block, {})[key] = _q6(sources[block][key])
    return doc


def emit_report(report: ReportDocument, format: str = "json") -> str:
    """Serialize a report; absent blocks are omitted, never null-filled."""
    if format == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    # the string fields (schema, tool, input_digest) lead the metadata lines
    lines = [
        f"# {key}={value}" for key, value in report.items() if isinstance(value, str)
    ]
    lines += [f"# note={note}" for note in report.get("notes", ())]
    columns = []
    for block, key, name, kind in REPORT_FIELDS:
        if block in report:
            if kind == "meta":
                lines.append(f"# {name}={_cell(report[block][key])}")
            else:
                columns.append((name, report[block][key]))
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["criterion"] + [name for name, _ in columns])
    for j, criterion in enumerate(report["criteria"]):
        writer.writerow([criterion] + [_cell(values[j]) for _, values in columns])
    return "\n".join(lines) + "\n" + out.getvalue()


def parse_report(text: str, format: str = "json") -> ReportDocument:
    """Inverse of emit_report for both formats.

    In CSV, ``# name=value`` metadata lines are read only above the table
    header, so a criterion whose name starts with ``# `` stays a table row.
    """
    if format == "json":
        return json.loads(text)
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    lines = text.split("\n")
    n_meta = 0
    while n_meta < len(lines) and lines[n_meta].startswith("# "):
        n_meta += 1
    meta: dict[str, str] = {}
    notes: list[str] = []
    for line in lines[:n_meta]:
        key, _, value = line[2:].partition("=")
        if key == "note":
            notes.append(value)
        else:
            meta[key] = value
    table = list(csv.reader(StringIO("\n".join(lines[n_meta:]))))
    if not table:
        raise ValueError("csv report has no table header")
    header, *rows = table
    index = {name: pos for pos, name in enumerate(header)}

    names = {name for _, _, name, _ in REPORT_FIELDS}
    doc: ReportDocument = {k: v for k, v in meta.items() if k not in names}
    doc["criteria"] = [row[0] for row in rows]
    if notes:
        doc["notes"] = notes
    for block, key, name, kind in REPORT_FIELDS:
        if kind == "meta" and name in meta:
            doc.setdefault(block, {})[key] = _uncell(meta[name])
        elif kind == "column" and name in index:
            doc.setdefault(block, {})[key] = [_uncell(row[index[name]]) for row in rows]
    return doc


def emit_plot_series(
    criteria: tuple[str, ...], entropy: WeightVector, dwm: WeightVector
) -> str:
    """Grouped-bar data: one row per criterion with both methods' weights."""
    if not len(criteria) == len(entropy) == len(dwm):
        raise DimensionMismatch(
            f"{len(criteria)} criteria, {len(entropy)} entropy weights, "
            f"{len(dwm)} dwm weights"
        )
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PLOT_HEADER.split(","))
    for name, we, wd in zip(criteria, entropy, dwm):
        writer.writerow([name, _cell(we), _cell(wd)])
    return out.getvalue()


# ---------------------------------------------------------------- fixtures


def fixture_dir() -> Path:
    """Bundled dataset directory, overridable via MCDM_FIXTURES."""
    override = os.environ.get("MCDM_FIXTURES")
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return fixture_dir() / name


def load_fixture(
    name: str, likert_map: LikertMap = DEFAULT_LIKERT_MAP
) -> DecisionMatrix:
    """Parse one of the bundled datasets (e.g. "example1.csv")."""
    return parse_matrix(fixture_path(name).read_text(encoding="utf-8-sig"), likert_map)


def resolve_input(path: str) -> Path:
    """A plain path, falling back to the fixture directory by name."""
    candidate = Path(path)
    if candidate.exists():
        return candidate
    fallback = fixture_path(path)
    if fallback.exists():
        return fallback
    return candidate
