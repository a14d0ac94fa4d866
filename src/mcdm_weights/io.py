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
import functools
import hashlib
import json
from io import StringIO
from pathlib import Path

import numpy as np

from .compare import ComparisonReport, compare_weights, rank_desc
from .dispersion import DispersionBreakdown
from .entropy import EntropyBreakdown
from .errors import DimensionMismatch, InputError, ParseError, UnknownGrade
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
    Likert map, honoring each column's ``:reverse`` annotation. A quote-free
    file is read in bulk; any other file, and any file with a fault, is read
    row by row, so the first fault in file order is reported.

    Raises:
        ParseError: structural problems (bad header, ragged row, empty cell).
        UnknownGrade: textual cell missing from the Likert map (with file
            line/column attached).
        Any validate_matrix error (NonFiniteValue, TooFewAlternatives, ...).
    """
    parsed = _parse_bulk(text, likert_map)
    if parsed is None:
        parsed = _parse_rows(text, likert_map)
    grid, alternatives, criteria = parsed
    return validate_matrix(grid, alternatives, criteria)


def _parse_bulk(text: str, likert_map: LikertMap):
    """Read a quote-free matrix file with one ``np.loadtxt`` over every
    column of its data rows, as ``(grid, labels, criteria)``.

    The label column and the grade columns, those whose first data row is
    not a number, are read through converters: the label converter keeps
    each stripped label, and a grade column's converter scores each distinct
    grade once. loadtxt reads the other columns as numbers, and refuses a
    row whose width differs from the first row's, which is checked against
    the header. Returns None on anything :func:`_parse_rows` might read
    differently: a quote, a carriage return, a NUL, an over-long line, a
    fault, or a numeric column that holds a grade further down.
    ``_parse_rows`` then reads the text and reports the fault, if there is
    one, with its file position.
    """
    # csv.reader splits a line holding none of these on "," alone
    if '"' in text or "\r" in text or "\0" in text:
        return None
    # the rows _parse_rows skips are those whose cells are all blank; a line
    # that starts with anything but a comma or whitespace is not one of them
    lines = [
        line
        for line in text.split("\n")
        if line[:1].strip() not in ("", ",") or line.replace(",", "").strip()
    ]
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header, *rows = lines
    labels: list[str] = []

    def keep_label(cell: str) -> float:
        label = cell.strip()
        if not label:
            raise ValueError("missing alternative label")
        labels.append(label)
        return 0.0

    try:
        # the header's line number only reaches an error that is discarded
        criteria = _parse_header([cell.strip() for cell in header.split(",")], 1)
        first = rows[0].split(",")
        if len(first) != len(criteria) + 1:
            return None
        converters = {0: keep_label}
        for col, (token, spec) in enumerate(zip(first[1:], criteria), start=1):
            try:
                float(token.strip())
            except ValueError:
                converters[col] = functools.cache(
                    functools.partial(
                        _grade_cell, likert_map=likert_map, reverse=spec.likert_reverse
                    )
                )
        # encoding=None hands the converters str, where numpy < 2 gives bytes
        grid = np.loadtxt(
            rows, delimiter=",", comments=None, ndmin=2,
            converters=converters, encoding=None,
        )
    except (ValueError, ParseError, UnknownGrade):
        return None
    return grid[:, 1:], labels, criteria


def _grade_cell(token: str, likert_map: LikertMap, reverse: bool) -> float:
    # both readers' rule for one cell: a number first, then a grade; an
    # empty cell re-raises float's ValueError
    token = token.strip()
    try:
        return float(token)
    except ValueError:
        if not token:
            raise
        return likert_map.score(token, reverse)


def _parse_rows(text: str, likert_map: LikertMap):
    """Read matrix text row by row as ``(grid, labels, criteria)``.

    Rows are checked as they are read, so the first fault in file order is
    reported.
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
                    values.append(_grade_cell(token, likert_map, spec.likert_reverse))
                except ValueError:
                    raise ParseError(line, col, "empty cell") from None
                except UnknownGrade:
                    raise UnknownGrade(token, line=line, col=col) from None
            alternatives.append(label)
            grid.append(values)
    except csv.Error as exc:
        raise ParseError(reader.line_num, 1, str(exc)) from None
    if criteria is None:
        raise ParseError(1, 1, "empty document")
    return grid, alternatives, criteria


def _shown(text: str) -> str:
    # the text for an error message, cut short if it is long
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def emit_matrix(matrix: DecisionMatrix) -> str:
    """Render a matrix back to delimited text (numeric cells, full repr).

    The text is read back before it is returned, so
    parse_matrix(emit_matrix(m)) reproduces m exactly.

    Raises:
        ValueError: the text would not read back as ``matrix``; the message
            names the reader's fault or the first name or label that differs.
    """
    header = ["alternative"]
    for spec in matrix.criteria:
        cost = ":cost" if spec.direction == "cost" else ""
        reverse = ":reverse" if spec.likert_reverse else ""
        header.append(spec.name + cost + reverse)
    grid = zip(matrix.alternatives, matrix.values.tolist())
    text = _csv_text([header, *([label, *map(repr, row)] for label, row in grid)])
    try:
        again = parse_matrix(text)
    except InputError as exc:
        # the reader's message may repeat a long name in full; keep its ends
        fault = str(exc)
        fault = fault if len(fault) <= 150 else f"{fault[:75]}...{fault[-75:]}"
        raise ValueError(f"cannot write matrix: {fault}") from None
    # once every name and label reads back unchanged, nothing else can differ:
    # the annotations and the repr of each value read back exactly
    n = matrix.n_criteria
    wrote = (*matrix.criterion_names, *matrix.alternatives)
    read = (*again.criterion_names, *again.alternatives)
    for i, (mine, theirs) in enumerate(zip(wrote, read)):
        if mine != theirs:
            what = f"criterion {i} name" if i < n else f"alternative {i - n} label"
            raise ValueError(
                f"cannot write {what} {_shown(mine)}: it reads back as {_shown(theirs)}"
            )
    return text


class _Lines(list):
    write = list.append  # csv.writer hands write one whole row at a time


def _csv_text(rows) -> str:
    # rows end in "\r\n", so a writer before Python 3.13 quotes a bare "\r"
    lines = _Lines()
    try:
        csv.writer(lines, lineterminator="\r\n").writerows(rows)
    except csv.Error as exc:  # Python 3.10's writer refuses a NUL
        raise ValueError(f"cannot write CSV: {exc}") from None
    return "".join(line[:-2] + "\n" for line in lines)


def sha256_digest(text: str) -> str:
    """Hex digest used as the provenance input_digest."""
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- reports

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


def _table(criteria, columns) -> str:
    # a report's CSV table: criteria (a str passes _cell as is), then the columns
    names, values = zip(("criterion", criteria), *columns)
    return _csv_text([names, *zip(*(map(_cell, v) for v in values), strict=True)])


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
) -> dict:
    """Assemble a report from full-precision results.

    Ranks are extracted before quantization; printed values are rounded to
    6 decimals, exceeding the precision of any weight this tool emits.
    Blocks for methods that did not run are omitted. Each method block ranks
    its own weights. The comparison block prints ``comparison``, which must
    equal ``compare_weights(entropy[0], dwm[0])`` of the two blocks beside it.

    Raises:
        ValueError: the input digest or a note contains a line break,
            which a CSV report could not carry on its one ``# key=value``
            line; a method block's weights or breakdown fields number other
            than the criteria; or ``comparison`` is given but is not
            ``compare_weights`` of both blocks, or either block is missing.
    """
    doc = {
        "schema": REPORT_SCHEMA,
        "tool": TOOL,
        "input_digest": input_digest,
        "criteria": list(criteria),
    }
    # each lands on its own "# key=value" line of a CSV report
    for key, text in (("input_digest", input_digest), *(("note", n) for n in notes)):
        if "\n" in text or "\r" in text:
            raise ValueError(f"report {key} {text!r} contains a line break")
    if notes:
        doc["notes"] = list(notes)
    sources = {}
    for block, result in (("entropy", entropy), ("dwm", dwm)):
        if result is not None:
            weights, breakdown = result
            fields = {**vars(weights), **vars(breakdown)}
            for key, value in fields.items():
                if isinstance(value, np.ndarray) and len(value) != len(criteria):
                    raise ValueError(
                        f"{block} {key} has {len(value)} values, not {len(criteria)}"
                    )
            sources[block] = {**fields, "ranks": rank_desc(weights.weights)}
    if comparison is not None:
        if None in (entropy, dwm) or comparison != compare_weights(entropy[0], dwm[0]):
            raise ValueError("comparison is not compare_weights(entropy, dwm)")
        sources["comparison"] = vars(comparison)
    for block, key, _, _ in REPORT_FIELDS:
        if block in sources:
            doc.setdefault(block, {})[key] = _q6(sources[block][key])
    return doc


def emit_report(report: dict, format: str = "json") -> str:
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
    return "\n".join(lines) + "\n" + _table(report["criteria"], columns)


def parse_report(text: str, format: str = "json") -> dict:
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
    doc = {k: v for k, v in meta.items() if k not in names}
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
    """Grouped-bar data: the report's CSV table with its two weight columns."""
    if not len(criteria) == len(entropy) == len(dwm):
        raise DimensionMismatch(
            f"{len(criteria)} criteria, {len(entropy)} entropy weights, "
            f"{len(dwm)} dwm weights"
        )
    names = (name for _, key, name, _ in REPORT_FIELDS if key == "weights")
    return _table(criteria, zip(names, (w.weights.tolist() for w in (entropy, dwm))))


# ---------------------------------------------------------------- fixtures


def fixture_path(name: str) -> Path:
    """A bundled dataset's path."""
    return Path(__file__).parent / "fixtures" / name


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
