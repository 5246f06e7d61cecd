"""Reading matrices from files.

Two formats, sniffed by the first non-whitespace character:

  JSON document (first char '{' or '['):
      {"rows": 2, "cols": 1, "domain": "int", "data": [["1"], ["2"]]}
    Entries are strings in the domain's literal grammar, or plain JSON
    numbers the domain can hold exactly; "domain" is optional and defaults
    to "int". A document's own domain wins: passing a conflicting explicit
    scalar tag is an error, not an override.

  CSV (anything else): one row per line, cells separated by commas and
    stripped of surrounding blanks; blank lines are skipped. The scalar
    domain comes from the explicit tag, default "int".

Rows convert in bulk, one map per row: a CSV line that matches the domain's
literal grammar cell for cell (spaces and tabs around cells allowed), and a
JSON row of grammar strings, through Domain.parse_row; any other JSON row
through Domain.coerce. A row that fails its gate, or that the bulk step
cannot finish, is parsed cell by cell, which names the first bad entry.
"""
from __future__ import annotations

import json
import re
from typing import NamedTuple

from .matrix import Matrix
from .scalars import DOMAINS, ScalarError, _long_int, get_domain

_JSON_CELL_TYPES = frozenset((str, int, float))


def _csv_line_pattern(literal: re.Pattern) -> re.Pattern:
    cell = rf"[ \t]*(?:{literal.pattern})[ \t]*"
    return re.compile(rf"{cell}(?:,{cell})*")


_CSV_LINE = {tag: _csv_line_pattern(dom.literal) for tag, dom in DOMAINS.items()}


class MatrixInputError(ValueError):
    """Malformed matrix file or inconsistent metadata."""


class MatrixDocument(NamedTuple):
    """Parsed but not yet coerced matrix payload."""
    rows: int
    cols: int
    domain: str
    data: list


def _json_loads(text: str):
    """json.loads, re-parsing with chunked integers only when a bare integer
    is past the int/str digit limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        return json.loads(text, parse_int=_long_int)


def _document_from_json(text: str) -> MatrixDocument:
    try:
        obj = _json_loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixInputError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MatrixInputError("JSON input must be an object")
    unknown = set(obj) - {"rows", "cols", "domain", "data"}
    if unknown:
        raise MatrixInputError(f"unknown JSON keys: {sorted(unknown)}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise MatrixInputError(f"JSON input missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not isinstance(rows, int) or isinstance(rows, bool) or rows < 1:
        raise MatrixInputError("'rows' must be a positive integer")
    if not isinstance(cols, int) or isinstance(cols, bool) or cols < 1:
        raise MatrixInputError("'cols' must be a positive integer")
    domain = obj.get("domain", "int")
    if not isinstance(domain, str) or domain not in DOMAINS:
        raise MatrixInputError(f"unknown domain {domain!r}; expected one of {sorted(DOMAINS)}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixInputError(f"'data' must be a list of {rows} rows")
    for i, row in enumerate(data, 1):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixInputError(f"row {i} must be a list of {cols} entries")
        # json.loads makes exact types, so bools fail this gate
        if not _JSON_CELL_TYPES.issuperset(map(type, row)):
            j = next(j for j, cell in enumerate(row, 1) if type(cell) not in _JSON_CELL_TYPES)
            raise MatrixInputError(f"entry ({i},{j}) must be a string literal or a number")
    return MatrixDocument(rows=rows, cols=cols, domain=domain, data=data)


def _csv_lines(text: str) -> list:
    """The non-blank lines, after checking that each has as many cells as
    the first."""
    lines = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        cells = line.count(",") + 1
        if not lines:
            width = cells
        elif cells != width:
            raise MatrixInputError(f"line {lineno}: expected {width} cells, got {cells}")
        lines.append(line)
    if not lines:
        raise MatrixInputError("no matrix rows in input")
    return lines


def _parse_cells(dom, i: int, cells) -> list:
    """Row i (1-based) cell by cell: strings through dom.parse, numbers
    through dom.coerce, the first failure named by its position."""
    out = []
    for j, cell in enumerate(cells, 1):
        try:
            out.append(dom.parse(cell) if isinstance(cell, str) else dom.coerce(cell))
        except ScalarError as exc:
            raise MatrixInputError(f"entry ({i},{j}): {exc}") from None
    return out


def _csv_row(dom, i: int, line: str) -> list:
    values = dom.parse_row(line.split(",")) if _CSV_LINE[dom.tag].fullmatch(line) else None
    if values is None:
        values = _parse_cells(dom, i, [cell.strip() for cell in line.split(",")])
    return values


def _json_row(dom, i: int, row: list) -> list:
    if set(map(type, row)) == {str}:
        values = dom.parse_row(row) if all(map(dom.literal.fullmatch, row)) else None
    else:
        try:
            values = list(map(dom.coerce, row))
        except ScalarError:  # a string among numbers, or a number out of the domain
            values = None
    return _parse_cells(dom, i, row) if values is None else values


def parse_matrix_text(text: str, scalar_tag: str | None = None) -> Matrix:
    """Parse file content into a Matrix; `scalar_tag` is the caller's
    explicit domain choice, or None for the format default."""
    stripped = text.lstrip()
    if not stripped:
        raise MatrixInputError("empty input")
    if stripped[0] in "{[":
        doc = _document_from_json(text)
        if scalar_tag is not None and scalar_tag != doc.domain:
            raise MatrixInputError(
                f"document declares domain {doc.domain!r} but {scalar_tag!r} was requested")
        dom = get_domain(doc.domain)
        rows = [_json_row(dom, i, row) for i, row in enumerate(doc.data, 1)]
    else:
        lines = _csv_lines(text)
        dom = get_domain(scalar_tag if scalar_tag is not None else "int")
        rows = [_csv_row(dom, i, line) for i, line in enumerate(lines, 1)]
    return Matrix._trusted(dom, rows)


def load_matrix_file(path: str, scalar_tag: str | None = None) -> Matrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixInputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise MatrixInputError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_matrix_text(text, scalar_tag)
