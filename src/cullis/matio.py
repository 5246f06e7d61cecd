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
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .matrix import Matrix
from .scalars import DOMAINS, ScalarError, _long_int, get_domain


class MatrixInputError(ValueError):
    """Malformed matrix file or inconsistent metadata."""


@dataclass(frozen=True)
class MatrixDocument:
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
    if domain not in DOMAINS:
        raise MatrixInputError(f"unknown domain {domain!r}; expected one of {sorted(DOMAINS)}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixInputError(f"'data' must be a list of {rows} rows")
    for i, row in enumerate(data, 1):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixInputError(f"row {i} must be a list of {cols} entries")
        for j, cell in enumerate(row, 1):
            if isinstance(cell, bool) or not isinstance(cell, (str, int, float)):
                raise MatrixInputError(
                    f"entry ({i},{j}) must be a string literal or a number")
    return MatrixDocument(rows=rows, cols=cols, domain=domain, data=data)


def _document_from_csv(text: str, domain: str) -> MatrixDocument:
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if rows and len(cells) != len(rows[0][1]):
            raise MatrixInputError(
                f"line {lineno}: expected {len(rows[0][1])} cells, got {len(cells)}")
        rows.append((lineno, cells))
    if not rows:
        raise MatrixInputError("no matrix rows in input")
    return MatrixDocument(rows=len(rows), cols=len(rows[0][1]), domain=domain,
                          data=[cells for _, cells in rows])


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
    else:
        doc = _document_from_csv(text, scalar_tag if scalar_tag is not None else "int")
    dom = get_domain(doc.domain)
    parsed = []
    for i, row in enumerate(doc.data, 1):
        out = []
        for j, cell in enumerate(row, 1):
            try:
                value = dom.parse(cell) if isinstance(cell, str) else dom.coerce(cell)
            except ScalarError as exc:
                raise MatrixInputError(f"entry ({i},{j}): {exc}") from None
            out.append(value)
        parsed.append(out)
    return Matrix._trusted(dom, parsed)


def load_matrix_file(path: str, scalar_tag: str | None = None) -> Matrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixInputError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_matrix_text(text, scalar_tag)
