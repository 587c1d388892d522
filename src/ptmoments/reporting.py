"""Deterministic CSV/JSON emission with a provenance header.

Every emitted file starts with a provenance block (target id, parameters,
seed, tool version, tolerance defaults) so a dataset is self-describing.
A Table is columnar: one sequence per column, a numpy array or a list.  The
writer streams 1,024 rows at a time, in CSV and JSON alike: it formats a
block of rows from the columns, writes it and drops it, so no file's whole
text is ever held.  It writes under a temporary name and replaces the target
atomically once the file is complete.  Writers are deterministic: no
timestamps, fixed float formatting, fixed key order, so identical runs
produce identical bytes (the JSON is that of one ``json.dumps(doc,
indent=2)``) and re-emitting a parsed file is the identity.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["Table", "write_table", "read_table", "format_value"]


# The CSV cell of a plain float, int, str or bool, looked up by exact type,
# and of the values of a bool or integer array, by dtype kind.
_CELL = {float: float.__repr__, int: int.__repr__, str: str,
         bool: {True: "true", False: "false"}.__getitem__}
_KIND_CELL = {"b": _CELL[bool], "i": int.__repr__, "u": int.__repr__}


def format_value(v) -> str:
    """CSV cell of one value: true/false, repr of a float (nan, inf and -inf
    included), or str; a numpy scalar is formatted as its Python value."""
    v = v.item() if isinstance(v, np.generic) else v
    return _CELL.get(type(v), str)(v)


def _values(column):
    """The cells of a column as plain Python values where it is an array."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _column_cells(column) -> list:
    """CSV cells of one column.  A float64 array is formatted once per
    distinct value, told apart by bits: -0.0 == 0.0 and NaN != NaN, so
    equality would merge two texts or split one.  Bool and integer arrays
    are formatted by dtype, other arrays and lists value by value."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
        return texts[inverse].tolist()
    if isinstance(column, np.ndarray) and column.dtype.kind in _KIND_CELL:
        return list(map(_KIND_CELL[column.dtype.kind], column.tolist()))
    return [_CELL.get(type(v), format_value)(v) for v in _values(column)]


# Rows per block: a block's cells and text are held until it is written, so
# the block bounds the writer's memory (a whole 22,326-row table held 7.1 MB
# of CSV text, 25 MB as a JSON document).  Float texts are memoized per block
# only: a memo over a whole column holds every distinct text of the table.
_BLOCK_ROWS = 1024


@dataclass
class Table:
    """Named columns, one array or list each in ``data``, all of one length,
    plus their provenance mapping; ``rows`` zips their values into tuples."""

    provenance: dict
    columns: list
    data: list

    def __post_init__(self):
        self.provenance = {"tool": "ptmoments", "version": __version__, **self.provenance}
        self.data = list(self.data)
        if len(self.data) != len(self.columns) or len(set(map(len, self.data))) > 1:
            raise ValueError(f"{len(self.columns)} names for columns of lengths "
                             f"{[len(c) for c in self.data]}")

    @property
    def n_rows(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def rows(self) -> list:
        return list(zip(*map(_values, self.data)))


def write_table(table: Table, path, fmt: str = "csv") -> Path:
    """Write ``table`` to ``path`` as CSV or JSON (``fmt``) and return the
    path.  The file is written a block of rows at a time under a temporary
    name beside ``path``, which it replaces once complete: a write that fails
    leaves an earlier file untouched and no partial file behind."""
    if fmt == "csv":
        head = "".join(f"# {key}: {json.dumps(val, sort_keys=True)}\n"
                       for key, val in table.provenance.items()) + ",".join(table.columns)
        # every row starts a line, and the file ends with a newline
        lead, sep, row_texts, tail = "\n", "\n", _csv_rows, "\n"
    elif fmt == "json":
        # the text of json.dumps(doc, indent=2) for doc = {"provenance": ...,
        # "columns": ..., "rows": [...]}, rows encoded one by one
        head = json.dumps({"provenance": table.provenance, "columns": table.columns},
                          indent=2)[:-2] + ',\n  "rows": ['
        lead, sep, row_texts = "", ",", _json_rows
        tail = "\n  ]\n}\n" if table.n_rows else "]\n}\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(part, "w") as out:
            out.write(head)
            for start in range(0, table.n_rows, _BLOCK_ROWS):
                out.write(sep if start else lead)
                out.write(sep.join(row_texts([c[start:start + _BLOCK_ROWS] for c in table.data])))
            out.write(tail)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return path


def _csv_rows(block):
    """The CSV lines of a block of columns."""
    return map(",".join, zip(*map(_column_cells, block)))


# json.dumps(row, indent=2) of a row of scalars, at the depth of the rows
# list, is this encoding without its brackets between "[" and "]" lines; with
# no indent json runs its C encoder
_ROW_ENCODE = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _json_rows(block):
    """The JSON texts of the rows of a block of columns, as json.dumps(doc,
    indent=2) lays each row out in the rows list."""
    cells = ([_jsonable(v) for v in _values(c)] for c in block)
    return ("\n    [\n      " + _ROW_ENCODE(row)[1:-1] + "\n    ]" for row in zip(*cells))


def _jsonable(v):
    """Plain Python value of a cell; non-finite floats become their CSV text."""
    v = v.item() if isinstance(v, np.generic) else v
    return format_value(v) if type(v) is float and not math.isfinite(v) else v


def read_table(path) -> Table:
    """Parse a file written by write_table; round-trips byte-identically."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        provenance, columns, rows = doc["provenance"], doc["columns"], doc["rows"]
    else:
        lines = text.splitlines()
        i = next((i for i, line in enumerate(lines) if not line.startswith("# ")), len(lines))
        provenance = {key: json.loads(raw) for key, _, raw in
                      (line[2:].partition(": ") for line in lines[:i])}
        columns = lines[i].split(",")
        rows = [map(_parse_cell, line.split(",")) for line in lines[i + 1:] if line]
    data = [list(c) for c in zip(*rows, strict=True)]
    return Table(provenance, columns, data or [[] for _ in columns])


def _parse_cell(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    for parse in (int, float):
        try:
            return parse(cell)
        except ValueError:
            pass
    return cell
