"""Deterministic CSV/JSON emission with a provenance header.

Every emitted file starts with a provenance block (target id, parameters,
seed, tool version, tolerance defaults) so a dataset is self-describing.
Writers are deterministic: no timestamps, fixed float formatting, fixed key
order, so identical runs produce identical bytes and re-emitting a parsed
file is the identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["Table", "write_table", "read_table", "format_value"]


def format_value(v) -> str:
    """CSV cell of one value: true/false, repr of a float (nan, inf and -inf
    included), or str."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


# The CSV cell of a plain float, int, str or bool, looked up by exact type:
# the text format_value gives, without its isinstance chain per cell.
_CELL = {float: float.__repr__, int: int.__repr__, str: str,
         bool: {True: "true", False: "false"}.__getitem__}


def _column_cells(column) -> list:
    """CSV cells of one column.  A column of plain floats is formatted once
    per distinct value, told apart by bits: -0.0 == 0.0 and NaN != NaN, so
    equality would merge two texts or split one."""
    if set(map(type, column)) != {float}:
        return [_CELL.get(type(v), format_value)(v) for v in column]
    bits, inverse = np.unique(np.array(column).view(np.int64), return_inverse=True)
    texts = np.array([float.__repr__(v) for v in bits.view(float).tolist()], dtype=object)
    return texts[inverse].tolist()


# The CSV is formatted a block of rows at a time, column by column: every
# cell of a block is held until its rows are joined, so the block bounds
# that memory (unblocked, a 22,326-row table read 6.7 MB more peak RSS).
_BLOCK_ROWS = 1024


@dataclass
class Table:
    """Columnar dataset plus its provenance mapping."""

    provenance: dict
    columns: list
    rows: list

    def __post_init__(self):
        base = {"tool": "ptmoments", "version": __version__}
        base.update(self.provenance)
        self.provenance = base


def write_table(table: Table, path, fmt: str = "csv") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = [f"# {key}: {json.dumps(val, sort_keys=True)}"
                 for key, val in table.provenance.items()]
        lines.append(",".join(table.columns))
        for start in range(0, len(table.rows), _BLOCK_ROWS):
            columns = zip(*table.rows[start:start + _BLOCK_ROWS], strict=True)
            lines += map(",".join, zip(*map(_column_cells, columns)))
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        doc = {"provenance": table.provenance, "columns": table.columns,
               "rows": [[_jsonable(v) for v in row] for row in table.rows]}
        path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    return path


def _jsonable(v):
    """Plain Python value of a cell; non-finite floats become their CSV text."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return v if math.isfinite(v) else format_value(v)
    return v


def read_table(path) -> Table:
    """Parse a file written by write_table; round-trips byte-identically."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        return Table(doc["provenance"], doc["columns"], [tuple(r) for r in doc["rows"]])
    provenance = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, raw = lines[i][2:].partition(": ")
        provenance[key] = json.loads(raw)
        i += 1
    columns = lines[i].split(",")
    rows = [tuple(_parse_cell(c) for c in line.split(","))
            for line in lines[i + 1:] if line]
    return Table(provenance, columns, rows)


def _parse_cell(cell: str):
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell
