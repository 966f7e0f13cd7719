"""Matrix Market and CSV readers/writers with provenance headers.

Matrices travel as Matrix Market files: a matrix with at most half of its
entries non-zero (the tomography operators) is written in coordinate format,
any other in array format, and both are readable.  Vectors and traces travel
as CSV with '#' comment headers.  Writers are deterministic: identical data
and header text produce byte-identical files, and floats are rendered with
17 significant digits so round-trips are exact.
"""

from __future__ import annotations

import io
import os

import numpy as np
import scipy.io
import scipy.sparse

from .errors import InvalidInputError
from .linalg import as_matrix, as_vector

FORMAT_VERSION = "1"


def provenance_lines(tool_version, command, seed):
    """Standard header block carried at the top of every output file."""
    return [
        f"tool_version: {tool_version}",
        f"format_version: {FORMAT_VERSION}",
        f"command: {command}",
        f"seed: {seed}",
    ]


def write_matrix_market(path, m, comment=""):
    """Write ``m`` in coordinate format if at most half its entries are non-zero.

    Otherwise in array format.  Coordinate files hold only the non-zero
    entries; a zero of either sign is left out and reads back as +0.
    """
    m = as_matrix(m)
    if 2 * np.count_nonzero(m) <= m.size:
        m = scipy.sparse.coo_array(m)
    scipy.io.mmwrite(path, m, comment=comment, precision=17)


def read_matrix_market(path):
    try:
        m = scipy.io.mmread(path)
    except Exception as exc:
        raise InvalidInputError(f"cannot read Matrix Market file {path}: {exc}") from exc
    if scipy.sparse.issparse(m):
        m = m.toarray()
    return as_matrix(np.asarray(m, dtype=float), name=os.path.basename(path))


def write_vector_csv(path, v, header_lines=(), column="value"):
    v = as_vector(v)
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(f"{column}\n")
    for x in v:
        buf.write(f"{x:.17g}\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())


def read_vector_csv(path):
    values = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    values.append(float(line))
                except ValueError:
                    continue  # column header
    except OSError as exc:
        raise InvalidInputError(f"cannot read vector file {path}: {exc}") from exc
    if not values:
        raise InvalidInputError(f"no numeric rows found in {path}")
    return np.array(values)


def write_table_csv(path, columns, rows, header_lines=()):
    """Write a CSV table; row entries may be floats, ints, bools, or strings.

    Missing values (None) render as empty fields.
    """
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for value in row:
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append(str(value).lower())
            elif isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            elif isinstance(value, (float, np.floating)):
                cells.append(f"{float(value):.17g}")
            else:
                cells.append(str(value))
        buf.write(",".join(cells) + "\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())


def read_table_csv(path):
    """Read a CSV table written by ``write_table_csv``: (columns, list of rows).

    Cells are parsed as floats where possible; empty cells become None.
    """
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if columns is None:
                columns = cells
                continue
            parsed = []
            for cell in cells:
                if cell == "":
                    parsed.append(None)
                else:
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        parsed.append(cell)
            rows.append(parsed)
    if columns is None:
        raise InvalidInputError(f"no header row found in {path}")
    return columns, rows
