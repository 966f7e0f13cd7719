"""Matrix Market and CSV readers/writers with provenance headers.

Matrices travel as Matrix Market files: a matrix with at most half of its
entries non-zero (the tomography operators) is written in coordinate format,
any other in array format, whether it is given dense or as a CSR array.  A
coordinate file reads back as a CSR array, an array file as a dense array,
so the tomography operators stay sparse through ``generate`` and the files.
Vectors and traces travel
as CSV with '#' comment headers.  Writers are deterministic: identical data
and header text produce byte-identical files, and floats are rendered with
17 significant digits so round-trips are exact.

``scipy.io`` is imported inside the two Matrix Market functions, not at
module level: it loads its matlab, arff, netcdf and fast_matrix_market
submodules, and the ``experiment`` pipelines, which move no ``.mtx`` file,
would pay for them through ``import kaczmarz_mismatch.cli``.  The functions
import ``mmread``/``mmwrite`` by name, because ``import scipy.io`` in a
function body would make ``scipy`` a local name there, unbound at its
``scipy.sparse`` calls.
"""

from __future__ import annotations

import io
import os

import numpy as np
import scipy.sparse

from . import __version__
from .errors import InvalidInputError
from .linalg import as_csr, as_matrix, as_vector

FORMAT_VERSION = "2"


def provenance_lines(command, seed, params=None):
    """Header block of every output file: provenance, then one line per parameter."""
    return [
        f"tool_version: {__version__}",
        f"format_version: {FORMAT_VERSION}",
        f"command: {command}",
        f"seed: {seed}",
    ] + [f"{key}: {value}" for key, value in (params or {}).items()]


def write_matrix_market(path, m, comment=""):
    """Write ``m`` in coordinate format if at most half its entries are non-zero.

    Otherwise in array format.  ``m`` is dense or sparse; a sparse matrix
    and its dense form write the same file.  Coordinate files hold only the
    non-zero entries, in row-major order; a zero of either sign, stored or
    not, is left out and reads back as +0.
    """
    from scipy.io import mmwrite

    if scipy.sparse.issparse(m):
        m = as_csr(m)
        nonzero = np.count_nonzero(m.data)
        if 2 * nonzero > m.shape[0] * m.shape[1]:
            m = m.toarray()
        elif nonzero < m.nnz:
            m = m.copy()  # eliminate_zeros works in place
            m.eliminate_zeros()
    else:
        m = as_matrix(m)
        if 2 * np.count_nonzero(m) <= m.size:
            m = scipy.sparse.coo_array(m)
    mmwrite(path, m, comment=comment, precision=17)


def read_matrix_market(path):
    """The matrix of a Matrix Market file: CSR for coordinate files, dense for array files."""
    from scipy.io import mmread

    try:
        m = mmread(path)
    except Exception as exc:
        raise InvalidInputError(f"cannot read Matrix Market file {path}: {exc}") from exc
    name = os.path.basename(path)
    if scipy.sparse.issparse(m):
        return as_csr(m, name)
    return as_matrix(np.asarray(m, dtype=float), name)


def write_vector_csv(path, v, header_lines=(), column="value"):
    write_table_csv(path, (column,), ((x,) for x in as_vector(v).tolist()), header_lines)


def read_vector_csv(path):
    """The numbers of a one-column CSV file, '#' and blank lines skipped.

    The first other line may be a column header; any later line that is
    not a number is invalid input, named by its line number.
    """
    values = []
    try:
        with open(path) as fh:
            header_allowed = True
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    values.append(float(line))
                except ValueError:
                    if not header_allowed:
                        raise InvalidInputError(
                            f"{path}, line {number}: {line!r} is not a number"
                        ) from None
                header_allowed = False
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
            if type(value) is float:  # most cells: skip the chain below
                cells.append(f"{value:.17g}")
            elif value is None:
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
