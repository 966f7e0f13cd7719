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

Every command writes its CSV files through ``write_csv_files`` and its
``manifest.json`` through ``write_manifest``, so this module alone writes
the provenance (tool and format version, command, seed) of every output.
After those four lines, a header lists every parameter of the command that
wrote the file, as resolved; a ``manifest.json`` lists the same parameters.

``scipy.io`` is imported inside the two Matrix Market functions, not at
module level: it loads its matlab, arff, netcdf and fast_matrix_market
submodules, and the ``experiment`` pipelines, which move no ``.mtx`` file,
would pay for them through ``import kaczmarz_mismatch.cli``.  The functions
import ``mmread``/``mmwrite`` by name, because ``import scipy.io`` in a
function body would make ``scipy`` a local name there, unbound at its
``scipy.sparse`` calls.

Both run on the calling thread.  scipy's ``fast_matrix_market`` (scipy
1.12 and later) starts one worker per CPU for each read and write by
default.  On a 2-core host that pool raised the peak memory of a
``generate``/``diagnose``/``optimize``/``solve`` chain on a dense 1000 x 400
pair by about 2 MB and made reading its ``A.mtx`` take 34 ms instead of
20 ms.  It does write faster when a core is free, since it formats numbers
in parallel; the bytes are the same.  ``_one_thread`` sets scipy's
``PARALLELISM`` to 1 for the duration of a call and then puts back the
caller's value.

The header is always ``general``: scipy would otherwise scan a square
matrix under 100 rows for symmetry and write only its lower triangle.
"""

from __future__ import annotations

import io
import json
import os
import threading

import numpy as np
import scipy.sparse

from . import __version__
from .errors import InvalidInputError
from .linalg import as_csr, as_matrix, as_vector

FORMAT_VERSION = "2"


def provenance_lines(command, seed, params=None):
    """Header block of every output file: provenance, then one line per parameter.

    A bool renders as ``true``/``false``, as in a CSV cell.
    """
    return [
        f"tool_version: {__version__}",
        f"format_version: {FORMAT_VERSION}",
        f"command: {command}",
        f"seed: {seed}",
    ] + [f"{k}: {str(v).lower() if isinstance(v, bool) else v}" for k, v in (params or {}).items()]


def write_manifest(out_dir, command, seed, parameters, **fields):
    """``manifest.json`` of an output directory: provenance, parameters and ``fields``."""
    manifest = {
        "tool_version": __version__,
        "format_version": FORMAT_VERSION,
        "command": command,
        "seed": seed,
        "parameters": parameters,
        **fields,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _set_parallelism(threads):
    """Set scipy's Matrix Market thread count; return the count it replaced.

    scipy before 1.12 has no ``fast_matrix_market``: it reads and writes on
    the calling thread, there is nothing to set, and the result is None.
    """
    try:
        from scipy.io import _fast_matrix_market as fmm
    except ImportError:
        return None
    previous, fmm.PARALLELISM = fmm.PARALLELISM, threads
    return previous


class _OneThread:
    """While any read or write is inside, scipy's ``PARALLELISM`` is 1.

    The first call to enter saves the caller's value and the last to leave
    puts it back, so calls from several threads run side by side and leave
    scipy's setting as they found it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            if self._inside == 0:
                self._saved = _set_parallelism(1)
            self._inside += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._inside -= 1
            if self._inside == 0:
                _set_parallelism(self._saved)


_one_thread = _OneThread()


def write_matrix_market(path, m, comment=""):
    """Write ``m`` in coordinate format if at most half its entries are non-zero.

    Otherwise in array format.  ``m`` is dense or sparse; a sparse matrix
    and its dense form write the same file.  Coordinate files hold only the
    non-zero entries, in row-major order; a zero of either sign, stored or
    not, is left out and reads back as +0.  The file is ``path`` itself,
    whatever its suffix, and always plain text: a path ending in ``.gz`` or
    ``.bz2`` is invalid input, since ``read_matrix_market`` would read it as
    compressed.
    """
    if os.fspath(path).endswith((".gz", ".bz2")):
        raise InvalidInputError(f"cannot write Matrix Market file {path}: writes are uncompressed")
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
    # scipy appends ".mtx" to a path without it; an open file it writes as given.
    with _one_thread, open(path, "wb") as target:
        mmwrite(target, m, comment=comment, precision=17, symmetry="general")


def read_matrix_market(path):
    """The matrix of a Matrix Market file: CSR for coordinate files, dense for array files."""
    from scipy.io import mmread

    try:
        with _one_thread:
            m = mmread(path)
    except Exception as exc:
        raise InvalidInputError(f"cannot read Matrix Market file {path}: {exc}") from exc
    name = os.path.basename(path)
    if scipy.sparse.issparse(m):
        return as_csr(m, name)
    return as_matrix(np.asarray(m, dtype=float), name)


def vector_table(v, column="value"):
    """(columns, rows) of a one-column CSV of ``v``; the rows are made as they are written."""
    return (column,), ((x,) for x in as_vector(v).tolist())


def write_csv_files(out_dir, headers, files):
    """Make ``out_dir`` and write each ``name: (columns, rows)`` of ``files`` there.

    Every file starts with the comment lines ``headers``.  Commands call
    this once all their results are computed, so a failed command leaves no
    directory and no partial set of files.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, (columns, rows) in files.items():
        write_table_csv(os.path.join(out_dir, name), columns, rows, headers)


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
