import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import kaczmarz_mismatch
from kaczmarz_mismatch import fileio
from kaczmarz_mismatch.errors import InvalidInputError

import oracles


def header(path):
    with open(path) as fh:
        return fh.readline().split()


def sparse_matrix(m, n, nnz, seed):
    rng = np.random.default_rng(seed)
    out = np.zeros((m, n))
    out.flat[rng.choice(m * n, size=nnz, replace=False)] = rng.standard_normal(nnz)
    return out


@pytest.fixture
def scipy_threads(monkeypatch):
    """scipy's Matrix Market module with 2 threads set; None before scipy 1.12."""
    try:
        from scipy.io import _fast_matrix_market as fmm
    except ImportError:
        return None
    monkeypatch.setattr(fmm, "PARALLELISM", 2)
    return fmm


class TestMatrixMarketFormat:
    """Coordinate format at most half non-zero, array format otherwise."""

    def test_two_percent_dense_is_coordinate(self, tmp_path):
        path = tmp_path / "a.mtx"
        fileio.write_matrix_market(path, sparse_matrix(40, 50, 40, 1))
        assert header(path)[2] == "coordinate"

    def test_dense_is_array(self, tmp_path):
        path = tmp_path / "a.mtx"
        fileio.write_matrix_market(path, np.random.default_rng(2).standard_normal((6, 4)))
        assert header(path)[2] == "array"

    def test_exactly_half_nonzero_is_coordinate(self, tmp_path):
        path = tmp_path / "a.mtx"
        fileio.write_matrix_market(path, sparse_matrix(4, 6, 12, 3))
        assert header(path)[2] == "coordinate"

    def test_one_past_half_is_array(self, tmp_path):
        path = tmp_path / "a.mtx"
        fileio.write_matrix_market(path, sparse_matrix(4, 6, 13, 3))
        assert header(path)[2] == "array"

    @pytest.mark.parametrize(
        "matrix, fmt",
        [
            (np.array([[2.0, 1.0, 3.0], [1.0, 5.0, 4.0], [3.0, 4.0, 6.0]]), "array"),
            (np.array([[0.0, 1.0, -3.0], [-1.0, 0.0, 4.0], [3.0, -4.0, 0.0]]), "array"),
            (scipy.sparse.csr_array(np.diag([1.0, 2.0, 3.0])), "coordinate"),
        ],
        ids=["symmetric", "skew-symmetric", "diagonal-csr"],
    )
    def test_square_matrix_header_is_general(self, tmp_path, matrix, fmt):
        # Every entry is written, whatever symmetry the values happen to have.
        path = tmp_path / "a.mtx"
        fileio.write_matrix_market(path, matrix)
        assert header(path) == ["%%MatrixMarket", "matrix", fmt, "real", "general"]
        body = path.read_text().splitlines()[3:]  # past the header, comment and sizes
        dense = matrix.toarray() if scipy.sparse.issparse(matrix) else matrix
        assert len(body) == (3 if fmt == "coordinate" else 9)
        back = fileio.read_matrix_market(path)
        back = back.toarray() if scipy.sparse.issparse(back) else back
        np.testing.assert_array_equal(back, dense)

    @pytest.mark.parametrize(
        "fmt, matrix",
        [
            ("coordinate", sparse_matrix(30, 70, 42, 4)),
            ("array", np.random.default_rng(5).standard_normal((9, 7))),
            # Bodies over 1 MB, which scipy's writer splits into chunks.
            ("coordinate", scipy.sparse.csr_array(sparse_matrix(400, 1000, 40000, 6))),
            ("array", np.random.default_rng(7).standard_normal((300, 300))),
        ],
    )
    def test_round_trip_bitwise_with_provenance(self, tmp_path, scipy_threads, fmt, matrix):
        lines = fileio.provenance_lines("generate --kind test", 11)
        first, second = tmp_path / "first.mtx", tmp_path / "second.mtx"
        fileio.write_matrix_market(first, matrix, comment="\n".join(lines))
        assert header(first)[2] == fmt
        back = fileio.read_matrix_market(first)
        assert scipy.sparse.issparse(back) == (fmt == "coordinate")
        dense = back.toarray() if fmt == "coordinate" else back
        expected = matrix.toarray() if scipy.sparse.issparse(matrix) else matrix
        np.testing.assert_array_equal(dense.view(np.int64), expected.view(np.int64))
        text = first.read_text().splitlines()
        assert text[1 : 1 + len(lines)] == [f"%{line}" for line in lines]
        fileio.write_matrix_market(second, back, comment="\n".join(lines))
        assert second.read_bytes() == first.read_bytes()
        if scipy_threads is None:
            return
        # One thread writes the bytes scipy's two-thread writer does, and
        # leaves scipy's setting as the caller had it.
        assert scipy_threads.PARALLELISM == 2
        reference = tmp_path / "reference.mtx"
        scipy.io.mmwrite(
            reference, scipy.sparse.coo_array(matrix) if fmt == "coordinate" else matrix,
            comment="\n".join(lines), precision=17,
        )
        assert reference.read_bytes() == first.read_bytes()

    def test_nested_calls_restore_scipy_setting_once(self, tmp_path, scipy_threads):
        # Calls from several threads overlap like nested ones: the pin holds
        # until the last call leaves.
        if scipy_threads is None:
            pytest.skip("scipy before 1.12 has no fast_matrix_market")
        path = tmp_path / "a.mtx"
        with fileio._one_thread:
            assert scipy_threads.PARALLELISM == 1
            fileio.write_matrix_market(path, np.eye(2))
            fileio.read_matrix_market(path)
            assert scipy_threads.PARALLELISM == 1
        assert scipy_threads.PARALLELISM == 2


class TestSparseAndDense:
    """A CSR matrix and its dense form: the same file, read back alike."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 7),
        n=st.integers(1, 7),
        density=st.floats(0.0, 1.0),  # past 1/2 the file is in array format
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_file_and_values(self, tmp_path_factory, m, n, density, seed):
        csr = oracles.random_csr(np.random.default_rng(seed), (m, n), density)
        dense = csr.toarray()
        tmp = tmp_path_factory.mktemp("mtx")
        comment = "\n".join(fileio.provenance_lines("test", seed))
        fileio.write_matrix_market(tmp / "csr.mtx", csr, comment=comment)
        fileio.write_matrix_market(tmp / "dense.mtx", dense, comment=comment)
        assert (tmp / "csr.mtx").read_bytes() == (tmp / "dense.mtx").read_bytes()

        back = fileio.read_matrix_market(tmp / "csr.mtx")
        if header(tmp / "csr.mtx")[2] == "coordinate":
            assert isinstance(back, scipy.sparse.csr_array)
            assert np.all(back.data != 0)  # stored zeros are not written
            back = back.toarray()
            dense = dense + 0.0  # a zero of either sign reads back as +0
        else:
            assert isinstance(back, np.ndarray)
        np.testing.assert_array_equal(back.view(np.int64), dense.view(np.int64))

    def test_writing_leaves_the_matrix_as_it_was(self, tmp_path):
        csr = scipy.sparse.csr_array(([1.0, 0.0, -0.0], [0, 1, 2], [0, 3]), shape=(1, 4))
        fileio.write_matrix_market(tmp_path / "a.mtx", csr)
        assert csr.nnz == 3
        np.testing.assert_array_equal(csr.data, [1.0, 0.0, -0.0])


class TestMatrixMarket:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5))
        path = tmp_path / "a.mtx"
        fileio.write_matrix_market(path, m, comment="test matrix")
        np.testing.assert_array_equal(fileio.read_matrix_market(path), m)

    @pytest.mark.parametrize(
        "matrix",
        [np.random.default_rng(8).standard_normal((6, 4)), sparse_matrix(20, 30, 25, 9)],
        ids=["array", "coordinate"],
    )
    def test_round_trip_on_txt_path(self, tmp_path, matrix):
        # The file is the path as given: no ".mtx" is appended to it.
        path, reference = tmp_path / "m.txt", tmp_path / "m.mtx"
        fileio.write_matrix_market(str(path), matrix, comment="test matrix")
        fileio.write_matrix_market(reference, matrix, comment="test matrix")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mtx", "m.txt"]
        assert path.read_bytes() == reference.read_bytes()
        back = fileio.read_matrix_market(str(path))
        back = back.toarray() if scipy.sparse.issparse(back) else back
        np.testing.assert_array_equal(back, matrix)

    @pytest.mark.parametrize("name", ["m.mtx.gz", "m.mtx.bz2"])
    def test_compressed_suffix_rejected(self, tmp_path, name):
        # The file would be plain text that the reader decompresses.
        with pytest.raises(InvalidInputError, match="uncompressed"):
            fileio.write_matrix_market(tmp_path / name, np.eye(2))
        assert list(tmp_path.iterdir()) == []

    def test_coordinate_format_readable(self, tmp_path):
        path = tmp_path / "coord.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 2\n"
            "1 1 1.5\n"
            "2 3 -2.0\n"
        )
        m = fileio.read_matrix_market(path)
        assert isinstance(m, scipy.sparse.csr_array)
        expected = np.zeros((2, 3))
        expected[0, 0] = 1.5
        expected[1, 2] = -2.0
        np.testing.assert_array_equal(m.toarray(), expected)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.mtx"
        path.write_text("not a matrix market file\n")
        with pytest.raises(InvalidInputError):
            fileio.read_matrix_market(path)


class TestVectorCsv:
    def test_round_trip_with_header(self, tmp_path):
        v = np.array([1.0, -2.5, 1e-17, 3.141592653589793])
        path = tmp_path / "v.csv"
        fileio.write_table_csv(
            path, *fileio.vector_table(v),
            fileio.provenance_lines("test", 7, {"rule": "oblique"}),
        )
        np.testing.assert_array_equal(fileio.read_vector_csv(path), v)
        assert path.read_text().startswith(
            f"# tool_version: {kaczmarz_mismatch.__version__}\n"
            f"# format_version: {fileio.FORMAT_VERSION}\n"
            "# command: test\n# seed: 7\n# rule: oblique\nvalue\n1\n-2.5\n"
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            fileio.read_vector_csv(tmp_path / "absent.csv")

    def test_file_without_header(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("# note\n1.5\n\n-2\n")
        np.testing.assert_array_equal(fileio.read_vector_csv(path), [1.5, -2.0])

    @pytest.mark.parametrize("text, number, line", [
        ("value\n1\n0.12x5\n3\n", 3, "0.12x5"),
        ("# seed: 1\nvalue\n1\nvalue\n2\n", 4, "value"),  # a second header
        ("1\nvalue\n", 2, "value"),  # a header after a number
    ], ids=["malformed", "second-header", "late-header"])
    def test_non_numeric_row_past_the_first(self, tmp_path, text, number, line):
        # Only the first non-comment line may be a column header.
        path = tmp_path / "v.csv"
        path.write_text(text)
        message = f"{path}, line {number}: {line!r} is not a number"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            fileio.read_vector_csv(path)


class TestTableCsv:
    def test_round_trip_mixed_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_table_csv(
            path,
            ["k", "error_norm", "residual_norm"],
            [(0, None, 5.0), (10, 0.25, 1.0)],
            header_lines=["config: demo"],
        )
        columns, rows = oracles.read_table_csv(path)
        assert columns == ["k", "error_norm", "residual_norm"]
        assert rows[0] == [0.0, None, 5.0]
        assert rows[1] == [10.0, 0.25, 1.0]

    def test_mixed_row_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        row = (0.1, np.float64(-1 / 3), 7, np.int64(-3), True, False, None, "oblique",
               float("inf"), -0.0)
        fileio.write_table_csv(path, [f"c{i}" for i in range(len(row))], [row], ["h: 1"])
        assert path.read_bytes() == (
            b"# h: 1\nc0,c1,c2,c3,c4,c5,c6,c7,c8,c9\n"
            b"0.10000000000000001,-0.33333333333333331,7,-3,true,false,,oblique,inf,-0\n"
        )

    def test_deterministic_bytes(self, tmp_path):
        rows = [(k, float(k) / 3.0, bool(k % 2)) for k in range(20)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_table_csv(p1, ["k", "x", "flag"], rows)
        fileio.write_table_csv(p2, ["k", "x", "flag"], rows)
        assert p1.read_bytes() == p2.read_bytes()


class TestWriteCsvFiles:
    def test_makes_directory_and_matches_single_writes(self, tmp_path):
        headers = fileio.provenance_lines("test", 3, {"m": 4})
        v = np.array([0.25, -1.0, 1e-300])
        files = {
            "t.csv": (("k", "x"), [(0, 0.5), (1, None)]),
            "v.csv": fileio.vector_table(v, "probability"),
        }
        out = tmp_path / "new" / "dir"
        fileio.write_csv_files(out, headers, files)
        assert sorted(p.name for p in out.iterdir()) == ["t.csv", "v.csv"]
        fileio.write_table_csv(tmp_path / "t.csv", ("k", "x"), [(0, 0.5), (1, None)], headers)
        fileio.write_table_csv(tmp_path / "v.csv", *fileio.vector_table(v, "probability"), headers)
        for name in files:
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_second_call_adds_its_own_header_line(self, tmp_path):
        # A later call's own header lines reach only the files it writes.
        headers = fileio.provenance_lines("test", 5)
        fileio.write_csv_files(tmp_path, headers, {"table.csv": (("a",), [(1.0,)])})
        fileio.write_csv_files(
            tmp_path, headers + ["error_target: 1e-06"],
            {"summary.csv": (("scheme", "final_error"), [("uniform", 0.5)])},
        )
        summary = (tmp_path / "summary.csv").read_text()
        assert summary == "".join(f"# {line}\n" for line in headers) + (
            "# error_target: 1e-06\nscheme,final_error\nuniform,0.5\n"
        )
        assert "error_target" not in (tmp_path / "table.csv").read_text()
