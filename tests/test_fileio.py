import numpy as np
import pytest

from kaczmarz_mismatch import fileio
from kaczmarz_mismatch.errors import InvalidInputError


def header(path):
    with open(path) as fh:
        return fh.readline().split()


def sparse_matrix(m, n, nnz, seed):
    rng = np.random.default_rng(seed)
    out = np.zeros((m, n))
    out.flat[rng.choice(m * n, size=nnz, replace=False)] = rng.standard_normal(nnz)
    return out


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
        "fmt, matrix",
        [
            ("coordinate", sparse_matrix(30, 70, 42, 4)),
            ("array", np.random.default_rng(5).standard_normal((9, 7))),
        ],
    )
    def test_round_trip_bitwise_with_provenance(self, tmp_path, fmt, matrix):
        lines = fileio.provenance_lines("0.2.0", "generate --kind test", 11)
        first, second = tmp_path / "first.mtx", tmp_path / "second.mtx"
        fileio.write_matrix_market(first, matrix, comment="\n".join(lines))
        assert header(first)[2] == fmt
        back = fileio.read_matrix_market(first)
        np.testing.assert_array_equal(back.view(np.int64), matrix.view(np.int64))
        text = first.read_text().splitlines()
        assert text[1 : 1 + len(lines)] == [f"%{line}" for line in lines]
        fileio.write_matrix_market(second, back, comment="\n".join(lines))
        assert second.read_bytes() == first.read_bytes()


class TestMatrixMarket:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5))
        path = tmp_path / "a.mtx"
        fileio.write_matrix_market(path, m, comment="test matrix")
        np.testing.assert_array_equal(fileio.read_matrix_market(path), m)

    def test_coordinate_format_readable(self, tmp_path):
        path = tmp_path / "coord.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 2\n"
            "1 1 1.5\n"
            "2 3 -2.0\n"
        )
        m = fileio.read_matrix_market(path)
        expected = np.zeros((2, 3))
        expected[0, 0] = 1.5
        expected[1, 2] = -2.0
        np.testing.assert_array_equal(m, expected)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.mtx"
        path.write_text("not a matrix market file\n")
        with pytest.raises(InvalidInputError):
            fileio.read_matrix_market(path)


class TestVectorCsv:
    def test_round_trip_with_header(self, tmp_path):
        v = np.array([1.0, -2.5, 1e-17, 3.141592653589793])
        path = tmp_path / "v.csv"
        fileio.write_vector_csv(
            path, v, header_lines=fileio.provenance_lines("0.1.0", "test", 7)
        )
        np.testing.assert_array_equal(fileio.read_vector_csv(path), v)
        text = path.read_text()
        assert text.startswith("# tool_version: 0.1.0\n")
        assert "# seed: 7\n" in text

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            fileio.read_vector_csv(tmp_path / "absent.csv")


class TestTableCsv:
    def test_round_trip_mixed_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_table_csv(
            path,
            ["k", "error_norm", "residual_norm"],
            [(0, None, 5.0), (10, 0.25, 1.0)],
            header_lines=["config: demo"],
        )
        columns, rows = fileio.read_table_csv(path)
        assert columns == ["k", "error_norm", "residual_norm"]
        assert rows[0] == [0.0, None, 5.0]
        assert rows[1] == [10.0, 0.25, 1.0]

    def test_deterministic_bytes(self, tmp_path):
        rows = [(k, float(k) / 3.0, bool(k % 2)) for k in range(20)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_table_csv(p1, ["k", "x", "flag"], rows)
        fileio.write_table_csv(p2, ["k", "x", "flag"], rows)
        assert p1.read_bytes() == p2.read_bytes()
