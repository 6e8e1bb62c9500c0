import numpy as np
import pytest

from graphdenoise import InvalidArgumentError
from graphdenoise.matrixio import format_float, read_matrix, write_matrix


class TestDelimited:
    def test_comma_round_trip_exact(self, tmp_path, rng):
        values = rng.normal(size=(7, 3))
        path = tmp_path / "m.csv"
        path.write_text(
            "\n".join(",".join(format_float(v) for v in row) for row in values)
        )
        mf = read_matrix(path)
        assert mf.kind == "delimited" and mf.delimiter == ","
        assert np.array_equal(mf.values, values)
        out = tmp_path / "out.csv"
        write_matrix(out, mf.values, mf)
        assert np.array_equal(read_matrix(out).values, values)

    def test_whitespace_with_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("alpha beta\n1.5 2\n-3 0.25\n")
        mf = read_matrix(path)
        assert mf.header == ("alpha", "beta")
        assert np.array_equal(mf.values, [[1.5, 2.0], [-3.0, 0.25]])
        out = tmp_path / "o.txt"
        write_matrix(out, mf.values * 2, mf)
        text = out.read_text().splitlines()
        assert text[0] == "alpha beta"
        assert read_matrix(out).values[0, 0] == 3.0

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(InvalidArgumentError, match="row 2, column 2"):
            read_matrix(path)

    def test_non_finite_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,nan\n")
        with pytest.raises(InvalidArgumentError, match="row 3, column 2"):
            read_matrix(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(InvalidArgumentError, match="row 2"):
            read_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="nope.csv"):
            read_matrix(tmp_path / "nope.csv")


class TestPgm:
    def test_binary_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 4)).astype(np.float64)
        path = tmp_path / "img.pgm"
        header = b"P5\n4 5\n255\n"
        path.write_bytes(header + img.astype("u1").tobytes())
        mf = read_matrix(path)
        assert mf.kind == "pgm" and mf.pgm_binary and mf.maxval == 255
        assert np.array_equal(mf.values, img)
        out = tmp_path / "out.pgm"
        write_matrix(out, mf.values, mf)
        assert np.array_equal(read_matrix(out).values, img)

    def test_ascii_round_trip(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# a comment\n3 2\n15\n0 1 2\n3 4 5\n")
        mf = read_matrix(path)
        assert not mf.pgm_binary and mf.maxval == 15
        assert np.array_equal(mf.values, [[0, 1, 2], [3, 4, 5]])
        out = tmp_path / "o.pgm"
        write_matrix(out, mf.values, mf)
        assert np.array_equal(read_matrix(out).values, mf.values)

    def test_write_clips_and_rounds(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([10, 20]))
        mf = read_matrix(path)
        out = tmp_path / "o.pgm"
        write_matrix(out, np.array([[-5.0, 300.6]]), mf)
        assert np.array_equal(read_matrix(out).values, [[0.0, 255.0]])

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(InvalidArgumentError, match="truncated"):
            read_matrix(path)


class TestFormatFloat:
    def test_round_trips_exactly(self, rng):
        for v in list(rng.normal(size=50)) + [0.0, 1e-300, 1e300, -2.5, 7.0]:
            assert float(format_float(float(v))) == float(v)

    def test_integers_render_compactly(self):
        assert format_float(3.0) == "3"
        assert format_float(-14.0) == "-14"
