import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphdenoise import Graph, InvalidArgumentError, build_grid_graph
from graphdenoise.matrixio import (
    MatrixFile,
    format_float,
    read_mask,
    read_matrix,
    select_columns,
    write_matrix,
)


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

    @pytest.mark.parametrize("pixel", ["x", "inf", "nan", "2.5", "-1", "300"])
    def test_ascii_pixel_must_be_integer_in_range(self, tmp_path, pixel):
        path = tmp_path / "img.pgm"
        path.write_text(f"P2\n3 2\n255\n0 1 2\n3 {pixel} 5\n")
        with pytest.raises(InvalidArgumentError, match="row 2, column 2"):
            read_matrix(path)

    def test_binary_pixel_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n15\n" + bytes([1, 2, 200, 3]))
        with pytest.raises(InvalidArgumentError, match="200.*row 2, column 1"):
            read_matrix(path)


class TestSignals:
    def test_image_is_one_column_in_row_major_order(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n3 2\n15\n1 2 3\n4 5 6\n")
        mf = read_matrix(path)
        assert mf.signals.tolist() == [[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]]
        out = tmp_path / "o.pgm"
        write_matrix(out, mf.signals[::-1], mf)
        assert read_matrix(out).values.tolist() == [[6.0, 5.0, 4.0], [3.0, 2.0, 1.0]]

    def test_delimited_signals_are_the_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        mf = read_matrix(path)
        assert mf.signals is mf.values and mf.signals.shape == (3, 2)

    def test_signals_for_a_graph(self, tmp_path):
        """An image on a grid graph must have the grid's shape; on any other
        graph, as for a delimited file, only the row count must match."""
        path = tmp_path / "img.pgm"
        path.write_text("P2\n3 2\n15\n1 2 3\n4 5 6\n")
        mf = read_matrix(path)
        assert np.array_equal(mf.signals_for(build_grid_graph(2, 3)), mf.signals)
        with pytest.raises(InvalidArgumentError, match=r"image is 2x3 .* grid 3x2"):
            mf.signals_for(build_grid_graph(3, 2))
        def chain(n):
            return Graph.from_edges(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))

        assert mf.signals_for(chain(6)).shape == (6, 1)
        with pytest.raises(InvalidArgumentError, match="6 rows, graph has 4 vertices"):
            mf.signals_for(chain(4))


class TestSelectColumns:
    @pytest.mark.parametrize(
        "text,cols",
        [
            ("1", [1]),
            (" 2 ", [2]),
            ("0,2", [0, 2]),
            ("1:3", [1, 2]),
            (":2", [0, 1]),
            ("1:", [1, 2, 3]),
            (":", [0, 1, 2, 3]),
        ],
    )
    def test_grammar(self, text, cols):
        assert select_columns(text, 4) == cols

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0:999", "column 4 out of range"),
            ("-2:-1", "column -2 out of range"),
            ("4", "column 4 out of range"),
            ("1,9", "column 9 out of range"),
            ("2:2", "empty column selection"),
            ("a", "cannot parse"),
            ("", "cannot parse"),
            ("0:1:2", "cannot parse"),
        ],
    )
    def test_bad_selection_rejected(self, text, message):
        with pytest.raises(InvalidArgumentError, match=message):
            select_columns(text, 4)


class TestReadMask:
    def test_row_numbers_count_the_header(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("suspect\n0\n1\n7\n")
        with pytest.raises(InvalidArgumentError, match="entry 7.0 at row 4, column 1"):
            read_mask(path, 3)

    def test_entry_count_must_match(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("0 1\n1 0\n")
        assert read_mask(path, 4).tolist() == [False, True, True, False]
        with pytest.raises(InvalidArgumentError, match="has 4 entries, expected 3"):
            read_mask(path, 3)


class TestFormatFloat:
    def test_round_trips_exactly(self, rng):
        for v in list(rng.normal(size=50)) + [0.0, 1e-300, 1e300, -2.5, 7.0]:
            assert float(format_float(float(v))) == float(v)

    def test_integers_render_compactly(self):
        assert format_float(3.0) == "3"
        assert format_float(-14.0) == "-14"
        assert format_float(-0.0) == "-0"
        assert format_float(1e16) == "1e+16"

    def test_non_finite_values(self):
        assert [format_float(v) for v in (np.inf, -np.inf, np.nan)] == ["inf", "-inf", "nan"]


# finite float64 entries, with the edge cases of the text format drawn often
ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.225e-308, 1e16, -(2.0**60), 1e17 + 16]),
)


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)), elements=ENTRIES))
def test_write_then_read_is_bitwise(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        write_matrix(path, values, MatrixFile(values, "delimited", delimiter=","))
        back = read_matrix(path).values
    assert back.shape == values.shape
    assert np.array_equal(back.view(np.int64), values.view(np.int64))
