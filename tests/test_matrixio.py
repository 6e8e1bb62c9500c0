import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphdenoise import Graph, InvalidArgumentError, build_grid_graph, matrixio
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

    def test_file_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        opened = []
        real = Path.open

        def counting(self, *args, **kwargs):
            opened.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting)
        read_matrix(path)
        assert opened == [path]


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

    @pytest.mark.parametrize("magic", ["P2", "P5"])
    @pytest.mark.parametrize("maxval", [0, 65536, 70000])
    def test_maxval_outside_the_netpbm_range_rejected(self, tmp_path, magic, maxval):
        """netpbm requires 0 < maxval < 65536: any other names the file and the value."""
        path = tmp_path / "img.pgm"
        path.write_bytes(f"{magic}\n1 1\n{maxval}\n".encode() + b"\0\0")
        with pytest.raises(InvalidArgumentError, match=rf"img.pgm: bad maxval {maxval},"):
            read_matrix(path)

    def test_largest_maxval_round_trips(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + np.array([7, 65535], ">u2").tobytes())
        mf = read_matrix(path)
        assert mf.maxval == 65535 and np.array_equal(mf.values, [[7.0, 65535.0]])
        out = tmp_path / "o.pgm"
        write_matrix(out, mf.values, mf)
        assert out.read_bytes() == path.read_bytes()

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
            ("0:999", "column index 4 out of range"),
            ("0:99999999999999999999", "column index 4 out of range"),
            ("-2:-1", "column index -2 out of range"),
            ("4", "column index 4 out of range"),
            ("1,9", "column index 9 out of range"),
            ("2:2", "empty column selection"),
            ("a", "cannot parse"),
            ("", "cannot parse"),
            ("0:1:2", "cannot parse"),
        ],
        # explicit ids, so that a change of wording keeps the test names
        ids=[
            "0:999-column 4 out of range", "0:10**20-column 4 out of range",
            "-2:-1-column -2 out of range",
            "4-column 4 out of range", "1,9-column 9 out of range",
            "2:2-empty column selection", "a-cannot parse", "-cannot parse",
            "0:1:2-cannot parse",
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

    def test_row_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("suspect\n\n0\n1\n\n7\n")
        with pytest.raises(InvalidArgumentError, match="entry 7.0 at row 6, column 1"):
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


def reference_read(raw: bytes):
    """What ``read_matrix`` makes of delimited bytes, by the simplest rule:
    rows are the \\n-separated nonblank lines, a first row ``float`` refuses
    is the header, and every other token is ``float(tok.strip())``.  Returns
    (values, header), or the file line of the row that must be refused (0
    when the whole file is)."""
    text = raw.decode("utf-8-sig", "surrogateescape")
    lines = [(k, ln) for k, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    if not lines:
        return 0
    sep = "," if "," in lines[0][1] else None

    def parse(line):
        return [float(tok.strip()) for tok in line.split(sep)]

    header = None
    try:
        parse(lines[0][1])
    except ValueError:
        header = tuple(tok.strip() for tok in lines[0][1].split(sep))
        lines = lines[1:]
    if not lines:
        return 0
    rows = []
    for k, line in lines:
        try:
            row = parse(line)
        except ValueError:
            return k
        if rows and len(row) != len(rows[0]):
            return k
        rows.append(row)
    for (k, _), row in zip(lines, rows):
        if not all(np.isfinite(row)):
            return k
    return np.array(rows), header


def check_against_reference(path: Path, raw: bytes):
    path.write_bytes(raw)
    expected = reference_read(raw)
    if isinstance(expected, int):
        message = "no data" if expected == 0 else rf"row {expected}\b"
        with pytest.raises(InvalidArgumentError, match=message):
            read_matrix(path)
    else:
        got = read_matrix(path)
        assert got.header == expected[1]
        assert got.values.shape == expected[0].shape
        assert np.array_equal(got.values.view(np.int64), expected[0].view(np.int64))


# tokens near the edges of float()'s grammar, and bytes near the line rule
TOKENS = st.sampled_from(
    ["1", "-2.5", "1e3", "1_0", "+0", "-0", "5e-324", "1e309", "nan", "inf", "x", "",
     "0x1", "1__0", ".5", "1.", "١", "\udcff"]
)
PADDING = st.sampled_from(["", " ", "\t", "\r", "\x1c", "\f", " ", "\xa0"])
NEWLINES = st.sampled_from(["\n", "\r\n", "\n\n", "\n \n", "\n\r\n"])


@st.composite
def delimited_bytes(draw):
    sep = draw(st.sampled_from([",", " ", "\t", ", "]))
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 9))
    lines = []
    if draw(st.booleans()):
        lines.append(sep.join(["alpha", "beta", "gamma", "delta"][:width]))
    for _ in range(n_rows):
        # mostly full rows of plain numbers, so that many files parse
        n = draw(st.integers(1, 5)) if draw(st.integers(0, 15)) == 0 else width
        if draw(st.integers(0, 7)) == 0:
            tokens = [draw(PADDING) + draw(TOKENS) + draw(PADDING) for _ in range(n)]
        else:
            tokens = [format_float(draw(ENTRIES)) + draw(PADDING) for _ in range(n)]
        lines.append(sep.join(tokens))
    text = "".join(line + draw(NEWLINES) for line in lines)
    raw = text.encode("utf-8", "surrogateescape")
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + raw


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw=delimited_bytes(), chunk=st.sampled_from([1, 2, 3, 4096]))
def test_read_matches_the_reference(raw, chunk):
    """Values, header and the refused row agree with the reference, for
    chunks smaller and larger than the file."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(matrixio, "_CHUNK_ROWS", chunk):
        check_against_reference(Path(tmp) / "m.csv", raw)


@pytest.mark.parametrize("n_rows", [4095, 4096, 4097, 8193])
@pytest.mark.parametrize("fault", [None, "x", "ragged", "nan"])
def test_read_around_the_chunk_size(tmp_path, n_rows, fault):
    """A fault in the last row, after full chunks, is found and numbered."""
    rows = [f"{k},{k / 7!r}" for k in range(n_rows)]
    rows[-1] = {None: rows[-1], "x": "1,x", "ragged": "1", "nan": "1,nan"}[fault]
    check_against_reference(tmp_path / "m.csv", ("h,g\n\n" + "\n".join(rows)).encode())


WRITTEN = st.one_of(
    ENTRIES,
    st.sampled_from([np.inf, -np.inf, 1e16, 2.0**53, -1e22, 1e300, 5e-324, -4e-320]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(1, 4)), elements=WRITTEN),
    delimiter=st.sampled_from([",", None]),
    header=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 4096]),
)
def test_write_matches_format_float_per_entry(values, delimiter, header, chunk):
    sep = delimiter or " "
    names = tuple(f"c{j}" for j in range(values.shape[1])) if header else None
    lines = ([sep.join(names)] if header else []) + [
        sep.join(format_float(v) for v in row) for row in values
    ]
    like = MatrixFile(values, "delimited", delimiter=delimiter, header=names)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(matrixio, "_CHUNK_ROWS", chunk):
        path = Path(tmp) / "m.csv"
        write_matrix(path, values, like)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
