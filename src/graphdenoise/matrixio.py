"""Signal files: delimited text and PGM images, column selections and masks.

Delimited files hold observations in rows and signals in columns; an
optional single header row is preserved on write, and every value must be
finite.  Messages number rows as file lines, blank lines and the header
included.  Numeric output uses the shortest representation that parses back
to the same float, so a denoise-write-read round trip is exact.  PGM files
(P2 ascii or P5 binary) are treated as a single grid signal whose pixels
are integers in [0, maxval].  Every input file becomes text here, by one
rule: UTF-8 after an optional byte-order mark (not written back), any other
byte kept as a lone surrogate, so it reaches the parsers' messages and a
header holding it writes back byte for byte.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "MatrixFile",
    "read_matrix",
    "write_matrix",
    "format_float",
    "select_columns",
    "read_mask",
    "read_text",
]

_ENCODING, _ERRORS = "utf-8-sig", "surrogateescape"
# netpbm's magic number of a graymap: P2 (ascii) or P5 (binary), then whitespace
_PGM_MAGIC = re.compile(rb"P([25])\s")
# delimited rows parsed or written at once: bounds the Python objects alive
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class MatrixFile:
    """A parsed matrix plus enough formatting metadata to write it back."""

    values: np.ndarray
    kind: str  # "delimited" | "pgm"
    delimiter: str | None = None  # None means whitespace
    header: tuple[str, ...] | None = None
    maxval: int = 255
    pgm_binary: bool = True
    # the file line of each row of a delimited file's values
    row_lines: np.ndarray | None = None

    @property
    def signals(self) -> np.ndarray:
        """One signal per column; an image is one column of its pixels in
        row-major (grid vertex) order."""
        return self.values.reshape(-1, 1) if self.kind == "pgm" else self.values

    def signals_for(self, graph) -> np.ndarray:
        """:attr:`signals`, checked to lie on ``graph``: one row per vertex,
        and an image on a grid graph is as tall and as wide as the grid."""
        grid, signals = graph.grid_shape, self.signals
        if self.kind == "pgm" and grid is not None and self.values.shape != grid:
            (h, w), (gh, gw) = self.values.shape, grid
            raise InvalidArgumentError(
                f"image is {h}x{w} (height x width) but the graph is grid {gh}x{gw}"
            )
        if signals.shape[0] != graph.n:
            raise InvalidArgumentError(
                f"signal file has {signals.shape[0]} rows, graph has {graph.n} vertices"
            )
        return signals


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same float, with an
    integer's trailing ``.0`` dropped (``3``, ``-0``, ``inf``, ``nan``)."""
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") else text


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise InvalidArgumentError(f"file not found: {path}") from None


def read_text(path) -> str:
    """The text of the input file at ``path``, decoded by the module's rule."""
    return _read_bytes(Path(path)).decode(_ENCODING, _ERRORS)


def _raise_row_error(path: Path, numbers, rows, split, width: int) -> None:
    """Raise the message of the first of ``rows`` (file lines ``numbers``)
    with a token ``float()`` rejects or other than ``width`` fields."""
    for line_no, line in zip(numbers, rows):
        tokens = [t.strip() for t in split(line)]
        for j, tok in enumerate(tokens):
            try:
                float(tok)
            except ValueError:
                raise InvalidArgumentError(
                    f"{path}: cannot parse {tok!r} at row {line_no}, column {j + 1}"
                ) from None
        if len(tokens) != width:
            raise InvalidArgumentError(
                f"{path}: row {line_no} has {len(tokens)} fields, expected {width}"
            )


def _parse_delimited(text: str, path: Path) -> MatrixFile:
    # rows are the file's \n-separated lines, numbered as file lines; a \r
    # before the \n is stripped with the other edge whitespace of the tokens
    lines = text.split("\n")
    numbers = [k for k, ln in enumerate(lines, start=1) if ln.strip() != ""]
    if not numbers:
        raise InvalidArgumentError(f"{path}: file holds no data")
    first_line = lines[numbers[0] - 1]
    delimiter = "," if "," in first_line else None
    split = (lambda s: s.split(",")) if delimiter else str.split

    header = None
    first = [t.strip() for t in split(first_line)]
    try:
        list(map(float, first))
    except ValueError:
        header = tuple(first)
    numbers = numbers[header is not None :]
    if not numbers:
        raise InvalidArgumentError(f"{path}: header but no data rows")
    rows = [lines[k - 1] for k in numbers]
    width = len(split(rows[0]))
    values = np.empty((len(rows), width))
    # each chunk's tokens go through float() in one map; a chunk that fails
    # is scanned token by token for the message
    for lo in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[lo : lo + _CHUNK_ROWS]
        if delimiter:
            widths = [ln.count(",") + 1 for ln in chunk]
            tokens = ",".join(chunk).split(",")
        else:
            split_rows = [ln.split() for ln in chunk]
            widths = list(map(len, split_rows))
            tokens = list(itertools.chain.from_iterable(split_rows))
        try:
            if widths.count(width) != len(chunk):
                raise ValueError("ragged rows")
            block = np.array(list(map(float, map(str.strip, tokens))))
        except ValueError:
            _raise_row_error(path, numbers[lo:], chunk, split, width)
            raise
        values[lo : lo + len(chunk)] = block.reshape(len(chunk), width)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise InvalidArgumentError(
            f"{path}: non-finite value {float(values[i, j])} at row "
            f"{numbers[i]}, column {j + 1}"
        )
    return MatrixFile(
        values=values,
        kind="delimited",
        delimiter=delimiter,
        header=header,
        row_lines=np.asarray(numbers),
    )


def _parse_pgm(raw: bytes, path: Path) -> MatrixFile:
    magic = _PGM_MAGIC.match(raw)
    if magic is None:
        raise InvalidArgumentError(f"{path}: not a portable graymap")
    binary = magic.group(1) == b"5"
    # header tokens: magic, width, height, maxval, with '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        m = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", raw[pos:])
        if m is None:
            raise InvalidArgumentError(f"{path}: malformed PGM header")
        tokens.append(int(m.group(1)))
        pos += m.end()
    width, height, maxval = tokens
    if maxval <= 0:
        raise InvalidArgumentError(f"{path}: bad maxval {maxval}")

    def bad_pixel(k: int, pixel) -> InvalidArgumentError:
        return InvalidArgumentError(
            f"{path}: pixel {pixel!r} at row {k // width + 1}, column "
            f"{k % width + 1} is not an integer in [0, {maxval}]"
        )

    if binary:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height
        try:
            data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
        except ValueError:
            raise InvalidArgumentError(f"{path}: truncated PGM payload") from None
        over = np.flatnonzero(data > maxval)
        if over.size:
            raise bad_pixel(int(over[0]), int(data[over[0]]))
        values = data.reshape(height, width).astype(np.float64)
    else:
        body = raw[pos:].decode("ascii", errors="replace")
        nums = [t for t in re.split(r"\s+", body) if t and not t.startswith("#")]
        if len(nums) < width * height:
            raise InvalidArgumentError(f"{path}: truncated PGM payload")
        pixels = []
        for k, tok in enumerate(nums[: width * height]):
            if not (tok.isdigit() and int(tok) <= maxval):
                raise bad_pixel(k, tok)
            pixels.append(int(tok))
        values = np.asarray(pixels, dtype=np.float64).reshape(height, width)
    return MatrixFile(values=values, kind="pgm", maxval=maxval, pgm_binary=binary)


def read_matrix(path) -> MatrixFile:
    """The signal file at ``path``, read once: a PGM image when its suffix is
    ``.pgm`` or it starts with netpbm's magic, delimited text otherwise."""
    path = Path(path)
    raw = _read_bytes(path)
    if path.suffix.lower() == ".pgm" or _PGM_MAGIC.match(raw):
        return _parse_pgm(raw, path)
    return _parse_delimited(raw.decode(_ENCODING, _ERRORS), path)


def write_matrix(path, values: np.ndarray, like: MatrixFile) -> None:
    """Write signals laid out as ``like.signals`` in the format of ``like``."""
    path = Path(path)
    values = np.asarray(values, dtype=np.float64)
    if like.kind == "pgm":
        clipped = np.clip(np.rint(values), 0, like.maxval).reshape(like.values.shape)
        h, w = clipped.shape
        header = f"P{5 if like.pgm_binary else 2}\n{w} {h}\n{like.maxval}\n".encode()
        if like.pgm_binary:
            dtype = np.dtype(">u2") if like.maxval > 255 else np.dtype("u1")
            body = clipped.astype(dtype).tobytes()
        else:
            rows = clipped.astype(np.int64)
            body = "".join(" ".join(str(int(v)) for v in row) + "\n" for row in rows).encode()
        path.write_bytes(header + body)
        return
    sep = like.delimiter if like.delimiter else " "
    with path.open("wb") as fh:
        if like.header is not None:
            fh.write((sep.join(like.header) + "\n").encode("utf-8", _ERRORS))
        for lo in range(0, values.shape[0], _CHUNK_ROWS):
            # each entry's repr, less an integer's ".0", as format_float writes it
            text = re.sub(r"\.0(?=[],])", "", str(values[lo : lo + _CHUNK_ROWS].tolist()))
            fh.write((text[2:-2].replace("], [", "\n").replace(", ", sep) + "\n").encode())


def select_columns(text: str, width: int) -> list[int]:
    """The columns ``text`` selects: ``I``, ``A:B`` (either end may be
    open) or ``I,J,K``, each index in [0, width)."""
    text = text.strip()
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo = int(lo_s) if lo_s else 0
            hi = int(hi_s) if hi_s else width
            cols = list(range(lo, hi))
        elif "," in text:
            cols = [int(t) for t in text.split(",")]
        else:
            cols = [int(text)]
    except ValueError:
        raise InvalidArgumentError(f"cannot parse column range {text!r}") from None
    for c in cols:
        if not 0 <= c < width:
            raise InvalidArgumentError(f"column index {c} out of range [0, {width})")
    if not cols:
        raise InvalidArgumentError("empty column selection")
    return cols


def read_mask(path, n: int) -> np.ndarray:
    """The boolean mask of a 0/1 file with one entry per vertex."""
    mfile = read_matrix(path)
    mat = mfile.values
    flat = mat.ravel()
    if flat.size != n:
        raise InvalidArgumentError(
            f"mask {path} has {flat.size} entries, expected {n}"
        )
    bad = np.argwhere((mat != 0.0) & (mat != 1.0))
    if bad.size:
        i, j = bad[0]
        row = i + 1 if mfile.row_lines is None else mfile.row_lines[i]
        raise InvalidArgumentError(
            f"mask {path}: entry {float(mat[i, j])!r} at row {row}, column "
            f"{j + 1} is not 0 or 1"
        )
    return flat != 0.0
