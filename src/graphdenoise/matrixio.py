"""Signal files: delimited text and PGM images, column selections and masks.

Delimited files hold observations in rows and signals in columns; an
optional single header row is preserved on write, and every value must be
finite.  Numeric output uses the shortest representation that parses back
to the same float, so a denoise-write-read round trip is exact.  PGM files
(P2 ascii or P5 binary) are treated as a single grid signal whose pixels
are integers in [0, maxval].  Every input file becomes text here, by one
rule: UTF-8 after an optional byte-order mark (not written back), any other
byte kept as a lone surrogate, so it reaches the parsers' messages and a
header holding it writes back byte for byte.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class MatrixFile:
    """A parsed matrix plus enough formatting metadata to write it back."""

    values: np.ndarray
    kind: str  # "delimited" | "pgm"
    delimiter: str | None = None  # None means whitespace
    header: tuple[str, ...] | None = None
    maxval: int = 255
    pgm_binary: bool = True

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


def _parse_delimited(text: str, path: Path) -> MatrixFile:
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise InvalidArgumentError(f"{path}: file holds no data")
    delimiter = "," if "," in lines[0] else None
    split = (lambda s: s.split(",")) if delimiter else (lambda s: s.split())

    header = None
    first = [t.strip() for t in split(lines[0])]
    try:
        for tok in first:
            float(tok)
    except ValueError:
        header = tuple(first)
    start = int(header is not None)
    if start == len(lines):
        raise InvalidArgumentError(f"{path}: header but no data rows")
    rows = []
    for i in range(start, len(lines)):
        tokens = [t.strip() for t in split(lines[i])]
        parsed = []
        for j, tok in enumerate(tokens):
            try:
                parsed.append(float(tok))
            except ValueError:
                raise InvalidArgumentError(
                    f"{path}: cannot parse {tok!r} at row {i + 1}, column {j + 1}"
                ) from None
        if rows and len(parsed) != len(rows[0]):
            raise InvalidArgumentError(
                f"{path}: row {i + 1} has {len(parsed)} fields, expected {len(rows[0])}"
            )
        rows.append(parsed)
    values = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise InvalidArgumentError(
            f"{path}: non-finite value {float(values[i, j])} at row "
            f"{start + i + 1}, column {j + 1}"
        )
    return MatrixFile(
        values=values,
        kind="delimited",
        delimiter=delimiter,
        header=header,
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
    out = []
    if like.header is not None:
        out.append(sep.join(like.header))
    for row in values:
        out.append(sep.join(format_float(v) for v in row))
    path.write_bytes(("\n".join(out) + "\n").encode("utf-8", _ERRORS))


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
            raise InvalidArgumentError(f"column {c} out of range [0, {width})")
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
        # rows are counted as _parse_delimited counts them, header included
        row = i + 1 + (mfile.header is not None)
        raise InvalidArgumentError(
            f"mask {path}: entry {float(mat[i, j])!r} at row {row}, column "
            f"{j + 1} is not 0 or 1"
        )
    return flat != 0.0
