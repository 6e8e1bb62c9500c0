"""Reading and writing signal matrices: delimited text and PGM images.

Delimited files hold observations in rows and signals in columns; an
optional single header row is preserved on write, and every value must be
finite.  Numeric output uses the shortest representation that parses back
to the same float, so a denoise-write-read round trip is exact.  PGM files
(P2 ascii or P5 binary) are treated as a single grid signal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["MatrixFile", "read_matrix", "write_matrix", "format_float"]


@dataclass(frozen=True)
class MatrixFile:
    """A parsed matrix plus enough formatting metadata to write it back."""

    values: np.ndarray
    kind: str  # "delimited" | "pgm"
    delimiter: str | None = None  # None means whitespace
    header: tuple[str, ...] | None = None
    maxval: int = 255
    pgm_binary: bool = True


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    if v != v:  # NaN
        return "nan"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def _parse_delimited(path: Path) -> MatrixFile:
    text = path.read_text()
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise InvalidArgumentError(f"{path}: file holds no data")
    delimiter = "," if "," in lines[0] else None
    split = (lambda s: s.split(",")) if delimiter else (lambda s: s.split())

    def try_row(tokens):
        try:
            return [float(t) for t in tokens]
        except ValueError:
            return None

    header = None
    start = 0
    first = [t.strip() for t in split(lines[0])]
    if try_row(first) is None:
        header = tuple(first)
        start = 1
        if start >= len(lines):
            raise InvalidArgumentError(f"{path}: header but no data rows")
    rows = []
    width = None
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
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise InvalidArgumentError(
                f"{path}: row {i + 1} has {len(parsed)} fields, expected {width}"
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


def _parse_pgm(path: Path) -> MatrixFile:
    raw = path.read_bytes()
    if raw[:2] not in (b"P2", b"P5"):
        raise InvalidArgumentError(f"{path}: not a portable graymap")
    binary = raw[:2] == b"P5"
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
    if binary:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height
        try:
            data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
        except ValueError:
            raise InvalidArgumentError(f"{path}: truncated PGM payload") from None
        values = data.reshape(height, width).astype(np.float64)
    else:
        body = raw[pos:].decode("ascii", errors="replace")
        nums = [t for t in re.split(r"\s+", body) if t and not t.startswith("#")]
        if len(nums) < width * height:
            raise InvalidArgumentError(f"{path}: truncated PGM payload")
        values = np.asarray(
            [float(v) for v in nums[: width * height]], dtype=np.float64
        ).reshape(height, width)
    return MatrixFile(values=values, kind="pgm", maxval=maxval, pgm_binary=binary)


def read_matrix(path) -> MatrixFile:
    path = Path(path)
    if not path.exists():
        raise InvalidArgumentError(f"input file not found: {path}")
    head = path.open("rb").read(2)
    if path.suffix.lower() == ".pgm" or head in (b"P2", b"P5"):
        return _parse_pgm(path)
    return _parse_delimited(path)


def write_matrix(path, values: np.ndarray, like: MatrixFile) -> None:
    """Write a matrix in the same format as the file it was read from."""
    path = Path(path)
    values = np.asarray(values, dtype=np.float64)
    if like.kind == "pgm":
        clipped = np.clip(np.rint(values), 0, like.maxval)
        if like.pgm_binary:
            dtype = np.dtype(">u2") if like.maxval > 255 else np.dtype("u1")
            h, w = clipped.shape
            header = f"P5\n{w} {h}\n{like.maxval}\n".encode("ascii")
            path.write_bytes(header + clipped.astype(dtype).tobytes())
        else:
            h, w = clipped.shape
            lines = [f"P2", f"{w} {h}", f"{like.maxval}"]
            for row in clipped.astype(np.int64):
                lines.append(" ".join(str(int(v)) for v in row))
            path.write_text("\n".join(lines) + "\n")
        return
    sep = like.delimiter if like.delimiter else " "
    out = []
    if like.header is not None:
        out.append(sep.join(like.header))
    for row in values:
        out.append(sep.join(format_float(v) for v in row))
    path.write_text("\n".join(out) + "\n")
