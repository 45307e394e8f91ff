"""File formats for embeddings, permutations, and row normalization.

Two embedding formats are supported:

* ``emb1`` -- binary interchange format.  Layout: 4 magic bytes ``EMB1``,
  little-endian uint32 row count, little-endian uint32 column count, then
  rows*cols IEEE-754 binary32 little-endian values in row-major order.
  No padding, no trailing bytes.
* ``tsv`` -- one row per line, single TAB between columns, values parseable
  as IEEE doubles.  Meant for hand-written fixtures; a trailing blank line
  is tolerated.

Values are widened to float64 on load and every downstream computation
stays in float64; disk stays float32.  Saving what a load produced is
byte-exact because binary32 values round-trip through float64 unchanged.

Permutations are stored as ASCII decimal indices, one per line, LF-ended.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    DataError,
    DegenerateRowError,
    FormatError,
    ParameterError,
    PermutationError,
)

EMB1_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")

# Guard against headers that would ask for unaddressable payloads.
MAX_ELEMENTS = 2**31

#: Rows with Euclidean norm below this are rejected rather than rescaled.
MIN_ROW_NORM = 1e-12


def load_embeddings(path: str | Path, format: str = "emb1") -> np.ndarray:
    """Read an embedding matrix from ``path``.

    Returns a float64 array of shape (rows, cols).  Raises FormatError for
    structural problems, DataError for non-finite values, CapacityError when
    the declared shape exceeds :data:`MAX_ELEMENTS` entries.
    """
    if format == "emb1":
        return _load_emb1(Path(path))
    if format == "tsv":
        return _load_tsv(Path(path))
    raise ParameterError(f"unknown embedding format: {format!r}")


def save_embeddings(matrix: np.ndarray, path: str | Path, format: str = "emb1") -> None:
    """Write ``matrix`` to ``path``; values are stored as binary32."""
    matrix = _as_matrix(matrix)
    if format == "emb1":
        payload = matrix.astype("<f4", copy=False).tobytes(order="C")
        header = _HEADER.pack(EMB1_MAGIC, matrix.shape[0], matrix.shape[1])
        Path(path).write_bytes(header + payload)
    elif format == "tsv":
        lines = ["\t".join(repr(float(v)) for v in row) for row in matrix]
        Path(path).write_text("\n".join(lines) + "\n")
    else:
        raise ParameterError(f"unknown embedding format: {format!r}")


def detect_format(path: str | Path) -> str:
    """Guess ``emb1`` vs ``tsv`` from the leading magic bytes."""
    with open(path, "rb") as fh:
        return "emb1" if fh.read(4) == EMB1_MAGIC else "tsv"


def _load_emb1(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated before header")
    magic, rows, cols = _HEADER.unpack_from(blob)
    if magic != EMB1_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: empty shape {rows}x{cols}")
    if rows * cols > MAX_ELEMENTS:
        raise CapacityError(f"{path}: {rows}x{cols} exceeds element limit")
    expected = _HEADER.size + 4 * rows * cols
    if len(blob) != expected:
        raise FormatError(f"{path}: payload is {len(blob) - _HEADER.size} bytes, expected {expected - _HEADER.size}")
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(rows, cols)
    if not np.isfinite(data).all():
        raise DataError(f"{path}: non-finite value in payload")
    return data.astype(np.float64)


def _load_tsv(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    # undecodable bytes become U+FFFD, which no float parses: a FormatError, not a crash
    for lineno, line in enumerate(path.read_text(errors="replace").split("\n"), start=1):
        if line == "":
            continue
        try:
            rows.append([float(cell) for cell in line.split("\t")])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FormatError(f"{path}: ragged rows")
    if len(rows) * width > MAX_ELEMENTS:
        raise CapacityError(f"{path}: exceeds element limit")
    data = np.array(rows, dtype=np.float64)
    if not np.isfinite(data).all():
        raise DataError(f"{path}: non-finite value")
    return data


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Rescale every row to unit Euclidean norm.

    Rows with norm below :data:`MIN_ROW_NORM` raise DegenerateRowError
    listing the offending row indices; silently keeping them would poison
    every inner-product comparison downstream.
    """
    matrix = _as_matrix(matrix)
    norms = np.linalg.norm(matrix, axis=1)
    bad = np.nonzero(norms < MIN_ROW_NORM)[0]
    if bad.size:
        raise DegenerateRowError(bad)
    return matrix / norms[:, None]


def _as_matrix(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise DataError(f"expected a non-empty 2-D matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise DataError("non-finite value in matrix")
    return matrix


@dataclass(frozen=True)
class EmbeddingPair:
    """Row-aligned embeddings: row i of ``x`` and row i of ``y`` are positives.

    Immutable after construction; safe to share across threads.
    ``_tile_reader`` is the cutoff scan's ``similarity._TileReader``, set
    by ``similarity._reading``; it takes no part in equality or repr.
    """

    x: np.ndarray
    y: np.ndarray
    _tile_reader: object = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        x = _as_matrix(self.x)
        y = _as_matrix(self.y)
        if x.shape != y.shape:
            raise DataError(f"paired matrices must share a shape: {x.shape} vs {y.shape}")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def normalized(self) -> "EmbeddingPair":
        """Return a copy with every row of both sides rescaled to unit norm."""
        return EmbeddingPair(normalize_rows(self.x), normalize_rows(self.y))


def load_pair(x_path: str | Path, y_path: str | Path, format: str | None = None) -> EmbeddingPair:
    """Load two row-aligned matrices; ``format=None`` sniffs each file."""
    fmt_x = format or detect_format(x_path)
    fmt_y = format or detect_format(y_path)
    return EmbeddingPair(load_embeddings(x_path, fmt_x), load_embeddings(y_path, fmt_y))


def validate_permutation(order: np.ndarray, n: int | None = None) -> np.ndarray:
    """Check that ``order`` is a bijection on {0..N-1}; return it as int64."""
    order = np.asarray(order)
    if order.ndim != 1 or order.size == 0:
        raise PermutationError(f"expected a non-empty 1-D index array, got shape {order.shape}")
    if not np.issubdtype(order.dtype, np.integer):
        raise PermutationError(f"permutation entries must be integers, got dtype {order.dtype}")
    order = order.astype(np.int64)
    if n is not None and order.size != n:
        raise PermutationError(f"permutation has {order.size} entries, expected {n}")
    if not np.array_equal(np.sort(order), np.arange(order.size)):
        raise PermutationError("indices are not a bijection on {0..N-1}")
    return order


def save_permutation(order: np.ndarray, path: str | Path) -> None:
    """Write one decimal index per line, LF-terminated."""
    order = validate_permutation(order)
    text = "\n".join(str(int(i)) for i in order) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def load_permutation(path: str | Path) -> np.ndarray:
    """Read a permutation file; any non-bijection raises PermutationError."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise PermutationError(f"{path}: not a text file: {exc.reason} at byte {exc.start}") from exc
    entries = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        try:
            entries.append(int(line))
        except ValueError as exc:
            raise PermutationError(f"{path}:{lineno}: not a decimal index: {line!r}") from exc
    if not entries:
        raise PermutationError(f"{path}: empty permutation file")
    return validate_permutation(np.array(entries, dtype=np.int64))
