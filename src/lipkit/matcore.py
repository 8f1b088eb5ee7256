"""Dense matrix primitives: column-major vectorization, Kronecker products,
full SVD with deterministic signs, and the CSV matrix format.

Every structure here is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import NonConvergence

DEFAULT_RANK_TOL = 1e-10


def _freeze(arr):
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DenseMatrix:
    """Real rectangular matrix; entries stored column-major.

    Public constructors reject NaN/Inf entries.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr = np.asfortranarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def rows(self):
        return self.array.shape[0]

    @property
    def cols(self):
        return self.array.shape[1]

    @property
    def shape(self):
        return self.array.shape

    @classmethod
    def from_flat(cls, rows, cols, data):
        """Build from a flat column-major sequence of length rows*cols."""
        data = np.asarray(data, dtype=np.float64)
        if data.size != rows * cols:
            raise ValueError(
                f"need {rows * cols} entries for a {rows}x{cols} matrix, got {data.size}"
            )
        return cls(data.reshape((rows, cols), order="F"))

    def col(self, j):
        """0-based column as a 1-D copy."""
        return np.array(self.array[:, j])

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.array, other.array)


def vec(m: DenseMatrix) -> np.ndarray:
    """Column-major vectorization: entry (i, j) maps to index i + j*rows."""
    out = m.array.ravel(order="F")
    out.flags.writeable = False
    return out


def unvec(data, rows, cols) -> DenseMatrix:
    """Inverse of :func:`vec`."""
    data = np.asarray(data, dtype=np.float64)
    return DenseMatrix.from_flat(rows, cols, data)


def kron(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Kronecker product; block (i, j) of the result is a[i,j] * b."""
    return DenseMatrix(np.kron(a.array, b.array))


@dataclass(frozen=True)
class SvdTriple:
    """Full SVD U diag(s) V^T with rank and spectral-gap metadata.

    ``left`` is m x m, ``right`` is n x n, ``singulars`` has length
    min(m, n) sorted nonincreasing. ``rank`` counts singular values above
    rank_tol * sigma_1 (``rank_tol`` of :func:`full_svd`); ``min_gap`` is
    the smallest |s_i - s_j| over pairs of retained singular values (inf
    when fewer than two are).
    """

    left: DenseMatrix
    singulars: np.ndarray
    right: DenseMatrix
    rank: int
    min_gap: float

    def __post_init__(self):
        object.__setattr__(self, "singulars", _freeze(self.singulars))

    @property
    def rows(self):
        return self.left.rows

    @property
    def cols(self):
        return self.right.rows

    def sigma(self, k):
        """k-th singular value, 1-based (sigma(1) is the largest)."""
        return float(self.singulars[k - 1])

    def u(self, k):
        """k-th left singular vector, 1-based; valid for k <= rows."""
        return self.left.col(k - 1)

    def v(self, k):
        """k-th right singular vector, 1-based; valid for k <= cols."""
        return self.right.col(k - 1)

    def reconstruct(self) -> DenseMatrix:
        m, n = self.rows, self.cols
        sig = np.zeros((m, n))
        r = min(m, n)
        sig[:r, :r] = np.diag(self.singulars)
        return DenseMatrix(self.left.array @ sig @ self.right.array.T)


def _fix_signs(u_full, vt_full):
    """Deterministic sign convention: first entry of each left singular
    vector with magnitude above a relative threshold is made nonnegative;
    the paired right vector flips with it. Unpaired null-space columns are
    normalized independently."""
    m = u_full.shape[0]
    n = vt_full.shape[1]
    paired = min(m, n)
    for k in range(m):
        col = u_full[:, k]
        idx = np.argmax(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))
        if col[idx] < 0:
            u_full[:, k] = -col
            if k < paired:
                vt_full[k, :] = -vt_full[k, :]
    for k in range(paired, n):
        row = vt_full[k, :]
        idx = np.argmax(np.abs(row) > 1e-12 * max(1.0, np.abs(row).max()))
        if row[idx] < 0:
            vt_full[k, :] = -row
    return u_full, vt_full


def _numerical_rank(s: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rank_tol * sigma_1."""
    if s.size and s[0] > 0:
        return int(np.sum(s > rank_tol * s[0]))
    return 0


def full_svd(m: DenseMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> SvdTriple:
    """Full SVD of a DenseMatrix.

    Raises NonConvergence when the underlying LAPACK iteration fails.
    """
    if rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    try:
        u, s, vt = np.linalg.svd(m.array, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"SVD failed to converge on {m.rows}x{m.cols} input") from exc
    u, vt = _fix_signs(np.ascontiguousarray(u), np.ascontiguousarray(vt))
    rank = _numerical_rank(s, rank_tol)
    # s is sorted, so the closest pair of retained values is adjacent
    min_gap = float(np.min(np.abs(np.diff(s[:rank])))) if rank >= 2 else float("inf")
    return SvdTriple(
        left=DenseMatrix(u),
        singulars=s,
        right=DenseMatrix(vt.T),
        rank=rank,
        min_gap=min_gap,
    )


# ---------------------------------------------------------------------------
# CSV files: one row per line, comma-separated fields, no quoting. Every
# reader and writer of lipkit goes through this section, which owns the
# syntax, the 17-digit number format and the error that names a bad line.
# ---------------------------------------------------------------------------

_FLOAT = "%.17g"  # 17 significant digits: every float reads back as itself


def _fmt(x) -> str:
    """``x`` as a float in the output number format."""
    return _FLOAT % float(x)


def _write_csv(path, rows, header=None):
    """Write ``header`` (a line without its end, if given) and one line per
    row of ``rows``: its fields joined by commas, each float by
    :func:`_fmt` and any other field by ``str``."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(
            ",".join([_fmt(v) if isinstance(v, float) else str(v) for v in row]) + "\n"
            for row in rows
        )


def matrix_csv_lines(m: DenseMatrix):
    """The lines of the matrix in the CSV format, each ending in a newline;
    one row is formatted at a time, by a template made once."""
    line = ",".join([_FLOAT] * m.cols) + "\n"
    for row in m.array:
        yield line % tuple(row.tolist())


def save_matrix_csv(path, m: DenseMatrix):
    with open(path, "w") as fh:
        fh.writelines(matrix_csv_lines(m))


def _csv_rows(lines, start=1):
    """(file line number, comma-separated fields) of every non-blank line;
    ``start`` is the file line number of the first of ``lines``."""
    for lineno, line in enumerate(lines, start=start):
        line = line.strip()
        if line:
            yield lineno, line.split(",")


def _raise_row_error(path, lines, start, width):
    """Raise the error of the first refused number row among ``lines``, the
    first of which is file line ``start``: a field that is not a number, an
    entry that is not finite, or a row that is not ``width`` fields wide.
    Called only on lines that hold such a row."""
    for lineno, fields in _csv_rows(lines, start):
        try:
            row = [float(tok) for tok in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a comma-separated number row") from exc
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: entries must be finite")
        if len(row) != width:
            raise ValueError(
                f"{path}:{lineno}: row {lineno} has {len(row)} entries, expected {width}"
            )


# Characters of whole lines read per block, so memory is O(block + result).
# Larger blocks read no faster, and their arrays grow the heap: after a
# 2^16-row game table read in 32 KiB blocks, a Shapley run peaked 0.5 MB
# higher.
_BLOCK_BYTES = 1 << 13


def _field_blocks(fh, start=1, width=None):
    """Read ``fh`` in blocks of whole lines and split each block at once.

    Yields, per block: the file line number of its first line (``start``
    is that of the first line read), its lines, the row width, and the
    fields of its non-blank rows in row order -- None when a row is not
    ``width`` fields wide. The width is the first row's unless given.
    Lines end where file iteration ends them, so a line number here is
    the line number that :func:`_csv_rows` gives.
    """
    while lines := fh.readlines(_BLOCK_BYTES):
        rows = list(filter(None, map(str.strip, lines)))
        fields = []
        if rows:
            if width is None:
                width = rows[0].count(",") + 1
            commas = list(map(str.count, rows, repeat(",")))
            fields = ",".join(rows).split(",") if commas.count(width - 1) == len(rows) else None
        yield start, lines, width, fields
        start += len(lines)


def _read_numbers(path, fh, start=1, width=None) -> np.ndarray:
    """The finite number rows of ``fh`` as a 2-D array (0 x 0 when there is
    none), all of one width (the first row's unless ``width`` is given).

    Each block is converted by ``float`` in one pass; the error for a block
    that fails comes from :func:`_raise_row_error`, which names the first
    bad line.
    """
    blocks = []
    for first, lines, width, fields in _field_blocks(fh, start, width):
        block = None
        if fields is not None:
            try:
                block = np.fromiter(map(float, fields), np.float64, len(fields))
            except ValueError:
                pass
        if block is None or not np.isfinite(block).all():
            _raise_row_error(path, lines, first, width)
        if block.size:
            blocks.append(block.reshape(-1, width))
    return np.concatenate(blocks) if blocks else np.empty((0, 0))


def load_matrix_csv(path) -> DenseMatrix:
    with open(path) as fh:
        data = _read_numbers(path, fh)
    if not data.size:
        raise ValueError(f"{path}: empty matrix file")
    return DenseMatrix(data)
