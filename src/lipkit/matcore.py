"""Dense matrix primitives: column-major vectorization, Kronecker products,
full SVD with deterministic signs, and the CSV matrix format.

Every structure here is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass

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
    DEFAULT_RANK_TOL * sigma_1; ``min_gap`` is the smallest |s_i - s_j|
    over pairs of retained singular values (inf when fewer than two are).
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


def _numerical_rank(s: np.ndarray) -> int:
    """Number of singular values above DEFAULT_RANK_TOL * sigma_1."""
    if s.size and s[0] > 0:
        return int(np.sum(s > DEFAULT_RANK_TOL * s[0]))
    return 0


def full_svd(m: DenseMatrix) -> SvdTriple:
    """Full SVD of a DenseMatrix.

    Raises NonConvergence when the underlying LAPACK iteration fails.
    """
    try:
        u, s, vt = np.linalg.svd(m.array, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"SVD failed to converge on {m.rows}x{m.cols} input") from exc
    u, vt = _fix_signs(np.ascontiguousarray(u), np.ascontiguousarray(vt))
    rank = _numerical_rank(s)
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
# syntax, the 17-digit number format, the decoding of input files and the
# error that names a bad line.
# ---------------------------------------------------------------------------

_FLOAT = "%.17g"  # 17 significant digits: every float reads back as itself


def _fmt(x) -> str:
    """``x`` as a float in the output number format."""
    return _FLOAT % float(x)


def _write_csv(fh, rows, header=None):
    """Write to the text file ``fh`` ``header`` (a line without its end, if
    given) and one line per row of ``rows``: its fields joined by commas,
    each float by :func:`_fmt` and any other field by ``str``."""
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


@contextlib.contextmanager
def _open_text(path):
    """``path`` opened for reading as UTF-8 text, whatever the locale; a
    byte that is not UTF-8 raises a ValueError that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8 text") from None


def _csv_rows(lines, start=1):
    """(file line number, comma-separated fields) of every non-blank line;
    ``start`` is the file line number of the first of ``lines``."""
    for lineno, line in enumerate(lines, start=start):
        line = line.strip()
        if line:
            yield lineno, line.split(",")


def _line_rows(path, lines, start, width):
    """The line reader: the rows of ``lines`` (the first of which is file
    line ``start``) converted by ``float`` one line at a time, as a 2-D
    array (0 x 0 when all are blank), all of one width (the first row's
    unless ``width`` is given). Raises at the first refused row, naming its
    line: a field that is not a number, an entry that is not finite, or a
    row of another width."""
    rows = []
    for lineno, fields in _csv_rows(lines, start):
        try:
            row = [float(tok) for tok in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a comma-separated number row") from exc
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: entries must be finite")
        width = width or len(row)
        if len(row) != width:
            raise ValueError(
                f"{path}:{lineno}: row {lineno} has {len(row)} entries, expected {width}"
            )
        rows.append(row)
    return np.array(rows) if rows else np.empty((0, 0))


# Characters of whole lines read per block, so memory is O(block + result).
# Larger blocks read no faster, and their arrays grow the heap: after a
# 2^16-row game table read in 32 KiB blocks, a Shapley run peaked 0.5 MB
# higher.
_BLOCK_BYTES = 1 << 13

# whitespace to numpy's reader next to a number, but not to float() or int()
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _line_blocks(fh, start=1):
    """(file line number of its first line, its lines) for each block of
    whole lines of ``fh``; ``start`` is that of the first line read. Lines
    end where file iteration ends them, so a line number here is the line
    number that :func:`_csv_rows` gives."""
    while lines := fh.readlines(_BLOCK_BYTES):
        yield start, lines
        start += len(lines)


def _loadtxt(lines, dtype, ndmin):
    """The rows of ``lines`` parsed by numpy's C reader, or None where the
    line reader must read them: they hold a character of
    ``_NUMPY_ONLY_SPACE``, numpy refuses them, or numpy warns. A warning
    is a refusal: numpy 1.x reads an int field such as ``1.5`` through a
    float with only a DeprecationWarning, and a blank-only block warns of
    no data. Any field numpy accepts, ``float`` (and ``int``) reads to the
    same number."""
    text = "".join(lines)
    if any(char in text for char in _NUMPY_ONLY_SPACE):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=ndmin)
        except (ValueError, Warning):
            return None


def _read_numbers(path, fh, start=1, width=None) -> np.ndarray:
    """The finite number rows of ``fh`` as a 2-D array (0 x 0 when there is
    none), all of one width (the first row's unless ``width`` is given).

    Each block of lines goes to numpy's reader; a block it leaves, or whose
    rows are not finite or not ``width`` wide, goes to :func:`_line_rows`.
    """
    blocks = []
    for first, lines in _line_blocks(fh, start):
        block = _loadtxt(lines, np.float64, 2)
        if block is None or width not in (None, block.shape[1]) or not np.isfinite(block).all():
            block = _line_rows(path, lines, first, width)
        if block.size:
            width = block.shape[1]
            blocks.append(block)
    return np.concatenate(blocks) if blocks else np.empty((0, 0))


def load_matrix_csv(path) -> DenseMatrix:
    with _open_text(path) as fh:
        data = _read_numbers(path, fh)
    if not data.size:
        raise ValueError(f"{path}: empty matrix file")
    return DenseMatrix(data)
