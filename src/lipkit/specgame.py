"""Shapley-value spectral importance.

Partition a 2-D spectrum into square-ring band players, zero out the bands
a coalition excludes, and divide a characteristic function's worth fairly
across the bands: exactly for small player counts, by permutation sampling
with an explicit error bound otherwise, plus the normalized importance
score of the resulting distribution.

Characteristic-function values are inputs (table or callback); constant
offsets cancel in every marginal, so any baseline convention works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    CallbackFailure,
    DegenerateWeights,
    GridMismatch,
    LipkitError,
    NegativeShapley,
    PlayerCountTooLarge,
    overflow_raises,
)
from .fourlip import SpectralSignal, _ring_bins
from .matcore import _csv_rows, _line_blocks, _loadtxt, _open_text, _write_csv

MAX_EXACT_PLAYERS = 16
MAX_MC_PLAYERS = 63  # coalition masks are int64
_MC_BLOCK = 1 << 15  # permutations per block of shapley_mc


def band_partition(s: SpectralSignal, n_bands: int) -> np.ndarray:
    """Assign every spectrum bin to one of ``n_bands`` square rings.

    Rings are uniform shells of the max-coordinate (Chebyshev) distance
    from the geometric center of the centered spectrum, so each shell holds
    a constant-width strip of bins; the center bin(s) always land in band 0.
    Returned indices follow the shifted spectrum layout.
    """
    if s.dim != 2:
        raise GridMismatch("band partition is defined for 2-D spectra")
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    n0, n1 = s.grid
    c0, c1 = (n0 - 1) / 2.0, (n1 - 1) / 2.0
    i0 = np.abs(np.arange(n0) - c0)[:, None]
    i1 = np.abs(np.arange(n1) - c1)[None, :]
    return _ring_bins(np.maximum(i0, i1), n_bands)


def coalition_filter(s: SpectralSignal, bands: np.ndarray, keep: int) -> SpectralSignal:
    """Zero all bins outside the kept bands (coalition bitmask).

    Bins whose conjugate mirror falls in a dropped band are zeroed as well
    (``SpectralSignal.without``), which keeps the inverse transform real;
    only mirror pairs straddling a ring boundary are affected.
    """
    if keep < 0:
        raise ValueError("coalition bitmask must be nonnegative")
    return s.without(((keep >> bands) & 1) == 0)


@dataclass(frozen=True)
class CoalitionGame:
    """Complete table of coalition values indexed by bitmask; v(empty) at 0."""

    n_players: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if self.n_players < 1:
            raise ValueError("need at least one player")
        if values.shape != (1 << self.n_players,):
            raise ValueError(
                f"need a complete table of {1 << self.n_players} values, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("coalition values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callback(cls, fn, n_players):
        vals = np.array([fn(mask) for mask in range(1 << n_players)], dtype=np.float64)
        return cls(n_players, vals)


def _shapley_weights(m):
    fact = [math.factorial(i) for i in range(m + 1)]
    return np.array([fact[s] * fact[m - 1 - s] / fact[m] for s in range(m)])


def _popcounts(n_masks):
    masks = np.arange(n_masks, dtype=np.int64)
    pc = np.zeros(n_masks, dtype=np.int64)
    bits = 1
    while (1 << (bits - 1)) < n_masks:
        bits += 1
    for b in range(bits):
        pc += (masks >> b) & 1
    return pc


@overflow_raises("psi")
def shapley_exact(game: CoalitionGame) -> np.ndarray:
    """psi_i = sum over coalitions S without i of w_|S| (v(S + i) - v(S)),
    w_s = s! (M-1-s)! / M!. Efficiency, sum_i psi_i = v(N) - v(empty), is
    exact in exact arithmetic, so a drift beyond rounding is refused.

    The bound (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3-4; u = 2^-53, gamma_k = k u / (1 - k u), n = 2^(M-1)): a term
    meets 3 roundings (weight, difference, product) and, summed in any
    order, at most n - 1 more, so psi_i errs by at most gamma_(n+2) A_i,
    A_i = sum_(S without i) w_|S| (|v(S + i)| + |v(S)|) >= |psi_i|. Summing
    the psi_i adds gamma_(M-1) (1 + gamma_(n+2)) scale, scale = sum_i A_i,
    and v(N) - v(empty) adds u scale. The drift is thus at most
    1.01 (n + M + 2) u scale; the check allows c(M) u scale with
    c(M) = 2 (n + M + 1), which covers the rounding in scale, plus
    M n 2^-1074 for underflowing products. In scale a worth v(T) counts
    |T| w_(|T|-1) + (M - |T|) w_|T|, each nonzero term 1 / C(M, |T|), and
    the counts sum to 2M.
    """
    m = game.n_players
    if m > MAX_EXACT_PLAYERS:
        raise PlayerCountTooLarge(f"exact mode limited to {MAX_EXACT_PLAYERS} players, got {m}")
    weights = _shapley_weights(m)
    pc = _popcounts(game.values.shape[0])
    psi = _kernels.shapley_accumulate(np.asarray(game.values), weights, pc, m)
    total = game.values[-1] - game.values[0]
    drift = abs(float(psi.sum()) - float(total))
    # scale / 2M, a weighted mean of the |v(T)|, cannot overflow
    count = np.array([((j > 0) + (j < m)) / (2 * m * math.comb(m, j)) for j in range(m + 1)])
    mean = float(np.sum(np.abs(game.values) * count[pc]))
    if drift > 4 * m * (2 ** (m - 1) + m + 1) * 2.0**-53 * mean + m * 2.0 ** (m - 1075):
        raise LipkitError(f"efficiency violated by {drift:.3e}")
    return psi


@overflow_raises("psi", result=lambda out: out[0])  # err_bound is inf at one permutation
def shapley_mc(value_fn, n_players: int, n_perms: int, seed: int = 0):
    """Permutation-sampling estimate of the Shapley values.

    ``value_fn`` is a :class:`CoalitionGame` of ``n_players`` players or a
    function that maps a coalition bitmask to its worth. A table's worths
    are read by array lookup. A function must be a deterministic function
    of the mask: permutations are drawn in blocks of 2^15 and the function
    is called once per distinct coalition in a block, in ascending mask
    order. Masks are int64, so at most 63 players.

    Each block's per-player marginal mean and sum of squared deviations
    are merged into running totals by the pairwise update of Chan, Golub
    and LeVeque (1983), so memory is O(block * M) whatever ``n_perms`` is.
    Returns (psi, err_bound) with the bound 2^(M-1) * sqrt(Var(marginal)/n_perms)
    evaluated at the worst player's empirical marginal variance. One
    permutation estimates no variance, so its bound is inf.
    """
    if n_players < 1:
        raise ValueError(f"player count must be at least 1, got {n_players}")
    if n_players > MAX_MC_PLAYERS:
        raise PlayerCountTooLarge(
            f"Monte Carlo mode limited to {MAX_MC_PLAYERS} players, got {n_players}"
        )
    if n_perms < 1:
        raise ValueError("n_perms must be >= 1")
    if isinstance(value_fn, CoalitionGame):
        if value_fn.n_players != n_players:
            raise ValueError(
                f"game has {value_fn.n_players} players, but n_players is {n_players}"
            )
        table = value_fn.values

        def worths(masks):
            return table[masks]

    else:

        def call(mask):
            try:
                return float(value_fn(mask))
            except Exception as exc:
                raise CallbackFailure(f"value_fn failed on mask {mask}") from exc

        def worths(masks):
            distinct, where = np.unique(masks, return_inverse=True)
            return np.array([call(int(mask)) for mask in distinct])[where.reshape(masks.shape)]

    rng = np.random.default_rng(seed)

    def block_moments(rows):
        # one row per permutation; consumes the generator as rng.permutation
        # row by row would, so the draws do not depend on the block size
        orders = np.tile(np.arange(n_players), (rows, 1))
        rng.permuted(orders, axis=1, out=orders)
        masks = np.zeros((rows, n_players + 1), dtype=np.int64)
        np.cumsum(np.int64(1) << orders, axis=1, out=masks[:, 1:])
        worth = worths(masks)
        del masks  # each temporary goes once used, to keep the block's peak low
        marginals = np.empty((rows, n_players))
        np.put_along_axis(marginals, orders, np.diff(worth, axis=1), axis=1)
        del orders, worth
        # the two passes of np.var, so one block reproduces its mean and var
        mean = marginals.mean(axis=0)
        marginals -= mean
        marginals *= marginals
        return mean, marginals.sum(axis=0)

    for start in range(0, n_perms, _MC_BLOCK):
        rows = min(_MC_BLOCK, n_perms - start)
        block_mean, block_m2 = block_moments(rows)
        if start == 0:
            psi, m2 = block_mean, block_m2
        else:
            # Chan-Golub-LeVeque: merge (start, psi, m2) with the block's moments
            total = start + rows
            delta = block_mean - psi
            psi += delta * (rows / total)
            m2 += block_m2 + delta * delta * (start * rows / total)
    if n_perms == 1:
        return psi, math.inf
    worst_var = float(np.max(m2 / (n_perms - 1)))
    return psi, 2.0 ** (n_players - 1) * math.sqrt(worst_var / n_perms)


def importance_score(psi, beta=None) -> float:
    """Normalized importance of a Shapley distribution against weights beta.

    With the distribution normalized to unit l1 mass, the score is
    |(beta_hat . psi_hat - eta) / (1 - eta)|, eta = ||beta||_1/(M ||beta||_2),
    clamped to [0, 1]. Uniform distributions score 0; mass concentrated on
    the single max-weight band scores 1.
    """
    psi = np.asarray(psi, dtype=np.float64)
    m = psi.size
    if m < 2:
        raise DegenerateWeights("score needs at least two players")
    if np.any(psi < -1e-12):
        raise NegativeShapley(
            f"normalization assumes nonnegative values (min {psi.min():.3e})"
        )
    psi = np.clip(psi, 0.0, None)
    if beta is None:
        beta = np.ones(m)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (m,):
        raise DegenerateWeights(f"beta must have length {m}")
    if np.any(beta < 0):
        raise DegenerateWeights("beta weights must be nonnegative")
    if not np.all(np.isfinite(beta)):
        raise DegenerateWeights(f"beta weights must be finite, got {beta.tolist()}")
    norm2 = float(np.linalg.norm(beta))
    if norm2 == 0.0:
        raise DegenerateWeights("beta weights are all zero")
    total = float(psi.sum())
    if total == 0.0:
        return 0.0  # zero game carries a uniform (empty) distribution
    psi_hat = psi / total
    beta_hat = beta / norm2
    eta = float(np.sum(beta)) / (m * norm2)
    score = abs((float(beta_hat @ psi_hat) - eta) / (1.0 - eta))
    if score < 1e-12:
        return 0.0
    return min(score, 1.0)


# ---------------------------------------------------------------------------
# game table CSV: rows of (bitmask integer, value)
# ---------------------------------------------------------------------------

def save_game_csv(path, game: CoalitionGame):
    with open(path, "w") as fh:
        _write_csv(fh, enumerate(game.values.tolist()))


_GAME_ROW = np.dtype([("mask", np.int64), ("value", np.float64)])


def _read_game(fh, n_players):
    """The game of a table read in blocks by numpy's reader, or None at the
    first block that it leaves or whose values are not finite, or where
    the distinct nonnegative masks are not 0..2^n-1. The O(2^n) arrays are
    made only once the row count is 2^n."""
    blocks = []
    for _, lines in _line_blocks(fh):
        rows = _loadtxt(lines, _GAME_ROW, 1)
        if rows is None or not np.isfinite(rows["value"]).all():
            return None
        blocks.append(rows)
    rows = np.concatenate(blocks) if blocks else np.empty(0, _GAME_ROW)
    del blocks  # freed before the O(2^n) arrays are made
    masks = rows["mask"]
    if not masks.size or masks.min() < 0:
        return None
    if n_players is None:
        n_players = max(int(masks.max()).bit_length(), 1)
    # no table of over 63 players fits in memory, and 1 << n_players stays small
    if n_players > MAX_MC_PLAYERS or masks.size != 1 << n_players or masks.max() >= masks.size:
        return None
    table = np.empty(masks.size)
    table[masks] = rows["value"]
    seen = np.zeros(masks.size, dtype=bool)
    seen[masks] = True
    return CoalitionGame(n_players, table) if seen.all() else None


def _game_by_lines(path, n_players):
    """The line reader: the game of the table at ``path`` read one line at a
    time by ``int`` and ``float``, in O(rows) Python objects. Raises the
    error of its first line that is not ``bitmask,value``, holds a value
    that is not finite, or repeats a mask or has a negative one; else that
    of an empty table, of the least mask that needs more than n players,
    or of an incomplete table."""
    entries = {}
    with _open_text(path) as fh:
        for lineno, parts in _csv_rows(fh):
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'bitmask,value'")
            try:
                mask, val = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad bitmask or value") from exc
            if not math.isfinite(val):
                raise ValueError(f"{path}:{lineno}: value {parts[1].strip()} is not finite")
            if mask < 0 or mask in entries:
                raise ValueError(f"{path}:{lineno}: bad or duplicate bitmask {mask}")
            entries[mask] = val
    if not entries:
        raise ValueError(f"{path}: empty game table")
    if n_players is None:
        n_players = max(max(entries).bit_length(), 1)
    size = len(entries)
    if n_players <= MAX_MC_PLAYERS and size == 1 << n_players and max(entries) < size:
        return CoalitionGame(n_players, np.array([entries[mask] for mask in range(size)]))
    over = [mask for mask in entries if mask.bit_length() > n_players]
    if over:
        raise ValueError(f"{path}: mask {min(over)} needs more than {n_players} players")
    # the masks are distinct, so the first four of 0..2^n-1 that are missing
    # lie below size + 4; a large n makes no 2^n-sized integer or range
    stop = size + 4
    if stop.bit_length() > n_players:
        stop = 1 << n_players
    missing = [mask for mask in range(stop) if mask not in entries][:4]
    raise ValueError(
        f"{path}: table incomplete for {n_players} players (missing masks {missing}...)"
    )


def load_game_csv(path, n_players=None) -> CoalitionGame:
    """Complete game table from ``bitmask,value`` rows, read in bulk by
    numpy's reader, else one line at a time by :func:`_game_by_lines`."""
    if n_players is not None and n_players < 1:
        raise ValueError(f"player count must be at least 1, got {n_players}")
    with _open_text(path) as fh:
        game = _read_game(fh, n_players)
    return game if game is not None else _game_by_lines(path, n_players)
