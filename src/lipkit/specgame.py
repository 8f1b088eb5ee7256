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
)
from .fourlip import SpectralSignal, _ring_bins
from .matcore import _csv_rows, _field_blocks, _write_csv

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


def _mirror_unshifted(mask):
    """Conjugate-mirror of an unshifted-layout boolean mask: bin k -> -k mod N."""
    out = np.flip(mask)
    return np.roll(out, shift=(1,) * mask.ndim, axis=tuple(range(mask.ndim)))


def coalition_filter(s: SpectralSignal, bands: np.ndarray, keep: int) -> SpectralSignal:
    """Zero all bins outside the kept bands (coalition bitmask).

    Bins whose conjugate mirror falls in a dropped band are zeroed as well,
    which keeps the inverse transform real; only mirror pairs straddling a
    ring boundary are affected.
    """
    if bands.shape != s.grid:
        raise GridMismatch("band index array does not match the signal grid")
    if keep < 0:
        raise ValueError("coalition bitmask must be nonnegative")
    keep_mask = ((keep >> bands) & 1).astype(bool)
    if keep_mask.all():
        return SpectralSignal(s.samples, s.spacing)
    keep_unshifted = np.fft.ifftshift(keep_mask)
    keep_sym = keep_unshifted & _mirror_unshifted(keep_unshifted)
    spec = np.array(s.spectrum)
    spec[~np.fft.fftshift(keep_sym)] = 0.0
    return s.with_spectrum(spec)


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


def shapley_exact(game: CoalitionGame) -> np.ndarray:
    """psi_i = sum over coalitions S without i of
    |S|! (M-1-|S|)! / M! * (v(S + i) - v(S)); efficiency is checked."""
    m = game.n_players
    if m > MAX_EXACT_PLAYERS:
        raise PlayerCountTooLarge(f"exact mode limited to {MAX_EXACT_PLAYERS} players, got {m}")
    weights = _shapley_weights(m)
    pc = _popcounts(game.values.shape[0])
    psi = _kernels.shapley_accumulate(np.asarray(game.values), weights, pc, m)
    total = game.values[-1] - game.values[0]
    drift = abs(float(psi.sum()) - float(total))
    if drift > 1e-10 * max(1.0, abs(float(total))):
        raise LipkitError(f"efficiency violated by {drift:.3e}")  # pragma: no cover
    return psi


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
    _write_csv(path, enumerate(game.values.tolist()))


def _read_game(fh, n_players):
    """The game of a table read in blocks, or None where a row is not an
    int64 bitmask and a finite value, or the distinct nonnegative masks are
    not 0..2^n-1. The O(2^n) arrays are made only once the row count is 2^n."""
    masks, values = [], []
    for _, _, _, fields in _field_blocks(fh, width=2):
        if fields is None:
            return None
        n = len(fields) // 2
        try:
            masks.append(np.fromiter(map(int, fields[0::2]), np.int64, n))
            values.append(np.fromiter(map(float, fields[1::2]), np.float64, n))
        except (ValueError, OverflowError):
            return None
        if not np.isfinite(values[-1]).all():
            return None
    if not masks:
        return None
    masks = np.concatenate(masks)
    if masks.min() < 0:
        return None
    if n_players is None:
        n_players = max(int(masks.max()).bit_length(), 1)
    # no table of over 63 players fits in memory, and 1 << n_players stays small
    if n_players > MAX_MC_PLAYERS or masks.size != 1 << n_players or masks.max() >= masks.size:
        return None
    table = np.empty(masks.size)
    table[masks] = np.concatenate(values)
    seen = np.zeros(masks.size, dtype=bool)
    seen[masks] = True
    return CoalitionGame(n_players, table) if seen.all() else None


def _raise_game_error(path, n_players):
    """Raise the error of a game table that the bulk path refused: that of
    its first line that is not ``bitmask,value``, holds a value that is not
    finite, or repeats a mask or has a negative one; else that of an empty
    or incomplete table."""
    seen = set()
    with open(path) as fh:
        for lineno, parts in _csv_rows(fh):
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'bitmask,value'")
            try:
                mask, val = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad bitmask or value") from exc
            if not math.isfinite(val):
                raise ValueError(f"{path}:{lineno}: value {parts[1].strip()} is not finite")
            if mask < 0 or mask in seen:
                raise ValueError(f"{path}:{lineno}: bad or duplicate bitmask {mask}")
            seen.add(mask)
    if not seen:
        raise ValueError(f"{path}: empty game table")
    if n_players is None:
        n_players = max(max(seen).bit_length(), 1)
    # the masks are distinct, so the first four of 0..2^n-1 that are missing
    # lie below len(seen) + 4; a large n makes no 2^n-sized integer or range
    stop = len(seen) + 4
    if stop.bit_length() > n_players:
        stop = 1 << n_players
    missing = [mask for mask in range(stop) if mask not in seen][:4]
    raise ValueError(
        f"{path}: table incomplete for {n_players} players (missing masks {missing}...)"
    )


def load_game_csv(path, n_players=None) -> CoalitionGame:
    """Complete game table from ``bitmask,value`` rows, read in bulk; the
    error for a refused table names its first bad line, as a line-by-line
    reader would."""
    if n_players is not None and n_players < 1:
        raise ValueError(f"player count must be at least 1, got {n_players}")
    with open(path) as fh:
        game = _read_game(fh, n_players)
    if game is None:
        _raise_game_error(path, n_players)
    return game
