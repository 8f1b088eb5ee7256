"""Fourier-domain Lipschitz analysis on sampled 1-D/2-D signals.

The discrete transform is the plain unnormalized DFT; multiplying by the
grid spacing turns it into an approximation of the integral transform, and
every bound below works in those physical units. Frequency axes are
centered (negative and positive bins), with the spectrum exposed in the
same shifted layout.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from . import _kernels
from .errors import EmptyBand, GridMismatch, NotUnit, overflow_raises
from .matcore import _fmt, _open_text, _read_numbers, _write_csv

BAND_VALIDITY_DELTA = 1.0 / np.sqrt(np.pi)  # ~0.5642, small-ball validity threshold
_IMAG_TOL = 1e-10  # largest imaginary residue of with_spectrum, relative to the samples


class SpectralSignal:
    """Sampled real signal on a uniform 1-D or 2-D grid plus its DFT.

    Sample (i, j) sits at physical position (i*dx, j*dy). The spectrum is
    computed lazily, cached, and shared read-only.
    """

    def __init__(self, samples, spacing):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim not in (1, 2):
            raise ValueError(f"signals are 1-D or 2-D, got ndim={samples.ndim}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if np.isscalar(spacing):
            spacing = (float(spacing),) * samples.ndim
        spacing = tuple(float(s) for s in spacing)
        if len(spacing) != samples.ndim or not all(0 < s < np.inf for s in spacing):
            raise ValueError(f"need {samples.ndim} positive finite spacings, got {spacing}")
        samples = samples.copy()
        samples.flags.writeable = False
        self.samples = samples
        self.spacing = spacing
        self._spectrum = None

    @property
    def dim(self):
        return self.samples.ndim

    @property
    def grid(self):
        return self.samples.shape

    @property
    def spectrum(self):
        """Unnormalized DFT in centered (fftshift) layout."""
        if self._spectrum is None:
            spec = np.fft.fftshift(np.fft.fftn(self.samples))
            spec.flags.writeable = False
            self._spectrum = spec
        return self._spectrum

    @property
    def freq_axes(self):
        """Centered physical frequencies (cycles per unit) per axis."""
        return tuple(
            np.fft.fftshift(np.fft.fftfreq(n, d=s))
            for n, s in zip(self.grid, self.spacing)
        )

    def freq_norm_grid(self):
        """||zeta||_2 per spectrum bin, in the shifted layout."""
        return functools.reduce(np.hypot, np.meshgrid(*self.freq_axes, indexing="ij"), 0.0)

    def freq_cell(self):
        """Volume of one frequency bin: prod of 1/(n_i * dx_i)."""
        out = 1.0
        for n, s in zip(self.grid, self.spacing):
            out /= n * s
        return out

    def cell_volume(self):
        """Volume of one sample cell: prod of spacings."""
        out = 1.0
        for s in self.spacing:
            out *= s
        return out

    def with_spectrum(self, new_spectrum):
        """Rebuild a signal from a modified (shifted-layout) spectrum."""
        raw = np.fft.ifftn(np.fft.ifftshift(new_spectrum))
        resid = float(np.max(np.abs(raw.imag)))
        scale = max(1.0, float(np.max(np.abs(raw.real))))
        if resid > _IMAG_TOL * scale:
            raise ValueError(
                f"modified spectrum is not conjugate-symmetric (imag residue {resid:.3e})"
            )
        return SpectralSignal(raw.real, self.spacing)

    def without(self, drop):
        """The signal with the bins of a shifted-layout boolean mask zeroed,
        each with its conjugate mirror (bin k -> -k mod N on every axis), so
        that it stays real; a copy when nothing is dropped."""
        drop = np.asarray(drop, dtype=bool)
        if drop.shape != self.grid:
            raise GridMismatch(f"mask shape {drop.shape} does not match the grid {self.grid}")
        mirror = np.roll(np.flip(np.fft.ifftshift(drop)), 1, axis=tuple(range(self.dim)))
        drop = drop | np.fft.fftshift(mirror)
        if not drop.any():
            return SpectralSignal(self.samples, self.spacing)
        return self.with_spectrum(np.where(drop, 0.0, self.spectrum))


def spectral_contribution(s: SpectralSignal) -> np.ndarray:
    """Per-bin contribution 2*pi*||zeta|| * |f_hat(zeta)| with the
    continuum-normalized magnitude (DFT x grid spacing)."""
    return 2.0 * np.pi * s.freq_norm_grid() * np.abs(s.spectrum) * s.cell_volume()


@overflow_raises("spectral_bound")
def spectral_lipschitz_bound(s: SpectralSignal) -> float:
    """Riemann sum of the per-frequency contributions; an upper bound for
    sup ||grad f|| when the samples resolve the signal."""
    return float(np.sum(spectral_contribution(s)) * s.freq_cell())


@overflow_raises("grid_sup")
def grid_gradient_sup(s: SpectralSignal) -> float:
    """sup of ||grad f||_2 measured by central differences on the grid;
    refuses a grid with fewer than 2 samples along an axis."""
    if min(s.grid) < 2:
        raise ValueError(f"grid gradient needs at least 2 samples per axis, got grid {s.grid}")
    grads = (np.gradient(s.samples, h, axis=k) for k, h in enumerate(s.spacing))
    return float(np.max(functools.reduce(np.hypot, grads, 0.0)))


@overflow_raises("directional transform")
def directional_transform(s: SpectralSignal, direction, t_grid) -> np.ndarray:
    """Transform values along the frequency line t * direction, by direct
    summation of f(x) exp(-2*pi*i*t*<direction, x>) times the cell volume.

    The phase is a product of per-axis factors, so T values of t take
    T*(n_x + n_y) exponentials and T*n_x*n_y multiply-adds; a 1-D signal is
    the n_y = 1 case (see ``_kernels.direct_dft``). A non-finite direction
    raises NotUnit and a non-finite t ValueError."""
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (s.dim,):
        raise NotUnit(f"direction must have length {s.dim}")
    if not np.all(np.isfinite(direction)):
        raise NotUnit(f"direction must be finite, got {direction.tolist()}")
    if abs(np.linalg.norm(direction) - 1.0) > 1e-10:
        raise NotUnit(f"direction norm {np.linalg.norm(direction):.12g} != 1")
    ts = np.asarray(t_grid, dtype=np.float64)
    bad = ts[~np.isfinite(ts)]
    if bad.size:
        raise ValueError(f"t must be finite, got {bad[0]}")
    axis_proj = tuple(
        d * (sp * np.arange(n)) for d, n, sp in zip(direction, s.grid, s.spacing)
    )
    flat = np.ascontiguousarray(s.samples.ravel(), dtype=np.float64)
    return _kernels.direct_dft(flat, axis_proj, ts, s.cell_volume())


def _ball_mask(s: SpectralSignal, center, radius):
    """Bins within radius of center; refuses a radius outside (0, inf) or a
    non-finite center."""
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    center = np.asarray(center, dtype=np.float64).reshape(-1)
    if center.shape != (s.dim,):
        raise ValueError(f"center must have length {s.dim}")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"center must be finite, got {center.tolist()}")
    grids = np.meshgrid(*s.freq_axes, indexing="ij")
    return functools.reduce(np.hypot, (f - c for f, c in zip(grids, center)), 0.0) <= radius


@overflow_raises("band removal", result=lambda out: out[1])
def band_remove(s: SpectralSignal, center, radius: float):
    """Zero every bin in the frequency ball and its conjugate mirror (so
    the signal stays real); returns (perturbed signal, eps) where eps is
    the L2 norm of the removed sample-domain content (cell-volume
    normalized, matching the continuum norm)."""
    perturbed = s.without(_ball_mask(s, center, radius))
    diff = s.samples - perturbed.samples
    eps = float(np.linalg.norm(diff.ravel()) * np.sqrt(s.cell_volume()))
    return perturbed, eps


@overflow_raises("band_bound")
def band_bound(s: SpectralSignal, center, radius: float, eps: float) -> float:
    """M_delta * eps * sqrt(mu(ball)) with M_delta the max per-bin
    contribution over the ball and mu the analytic ball measure
    (2*delta in 1-D, pi*delta^2 in 2-D)."""
    primary = _ball_mask(s, center, radius)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if radius >= BAND_VALIDITY_DELTA:
        warnings.warn(
            f"ball radius {radius:.4g} >= {BAND_VALIDITY_DELTA:.4g}; the small-band "
            "derivation no longer applies",
            stacklevel=2,
        )
    if not primary.any():
        raise EmptyBand(f"no spectrum bin within {radius} of {center}")
    m_delta = float(np.max(spectral_contribution(s)[primary]))
    measure = 2.0 * radius if s.dim == 1 else np.pi * radius**2
    return mi_gap_bound(m_delta, eps, measure)


@overflow_raises("band ratio", result=lambda out: out[0] if out[1] is None else out)
def band_ratio(s: SpectralSignal, perturbed: SpectralSignal, bound: float):
    """(sup |s - perturbed|, its ratio to ``bound`` or None for a 0 bound)."""
    sup = float(np.max(np.abs(s.samples - perturbed.samples)))
    return sup, (sup / bound if bound > 0 else None)


def mi_gap_bound(m_delta: float, eps: float, ball_measure: float) -> float:
    """Bound on the classifier information gap from removing the band."""
    if m_delta < 0 or eps < 0 or ball_measure < 0:
        raise ValueError("all inputs must be nonnegative")
    return m_delta * eps * float(np.sqrt(ball_measure))


def _ring_bins(dist, n: int):
    """Index among n uniform rings of [0, max(dist)], the maximum in ring
    n - 1; all-zero distances are ring 0."""
    d_max = float(dist.max())
    if d_max == 0.0:
        return np.zeros(dist.shape, dtype=np.int64)
    return np.minimum((dist / d_max * n).astype(np.int64), n - 1)


@overflow_raises("esd")
def radial_esd(s: SpectralSignal, n_rings: int) -> np.ndarray:
    """Mean |DFT|^2 per radial-frequency ring; rings partition [0, zeta_max]
    uniformly in the l2 radial metric. Empty rings report 0."""
    if s.dim != 2:
        raise GridMismatch("radial ESD is defined for 2-D signals")
    if n_rings < 1:
        raise ValueError("n_rings must be >= 1")
    idx = _ring_bins(s.freq_norm_grid(), n_rings).ravel()
    power = np.abs(s.spectrum.ravel()) ** 2
    sums = np.bincount(idx, weights=power, minlength=n_rings)
    counts = np.bincount(idx, minlength=n_rings)
    out = np.zeros(n_rings)
    nonzero = counts > 0
    out[nonzero] = sums[nonzero] / counts[nonzero]
    return out


@overflow_raises("snr", result=lambda out: out[out != np.inf])  # +inf: a silent noise ring
def snr(clean: SpectralSignal, noise: SpectralSignal, n_rings: int) -> np.ndarray:
    """Ring-wise ratio of clean to noise energy; +inf where the noise ring
    holds no energy."""
    if clean.grid != noise.grid or clean.spacing != noise.spacing:
        raise GridMismatch(
            f"grids differ: {clean.grid}/{clean.spacing} vs {noise.grid}/{noise.spacing}"
        )
    esd = {}
    for name, s in (("signal", clean), ("noise", noise)):
        try:
            esd[name] = radial_esd(s, n_rings)
        except FloatingPointError as exc:  # say which input's ring energies overflowed
            raise FloatingPointError(f"{name} {exc}") from None
    out = np.full(n_rings, np.inf)
    nonzero = esd["noise"] > 0
    out[nonzero] = esd["signal"][nonzero] / esd["noise"][nonzero]
    return out


# ---------------------------------------------------------------------------
# signal CSV format
# ---------------------------------------------------------------------------

def save_signal_csv(path, s: SpectralSignal):
    header = " ".join(f"{key}={_fmt(h)}" for key, h in zip(("dx", "dy"), s.spacing))
    with open(path, "w") as fh:
        _write_csv(fh, s.samples.reshape(s.grid[0], -1).tolist(), header="# " + header)


def load_signal_csv(path) -> SpectralSignal:
    with _open_text(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# dx=...' header line")
        fields = dict(
            tok.split("=", 1) for tok in header.lstrip("#").split() if "=" in tok
        )
        if "dx" not in fields:
            raise ValueError(f"{path}: header must contain dx=<spacing>")
        two_d = "dy" in fields
        spacing = []
        for key in ("dx", "dy") if two_d else ("dx",):
            try:
                value = float(fields[key])
            except ValueError:
                value = np.nan
            if not 0 < value < np.inf:
                raise ValueError(f"{path}:1: {key}={fields[key]} is not a positive finite spacing")
            spacing.append(value)
        data = _read_numbers(path, fh, start=2, width=None if two_d else 1)
    if not data.size:
        raise ValueError(f"{path}: no samples")
    return SpectralSignal(data if two_d else data[:, 0], spacing)
