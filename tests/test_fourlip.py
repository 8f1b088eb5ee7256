import numpy as np
import pytest

from lipkit import cli
from lipkit.errors import EmptyBand, GridMismatch, NotUnit
from lipkit.fourlip import (
    SpectralSignal,
    band_bound,
    band_ratio,
    band_remove,
    directional_transform,
    grid_gradient_sup,
    load_signal_csv,
    mi_gap_bound,
    radial_esd,
    save_signal_csv,
    snr,
    spectral_contribution,
    spectral_lipschitz_bound,
)


def gaussian_2d(a=1.0, half_width=8.0, n=128):
    h = 2 * half_width / n
    coords = -half_width + h * np.arange(n)
    x, y = np.meshgrid(coords, coords, indexing="ij")
    return SpectralSignal(np.exp(-a * (x**2 + y**2)), (h, h))


def sine_1d(freq=1.0, amp=1.0, n=4096, period=16.0):
    h = period / n
    x = h * np.arange(n)
    return SpectralSignal(amp * np.sin(2 * np.pi * freq * x), (h,))


class TestSpectralSignal:
    def test_parseval(self, rng):
        for shape, spacing in (((256,), (0.05,)), ((32, 48), (0.1, 0.2))):
            s = SpectralSignal(rng.standard_normal(shape), spacing)
            sample_energy = np.sum(np.abs(s.samples) ** 2) * s.cell_volume()
            spec_energy = np.sum(np.abs(s.spectrum) ** 2) * s.cell_volume() ** 2 * s.freq_cell() * np.prod(shape) * s.freq_cell()
            # direct statement: sum |f|^2 dx == sum |f_hat_cont|^2 dzeta
            fhat = np.abs(s.spectrum) * s.cell_volume()
            spec_energy = np.sum(fhat**2) * s.freq_cell()
            assert spec_energy == pytest.approx(sample_energy, rel=1e-8)

    def test_conjugate_symmetry(self, rng):
        s = SpectralSignal(rng.standard_normal((16, 16)), (1.0, 1.0))
        spec = np.fft.ifftshift(s.spectrum)
        mirrored = np.roll(np.flip(spec), shift=(1, 1), axis=(0, 1))
        assert np.abs(spec - np.conj(mirrored)).max() <= 1e-10 * np.abs(spec).max()

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralSignal(np.zeros((2, 2, 2)), 1.0)
        with pytest.raises(ValueError):
            SpectralSignal(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            SpectralSignal(np.ones(4), -1.0)


class TestSpectralContribution:
    def test_constant_signal_vanishes(self):
        s = SpectralSignal(3.0 * np.ones(64), (0.25,))
        assert np.abs(spectral_contribution(s)).max() <= 1e-12

    def test_single_sine_two_bins_of_pi(self):
        s = sine_1d(freq=1.0, amp=1.0, n=4096, period=16.0)
        k = spectral_contribution(s) * s.freq_cell()
        nonzero = np.sort(k[k > 1e-9])
        # two mirrored bins at zeta = +-1, each pi, total 2*pi
        assert nonzero.size == 2
        np.testing.assert_allclose(nonzero, [np.pi, np.pi], rtol=1e-10)
        assert spectral_lipschitz_bound(s) == pytest.approx(2 * np.pi, rel=1e-10)

    def test_multi_sine_bound_dominates_gradient(self):
        rng = np.random.default_rng(0)
        n, period = 50_000, 10.0
        h = period / n
        x = -5.0 + h * np.arange(n)
        amps = rng.uniform(0.1, 1.0, 10)
        freqs = np.round(rng.uniform(0.1, 5.0, 10) / 0.1) * 0.1  # on-bin
        f = sum(a * np.sin(2 * np.pi * w * x) for a, w in zip(amps, freqs))
        s = SpectralSignal(f, (h,))
        assert grid_gradient_sup(s) <= spectral_lipschitz_bound(s)


class TestSpectralBound:
    def test_zero_signal(self):
        assert spectral_lipschitz_bound(SpectralSignal(np.zeros((8, 8)), (1.0, 1.0))) == 0.0

    def test_gaussian_bound_and_sup(self):
        s = gaussian_2d(a=1.0, n=256)
        bound = spectral_lipschitz_bound(s)
        sup = grid_gradient_sup(s)
        assert bound == pytest.approx(np.sqrt(np.pi), rel=0.02)
        assert sup == pytest.approx(np.sqrt(2 / np.e), rel=0.01)
        assert sup <= bound

    def test_bound_dominates_gradient_on_smooth_fixtures(self, rng):
        # random band-limited smooth signal
        n = 128
        spec = np.zeros(n, dtype=complex)
        for k in range(1, 8):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            spec[k] = c
            spec[-k] = np.conj(c)
        f = np.fft.ifft(spec).real
        s = SpectralSignal(f, (1.0 / n,))
        assert grid_gradient_sup(s) <= spectral_lipschitz_bound(s) * 1.02

    @pytest.mark.parametrize("shape", [(1,), (1, 5), (5, 1)])
    def test_gradient_needs_two_samples_per_axis(self, shape):
        with pytest.raises(ValueError, match="at least 2 samples per axis"):
            grid_gradient_sup(SpectralSignal(np.ones(shape), (1.0,) * len(shape)))


class TestDirectionalTransform:
    def test_separable_matches_marginal(self, rng):
        nx_, ny_ = 32, 24
        gx = rng.standard_normal(nx_)
        gy = rng.standard_normal(ny_)
        s = SpectralSignal(np.outer(gx, gy), (0.5, 0.25))
        marg = SpectralSignal(gx * np.sum(gy) * 0.25, (0.5,))
        ts = np.fft.fftfreq(nx_, d=0.5)[:5]
        got = directional_transform(s, [1.0, 0.0], ts)
        expect_full = np.fft.fft(marg.samples) * 0.5
        np.testing.assert_allclose(got, expect_full[:5], atol=1e-10)

    def test_dc_value(self, rng):
        s = SpectralSignal(rng.standard_normal((8, 8)), (0.3, 0.7))
        direction = np.array([0.6, 0.8])
        got = directional_transform(s, direction, [0.0])[0]
        assert got == pytest.approx(np.sum(s.samples) * 0.3 * 0.7, abs=1e-12)

    def test_rotational_symmetry(self):
        s = gaussian_2d(a=1.0, n=64)
        ts = np.array([0.25, 0.5, 1.0])
        v1 = directional_transform(s, [1.0, 0.0], ts)
        v2 = directional_transform(s, [0.0, 1.0], ts)
        np.testing.assert_allclose(np.abs(v1), np.abs(v2), atol=1e-8)

    def test_not_unit(self):
        s = gaussian_2d(n=16)
        with pytest.raises(NotUnit):
            directional_transform(s, [1.0, 1.0], [0.0])

    @pytest.mark.parametrize("direction", [[np.nan, 0.0], [1.0, np.inf]])
    def test_non_finite_direction(self, direction):
        with pytest.raises(NotUnit, match="direction must be finite"):
            directional_transform(gaussian_2d(n=16), direction, [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_t(self, bad):
        with pytest.raises(ValueError, match=f"t must be finite, got {bad}"):
            directional_transform(gaussian_2d(n=16), [0.6, 0.8], [0.0, bad])

    def test_1d_matches_fft_bins(self, rng):
        s = SpectralSignal(rng.standard_normal(32), 0.25)
        # t = k / (n dx) lands on DFT bin k
        got = directional_transform(s, [1.0], np.arange(6) / 8.0)
        np.testing.assert_allclose(got, np.fft.fft(s.samples)[:6] * 0.25, atol=1e-12)

    def test_1d_is_the_one_column_grid(self, rng):
        # a 1-D signal runs through the 2-D sum, so the two agree bit for bit
        samples = rng.standard_normal(257)
        ts = np.linspace(-5.0, 60.0, 64)
        line = directional_transform(SpectralSignal(samples, 0.01), [1.0], ts)
        column = directional_transform(SpectralSignal(samples[:, None], (0.01, 1.0)), [1.0, 0.0], ts)
        np.testing.assert_array_equal(line, column)


class TestBandRemove:
    def test_no_bins_identity(self):
        s = sine_1d(n=256, period=16.0)
        # ball far outside the frequency range
        pert, eps = band_remove(s, [1000.0], 0.001)
        assert eps == 0.0
        np.testing.assert_array_equal(pert.samples, s.samples)

    def test_full_removal_of_sine(self):
        s = sine_1d(freq=1.0, n=512, period=16.0)
        pert, eps = band_remove(s, [1.0], 0.2)
        assert np.abs(pert.samples).max() <= 1e-12
        continuum_norm = np.linalg.norm(s.samples) * np.sqrt(s.cell_volume())
        assert eps == pytest.approx(continuum_norm, rel=1e-12)

    def test_idempotent(self, rng):
        s = SpectralSignal(rng.standard_normal((32, 32)), (0.25, 0.25))
        once, _ = band_remove(s, [0.5, 0.0], 0.3)
        twice, eps2 = band_remove(once, [0.5, 0.0], 0.3)
        np.testing.assert_allclose(once.samples, twice.samples, atol=1e-14)
        assert eps2 <= 1e-14

    def test_output_real(self, rng):
        s = SpectralSignal(rng.standard_normal((16, 16)), (0.5, 0.5))
        pert, _ = band_remove(s, [0.31, -0.2], 0.4)
        # with_spectrum would have raised on imaginary residue > 1e-10
        assert np.isrealobj(pert.samples)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            band_remove(sine_1d(), [1.0], 0.0)

    @pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            band_remove(sine_1d(), [1.0], radius)

    @pytest.mark.parametrize("center", [[np.nan], [np.inf]])
    def test_center_validation(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            band_remove(sine_1d(), center, 0.1)


class TestWithout:
    @pytest.mark.parametrize("shape", [(7,), (8,), (7, 9), (8, 6), (8, 8), (5, 8)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_result_is_conjugate_symmetric(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        s = SpectralSignal(rng.standard_normal(shape), 0.5)
        # bin k mirrors to -k mod N on every axis, written out index by index
        mirror = np.ix_(*[(-np.arange(n)) % n for n in shape])
        full = np.fft.ifftshift(s.spectrum)
        scale = np.max(np.abs(full))
        for _ in range(20):
            drop = rng.random(shape) < 0.3
            out = np.fft.ifftshift(s.without(drop).spectrum)
            assert np.max(np.abs(out - np.conj(out[mirror]))) <= 1e-12 * scale
            dropped = np.fft.ifftshift(drop)
            dropped |= dropped[mirror]
            assert np.max(np.abs(out[dropped]), initial=0.0) <= 1e-12 * scale
            np.testing.assert_allclose(out[~dropped], full[~dropped], rtol=0, atol=1e-12 * scale)

    def test_nothing_dropped_is_a_copy(self, rng):
        s = SpectralSignal(rng.standard_normal((6, 5)), 1.0)
        np.testing.assert_array_equal(s.without(np.zeros((6, 5), bool)).samples, s.samples)

    def test_mask_shape_must_match_the_grid(self, rng):
        s = SpectralSignal(rng.standard_normal((6, 5)), 1.0)
        with pytest.raises(GridMismatch, match=r"mask shape \(1, 5\)"):
            s.without(np.ones((1, 5), bool))


class TestNyquistBand:
    """A ball reaching past the Nyquist row loses only its own bins and their
    index mirrors (k -> -k mod N), never a Nyquist bin that only the ball
    around -center reaches."""

    def test_2d_ball_near_nyquist_stays_real(self, tmp_path):
        s = SpectralSignal(np.random.default_rng(0).standard_normal((8, 8)), 1.0)
        pert, eps = band_remove(s, [0.45, 0.125], 0.1)
        assert np.isrealobj(pert.samples) and eps > 0
        path = tmp_path / "r8.csv"
        save_signal_csv(path, s)
        code = cli.main(["fourier", "--signal", str(path), "--band-center", "0.45,0.125",
                         "--band-radius", "0.1"])
        assert code == 0

    def test_1d_nyquist_bin_is_kept(self):
        s = SpectralSignal(np.random.default_rng(0).standard_normal(8), 1.0)
        pert, eps = band_remove(s, [0.45], 0.1)
        assert eps == 0.2505958924689197  # 0.26608307447139445 with the -center ball
        # shifted index 0 is the Nyquist bin -0.5
        assert abs(pert.spectrum[0] - s.spectrum[0]) <= 1e-12


class TestBandBound:
    def test_zero_eps(self):
        s = gaussian_2d(n=32)
        assert band_bound(s, [0.5, 0.0], 0.2, eps=0.0) == 0.0

    def test_dead_zone_zero_bound(self):
        s = sine_1d(freq=1.0, n=512, period=16.0)
        # bins exist near zeta = 3 but the band-limited signal has no content
        # there beyond FFT roundoff
        scale = spectral_contribution(s).max()
        assert band_bound(s, [3.0], 0.2, eps=0.5) <= 1e-12 * scale

    @pytest.mark.parametrize("radius", [0.0, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            band_bound(gaussian_2d(n=32), [0.5, 0.0], radius, eps=0.1)

    def test_center_validation(self):
        with pytest.raises(ValueError, match="center must be finite"):
            band_bound(gaussian_2d(n=32), [0.5, np.nan], 0.2, eps=0.1)

    def test_empty_band_raises(self):
        s = sine_1d(n=64, period=16.0)
        with pytest.raises(EmptyBand):
            band_bound(s, [1000.0], 0.001, eps=0.1)

    def test_validity_warning_threshold(self):
        s = gaussian_2d(n=32)
        with pytest.warns(UserWarning, match="small-band"):
            band_bound(s, [0.5, 0.0], 0.6, eps=0.1)

    def test_bound_formula(self):
        s = gaussian_2d(a=1.0, n=128)
        delta, eps = 0.1, 0.25
        got = band_bound(s, [1.0, 0.0], delta, eps)
        contributions = spectral_contribution(s)
        axes = s.freq_axes
        fx, fy = np.meshgrid(axes[0], axes[1], indexing="ij")
        ball = np.hypot(fx - 1.0, fy) <= delta
        expect = contributions[ball].max() * eps * np.sqrt(np.pi * delta**2)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_m_delta_matches_analytic_gaussian(self):
        # closed-form contribution 2*pi^2*r*exp(-pi^2 r^2) of the unit
        # Gaussian, evaluated at the bin frequencies inside the ball
        s = gaussian_2d(a=1.0, n=256, half_width=8.0)
        delta = 0.1
        got = band_bound(s, [1.0, 0.0], delta, eps=1.0)
        axes = s.freq_axes
        fx, fy = np.meshgrid(axes[0], axes[1], indexing="ij")
        ball = np.hypot(fx - 1.0, fy) <= delta
        radii = np.hypot(fx, fy)[ball]
        k_analytic = (2 * np.pi**2) * radii * np.exp(-np.pi**2 * radii**2)
        expect = k_analytic.max() * np.sqrt(np.pi) * delta
        assert got == pytest.approx(expect, rel=0.02)


class TestMiGapBound:
    def test_zero_inputs(self):
        assert mi_gap_bound(0.0, 1.0, 4.0) == 0.0
        assert mi_gap_bound(1.0, 0.0, 4.0) == 0.0

    def test_arithmetic(self):
        assert mi_gap_bound(1.0, 0.1, 4.0) == pytest.approx(0.2)

    def test_equals_band_bound(self):
        s = gaussian_2d(n=64)
        delta, eps = 0.2, 0.3
        contributions = spectral_contribution(s)
        axes = s.freq_axes
        fx, fy = np.meshgrid(axes[0], axes[1], indexing="ij")
        ball = np.hypot(fx - 0.5, fy) <= delta
        m_delta = contributions[ball].max()
        assert mi_gap_bound(m_delta, eps, np.pi * delta**2) == pytest.approx(
            band_bound(s, [0.5, 0.0], delta, eps)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            mi_gap_bound(-1.0, 1.0, 1.0)


class TestRadialEsdAndSnr:
    def test_flat_spectrum_flat_esd(self):
        # a unit impulse has |F| = 1 at every bin
        f = np.zeros((16, 16))
        f[0, 0] = 1.0
        esd = radial_esd(SpectralSignal(f, (1.0, 1.0)), 4)
        np.testing.assert_allclose(esd, 1.0, atol=1e-12)

    def test_clean_equals_noise(self, rng):
        f = rng.standard_normal((24, 24))
        s = SpectralSignal(f, (1.0, 1.0))
        np.testing.assert_allclose(snr(s, s, 6), 1.0, atol=1e-12)

    def test_matches_ring_average_oracle(self, rng):
        # independent mean computation per ring, slow elementwise loop;
        # ring membership follows the documented floor(r / r_max * n) rule
        s = SpectralSignal(rng.standard_normal((20, 20)), (0.5, 0.5))
        n_rings = 5
        esd = radial_esd(s, n_rings)
        radial = s.freq_norm_grid().ravel()
        r_max = radial.max()
        power = np.abs(s.spectrum.ravel()) ** 2
        sums, counts = [0.0] * n_rings, [0] * n_rings
        for r, p in zip(radial, power):
            ring = min(int(r / r_max * n_rings), n_rings - 1)
            sums[ring] += p
            counts[ring] += 1
        for ring in range(n_rings):
            if counts[ring]:
                assert esd[ring] == pytest.approx(sums[ring] / counts[ring], rel=1e-12)

    def test_gaussian_plus_noise_snr_decreasing(self, rng):
        clean = gaussian_2d(a=0.5, n=64)
        noise = SpectralSignal(0.01 * rng.standard_normal((64, 64)), clean.spacing)
        ratios = snr(clean, noise, 6)
        assert ratios[0] > ratios[2] > ratios[5]

    def test_infinite_sentinel(self):
        clean = gaussian_2d(n=16)
        silent = SpectralSignal(np.zeros((16, 16)), clean.spacing)
        assert np.all(np.isinf(snr(clean, silent, 3)))

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            snr(gaussian_2d(n=16), gaussian_2d(n=32), 3)
        with pytest.raises(GridMismatch):
            radial_esd(sine_1d(), 3)


class TestBandRatio:
    def test_sup_diff_and_its_ratio_to_the_bound(self):
        s = gaussian_2d(n=32)
        pert, eps = band_remove(s, [0.5, 0.0], 0.2)
        bound = band_bound(s, [0.5, 0.0], 0.2, eps)
        sup = float(np.max(np.abs(s.samples - pert.samples)))
        assert band_ratio(s, pert, bound) == (sup, sup / bound)

    def test_zero_bound_has_no_ratio(self):
        s = gaussian_2d(n=32)
        assert band_ratio(s, s, 0.0) == (0.0, None)

    def test_ratio_overflowing_names_it(self):
        s = gaussian_2d(n=32)
        pert, _ = band_remove(s, [0.5, 0.0], 0.2)
        with pytest.raises(FloatingPointError, match="^band ratio: overflow in its float64 arithmetic$"):
            band_ratio(s, pert, 5e-324)


class TestOverflow:
    """A float64 overflow raises FloatingPointError naming the quantity,
    where numpy would warn and return inf or NaN."""

    HUGE = SpectralSignal([[1e308, -1e308], [-1e308, 1e308]], (1.0, 1.0))
    TINY = SpectralSignal([[1.0, -1.0], [-1.0, 1.0]], (1.0, 1.0))

    @pytest.mark.parametrize(
        "compute, name",
        [
            (spectral_lipschitz_bound, "spectral_bound"),
            (grid_gradient_sup, "grid_sup"),
            (lambda s: radial_esd(s, 2), "esd"),
            # the ring energies overflow first, and snr names whose they are
            (lambda s: snr(s, TestOverflow.TINY, 2), "signal esd"),
            (lambda s: snr(TestOverflow.TINY, s, 2), "noise esd"),
            (lambda s: directional_transform(s, [0.6, 0.8], [0.0, 1.0]), "directional transform"),
            (lambda s: band_remove(s, [0.0, 0.0], 0.5), "band removal"),
        ],
        ids=["bound", "grid-sup", "esd", "snr-signal", "snr-noise", "direction", "band-remove"],
    )
    def test_operation_overflow_names_the_quantity(self, compute, name):
        with pytest.raises(FloatingPointError, match=f"^{name}: overflow in its float64 arithmetic$"):
            compute(self.HUGE)

    def test_sum_overflowing_without_a_warning_is_caught_in_the_result(self):
        # each ring power is finite; np.bincount adds them to inf silently
        rng = np.random.default_rng(0)
        s = SpectralSignal(3e152 * rng.standard_normal((8, 8)), (1.0, 1.0))
        with pytest.raises(FloatingPointError, match="^esd: overflow in its float64 arithmetic$"):
            radial_esd(s, 1)


class TestSignalCsv:
    def test_round_trip_1d(self, tmp_path, rng):
        s = SpectralSignal(rng.standard_normal(17), (0.37,))
        path = tmp_path / "sig.csv"
        save_signal_csv(path, s)
        loaded = load_signal_csv(path)
        assert loaded.spacing == s.spacing
        np.testing.assert_array_equal(loaded.samples, s.samples)

    def test_round_trip_2d(self, tmp_path, rng):
        s = SpectralSignal(rng.standard_normal((5, 7)), (0.25, 0.5))
        path = tmp_path / "sig2.csv"
        save_signal_csv(path, s)
        loaded = load_signal_csv(path)
        assert loaded.spacing == s.spacing
        np.testing.assert_array_equal(loaded.samples, s.samples)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="header"):
            load_signal_csv(path)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("# dx=1\n1,2\n3,4\n5\n", 2),  # 1-D rows hold exactly one value
            ("# dx=1 dy=1\n1,2\n\n3\n", 4),  # ragged 2-D row after a blank line
        ],
        ids=["1d-two-values", "2d-ragged"],
    )
    def test_bad_row_exits_2_naming_the_line(self, tmp_path, capsys, text, lineno):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert cli.main(["fourier", "--signal", str(path), "--bound"]) == 2
        assert f"{path}:{lineno}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header", ["# dx=nan", "# dx=inf", "# dx=abc"], ids=["nan", "inf", "abc"]
    )
    def test_bad_spacing_exits_2_naming_line_1(self, tmp_path, capsys, header):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1\n2\n")
        assert cli.main(["fourier", "--signal", str(path), "--bound"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:1: " in captured.err
