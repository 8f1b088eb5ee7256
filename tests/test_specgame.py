import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lipkit.errors import (
    CallbackFailure,
    DegenerateWeights,
    GridMismatch,
    LipkitError,
    NegativeShapley,
    PlayerCountTooLarge,
)
from lipkit import specgame
from lipkit.fourlip import SpectralSignal
from lipkit.specgame import (
    CoalitionGame,
    band_partition,
    coalition_filter,
    importance_score,
    load_game_csv,
    save_game_csv,
    shapley_exact,
    shapley_mc,
)


def permutation_brute_force(values, m):
    """Average marginal over all m! orders, in exact rational arithmetic."""
    totals = [Fraction(0)] * m
    count = 0
    for order in itertools.permutations(range(m)):
        mask = 0
        prev = Fraction(values[0])
        for player in order:
            mask |= 1 << player
            cur = Fraction(values[mask])
            totals[player] += cur - prev
            prev = cur
        count += 1
    return [t / count for t in totals]


def shapley_mc_loop(value_fn, n_players, n_perms, seed=0):
    """One value_fn call per marginal, one permutation at a time: the double
    loop shapley_mc replaced, kept as the reference for its block form."""
    rng = np.random.default_rng(seed)
    marginals = np.empty((n_perms, n_players))
    for t in range(n_perms):
        order = rng.permutation(n_players)
        mask = 0
        prev = float(value_fn(0))
        for player in order:
            mask |= 1 << int(player)
            cur = float(value_fn(mask))
            marginals[t, player] = cur - prev
            prev = cur
    psi = marginals.mean(axis=0)
    if n_perms == 1:
        return psi, math.inf  # one sample estimates no variance
    worst_var = float(np.max(marginals.var(axis=0, ddof=1)))
    return psi, 2.0 ** (n_players - 1) * math.sqrt(worst_var / n_perms)


def wiggly_worth(mask):
    """A deterministic, non-additive worth, so marginals depend on the order."""
    return math.sin(0.37 * mask) + (mask % 7) * 1e-3


class _WigglyValues:
    """``wiggly_worth`` as a lookup table computed on demand, for player
    counts whose 2^M table cannot be stored."""

    def __getitem__(self, masks):
        flat = [float(wiggly_worth(int(mask))) for mask in masks.ravel()]
        return np.array(flat).reshape(masks.shape)


class _ComputedGame(CoalitionGame):
    def __post_init__(self):
        pass  # the values are computed on lookup, so there is no table to check


def wiggly_game(m):
    if m <= 16:
        return CoalitionGame.from_callback(wiggly_worth, m)
    return _ComputedGame(m, _WigglyValues())


class TestBandPartition:
    def test_single_band(self, rng):
        s = SpectralSignal(rng.standard_normal((6, 6)), (1.0, 1.0))
        assert not band_partition(s, 1).any()

    def test_eight_by_eight_ring_counts(self):
        s = SpectralSignal(np.ones((8, 8)), (1.0, 1.0))
        bands = band_partition(s, 4)
        np.testing.assert_array_equal(np.bincount(bands.ravel()), [4, 12, 20, 28])

    def test_center_bin_band_zero(self, rng):
        s = SpectralSignal(rng.standard_normal((9, 9)), (1.0, 1.0))
        bands = band_partition(s, 4)
        assert bands[4, 4] == 0  # DC sits at the center after the shift

    def test_every_bin_assigned_once(self, rng):
        s = SpectralSignal(rng.standard_normal((10, 14)), (1.0, 0.5))
        bands = band_partition(s, 5)
        assert bands.min() >= 0 and bands.max() <= 4
        assert bands.shape == (10, 14)

    def test_requires_2d(self):
        with pytest.raises(GridMismatch):
            band_partition(SpectralSignal(np.ones(8), (1.0,)), 2)


class TestCoalitionFilter:
    def test_full_mask_identity(self, rng):
        s = SpectralSignal(rng.standard_normal((8, 8)), (1.0, 1.0))
        bands = band_partition(s, 4)
        out = coalition_filter(s, bands, keep=0b1111)
        np.testing.assert_array_equal(out.samples, s.samples)

    def test_empty_mask_zero(self, rng):
        s = SpectralSignal(rng.standard_normal((8, 8)), (1.0, 1.0))
        bands = band_partition(s, 4)
        assert not coalition_filter(s, bands, keep=0).samples.any()

    def test_dc_survives_band_zero(self):
        n = 16
        x = np.arange(n)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        f = 2.5 + np.cos(2 * np.pi * 7 * xx / n)  # DC plus near-Nyquist content
        s = SpectralSignal(f, (1.0, 1.0))
        bands = band_partition(s, 4)
        kept = coalition_filter(s, bands, keep=0b0001)
        np.testing.assert_allclose(kept.samples, 2.5, atol=1e-12)

    def test_composition_is_intersection(self, rng):
        s = SpectralSignal(rng.standard_normal((12, 12)), (1.0, 1.0))
        bands = band_partition(s, 4)
        a, b = 0b1011, 0b1101
        composed = coalition_filter(coalition_filter(s, bands, a), bands, b)
        direct = coalition_filter(s, bands, a & b)
        np.testing.assert_allclose(composed.samples, direct.samples, atol=1e-12)

    def test_filtered_output_real(self, rng):
        s = SpectralSignal(rng.standard_normal((8, 8)), (1.0, 1.0))
        bands = band_partition(s, 3)
        for keep in range(8):
            out = coalition_filter(s, bands, keep)
            assert np.isrealobj(out.samples)


class TestCoalitionGame:
    def test_table_must_be_complete(self):
        with pytest.raises(ValueError):
            CoalitionGame(3, np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CoalitionGame(1, [0.0, bad])

    def test_from_callback(self):
        g = CoalitionGame.from_callback(lambda m: float(m), 2)
        np.testing.assert_array_equal(g.values, [0.0, 1.0, 2.0, 3.0])


class TestShapleyExact:
    def test_additive_game(self):
        g = CoalitionGame.from_callback(lambda m: float(bin(m).count("1")), 3)
        np.testing.assert_allclose(shapley_exact(g), [1.0, 1.0, 1.0])

    def test_dummy_player(self):
        g = CoalitionGame.from_callback(
            lambda m: 2.0 * ((m >> 0) & 1) + 0.25 * ((m >> 2) & 1), 3
        )
        psi = shapley_exact(g)
        assert psi[1] == 0.0

    def test_two_player_unanimity(self):
        g = CoalitionGame.from_callback(lambda m: 1.0 if m == 3 else 0.0, 2)
        np.testing.assert_allclose(shapley_exact(g), [0.5, 0.5])

    def test_matches_permutation_brute_force(self, rng):
        for m in (2, 3, 4, 5):
            values = rng.standard_normal(1 << m)
            psi = shapley_exact(CoalitionGame(m, values))
            brute = permutation_brute_force(values, m)
            for got, expect in zip(psi, brute):
                assert got == pytest.approx(float(expect), abs=1e-12)

    def test_efficiency(self, rng):
        values = rng.standard_normal(1 << 6)
        psi = shapley_exact(CoalitionGame(6, values))
        assert psi.sum() == pytest.approx(values[-1] - values[0], abs=1e-10)

    def test_large_worths_with_a_small_total_are_accepted(self):
        # rounding in the kernel's sums scales with the worths, not with
        # v(N) - v(empty) = 1: the drift here is 2.8e-9
        values = 1e8 * np.random.default_rng(0).standard_normal(1 << 12)
        values[0], values[-1] = 0.0, 1.0
        psi = shapley_exact(CoalitionGame(12, values))
        assert abs(psi.sum() - 1.0) < 1e-8

    def test_a_kernel_off_by_more_than_rounding_is_refused(self, monkeypatch, rng):
        m = 5
        values = rng.standard_normal(1 << m)
        # scale = sum_i sum_(S without i) w_|S| (|v(S + i)| + |v(S)|)
        weights = specgame._shapley_weights(m)
        scale = sum(weights[bin(s).count("1")] * (abs(values[s | 1 << i]) + abs(values[s]))
                    for i in range(m) for s in range(1 << m) if not s >> i & 1)
        accumulate = specgame._kernels.shapley_accumulate

        def shifted(*args):
            psi = accumulate(*args)
            psi[2] += 1e-6 * scale
            return psi

        monkeypatch.setattr(specgame._kernels, "shapley_accumulate", shifted)
        with pytest.raises(LipkitError, match=f"efficiency violated by {1e-6 * scale:.3e}$"):
            shapley_exact(CoalitionGame(m, values))

    def test_linearity(self, rng):
        u = rng.standard_normal(1 << 4)
        v = rng.standard_normal(1 << 4)
        lhs = shapley_exact(CoalitionGame(4, u + v))
        rhs = shapley_exact(CoalitionGame(4, u)) + shapley_exact(CoalitionGame(4, v))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_symmetry_under_player_swap(self, rng):
        # swapping two players' roles in the table swaps their values
        m = 4
        values = rng.standard_normal(1 << m)

        def swap01(mask):
            b0, b1 = mask & 1, (mask >> 1) & 1
            return (mask & ~3) | (b0 << 1) | b1

        swapped = np.array([values[swap01(mask)] for mask in range(1 << m)])
        psi = shapley_exact(CoalitionGame(m, values))
        psi_swapped = shapley_exact(CoalitionGame(m, swapped))
        assert psi_swapped[0] == pytest.approx(psi[1], abs=1e-12)
        assert psi_swapped[1] == pytest.approx(psi[0], abs=1e-12)

    def test_player_cap(self):
        with pytest.raises(PlayerCountTooLarge):
            shapley_exact(CoalitionGame(17, np.zeros(1 << 17)))


class TestShapleyMc:
    def test_additive_game_exact_with_zero_variance(self):
        psi, err = shapley_mc(lambda m: float(bin(m).count("1")), 3, n_perms=20, seed=0)
        np.testing.assert_allclose(psi, 1.0, atol=1e-12)
        assert err == 0.0

    def test_converges_to_exact(self, rng):
        values = rng.standard_normal(8)
        exact = shapley_exact(CoalitionGame(3, values))
        psi, err = shapley_mc(lambda m: values[m], 3, n_perms=10_000, seed=5)
        assert np.abs(psi - exact).max() <= err
        assert np.abs(psi - exact).max() <= 0.05

    def test_single_permutation_telescopes(self, rng):
        values = rng.standard_normal(16)
        psi, err = shapley_mc(lambda m: values[m], 4, n_perms=1, seed=2)
        assert psi.sum() == pytest.approx(values[15] - values[0], abs=1e-12)
        assert err == math.inf  # one sample estimates no variance

    def test_callback_failure(self):
        def bad(mask):
            raise KeyError(mask)

        with pytest.raises(CallbackFailure):
            shapley_mc(bad, 3, n_perms=2)

    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "block-7"])
    @pytest.mark.parametrize("n_perms", [1, 2, 1000])
    @pytest.mark.parametrize("m", [1, 3, 16, 40])
    def test_bit_identical_to_the_loop(self, monkeypatch, m, n_perms, block):
        if block is not None:
            monkeypatch.setattr(specgame, "_MC_BLOCK", block)
        psi, err = shapley_mc(wiggly_worth, m, n_perms, seed=11)
        psi_ref, err_ref = shapley_mc_loop(wiggly_worth, m, n_perms, seed=11)
        if n_perms <= specgame._MC_BLOCK:
            assert np.array_equal(psi, psi_ref)
            assert err == err_ref
        else:
            # blocks are merged by the pairwise moment update, which may
            # round differently from the two-pass mean and variance; with
            # one player every marginal is the same, the variance is 0, and
            # the two-pass reference leaves rounding noise of order 1e-18
            np.testing.assert_allclose(psi, psi_ref, rtol=1e-12, atol=0)
            assert err == pytest.approx(err_ref, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "block-7"])
    @pytest.mark.parametrize("n_perms", [1, 2, 1000])
    @pytest.mark.parametrize("m", [1, 3, 16, 40])
    def test_table_matches_the_callable(self, monkeypatch, m, n_perms, block):
        if block is not None:
            monkeypatch.setattr(specgame, "_MC_BLOCK", block)
        psi, err = shapley_mc(wiggly_game(m), m, n_perms, seed=11)
        psi_ref, err_ref = shapley_mc(wiggly_worth, m, n_perms, seed=11)
        assert np.array_equal(psi, psi_ref)
        assert err == err_ref

    def test_table_player_count_must_match(self):
        with pytest.raises(ValueError, match="game has 3 players, but n_players is 4"):
            shapley_mc(wiggly_game(3), 4, n_perms=10)

    @pytest.mark.parametrize("path", ["table", "callable"])
    def test_memory_does_not_grow_with_n_perms(self, path):
        game = CoalitionGame.from_callback(wiggly_worth, 8)
        worth = game if path == "table" else (lambda mask: game.values[mask])

        def peak(n_perms):
            tracemalloc.start()
            try:
                shapley_mc(worth, 8, n_perms, seed=4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(100_000), peak(1_000_000)
        assert large <= 1.1 * small, (small, large)

    def test_one_call_per_distinct_coalition(self):
        masks = []

        def worth(mask):
            masks.append(mask)
            return float(mask)

        shapley_mc(worth, 3, n_perms=10_000, seed=0)
        assert len(masks) <= 8
        assert len(set(masks)) == len(masks)

    def test_sixty_three_players(self):
        masks = []

        def worth(mask):
            masks.append(mask)
            return wiggly_worth(mask)

        psi, _ = shapley_mc(worth, 63, n_perms=20, seed=1)
        full = (1 << 63) - 1
        assert min(masks) == 0 and max(masks) == full
        assert all(type(mask) is int for mask in masks)
        assert psi.sum() == pytest.approx(wiggly_worth(full) - wiggly_worth(0), abs=1e-12)

    def test_sixty_four_players_refused(self):
        with pytest.raises(PlayerCountTooLarge):
            shapley_mc(wiggly_worth, 64, n_perms=1)

    @pytest.mark.parametrize("m", [0, -1])
    def test_player_count_below_one_refused(self, m):
        with pytest.raises(ValueError, match="at least 1"):
            shapley_mc(wiggly_worth, m, n_perms=1)

    def test_callback_failure_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(specgame, "_MC_BLOCK", 3)

        def worth(mask):
            if mask == 0b11:
                raise ZeroDivisionError(mask)
            return 0.0

        with pytest.raises(CallbackFailure, match="mask 3") as exc:
            shapley_mc(worth, 2, n_perms=10, seed=0)
        assert isinstance(exc.value.__cause__, ZeroDivisionError)


class TestImportanceScore:
    def test_uniform_is_zero(self):
        for m in (2, 5, 9):
            assert importance_score(np.ones(m) / m) == 0.0

    def test_one_hot_is_one(self):
        beta = np.array([1.0, 0.0, 0.0])
        psi = np.array([1.0, 0.0, 0.0])
        assert importance_score(psi, beta) == pytest.approx(1.0)

    def test_two_player_arithmetic(self):
        # eta = (1/2) * 1/1 = 1/2; beta_hat . psi_hat = 1
        got = importance_score(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(abs((1.0 - 0.5) / (1.0 - 0.5)))

    def test_clamped_to_unit_interval(self, rng):
        for _ in range(20):
            psi = rng.uniform(0, 1, 6)
            beta = rng.uniform(0, 1, 6)
            s = importance_score(psi, beta)
            assert 0.0 <= s <= 1.0

    def test_negative_shapley_rejected(self):
        with pytest.raises(NegativeShapley):
            importance_score(np.array([0.5, -0.5, 1.0]))

    def test_zero_weights_rejected(self):
        with pytest.raises(DegenerateWeights):
            importance_score(np.ones(3) / 3, np.zeros(3))

    def test_single_player_rejected(self):
        with pytest.raises(DegenerateWeights):
            importance_score(np.array([1.0]))

    def test_zero_game_scores_zero(self):
        assert importance_score(np.zeros(4)) == 0.0


class TestGameCsv:
    def test_round_trip(self, tmp_path, rng):
        game = CoalitionGame(3, rng.standard_normal(8))
        path = tmp_path / "game.csv"
        save_game_csv(path, game)
        loaded = load_game_csv(path)
        assert loaded.n_players == 3
        np.testing.assert_array_equal(loaded.values, game.values)

    def test_incomplete_table_rejected(self, tmp_path):
        path = tmp_path / "game.csv"
        path.write_text("0,1.0\n1,2.0\n2,3.0\n")
        with pytest.raises(ValueError, match="incomplete"):
            load_game_csv(path)

    def test_duplicate_mask_rejected(self, tmp_path):
        path = tmp_path / "game.csv"
        path.write_text("0,1.0\n0,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_game_csv(path)

    @pytest.mark.parametrize("n_players", [0, -1])
    def test_player_count_below_one_rejected(self, tmp_path, n_players):
        path = tmp_path / "game.csv"
        path.write_text("0,0\n1,1\n")
        with pytest.raises(ValueError, match=f"at least 1, got {n_players}"):
            load_game_csv(path, n_players=n_players)
