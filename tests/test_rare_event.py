import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from bigjumps import (
    DiscreteGrid,
    RhoWindow,
    TruncatedPareto,
    condensation_constant,
    conditional_profiles,
    estimate_naive,
    estimate_structured,
    exact_dp,
    exact_sum_distribution,
    jump_size_gof,
    jump_sum_window_prob,
    predicted_window_prob,
    ratio_sweep,
    sample_limit_jumps,
    structure_fraction,
    uniform_h,
)

TP = TruncatedPareto(c=1.5, alpha=1.5)
DG = DiscreteGrid(pmf=(0.5, 0.25, 0.25))


class TestRhoWindow:
    def test_k_and_bounds(self):
        w = RhoWindow(1.5, ("fixed", 0.2))
        assert w.k == 2
        assert w.bounds(100) == (1.4, 1.6)
        assert w.interval(100, 2.0) == (340.0, 360.0)

    def test_power_rule(self):
        w = RhoWindow(0.5, ("power", 1.0, 0.25))
        assert w.width(16) == pytest.approx(0.5)
        w.validate_for_alpha(1.5)
        with pytest.raises(ValueError):
            RhoWindow(0.5, ("power", 1.0, 0.6)).validate_for_alpha(1.5)

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            RhoWindow(2.0)  # integer rho
        with pytest.raises(ValueError):
            RhoWindow(0.5, ("fixed", 0.0))  # empty window
        with pytest.raises(ValueError):
            RhoWindow(0.5, ("fixed", -0.1))
        with pytest.raises(ValueError):
            RhoWindow(-0.5)

    def test_default_eps_rule(self):
        # half of (rho-(k-1)) / (k + 2/(alpha-1))
        w = RhoWindow(0.5, ("fixed", 0.1))
        assert w.default_eps(1.5) == pytest.approx(0.05)


class TestEstimateNaive:
    def test_full_support_window(self):
        # window [0, 1600] covers the whole support [0, n^2] of S_n: every replica hits
        w = RhoWindow(0.5, ("fixed", 100.0))
        assert w.interval(16, 49.5) == (0.0, 1600.0)
        assert exact_dp(DG, 16, (0.0, 1600.0)) == pytest.approx(1.0, abs=1e-12)
        est = estimate_naive(DG, 16, w, mu_ref=49.5, samples=10_000, seed=0)
        assert est.prob == 1.0

    def test_matches_exact_dp(self):
        n = 32
        mu, _ = DG.mu_n(n)
        w = RhoWindow(0.45, ("fixed", 0.4))
        exact = exact_dp(DG, n, w.interval(n, mu))
        est = estimate_naive(DG, n, w, mu, samples=200_000, seed=1)
        assert abs(est.prob - exact) <= 4 * math.sqrt(exact * (1 - exact) / est.samples)

    def test_warns_when_starved(self):
        w = RhoWindow(30.5, ("fixed", 0.01))
        with pytest.warns(UserWarning, match="unreliable"):
            estimate_naive(DG, 32, w, mu_ref=DG.mu_n(32)[0], samples=10_000, seed=2)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            estimate_naive(DG, 8, RhoWindow(0.5), 1.0, samples=100)


class TestExactDp:
    def test_point_mass(self):
        dg = DiscreteGrid(pmf=(1.0,))
        assert exact_dp(dg, 8, (-0.5, 0.5)) == 1.0
        assert exact_dp(dg, 8, (0.5, 1.5)) == 0.0

    def test_two_draw_enumeration(self):
        assert exact_dp(DG, 2, (1.9, 2.1)) == pytest.approx(5 / 16, abs=1e-15)

    def test_single_draw_is_pmf_mass(self):
        # n = 1: interval mass of the pmf itself; support {0, 0.5, 1}
        assert exact_dp(DG, 1, (0.4, 1.1)) == pytest.approx(0.5)

    def test_distribution_sums_to_one(self):
        dist = exact_sum_distribution(DiscreteGrid(pmf=(0.3, 0.2, 0.1, 0.4)), 64)
        assert abs(dist.sum() - 1.0) < 1e-10

    def test_rejects_non_discrete(self):
        with pytest.raises(TypeError):
            exact_dp(TP, 8, (0.0, 1.0))

    def test_rejects_oversized_grid(self):
        big = DiscreteGrid(pmf=tuple([1.0 / 17] * 17))
        with pytest.raises(ValueError):
            exact_sum_distribution(big, 100_000)


class TestPredictedWindowProb:
    def test_k1_formula(self):
        w = RhoWindow(0.5, ("fixed", 0.1))
        k = condensation_constant(TP.h, 0.5, 1)
        got = predicted_window_prob(1.5, 100, w, k)
        assert got == pytest.approx(100 * 0.1 * 100 ** -1.5 * TP.h(0.5), rel=1e-12)

    def test_k2_documented_value(self):
        # h = 1, k = 2, rho = 1.5, width 0.1, n = 100, alpha = 1.5:
        # C(100,2) * 0.1 * 100^-3 * 0.5 = 2.475e-4
        w = RhoWindow(1.5, ("fixed", 0.1))
        k = condensation_constant(uniform_h, 1.5, 2, tol=1e-9)
        assert predicted_window_prob(1.5, 100, w, k) == pytest.approx(2.475e-4, rel=1e-6)

    def test_width_linearity_to_zero(self):
        k = condensation_constant(uniform_h, 1.5, 2, tol=1e-9)
        small = predicted_window_prob(1.5, 100, RhoWindow(1.5, ("fixed", 1e-9)), k)
        tiny = predicted_window_prob(1.5, 100, RhoWindow(1.5, ("fixed", 1e-12)), k)
        assert small == pytest.approx(tiny * 1000, rel=1e-9)

    def test_log_space_no_underflow(self):
        w = RhoWindow(4.5, ("fixed", 0.1))
        k = condensation_constant(uniform_h, 4.5, 5, method="monte_carlo", samples=20_000)
        val = predicted_window_prob(3.0, 1_000_000, w, k)
        assert val > 0.0 and math.isfinite(val)

    def test_diverged_rejected(self):
        from bigjumps import KrhoResult

        bad = KrhoResult(value=math.inf, abs_error_bound=math.inf, method="grid", diverged=True)
        with pytest.raises(ValueError):
            predicted_window_prob(1.5, 100, RhoWindow(1.5), bad)


class TestJumpSumWindow:
    def test_k1_matches_pmf_interval(self):
        # k = 1 on a grid scheme: window mass of the single level-n draw
        dg = DiscreteGrid(pmf=(0.4, 0.3, 0.2, 0.1))
        n = 30
        est = jump_sum_window_prob(dg, 1, n, 0.55, 0.75, samples=200_000, seed=3)
        vals = np.arange(4) * dg.grid_step(n)
        exact = sum(p for p, v in zip(dg.pmf, vals) if 0.55 * n <= v <= 0.75 * n)
        assert abs(est.prob - exact) <= 4 * max(est.std_error, 1e-6)

    def test_k2_matches_exact_convolution(self):
        # brute-force 2-fold enumeration of the level-n grid values
        dg = DiscreteGrid(pmf=(0.4, 0.3, 0.2, 0.1))
        n = 30
        est = jump_sum_window_prob(dg, 2, n, 1.2, 1.7, samples=300_000, seed=4)
        vals = np.arange(4) * dg.grid_step(n)
        exact = sum(
            dg.pmf[i] * dg.pmf[j]
            for i in range(4)
            for j in range(4)
            if 1.2 * n <= vals[i] + vals[j] <= 1.7 * n
        )
        assert abs(est.prob - exact) <= 4 * max(est.std_error, 1e-6)

    def test_importance_boosting_reaches_tiny_probabilities(self):
        est = jump_sum_window_prob(TP, 2, 4096, 1.45, 1.55, samples=200_000, seed=5)
        assert est.method == "importance"
        assert 0.0 < est.prob < 1e-8
        assert est.std_error < 0.05 * est.prob

    def test_window_outside_range_warns(self):
        with pytest.warns(UserWarning, match="not inside"):
            jump_sum_window_prob(TP, 2, 64, 0.5, 0.9, samples=10_000, seed=6)


class TestEstimateStructured:
    def test_slack_infinite_drops_bulk_factor(self):
        w = RhoWindow(0.5, ("fixed", 0.1))
        a = estimate_structured(TP, 256, w, eps=None, krho=None, samples=50_000, seed=7, slack=math.inf)
        b = estimate_structured(TP, 256, w, eps=None, krho=None, samples=50_000, seed=7, slack=1e9)
        assert a.prob == pytest.approx(b.prob, rel=1e-12)

    def test_eps_precondition(self):
        w = RhoWindow(0.5, ("fixed", 0.1))
        with pytest.raises(ValueError):
            estimate_structured(TP, 256, w, eps=0.6, krho=None, samples=50_000)

    def test_discrete_grid_against_exact(self):
        # thin-tailed grid scheme, window exactly 4 grid steps wide: the
        # dominant-configuration estimate tracks the exact oracle within 15%
        i = np.arange(17.0)
        with np.errstate(divide="ignore"):
            tail = np.where(i >= 1, i ** -3.0, 0.0)
        pmf = tail / tail.sum() * 0.02
        pmf[0] = 0.98
        dg = DiscreteGrid(pmf=tuple(pmf))
        n = 32
        mu, _ = dg.mu_n(n)
        w = RhoWindow(0.53, ("fixed", 0.25))  # 0.25 * 32 = 8 = 4 steps of n/m = 2
        exact = exact_dp(dg, n, w.interval(n, mu))
        est = estimate_structured(dg, n, w, eps=None, krho=None, samples=400_000, seed=8, slack=math.inf, delta_frac=0.0)
        assert est.prob == pytest.approx(exact, rel=0.15)

    def test_cross_validates_against_naive_at_large_n(self):
        # the two estimators target the same limit; at n = 1024 the residual
        # o(1) gap sits inside combined 3 sigma at these sample sizes
        n = 1024
        w = RhoWindow(0.5, ("fixed", 0.1))
        mu, _ = TP.mu_n(n)
        naive = estimate_naive(TP, n, w, mu, samples=60_000, seed=9)
        struct = estimate_structured(TP, n, w, eps=0.05, krho=None, samples=200_000, seed=10, slack=math.inf, delta_frac=0.0)
        sigma = math.sqrt(naive.std_error ** 2 + struct.std_error ** 2 + (0.08 * naive.prob) ** 2)
        assert abs(naive.prob - struct.prob) <= 3 * sigma


class TestConditionalProfiles:
    def test_full_window_accepts_everything(self):
        w = RhoWindow(0.5, ("fixed", 1000.0))
        cond = conditional_profiles(DG, 16, w, eps=0.2, target_hits=50, max_samples=50, seed=11)
        assert cond.hits == 50
        assert cond.samples_used == 50

    def test_postcondition_in_window_and_identity(self):
        w = RhoWindow(0.5, ("fixed", 0.4))
        cond = conditional_profiles(TP, 64, w, eps=0.1, target_hits=40, max_samples=200_000, seed=12)
        lo, hi = cond.interval
        assert cond.hits == 40
        for p in cond.profiles:
            assert lo <= p.s_n <= hi
            assert p.bulk_sum + math.fsum(v for _, v in p.big_jumps) == pytest.approx(p.s_n, abs=0.0)
            values = [v for _, v in p.big_jumps]
            assert values == sorted(values, reverse=True)
            assert all(v > 0.1 * 64 for v in values)

    def test_threshold_tie_counts_as_bulk(self):
        # grid value exactly at eps*n must not be a big jump
        dg = DiscreteGrid(pmf=(0.5, 0.5))
        w = RhoWindow(0.5, ("fixed", 1000.0))
        cond = conditional_profiles(dg, 4, w, eps=1.0, target_hits=30, max_samples=30, seed=13)
        for p in cond.profiles:
            assert p.n_big == 0  # every coordinate is 0 or exactly eps*n = 4

    def test_exhaustion_warns_and_reports(self):
        w = RhoWindow(20.5, ("fixed", 0.01))
        with pytest.warns(UserWarning, match="collected"):
            cond = conditional_profiles(DG, 32, w, eps=0.2, target_hits=100, max_samples=2_000, seed=14)
        assert cond.hits < 100
        assert cond.samples_used == 2_000


class TestStructureFraction:
    def test_counts_structure(self):
        w = RhoWindow(0.5, ("fixed", 0.3))
        cond = conditional_profiles(TP, 128, w, eps=0.3, target_hits=60, max_samples=400_000, seed=15)
        frac = structure_fraction(cond, k=1, gamma=10.0, mu_ref=TP.mu_n(128)[0], rho=0.5)
        only_count = sum(p.n_big == 1 for p in cond.profiles) / cond.hits
        assert frac == pytest.approx(only_count)  # gamma huge: only the count matters

    def test_k_mismatch_counted_out(self):
        w = RhoWindow(0.5, ("fixed", 0.3))
        cond = conditional_profiles(TP, 128, w, eps=0.3, target_hits=40, max_samples=400_000, seed=16)
        assert structure_fraction(cond, k=7, gamma=10.0, mu_ref=3.0, rho=0.5) == 0.0

    def test_needs_row_size(self):
        with pytest.raises(ValueError):
            structure_fraction([], k=1, gamma=0.1, mu_ref=3.0, rho=0.5)


class TestJumpSizeGof:
    KR = condensation_constant(uniform_h, 1.5, 2, tol=1e-9)

    def test_single_bin_is_degenerate(self):
        rng = np.random.default_rng(17)
        vals = sample_limit_jumps(uniform_h, 1.5, 2, 200, rng).ravel()
        res = jump_size_gof(None, uniform_h, 1.5, 2, self.KR, bins=1, values=vals)
        assert res.statistic == 0.0
        assert res.pvalue == 1.0

    def test_calibration_on_exact_draws(self):
        rng = np.random.default_rng(18)
        vals = sample_limit_jumps(uniform_h, 1.5, 2, 500, rng).ravel()
        res = jump_size_gof(None, uniform_h, 1.5, 2, self.KR, bins=8, values=vals)
        assert res.pvalue > 0.001
        assert res.out_of_support == 0

    def test_uniform_marginal_on_support(self):
        # k = 2, h = 1, rho = 1.5: the limit marginal is uniform on (0.5, 1)
        rng = np.random.default_rng(19)
        direct = rng.uniform(0.5, 1.0, 800)
        res = jump_size_gof(None, uniform_h, 1.5, 2, self.KR, bins=8, values=direct)
        assert res.pvalue > 0.001
        drawn = sample_limit_jumps(uniform_h, 1.5, 2, 3000, rng).ravel()
        assert ks_2samp(direct, drawn).pvalue > 1e-4

    def test_low_expected_bins_merge(self):
        rng = np.random.default_rng(20)
        vals = sample_limit_jumps(uniform_h, 1.5, 2, 30, rng).ravel()
        res = jump_size_gof(None, uniform_h, 1.5, 2, self.KR, bins=8, values=vals)
        assert res.merged_bins > 0
        assert len(res.observed) < 8

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            jump_size_gof(None, uniform_h, 0.5, 1, self.KR, values=np.array([0.5]))

    def test_profiles_filtered_by_count(self):
        w = RhoWindow(1.5, ("fixed", 0.2))
        tp12 = TruncatedPareto(c=1.2, alpha=1.2)
        cond = conditional_profiles(tp12, 128, w, eps=0.4, target_hits=120, max_samples=300_000, seed=21)
        kr = condensation_constant(tp12.h, 1.5, 2, tol=1e-8)
        res = jump_size_gof(cond, tp12.h, 1.5, 2, kr, bins=4, seed=22)
        assert res.skipped_profiles + res.used_profiles + 0 <= cond.hits + res.skipped_profiles  # bookkeeping sane
        assert res.dof >= 1


class TestRatioSweep:
    def test_full_support_ratio_positive(self):
        w = RhoWindow(0.5, ("fixed", 4.0))
        kr = condensation_constant(uniform_h, 0.5, 1)
        rows = ratio_sweep(DG, w, [8, 16], 20_000, kr, seed=23, alpha=1.5)
        for row in rows:
            assert row["ratio"] > 0 and math.isfinite(row["ratio"])

    def test_discrete_grid_rows_are_exact_and_reproducible(self):
        w = RhoWindow(0.45, ("fixed", 0.3))
        kr = condensation_constant(uniform_h, 0.45, 1)
        a = ratio_sweep(DG, w, [16, 32], 10_000, kr, seed=24, alpha=1.5)
        b = ratio_sweep(DG, w, [16, 32], 10_000, kr, seed=24, alpha=1.5)
        assert a == b
        assert all(r["method"] == "exact_dp" and r["std_error"] == 0.0 for r in a)

    def test_failures_recorded_not_raised(self):
        w = RhoWindow(0.45, ("fixed", 0.3))
        kr = condensation_constant(uniform_h, 0.45, 1)
        rows = ratio_sweep(DG, w, [16, 10 ** 9], 10_000, kr, seed=25, alpha=1.5)
        assert "error" in rows[1]
        assert rows[0]["ratio"] > 0


class TestExchangeability:
    def test_coordinate_shuffle_layer_is_distribution_neutral(self):
        # seed-paired runs: one vanilla, one with a shuffle layer between
        # sampling and summation; sums must be distributed identically
        n, reps = 64, 4000
        rng1, rng2 = np.random.default_rng(26), np.random.default_rng(27)
        sums_plain = TP.sample(n, rng1, size=(reps, n)).sum(axis=1)
        w = TP.sample(n, rng2, size=(reps, n))
        idx = np.argsort(np.random.default_rng(28).random(w.shape), axis=1)
        sums_shuffled = np.take_along_axis(w, idx, axis=1).sum(axis=1)
        assert ks_2samp(sums_plain, sums_shuffled).pvalue > 1e-4

    def test_extra_big_jump_fraction_decreases_in_n(self):
        w = RhoWindow(0.5, ("fixed", 0.1))
        eps = 0.2
        fracs, ses = [], []
        for n, seed in ((64, 29), (512, 30)):
            cond = conditional_profiles(TP, n, w, eps=eps, target_hits=250, max_samples=600_000, seed=seed)
            f = sum(p.n_big >= 2 for p in cond.profiles) / cond.hits
            fracs.append(f)
            ses.append(math.sqrt(max(f * (1 - f), 1e-4) / cond.hits))
        assert fracs[1] <= fracs[0] + 2 * math.hypot(*ses)
