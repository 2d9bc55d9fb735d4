import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp

from bigjumps import (
    DiscreteGrid,
    LatticeBall,
    RhoWindow,
    SmoothCutoff,
    TruncatedPareto,
    condensation_constant,
    conditional_profiles,
    estimate_conditional,
    estimate_naive,
    exact_dp,
    exact_sum_distribution,
    jump_marginal_mass,
    jump_size_gof,
    jump_sum_window_prob,
    predicted_window_prob,
    rare_event,
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

    # n keeps every cell of S_n above 1e-250, clear of subnormals in the rolling convolution
    @pytest.mark.parametrize("pmf,n", [((0.3, 0.2, 0.1, 0.4), 240), ((0.05, 0.6, 0.0, 0.2, 0.15, 0.0), 160),
                                       ((0.0, 0.9, 0.1), 240)])
    def test_tilted_fft_matches_rolling_convolution(self, pmf, n):
        dg = DiscreteGrid(pmf=pmf)
        dist, step = exact_sum_distribution(dg, n), dg.grid_step(n)
        mean = int(n * dg.mu_n(n)[0] / step)  # the mean of S_n in cells
        lo, hi = np.flatnonzero(dist)[[0, -1]]
        below, above = np.cumsum(dist) < 1e-100, np.cumsum(dist[::-1])[::-1] < 1e-100
        below_mean, above_mean = (lo + mean) // 2, (mean + hi) // 2
        windows = [(lo, hi), (mean - 20, mean + 20), (mean, mean), (below_mean, below_mean + 30),
                   (above_mean, above_mean + 50), (lo, lo), (hi, hi), (lo, lo + 5), (hi - 5, hi)]
        # the tails of mass below 1e-100, wherever there is one
        windows += [(lo, np.flatnonzero(below)[-1])] if below[lo] else []
        windows += [(np.flatnonzero(above)[0], hi)] if above[hi] else []
        assert len(windows) > 9
        for a, b in windows:
            want = math.fsum(dist[a : b + 1])
            assert want > 0.0, (a, b)
            assert exact_dp(dg, n, (a * step, b * step)) == pytest.approx(want, rel=1e-11, abs=0.0), (a, b)
        # below the support of S_10, n * min index = 10 cells up, the mass is exactly zero
        assert exact_dp(DiscreteGrid(pmf=(0.0, 0.5, 0.5)), 10, (0.0, 45.0)) == 0.0

    def test_does_not_depend_on_blas_threads(self):
        # a 12001-cell untilt as a BLAS dot moved the last bit between one and two OpenBLAS threads
        code = (
            "from bigjumps import DiscreteGrid, exact_dp; g = DiscreteGrid(tuple([1 / 101] * 101)); "
            "s = g.grid_step(5000); print(repr(exact_dp(g, 5000, ((250000 - 6000) * s, (250000 + 6000) * s))))"
        )
        out = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        ]
        assert out[0] == out[1]

    def test_window_holding_all_the_mass_is_at_most_one(self):
        # 9.7 standard deviations each side of the mean; the untilted sum came to 1 + 5.7e-13 unclipped
        g = DiscreteGrid(tuple([1 / 101] * 101))
        s = g.grid_step(5000)
        p = exact_dp(g, 5000, ((250000 - 20000) * s, (250000 + 20000) * s))
        assert p <= 1.0 and p == pytest.approx(1.0, abs=1e-12)

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


def _power_grid(m: int, power: float, big: float) -> DiscreteGrid:
    """Mass 1 - big at 0 and `big` spread over the indices 1..m as i^-power."""
    i = np.arange(m + 1.0)
    with np.errstate(divide="ignore"):
        tail = np.where(i >= 1, i ** -power, 0.0)
    pmf = tail / tail.sum() * big
    pmf[0] = 1.0 - big
    return DiscreteGrid(pmf=tuple(pmf))


class TestEstimateConditional:
    @pytest.mark.parametrize(
        "dg, rho, width",
        [
            (_power_grid(4, 2.0, 0.1), 0.3, 0.3),
            (_power_grid(6, 3.0, 0.05), 0.45, 0.2),
            (_power_grid(8, 2.5, 0.08), 0.55, 0.25),
            (_power_grid(10, 3.0, 0.02), 0.8, 0.3),
            (_power_grid(12, 2.0, 0.05), 0.6, 0.15),
            (_power_grid(16, 3.0, 0.02), 0.53, 0.25),
            (DiscreteGrid(pmf=(0.6, 0.2, 0.1, 0.05, 0.05)), 0.35, 0.3),  # ties at the maximum are common
        ],
    )
    def test_discrete_grid_against_exact(self, dg, rho, width):
        # lattice atoms everywhere, ties at the maximum included: unbiased against the exact oracle
        n = 32
        mu, _ = dg.mu_n(n)
        w = RhoWindow(rho, ("fixed", width))
        exact = exact_dp(dg, n, w.interval(n, mu))
        est = estimate_conditional(dg, n, w, mu, samples=50_000, seed=8)
        assert est.method == "conditional" and est.samples == 50_000
        assert exact > 0.0 and abs(est.prob - exact) <= 4 * est.std_error

    def test_closed_window_ends_on_grid_points(self):
        # the grid step is 4 and the mean value 4: lo = 68 and hi = 76 are sums of grid values, and both count
        dg = DiscreteGrid(pmf=(0.4, 0.3, 0.2, 0.1, 0.0))
        w = RhoWindow(0.5, ("fixed", 0.5))
        assert w.interval(16, 4.0) == (68.0, 76.0)
        exact = exact_dp(dg, 16, (68.0, 76.0))
        est = estimate_conditional(dg, 16, w, 4.0, samples=50_000, seed=8)
        assert abs(est.prob - exact) <= 4 * est.std_error
        assert exact - exact_dp(dg, 16, (68.5, 75.5)) > 20 * est.std_error  # the end atoms are resolved

    @staticmethod
    def agree(spec, n, rho, naive_samples, conditional_samples=20_000):
        w = RhoWindow(rho, ("fixed", 0.1))
        mu, _ = spec.mu_n(n)
        naive = estimate_naive(spec, n, w, mu, samples=naive_samples, seed=9)
        est = estimate_conditional(spec, n, w, mu, samples=conditional_samples, seed=10)
        assert abs(naive.prob - est.prob) <= 4 * math.hypot(naive.std_error, est.std_error)
        return naive, est

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_truncated_pareto_against_naive(self, n):
        naive, est = self.agree(TP, n, 0.5, 20_000, 10_000)
        # every replica contributes: the relative SE at 10k replicas beats naive's at 20k
        assert est.std_error / est.prob < naive.std_error / naive.prob

    def test_truncated_pareto_two_jumps_against_naive(self):
        naive, est = self.agree(TP, 256, 1.5, 200_000)
        assert naive.hits >= 100 and est.std_error < 0.05 * est.prob

    @pytest.mark.parametrize(
        "spec, n",
        [(SmoothCutoff(c=1.5, alpha=1.5), 256), (LatticeBall(d=1, beta=1.5), 257), (LatticeBall(d=2, beta=3.0), 289)],
        ids=["smooth_cutoff", "lattice_ball_d1", "lattice_ball_d2"],
    )
    def test_other_schemes_against_naive(self, spec, n):
        self.agree(spec, n, 0.5, 100_000)

    def test_checks(self):
        w = RhoWindow(0.5, ("fixed", 0.1))
        with pytest.raises(ValueError, match="n >= 2"):
            estimate_conditional(DG, 1, w, 0.5, samples=10_000)
        with pytest.raises(ValueError, match="1e4 samples"):
            estimate_conditional(TP, 64, w, TP.mu_n(64)[0], samples=9_999)
        with pytest.raises(ValueError, match="gamma"):
            estimate_conditional(TP, 64, RhoWindow(0.5, ("power", 1.0, 0.6)), TP.mu_n(64)[0], samples=10_000)


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

    def test_no_row_past_the_target_is_decomposed(self, monkeypatch):
        accepted = []
        decompose = rare_event._decompose

        def recording(vector, eps_n):
            prof = decompose(vector, eps_n)
            accepted.append(lo <= prof.s_n <= hi)
            return prof

        monkeypatch.setattr(rare_event, "_decompose", recording)
        w = RhoWindow(0.5, ("fixed", 0.4))
        lo, hi = w.interval(64, TP.mu_n(64)[0])
        cond = conditional_profiles(TP, 64, w, eps=0.1, target_hits=40, max_samples=200_000, seed=12)
        assert cond.hits == sum(accepted) == 40
        assert accepted[-1]

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

    def test_no_hits_gives_zero(self):
        w = RhoWindow(20.5, ("fixed", 0.01))
        with pytest.warns(UserWarning, match="collected"):
            cond = conditional_profiles(DG, 32, w, eps=0.2, target_hits=100, max_samples=2_000, seed=14)
        assert cond.hits == 0
        assert structure_fraction(cond, k=1, gamma=0.1, mu_ref=3.0, rho=20.5) == 0.0


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
        assert res.pvalue == float(chi2.sf(res.statistic, res.dof))  # chdtrc is chi2.sf's own kernel
        assert res.out_of_support == 0

    def test_uniform_marginal_on_support(self):
        # k = 2, h = 1, rho = 1.5: the limit marginal is uniform on (0.5, 1)
        rng = np.random.default_rng(19)
        direct = rng.uniform(0.5, 1.0, 800)
        res = jump_size_gof(None, uniform_h, 1.5, 2, self.KR, bins=8, values=direct)
        assert res.pvalue > 0.001
        assert res.pvalue == float(chi2.sf(res.statistic, res.dof))
        drawn = sample_limit_jumps(uniform_h, 1.5, 2, 3000, rng).ravel()
        assert ks_2samp(direct, drawn).pvalue > 1e-4

    def test_low_expected_bins_merge(self):
        rng = np.random.default_rng(20)
        vals = sample_limit_jumps(uniform_h, 1.5, 2, 30, rng).ravel()
        res = jump_size_gof(None, uniform_h, 1.5, 2, self.KR, bins=8, values=vals)
        assert res.merged_bins > 0
        assert len(res.observed) < 8

    def test_pvalue_after_merge_is_chi2_survival(self):
        # TruncatedPareto's limit marginal at rho = 1.2 is not flat, so 60 draws merge some bins, not all
        kr = condensation_constant(TP.h, 1.2, 2, tol=1e-9)
        vals = sample_limit_jumps(TP.h, 1.2, 2, 60, np.random.default_rng(20)).ravel()
        res = jump_size_gof(None, TP.h, 1.2, 2, kr, bins=8, values=vals)
        assert res.merged_bins > 0 and 1 < len(res.observed) < 8
        assert res.pvalue == float(chi2.sf(res.statistic, res.dof))

    @staticmethod
    def restart_merge(observed, expected, edges):
        """Reference: the merge as first written, rescanning from the leftmost bin after every merge."""
        obs, exp, edge_list, merged, i = list(observed.astype(float)), list(expected), list(edges), 0, 0
        while i < len(exp):
            if exp[i] < 5.0 and len(exp) > 1:
                j = i - 1 if i > 0 else 1
                exp[j] += exp[i]
                obs[j] += obs[i]
                del exp[i], obs[i]
                del edge_list[i if i > 0 else 1]
                merged += 1
                i = 0
            else:
                i += 1
        return np.asarray(obs), np.asarray(exp), np.asarray(edge_list), merged

    def test_merge_matches_restart_reference(self):
        # h rising from 0 makes both ends of the k = 2 marginal light: at 30 values the expected counts are
        # 1.2, 2.9, 4.8, 6.0, 6.0, 4.8, 2.9, 1.2, so the leftmost bin merges twice and the right end three times
        def h(x):
            return 5.0 * np.asarray(x) ** 4

        rho, vals = 1.2, np.random.default_rng(24).uniform(0.2, 1.0, 30)
        res = jump_size_gof(None, h, rho, 2, condensation_constant(h, rho, 2, tol=1e-9), bins=8, values=vals)
        edges = np.linspace(rho - 1.0, 1.0, 9)
        masses = np.array([jump_marginal_mass(h, rho, 2, a, b) for a, b in zip(edges[:-1], edges[1:])])
        expected = masses / masses.sum() * vals.size
        assert expected[0] + expected[1] < 5.0
        obs, exp, edge_list, merged = self.restart_merge(np.histogram(vals, edges)[0], expected, edges)
        assert res.merged_bins == merged == 5
        assert np.array_equal(res.observed, obs) and np.array_equal(res.expected, exp)
        assert np.array_equal(res.bin_edges, edge_list)

    @pytest.mark.parametrize("bins", [0, -3])
    def test_rejects_nonpositive_bins(self, bins):
        vals = np.full(50, 0.75)
        with pytest.raises(ValueError, match=f"bins must be >= 1; got {bins}"):
            jump_size_gof(None, uniform_h, 1.5, 2, self.KR, bins=bins, values=vals)

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

    def test_programming_errors_propagate(self):
        # only domain errors (ValueError) become error rows; a bug in a scheme raises
        class BuggyPareto(TruncatedPareto):
            def mu_n(self, n):
                raise KeyError("bug")

        w = RhoWindow(0.5, ("fixed", 0.1))
        kr = condensation_constant(TP.h, 0.5, 1)
        with pytest.raises(KeyError):
            ratio_sweep(BuggyPareto(c=1.5, alpha=1.5), w, [64], 1_000, kr)

    def test_seeds_do_not_share_row_streams(self):
        # row 1 of seed 0 and row 0 of seed 104729 drew the same stream under a seed + 104729 * (i + 1) rule
        w = RhoWindow(0.5, ("fixed", 0.4))
        kr = condensation_constant(TP.h, 0.5, 1)
        a = ratio_sweep(TP, w, [64, 64], 20_000, kr, seed=0)[1]
        b = ratio_sweep(TP, w, [64], 20_000, kr, seed=104_729)[0]
        assert a["prob"] != b["prob"]


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
