import math

import numpy as np
import pytest

from bigjumps import (
    DiscreteGrid,
    LatticeBall,
    SmoothCutoff,
    TruncatedPareto,
    lln_deviation,
    load_scheme_config,
    sample_sums,
    save_scheme_config,
    schemes,
)


TP = TruncatedPareto(c=1.5, alpha=1.5)


class TestTruncatedPareto:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TruncatedPareto(c=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            TruncatedPareto(c=-1.0, alpha=2.0)

    def test_range_invariant(self):
        rng = np.random.default_rng(11)
        for n in (4, 100, 4096):
            w = TP.sample(n, rng, size=50_000)
            assert w.min() >= 0.0
            assert w.max() <= n

    def test_cutoff_is_the_supremum(self):
        # the top quantile maps to the cut-off level itself
        assert TP.inverse_cdf(1000, 1.0) == pytest.approx(1000.0, rel=1e-9)
        rng = np.random.default_rng(0)
        assert TP.sample(10, rng, size=100_000).max() <= 10.0

    def test_reproducibility_bit_identical(self):
        # 5000 rows of 64 draws span several row blocks
        a = sample_sums(TP, 64, 5000, np.random.default_rng(42))
        b = sample_sums(TP, 64, 5000, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_h_formula(self):
        assert TP.h(0.5) == pytest.approx(1.5 * 0.5 ** -2.5, rel=1e-12)
        assert TP.h(0.5) == pytest.approx(8.4853, abs=1e-4)
        with pytest.raises(ValueError):
            TP.h(0.0)
        with pytest.raises(ValueError):
            TP.h(1.0)

    def test_mu_n_closed_form_against_quadrature(self):
        n = 50
        xs = np.linspace(TP.x0, n, 2_000_001)
        dens = 1.5 * xs ** -2.5
        dens /= np.trapezoid(dens, xs)
        want = np.trapezoid(xs * dens, xs)
        got, se = TP.mu_n(n)
        assert se == 0.0
        assert got == pytest.approx(want, rel=1e-6)

    def test_mu_limit(self):
        assert TP.mu_limit == pytest.approx(3.0)

    def test_ks_against_analytic_cdf(self):
        rng = np.random.default_rng(7)
        n = 10_000
        w = np.sort(TP.sample(n, rng, size=1_000_000))
        cdf = TP.cdf(n, w)
        i = np.arange(1, len(w) + 1)
        ks = max(np.max(i / len(w) - cdf), np.max(cdf - (i - 1) / len(w)))
        assert ks < 0.002

    def test_tail_matches_empirical(self):
        rng = np.random.default_rng(3)
        n = 1000
        w = TP.sample(n, rng, size=400_000)
        for y in (2.0, 50.0, 500.0):
            p = TP.tail(n, y)
            emp = np.mean(w > y)
            se = math.sqrt(p * (1 - p) / len(w))
            assert abs(emp - p) < 4 * se + 1e-9

    def test_window_mass_tracks_shape_density(self):
        # P(a n <= W < b n) == n^-alpha * int_a^b h / (1 - (c/alpha) n^-alpha), exactly
        n, a, b = 512, 0.3, 0.7
        exact = TP.tail(n, a * n) - TP.tail(n, b * n)
        hmass = (1.0 / 1.5) * 1.5 * (a ** -1.5 - b ** -1.5)  # int of 1.5 x^-2.5
        ratio = exact / (n ** -1.5 * hmass)
        assert ratio == pytest.approx(1.0 / (1.0 - n ** -1.5), rel=1e-12)

    def test_upper_tail_example(self):
        # P(W(n) >= 0.5 n) from the chosen law: n^-alpha * int_.5^1 h / norm, no atom
        rng = np.random.default_rng(19)
        n = 10_000
        w = TP.sample(n, rng, size=1_000_000)
        expect = TP.tail(n, 0.5 * n)
        hand = n ** -1.5 * (0.5 ** -1.5 - 1.0) / (1.0 - n ** -1.5)
        assert expect == pytest.approx(hand, rel=1e-12)
        emp = np.mean(w >= 0.5 * n)
        se = math.sqrt(expect * (1 - expect) / len(w))
        assert abs(emp - expect) < 4 * se


class TestSmoothCutoff:
    SC = SmoothCutoff(c=1.5, alpha=1.5)

    def test_h_at_special_point(self):
        # log(1/(1-x)) = 1 at x = 1 - 1/e, so h = c*alpha*e
        x = 1.0 - math.exp(-1.0)
        assert self.SC.h(x) == pytest.approx(1.5 * 1.5 * math.e, rel=1e-12)

    def test_samples_inside_open_interval(self):
        rng = np.random.default_rng(1)
        w = self.SC.sample(100, rng, size=100_000)
        assert w.min() > 0.0
        assert w.max() <= 100.0

    def test_tail_matches_empirical(self):
        rng = np.random.default_rng(5)
        n = 200
        w = self.SC.sample(n, rng, size=400_000)
        for y in (5.0, 50.0, 150.0):
            p = self.SC.tail(n, y)
            emp = np.mean(w > y)
            se = math.sqrt(p * (1 - p) / len(w)) + 1e-9
            assert abs(emp - p) < 4 * se

    def test_mu_n_is_monte_carlo_with_se(self):
        val, se = self.SC.mu_n(500, samples=50_000, rng=np.random.default_rng(2))
        assert se > 0.0
        assert abs(val - self.SC.mu_limit) < 1.0


class TestLatticeBall:
    LB = LatticeBall(d=1, beta=1.5)

    def test_alpha(self):
        assert self.LB.alpha == 1.5
        assert LatticeBall(d=2, beta=3.0).alpha == 1.5

    def test_level_validation(self):
        assert self.LB.level_to_N(11) == 5
        with pytest.raises(ValueError):
            self.LB.level_to_N(10)
        with pytest.raises(ValueError):
            LatticeBall(d=2, beta=3.0).level_to_N(24)
        assert LatticeBall(d=2, beta=3.0).level_to_N(25) == 2

    def test_beta_constraint(self):
        with pytest.raises(ValueError):
            LatticeBall(d=2, beta=2.0)

    def test_min_degree(self):
        rng = np.random.default_rng(0)
        w = self.LB.sample(101, rng, size=50_000)
        assert w.min() >= 2  # R > 1 a.s. puts both unit neighbours inside

    def test_tail_exact_vs_empirical(self):
        rng = np.random.default_rng(8)
        n = 101
        w = self.LB.sample(n, rng, size=300_000)
        for y in (2.5, 10.0, 60.0):
            p = self.LB.tail(n, y)
            emp = np.mean(w > y)
            se = math.sqrt(p * (1 - p) / len(w)) + 1e-9
            assert abs(emp - p) < 4 * se


class TestDiscreteGrid:
    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            DiscreteGrid(pmf=(0.5, 0.6))
        with pytest.raises(ValueError):
            DiscreteGrid(pmf=(-0.1, 1.1))

    def test_point_mass_at_zero(self):
        dg = DiscreteGrid(pmf=(1.0,))
        rng = np.random.default_rng(0)
        assert dg.sample(17, rng) == 0.0
        assert sample_sums(dg, 17, 1, rng)[0] == 0.0

    def test_deterministic_sum_at_half_grid(self):
        # point mass at grid value n/2: S_n = n^2 / 2
        dg = DiscreteGrid(pmf=(0.0, 1.0, 0.0))
        rng = np.random.default_rng(0)
        n = 12
        assert sample_sums(dg, n, 1, rng)[0] == pytest.approx(n * n / 2)

    def test_two_step_sum_probability(self):
        # support {0, 1, 2} at n=2, pmf (1/2, 1/4, 1/4); enumerate the 9 outcomes
        dg = DiscreteGrid(pmf=(0.5, 0.25, 0.25))
        p = np.asarray(dg.pmf)
        exact = sum(
            p[i] * p[j] for i in range(3) for j in range(3) if (i + j) * dg.grid_step(2) == 2.0
        )
        assert exact == pytest.approx(5 / 16)
        rng = np.random.default_rng(123)
        sums = dg.sum_indices(2, rng, 200_000) * dg.grid_step(2)
        emp = np.mean(sums == 2.0)
        assert abs(emp - 5 / 16) < 4 * math.sqrt(5 / 16 * 11 / 16 / 200_000)

    def test_mean(self):
        dg = DiscreteGrid(pmf=(0.5, 0.25, 0.25))
        val, se = dg.mu_n(2)
        assert se == 0.0
        assert val == pytest.approx(0.75)

    def test_no_shape_density(self):
        with pytest.raises(ValueError):
            DiscreteGrid(pmf=(1.0,)).h(0.5)


class TestLln:
    def test_point_mass_never_deviates(self):
        dg = DiscreteGrid(pmf=(0.0, 1.0, 0.0))
        est = lln_deviation(dg, 16, zeta=0.01, samples=200, seed=0)
        assert est.prob == 0.0

    def test_large_zeta_never_deviates(self):
        dg = DiscreteGrid(pmf=(0.25, 0.5, 0.25))
        # max possible |S_n - n mu| is n*(n/2), zeta = n covers it
        est = lln_deviation(dg, 8, zeta=8.0, samples=200, seed=1)
        assert est.prob == 0.0

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            lln_deviation(TP, 16, zeta=0.1, samples=10)

    def test_decreasing_in_n(self):
        lo = lln_deviation(TP, 256, zeta=0.3, samples=4000, seed=3)
        hi = lln_deviation(TP, 2048, zeta=0.3, samples=4000, seed=4)
        width = 2 * math.sqrt(lo.std_error ** 2 + hi.std_error ** 2)
        assert hi.prob <= lo.prob + width


class TestWindowAssumptionTrend:
    """Empirical P(a n <= W < b n) over n^(-alpha) int_a^b h approaches a
    constant (equal to 1) across a dyadic n sweep, for every built-in scheme."""

    @pytest.mark.parametrize(
        "spec,levels",
        [
            (TruncatedPareto(c=1.5, alpha=1.5), (256, 1024, 4096)),
            (SmoothCutoff(c=1.5, alpha=1.5), (256, 1024, 4096)),
            (LatticeBall(d=1, beta=1.5), (257, 1025, 4097)),
        ],
        ids=["pareto", "smooth", "lattice"],
    )
    def test_ratio_near_one_and_tightening(self, spec, levels):
        a, b = 0.3, 0.7
        xs = np.linspace(a, b, 20_001)
        ratios = []
        for i, n in enumerate(levels):
            rng = np.random.default_rng(1000 + i)
            w = spec.sample(n, rng, size=300_000)
            p = float(np.mean((w >= a * n) & (w < b * n)))
            expected = float(np.trapezoid(spec.h(xs), xs)) * n ** (-spec.alpha)
            se = math.sqrt(p * (1 - p) / 300_000)
            ratios.append((p / expected, se / expected))
            assert abs(p / expected - 1.0) <= 3 * se / expected + 0.05
        first, last = abs(ratios[0][0] - 1.0), abs(ratios[-1][0] - 1.0)
        assert last <= first + 3 * math.hypot(ratios[0][1], ratios[-1][1])


class TestBatchesAndConfig:
    def test_worker_split_determinism(self, monkeypatch):
        # how the rows are split into blocks must not change the stream
        specs = (TP, DiscreteGrid(pmf=(0.5, 0.25, 0.25)))
        whole = [sample_sums(spec, 16, 1000, np.random.default_rng(5)) for spec in specs]
        monkeypatch.setattr(schemes, "_BLOCK", 48)
        split = [sample_sums(spec, 16, 1000, np.random.default_rng(5)) for spec in specs]
        for one, two in zip(whole, split):
            assert np.array_equal(one, two)

    def test_config_roundtrip(self, tmp_path):
        for spec in (TP, SmoothCutoff(2.0, 1.2), LatticeBall(2, 3.0), DiscreteGrid(pmf=(0.5, 0.25, 0.25))):
            path = tmp_path / "scheme.cfg"
            save_scheme_config(spec, path)
            back = load_scheme_config(path)
            assert back == spec

    def test_config_comments_and_errors(self, tmp_path):
        path = tmp_path / "scheme.cfg"
        path.write_text("# a pareto scheme\nshape = truncated_pareto\nc = 1.5\nalpha = 1.5\n")
        assert load_scheme_config(path) == TP
        path.write_text("shape = warped\n")
        with pytest.raises(ValueError):
            load_scheme_config(path)
        path.write_text("shape = lattice_ball\nd = 2\n")
        with pytest.raises(ValueError, match="missing beta"):
            load_scheme_config(path)
