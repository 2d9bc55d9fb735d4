import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

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

    def test_ks_against_analytic_cdf(self):
        rng = np.random.default_rng(7)
        n = 10_000
        w = np.sort(TP.sample(n, rng, size=1_000_000))
        cdf = 1.0 - TP.tail(n, w)
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

    @pytest.mark.parametrize("c, alpha", [(1.5, 1.5), (1.2, 1.2)])
    def test_tail_accurate_up_to_the_cutoff(self, c, alpha):
        tp = TruncatedPareto(c=c, alpha=alpha)
        for n in (64, 4096, 10**6):
            # from the support floor x0 up to n(1 - 1e-15), where y^-alpha - n^-alpha cancels
            ys = np.concatenate((np.geomspace(tp.x0, n / 2, 200), n * (1 - np.geomspace(1e-15, 0.5, 200))))
            with mpmath.workdps(50):
                ca, na = mpmath.mpf(c) / mpmath.mpf(alpha), mpmath.mpf(n) ** -alpha
                want = [float(ca * (mpmath.mpf(y) ** -alpha - na) / (1 - ca * na)) for y in ys]
            np.testing.assert_allclose(tp.tail(n, ys), want, rtol=1e-14, atol=0.0)

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


class _TopUniform:
    """A Generator stand-in whose every uniform is the largest double below 1."""

    def random(self, size=None):
        u = 1.0 - 2.0**-53
        return u if size is None else np.full(size, u)


@pytest.mark.parametrize(
    "spec,n",
    [
        (TP, 1000),
        (SmoothCutoff(c=1.5, alpha=1.5), 1000),
        (LatticeBall(d=1, beta=1.5), 101),
        (LatticeBall(d=2, beta=3.0), 121),
        (DiscreteGrid(pmf=(0.1,) * 10), 90),
        (DiscreteGrid(pmf=(0.1,) * 10 + (0.0,)), 100),
    ],
    ids=["pareto", "smooth", "lattice_d1", "lattice_d2", "grid", "grid_zero_top"],
)
def test_top_uniform_stays_in_support(spec, n):
    """The largest uniform maps into [0, n]; sample_above stays above its threshold."""
    rng = _TopUniform()
    threshold = 0.45 * n
    for size in (None, (2, 3)):
        w = np.asarray(spec.sample(n, rng, size))
        assert np.all((w >= 0.0) & (w <= n))
        above = np.asarray(spec.sample_above(n, threshold, rng, size))
        assert np.all((above > threshold) & (above <= n))
        if isinstance(spec, DiscreteGrid):
            # the top draw is the largest grid value that carries mass
            top = spec.grid_step(n) * np.flatnonzero(spec.pmf)[-1]
            assert np.all(w == top) and np.all(above == top)


@pytest.mark.parametrize(
    "spec",
    [TP, SmoothCutoff(c=1.5, alpha=1.5), LatticeBall(d=1, beta=1.5), DiscreteGrid(pmf=(0.5, 0.5))],
    ids=["pareto", "smooth", "lattice", "grid"],
)
def test_sampler_rejects_level_zero(spec):
    rng = np.random.default_rng(0)
    for threshold in (-1.0, 0.0):
        with pytest.raises(ValueError, match="level"):
            spec.sample_above(0, threshold, rng, 4)


def test_pareto_sampler_rejects_level_at_or_below_support_floor():
    tp = TruncatedPareto(c=8.0, alpha=1.5)  # x0 = (16/3)^(2/3) = 3.05
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="support floor"):
        tp.sample_above(3, 0.0, rng, 4)
    assert tp.sample_above(4, 0.0, rng, 4).max() <= 4.0


def test_pareto_tail_and_mean_reject_level_at_or_below_support_floor():
    # at n = x0 = 1 the normalisation 1 - (c/alpha) n^-alpha is 0: the level check runs before the division
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: TP.tail(1, 0.3), lambda: TP.mu_n(1)):
            with pytest.raises(ValueError, match="support floor"):
                call()


@pytest.mark.parametrize(
    "spec,n,top",
    [
        (TP, 100, 100.0),
        (SmoothCutoff(c=1.5, alpha=1.5), 100, 100.0),
        (LatticeBall(d=1, beta=1.5), 101, 100.0),
        (DiscreteGrid(pmf=(0.1,) * 10 + (0.0,)), 100, 90.0),
    ],
    ids=["pareto", "smooth", "lattice", "grid_zero_top"],
)
def test_sample_above_rejects_an_empty_event(spec, n, top):
    """At or above the top of the support, W(n) > threshold has probability 0: no draw exists."""
    rng = np.random.default_rng(0)
    for threshold in (float(n), n + 0.5, top):
        assert spec.tail(n, threshold) == 0.0
        with pytest.raises(ValueError, match="empty event"):
            spec.sample_above(n, threshold, rng, 3)
    below = spec.sample_above(n, top - 0.5, rng, 3)
    assert np.all((below > top - 0.5) & (below <= top))


def _out_of_place(spec, n, threshold, u):
    """The inverse CDF of each scheme written as one out-of-place expression."""
    if isinstance(spec, TruncatedPareto):
        ta, na = max(threshold, spec.x0) ** -spec.alpha, float(n) ** -spec.alpha
        return np.minimum((ta - u * (ta - na)) ** (-1.0 / spec.alpha), float(n))
    if isinstance(spec, SmoothCutoff):
        m = max(-float(n) * math.log1p(-threshold / float(n)), spec.x0)
        return n * (1.0 - np.exp(-(m * (1.0 - u) ** (-1.0 / spec.alpha)) / n))
    if isinstance(spec, LatticeBall):
        rstar = math.sqrt(float(spec._geometry(n)[max(math.floor(threshold), 0)]))
        return schemes.torus.ball_point_count(spec.d, spec.level_to_N(n), rstar * (1.0 - u) ** (-1.0 / spec.beta))
    vals = np.arange(spec.m + 1) * spec.grid_step(n)
    keep = (vals > threshold) & (np.asarray(spec.pmf) > 0.0)
    mass = np.asarray(spec.pmf)[keep]
    idx = np.searchsorted(np.cumsum(mass / mass.sum()), u, side="right")
    return vals[keep][np.minimum(idx, len(mass) - 1)]


@pytest.mark.parametrize(
    "spec,n",
    [
        (TP, 1000),
        (SmoothCutoff(c=1.5, alpha=1.5), 1000),
        (LatticeBall(d=2, beta=3.0), 121),
        (DiscreteGrid(pmf=(0.1,) * 10 + (0.0,)), 100),
    ],
    ids=["pareto", "smooth", "lattice", "grid"],
)
@pytest.mark.parametrize("size", [None, 7, (3, 5)], ids=["scalar", "1d", "2d"])
@pytest.mark.parametrize("where", [-1.0, 0.3], ids=["void", "above"])
def test_in_place_sample_above_matches_out_of_place_formula(spec, n, size, where):
    threshold = where if where < 0.0 else where * n
    got = spec.sample_above(n, threshold, np.random.default_rng(9), size)
    # a 0-d array of uniforms gives NumPy scalars, as the in-place code does
    want = _out_of_place(spec, n, threshold, np.asarray(np.random.default_rng(9).random(size)))
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype and np.array_equal(got, want)


def _h_expression(spec, x):
    """The shape density of each continuous scheme written as one out-of-place expression."""
    x = np.asarray(x, dtype=float)
    if isinstance(spec, TruncatedPareto):
        return spec.c * x ** (-spec.alpha - 1.0)
    ell = -np.log1p(-x)
    return spec.c * spec.alpha / (1.0 - x) * ell ** (-spec.alpha - 1.0)


@pytest.mark.parametrize(
    "spec",
    [TP, TruncatedPareto(c=0.7, alpha=2.3), SmoothCutoff(c=1.5, alpha=1.5), SmoothCutoff(c=1.2, alpha=1.2)],
    ids=["pareto-1.5", "pareto-2.3", "smooth-1.5", "smooth-1.2"],
)
def test_in_place_h_matches_expression(spec):
    rng = np.random.default_rng(4)
    arrays = (rng.random(65536), rng.random((64, 33)), rng.random((40, 40))[:, ::-1], np.linspace(1e-12, 1.0 - 1e-12, 4097))
    for x in arrays:
        assert np.array_equal(spec.h(x), _h_expression(spec, x))
    for x in [*rng.random(300).tolist(), 1e-12, 1.0 - 1e-12, np.float64(0.3), np.array(0.7)]:
        got, want = spec.h(x), _h_expression(spec, x)
        assert type(got) is type(want) is np.float64 and got == want


TAIL_SCHEMES = (
    TP,
    SmoothCutoff(c=1.5, alpha=1.5),
    LatticeBall(d=1, beta=1.5),
    LatticeBall(d=2, beta=3.0),
    DiscreteGrid(pmf=(0.5, 0.25, 0.125, 0.125)),
)


@st.composite
def _tail_cases(draw):
    spec = draw(st.sampled_from(TAIL_SCHEMES))
    if isinstance(spec, LatticeBall):
        n = (2 * draw(st.integers(1, 400 if spec.d == 1 else 20)) + 1) ** spec.d
    else:
        n = draw(st.integers(2, 10_000))
    ys = draw(st.lists(st.floats(-2.0 * n, 2.0 * n, allow_nan=False), min_size=1, max_size=40))
    return spec, n, np.array(ys + [-1.0, 0.0, float(n), n + 0.5])


@settings(max_examples=60, deadline=None, database=None)
@given(_tail_cases())
def test_tail_contract(case):
    """tail is an array law in [0, 1], nonincreasing, 1 below the support, 0 from n on."""
    spec, n, y = case
    t = spec.tail(n, y)
    assert t.shape == y.shape
    assert np.all((t >= 0.0) & (t <= 1.0))
    order = np.argsort(y)
    assert np.all(np.diff(t[order]) <= 0.0)
    assert np.all(t[y < 0.0] == 1.0)
    assert np.all(t[y >= n] == 0.0)
    scalars = [spec.tail(n, float(v)) for v in y]
    assert all(isinstance(v, float) for v in scalars)
    np.testing.assert_allclose(t, scalars, rtol=1e-13, atol=0.0)
    if not isinstance(spec, DiscreteGrid):
        assert isinstance(spec.h(np.array(0.5)), float)


def _tail_integral(spec, n):
    """int_0^n P(W(n) > y) dy: a sum over the value grid for lattice laws, a quad otherwise."""
    if isinstance(spec, LatticeBall):
        return math.fsum(spec.tail(n, np.arange(n)))
    if isinstance(spec, DiscreteGrid):
        step = spec.grid_step(n)
        return step * math.fsum(spec.tail(n, np.arange(spec.m) * step))
    # the tail is 1 up to the image of the support floor x0 and decays like (y / knot)^-alpha above it, so
    # most of its mass lies within a few knots: breakpoints knot 2^j below n keep quad from stepping over it
    knot = spec.x0 if isinstance(spec, TruncatedPareto) else -n * math.expm1(-spec.x0 / n)
    points = knot * 2.0 ** np.arange(math.ceil(math.log2(n / knot)))
    val, _ = integrate.quad(lambda y: spec.tail(n, y), 0.0, n, points=points, epsabs=0.0, epsrel=1e-13, limit=500)
    return val


def _assert_sample_mean(spec, n, seed):
    # a 5-SE band: a correct mean fails it with probability 5.7e-7 under the normal approximation
    w = spec.sample(n, np.random.default_rng(seed), size=1_000_000)
    se = np.std(w, ddof=1) / math.sqrt(len(w))
    assert abs(np.mean(w) - spec.mu_n(n)[0]) < 5 * se


@st.composite
def _mean_cases(draw):
    """A scheme and two valid levels n1 < n2."""
    kind = draw(st.sampled_from(["truncated_pareto", "smooth_cutoff", "lattice_ball", "discrete_grid"]))
    if kind == "lattice_ball":
        d = draw(st.sampled_from((1, 2, 3)))
        top = {1: 200, 2: 12, 3: 5}[d]
        N1 = draw(st.integers(1, top - 1))
        N2 = draw(st.integers(N1 + 1, top))
        spec = LatticeBall(d=d, beta=draw(st.floats(d + 0.05, 3.0 * d)))
        return spec, (2 * N1 + 1) ** d, (2 * N2 + 1) ** d
    if kind == "discrete_grid":
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(lambda w: sum(w) > 0.01))
        spec = DiscreteGrid(pmf=tuple(np.asarray(weights) / math.fsum(weights)))
    else:
        law = TruncatedPareto if kind == "truncated_pareto" else SmoothCutoff
        spec = law(c=draw(st.floats(0.1, 10.0)), alpha=draw(st.floats(1.05, 4.0)))
    # two levels a factor >= 2 apart, so that the increase of the mean stays above round-off
    n1 = draw(st.integers(max(2, math.floor(spec.x0) + 1) if kind == "truncated_pareto" else 2, 5000))
    return spec, n1, n1 * draw(st.integers(2, 4))


@settings(max_examples=80, deadline=None, database=None)
@given(_mean_cases())
@example((TruncatedPareto(c=0.1, alpha=4.0), 3309, 13236))  # the tail's mass sits within a few x0 = 0.40 of 0
def test_mu_n_contract(case):
    """mu_n is the exact mean: (float, 0.0) in [0, n], nondecreasing in n, the integral of the tail."""
    spec, n1, n2 = case
    (mu1, se1), (mu2, se2) = spec.mu_n(n1), spec.mu_n(n2)
    assert type(mu1) is float and type(mu2) is float
    assert se1 == se2 == 0.0
    assert 0.0 <= mu1 <= n1 and 0.0 <= mu2 <= n2
    assert mu1 <= mu2
    for n, mu in ((n1, mu1), (n2, mu2)):
        assert math.isclose(mu, _tail_integral(spec, n), rel_tol=1e-10, abs_tol=0.0)


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

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_mu_n_is_the_tail_integral(self, n):
        mu, se = self.SC.mu_n(n)
        assert se == 0.0
        assert mu == pytest.approx(_tail_integral(self.SC, n), rel=1e-10)

    def test_mu_n_matches_sample_mean(self):
        _assert_sample_mean(self.SC, 4096, seed=2)


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
        with pytest.raises(ValueError, match="NaN"):
            self.LB.tail(11, np.array([2.0, np.nan]))

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

    @pytest.mark.parametrize("d, beta, n", [(1, 1.5, 1025), (2, 3.0, 4225), (3, 4.5, 2197)])
    def test_mu_n_is_the_tail_sum(self, d, beta, n):
        lb = LatticeBall(d=d, beta=beta)
        mu, se = lb.mu_n(n)
        assert se == 0.0
        assert mu == pytest.approx(_tail_integral(lb, n), rel=1e-12)

    def test_mu_n_matches_sample_mean(self):
        _assert_sample_mean(LatticeBall(d=2, beta=3.0), 4225, seed=4)


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
        sums = sample_sums(dg, 2, 200_000, 123)
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
        # how the row blocks are split among worker threads must not change any sum
        cases = ((TP, 16), (SmoothCutoff(1.5, 1.5), 16), (LatticeBall(1, 1.5), 17), (DiscreteGrid(pmf=(0.5, 0.25, 0.25)), 16))
        sums = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(schemes, "_WORKERS", workers)
            sums.append([sample_sums(spec, n, 30_000, 5) for spec, n in cases])  # 8 blocks of 4096 rows at n = 16
        for one, two, three in zip(*sums):
            assert np.array_equal(one, two) and np.array_equal(one, three)

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
