import hashlib
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from bigjumps import (
    SmoothCutoff,
    TruncatedPareto,
    condensation_constant,
    jump_marginal_mass,
    limit_jump_density,
    load_tabulated_h,
    sample_limit_jumps,
    uniform_h,
)
from bigjumps import condensation, schemes
from bigjumps.condensation import _BLOCK, _EDGE, _MAX_LEVEL, _HProposal, _inner_k3, _split, _ts_nodes

TP = TruncatedPareto(c=1.5, alpha=1.5)


def reference_slab(h, rho, k, tol):
    """The grid route of condensation_constant without reuse: every level evaluates h at all of its
    nodes, and k = 3 in the direct form h(y) h(rho - x - y).  Returns (value, bound, note, h points,
    the values of the levels)."""
    lo, points, values = rho - (k - 1), 0, []

    def counted(y):
        nonlocal points
        points += y.size
        return h(y)

    for level in range(2, _MAX_LEVEL[k] + 1):
        x, w = _ts_nodes(level, lo, 1.0)
        if k == 2:
            f = counted(x) * counted(rho - x)
        else:
            inner = np.zeros_like(x)
            rows = np.flatnonzero(1.0 - (rho - 1.0 - x) > 2e-12)
            for a in range(0, len(rows), 16):
                r = rows[a : a + 16]
                y, wy = _ts_nodes(level, rho - 1.0 - x[r, None], 1.0)
                vals = counted(y.ravel()) * counted((rho - x[r, None] - y).ravel())
                inner[r] = np.sum(vals.reshape(y.shape) * wy, axis=1)
            f = counted(x) * inner
        values.append(float(np.add.reduce(f * w)))
        if len(values) >= 2 and abs(values[-1] - values[-2]) <= 0.5 * tol:
            return values[-1], max(abs(values[-1] - values[-2]), 1e-16), "", points, values
    bound = abs(values[-1] - values[-2])
    note = f"max level {_MAX_LEVEL[k]} reached with bound {bound:.1e} > tol" if bound > tol else ""
    return values[-1], bound, note, points, values


@pytest.fixture(scope="module")
def smooth_k3_reference():
    return reference_slab(SmoothCutoff(c=1.5, alpha=1.5).h, 2.5, 3, 1e-8)


class TestCondensationConstant:
    def test_k1_is_h_of_rho(self):
        res = condensation_constant(TP.h, rho=0.5, k=1)
        assert res.method == "closed_form"
        assert res.value == TP.h(0.5)
        assert res.abs_error_bound == 0.0

    def test_k2_uniform_analytic(self):
        # length of {x in (0,1): 1.5 - x in (0,1)} = 0.5
        res = condensation_constant(uniform_h, rho=1.5, k=2, tol=1e-9)
        assert abs(res.value - 0.5) <= 1e-6
        # brute-force grid-sum cross-check
        x = (np.arange(2_000_000) + 0.5) / 2_000_000
        brute = np.mean(((1.5 - x) > 0) & ((1.5 - x) < 1))
        assert abs(res.value - brute) < 1e-6

    def test_k3_uniform_analytic(self):
        # area of {(x1,x2) in (0,1)^2 : 2.5 - x1 - x2 in (0,1)}: the corner
        # triangle above x1 + x2 = 1.5, of area 0.5 * 0.5^2 = 0.125
        res = condensation_constant(uniform_h, rho=2.5, k=3, tol=1e-7)
        assert abs(res.value - 0.125) <= 1e-5
        # Monte Carlo oracle for the same area
        rng = np.random.default_rng(0)
        u = rng.random((1_000_000, 2))
        y = 2.5 - u.sum(axis=1)
        mc = np.mean((y > 0.0) & (y < 1.0))
        se = math.sqrt(0.125 * 0.875 / 1_000_000)
        assert abs(mc - 0.125) < 4 * se
        assert abs(res.value - mc) < 5 * se

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            condensation_constant(uniform_h, rho=2.5, k=2)
        with pytest.raises(ValueError):
            condensation_constant(uniform_h, rho=1.5, k=2, tol=0.0)
        with pytest.raises(ValueError):
            condensation_constant(uniform_h, rho=0.5, k=0)

    def test_grid_and_monte_carlo_agree(self):
        grid = condensation_constant(TP.h, rho=1.5, k=2, tol=1e-9, method="grid")
        mc = condensation_constant(TP.h, rho=1.5, k=2, method="monte_carlo", samples=400_000, seed=1)
        assert abs(grid.value - mc.value) <= grid.abs_error_bound + mc.abs_error_bound

    def test_monotone_refinement(self):
        # halving the node spacing moves the estimate by less than the reported bound
        res = condensation_constant(TP.h, rho=1.5, k=2, tol=1e-10, method="grid")
        lo, hi = 0.5, 1.0
        f = lambda x: TP.h(x) * TP.h(1.5 - x)
        coarse = float(np.dot(f(_ts_nodes(9, lo, hi)[0]), _ts_nodes(9, lo, hi)[1]))
        fine = float(np.dot(f(_ts_nodes(10, lo, hi)[0]), _ts_nodes(10, lo, hi)[1]))
        assert abs(fine - coarse) <= max(res.abs_error_bound, 1e-12) or abs(fine - res.value) < 1e-10

    def test_divergence_flagged(self):
        h_bad = lambda x: (1.0 - np.asarray(x)) ** -1.2  # integral diverges at the upper edge
        res = condensation_constant(h_bad, rho=1.5, k=2, tol=1e-10, method="grid")
        assert res.diverged
        assert math.isinf(res.value)
        assert "divergent" in res.note
        # the endpoint probe flags it before any refinement runs
        assert "endpoint probe" in res.note
        assert "refinements grew" not in res.note

    def test_max_level_note(self):
        # the log-corrected cut-off density converges too slowly for tol 1e-10
        res = condensation_constant(SmoothCutoff(c=1.5, alpha=1.5).h, rho=1.5, k=2, tol=1e-10, method="grid")
        assert not res.diverged
        assert res.abs_error_bound > 1e-10
        assert "max level 12" in res.note
        assert condensation_constant(TP.h, rho=1.5, k=2, tol=1e-10, method="grid").note == ""

    def test_raising_h_propagates(self):
        def h_bug(x):
            raise KeyError("bug in h")

        with pytest.raises(KeyError):
            condensation_constant(h_bug, rho=1.5, k=2, tol=1e-10, method="grid")

    def test_k4_monte_carlo_against_simplex_volume(self):
        # h = 1, rho = 3.5: P(U1+U2+U3 in (2.5, 3.5)) = 0.5^3/6
        res = condensation_constant(uniform_h, rho=3.5, k=4, method="monte_carlo", samples=300_000, seed=2)
        assert res.method == "monte_carlo"
        assert abs(res.value - 0.5 ** 3 / 6) < max(3 * res.abs_error_bound, 5e-4)


def k2_reference(scheme, rho):
    """K(rho) for k = 2 and its error estimate by adaptive quad, independent of the tanh-sinh grid: twice
    the integral of h(x) h(rho - x) over [rho/2, 1].  For SmoothCutoff it runs in L = -log(1 - x), where
    h(x) dx = c alpha L^(-alpha-1) dL, so the log-singular edge at x = 1 is integrated in full."""
    h = lambda x: float(scheme.h(x))
    if isinstance(scheme, SmoothCutoff):
        a = scheme.alpha
        f = lambda ell: scheme.c * a * ell ** (-a - 1.0) * h(rho - 1.0 + math.exp(-ell))
        val, err = quad(f, -math.log1p(-rho / 2.0), math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    else:
        val, err = quad(lambda x: h(x) * h(rho - x), rho / 2.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return 2.0 * val, 2.0 * err


_EDGE_CLIP = pytest.mark.xfail(
    strict=True,
    reason="the tanh-sinh nodes clip 1e-12 from each edge: about 2% of SmoothCutoff's log-corrected mass, "
    "far outside the reported bound (edge-exact quadrature is still open)",
)


class EdgePower:
    """h_gamma(x) = (1 - x)^-gamma, whose K has a closed form for every k.  With u_i = 1 - x_i the slab
    {x in (0, 1)^k, sum x = rho} is the simplex {u >= 0, sum u = s}, s = k - rho, and Dirichlet's integral
    (Whittaker & Watson, A Course of Modern Analysis, 12.5) gives
    K_k(rho) = s^(k(1-gamma) - 1) Gamma(1-gamma)^k / Gamma(k(1-gamma)).  gamma = 0 is `uniform_h`."""

    def __init__(self, gamma):
        self.gamma = gamma

    def h(self, x):
        return (1.0 - np.asarray(x, dtype=float)) ** -self.gamma

    def krho(self, rho, k):
        a = 1.0 - self.gamma
        return (k - rho) ** (k * a - 1.0) * math.gamma(a) ** k / math.gamma(k * a)


_GAMMA_EDGE_CLIP = pytest.mark.xfail(
    strict=True,
    reason="the 1e-12 edge clip of the tanh-sinh nodes loses mass of order 1e-12^(1 - gamma): relative errors "
    "from -8.8e-10 (gamma 0.25) to -1.2e-1 (gamma 0.9), against bounds of at most 4.2e-6 relative",
)


@pytest.mark.parametrize(
    "scheme, rho, k, tol",
    [pytest.param(TP, 1.5, 2, 1e-10, id="pareto-1.5")]
    + [
        pytest.param(SmoothCutoff(c=1.5, alpha=1.5), rho, 2, 1e-10, marks=_EDGE_CLIP, id=f"smooth-{rho}")
        for rho in (1.2, 1.5, 1.8)
    ]
    + [
        pytest.param(
            EdgePower(gamma), rho, k, 1e-8, marks=_GAMMA_EDGE_CLIP if gamma else (), id=f"gamma{gamma}-k{k}-{rho}"
        )
        for gamma in (0.0, 0.25, 0.5, 0.75, 0.9)
        for k, rho in ((2, 1.5), (2, 1.9), (3, 2.5))
    ],
)
def test_grid_bound_covers_reference_error(scheme, rho, k, tol):
    # references: TruncatedPareto 5.2378280088, SmoothCutoff 113.72068, 13.33750 and 2.71929
    res = condensation_constant(scheme.h, rho=rho, k=k, tol=tol, method="grid")
    ref, ref_err = (scheme.krho(rho, k), 0.0) if isinstance(scheme, EdgePower) else k2_reference(scheme, rho)
    assert abs(res.value - ref) <= res.abs_error_bound + ref_err


# gamma >= 1/2 is left out: h(rho - s)^2 is not integrable at the edge once 2 gamma >= 1, so the standard error
# behind the 3-sigma bound means nothing (gamma 0.75 and 0.9 missed it by up to -42% on some seeds).  Each case
# misses a 3-sigma normal bound with probability about 0.27% under a new seed; the seeds here are fixed.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k, rho", [(4, 3.5), (5, 4.5)])
@pytest.mark.parametrize("gamma", [0.0, 0.25])
def test_monte_carlo_bound_covers_closed_form(gamma, k, rho, seed):
    scheme = EdgePower(gamma)
    res = condensation_constant(scheme.h, rho=rho, k=k, method="monte_carlo", samples=400_000, seed=seed)
    assert res.method == "monte_carlo"
    assert abs(res.value - scheme.krho(rho, k)) <= res.abs_error_bound


class TestJumpDensity:
    def test_support_indicator(self):
        assert limit_jump_density(uniform_h, 1.5, 2, [0.7]) == 1.0
        assert limit_jump_density(uniform_h, 1.5, 2, [0.3]) == 0.0

    def test_pareto_product_value(self):
        want = (1.5 * 0.7 ** -2.5) * (1.5 * 0.8 ** -2.5)
        assert limit_jump_density(TP.h, 1.5, 2, [0.7]) == pytest.approx(want, rel=1e-12)

    def test_symmetry_k2(self):
        for x in (0.55, 0.6, 0.75, 0.9):
            a = limit_jump_density(TP.h, 1.5, 2, [x])
            b = limit_jump_density(TP.h, 1.5, 2, [1.5 - x])
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_normalization(self, k):
        # the bin masses of the first jump sum to K
        tol, rho = 1e-8, k - 0.5
        kr = condensation_constant(TP.h, rho, k, tol=tol, method="grid")
        edges = np.linspace(rho - (k - 1), 1.0, 5)
        mass = sum(jump_marginal_mass(TP.h, rho, k, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))
        assert abs(mass / kr.value - 1.0) <= 5 * max(tol, kr.abs_error_bound)

    def test_unconverged_marginal_mass_warns(self):
        # SmoothCutoff's log-corrected edge keeps the bin next to 1/2 short of tol at the finest level
        with pytest.warns(RuntimeWarning, match="max level 12 reached"):
            mass = jump_marginal_mass(SmoothCutoff(c=1.5, alpha=1.5).h, 1.5, 2, 0.5, 0.5625)
        assert mass > 0.0

    def test_converged_marginal_masses_do_not_warn(self, recwarn):
        # the eight gof bins of TruncatedPareto(1.2, 1.2) at rho = 1.5 all meet tol
        edges = np.linspace(0.5, 1.0, 9)
        h = TruncatedPareto(c=1.2, alpha=1.2).h
        assert all(jump_marginal_mass(h, 1.5, 2, lo, hi) > 0.0 for lo, hi in zip(edges[:-1], edges[1:]))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_marginal_mass_k3(self):
        # h = 1, rho = 2.5: total marginal mass equals the slab area
        total = jump_marginal_mass(uniform_h, 2.5, 3, 0.5, 1.0)
        assert total == pytest.approx(0.125, abs=1e-6)

    def test_batch_shape(self):
        vals = limit_jump_density(uniform_h, 1.5, 2, np.array([[0.7], [0.3], [0.9]]))
        assert vals.tolist() == [1.0, 0.0, 1.0]


class TestSlabIntegral:
    @staticmethod
    def spy(h):
        """h wrapped to assert 1-D arguments and record the size of every call."""
        sizes = []

        def wrapped(x):
            assert np.ndim(x) == 1
            sizes.append(len(x))
            return h(x)

        return wrapped, sizes

    @pytest.mark.parametrize("rho, k", [(1.5, 2), (2.5, 3)])
    def test_grid_calls_h_on_1d_blocks(self, rho, k):
        h, sizes = self.spy(TP.h)
        res = condensation_constant(h, rho, k, tol=1e-10, method="grid")
        assert not res.diverged and res.note == ""
        assert sizes and max(sizes) <= _BLOCK

    def test_marginal_mass_calls_h_on_1d_blocks(self):
        h, sizes = self.spy(TP.h)
        assert jump_marginal_mass(h, 2.5, 3, 0.6, 0.8) > 0.0
        assert sizes and max(sizes) <= _BLOCK

    @pytest.mark.parametrize("level", [3, 6])
    def test_inner_k3_matches_row_loop(self, level):
        # reference: one scalar-limit tanh-sinh rule per outer node, reading h(rho - x - y_j) as h(y_-j)
        rho, sc = 2.5, SmoothCutoff(c=1.5, alpha=1.5).h

        def row_loop(h, x, level, nodes=slice(None), direct=False):
            want = np.zeros_like(x)
            for i, xi in enumerate(x):
                if 1.0 - (rho - 1.0 - xi) > 2e-12:
                    y, w = _ts_nodes(level, rho - 1.0 - xi, 1.0, nodes)
                    hy = h(y)
                    want[i] = np.dot(hy * (h(rho - xi - y) if direct else hy[::-1]), w)
            return want

        x = _ts_nodes(level, rho - 2.0, 1.0)[0]
        assert np.array_equal(_inner_k3(sc, rho, x, level)[0], row_loop(sc, x, level))
        # the mirror is the direct form up to rounding where h is smooth at the edge
        np.testing.assert_allclose(_inner_k3(TP.h, rho, x, level)[0], row_loop(TP.h, x, level, direct=True), rtol=1e-12)
        # nested: the rows of the level before get half their old value plus the new (odd) inner nodes
        prev = row_loop(sc, _ts_nodes(level - 1, rho - 2.0, 1.0)[0], level - 1)
        old, new = _split(level)
        want = row_loop(sc, x, level)
        want[old] = 0.5 * prev + row_loop(sc, x[old], level, nodes=new)
        assert np.array_equal(_inner_k3(sc, rho, x, level, prev)[0], want)

    def test_k3_h_calls(self, smooth_k3_reference):
        # the inner integral runs for all outer nodes of a level in a few calls
        h, sizes = self.spy(TP.h)
        condensation_constant(h, 2.5, 3, tol=1e-10, method="grid")
        assert len(sizes) < 60
        # reuse and the mirror: under 0.4 of the h points of the loop without them
        h, sizes = self.spy(SmoothCutoff(c=1.5, alpha=1.5).h)
        condensation_constant(h, 2.5, 3, tol=1e-8, method="grid")
        assert sum(sizes) <= 0.4 * smooth_k3_reference[3]

    @pytest.mark.parametrize("shape", [TP, SmoothCutoff(c=1.5, alpha=1.5)])
    def test_k2_reuse_is_bit_identical(self, shape):
        res = condensation_constant(shape.h, 1.5, 2, tol=1e-10, method="grid")
        value, bound, note, _, values = reference_slab(shape.h, 1.5, 2, 1e-10)
        assert (res.value, res.abs_error_bound, res.note) == (value, bound, note)
        assert [v for _, _, v in res.levels] == values

    def test_k3_reuse_matches_reference(self, smooth_k3_reference):
        res = condensation_constant(SmoothCutoff(c=1.5, alpha=1.5).h, 2.5, 3, tol=1e-8, method="grid")
        value, bound, note, _, values = smooth_k3_reference
        assert res.value == pytest.approx(value, rel=1e-9, abs=0.0)
        assert res.abs_error_bound == pytest.approx(bound, rel=1e-3)
        assert res.note == note and "max level 9" in note
        assert len(res.levels) == len(values)

    @pytest.mark.parametrize("rho, k, probe_points", [(1.5, 2, 8), (2.5, 3, 4)])
    def test_refinement_trace(self, rho, k, probe_points):
        h, sizes = self.spy(TP.h)
        res = condensation_constant(h, rho, k, tol=1e-10, method="grid")
        assert [level for level, _, _ in res.levels] == list(range(2, 2 + len(res.levels)))
        assert res.levels[-1][2] == res.value
        assert max(abs(res.levels[-1][2] - res.levels[-2][2]), 1e-16) == res.abs_error_bound
        # every h point but the endpoint probe's belongs to a level
        assert sum(points for _, points, _ in res.levels) == sum(sizes) - probe_points
        assert condensation_constant(TP.h, 0.5, 1).levels == ()

    def test_k3_does_not_depend_on_block(self, monkeypatch):
        sc = SmoothCutoff(c=1.5, alpha=1.5)
        want = condensation_constant(sc.h, 2.5, 3, tol=1e-8, method="grid")
        mass = jump_marginal_mass(TP.h, 2.5, 3, 0.6, 0.8)
        monkeypatch.setattr("bigjumps.condensation._BLOCK", 1 << 12)  # one row per call at level 9
        assert condensation_constant(sc.h, 2.5, 3, tol=1e-8, method="grid") == want
        assert jump_marginal_mass(TP.h, 2.5, 3, 0.6, 0.8) == mass

    def test_grid_does_not_depend_on_blas_threads(self):
        # the outer sum of a level 11 or 12 rule (14.7k and 29.5k nodes) would go to a threaded BLAS dot
        code = (
            "from bigjumps import SmoothCutoff, condensation_constant as K; h = SmoothCutoff(1.5, 1.5).h; "
            "print(repr(K(h, 1.5, 2, tol=1e-10, method='grid'))); print(repr(K(h, 2.5, 3, tol=1e-8, method='grid')))"
        )
        out = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        ]
        assert "(12, " in out[0] and "(9, " in out[0]
        assert out[0] == out[1]

    @staticmethod
    def thread_spy(f):
        """f wrapped to record the thread of every call."""
        threads = set()

        def wrapped(*args):
            threads.add(threading.get_ident())
            return f(*args)

        return wrapped, threads

    def test_small_passes_stay_on_the_calling_thread(self, monkeypatch):
        # at two workers a pass of fewer than 4 blocks runs inline: every pass of the eight uniform
        # marginal-mass bins (levels 2 and 3), and the nested passes through level 6 (2 blocks at most);
        # level 7's passes hold 4 and 7 blocks and hand a pool thread a share of them
        monkeypatch.setattr(schemes, "_WORKERS", 2)
        caller = {threading.get_ident()}
        edges = np.linspace(0.5, 1.0, 9)
        for lo, hi in zip(edges[:-1], edges[1:]):
            h, threads = self.thread_spy(uniform_h)
            assert jump_marginal_mass(h, 2.5, 3, lo, hi) > 0.0
            assert threads == caller
        sc, inner_rows, prev = SmoothCutoff(c=1.5, alpha=1.5).h, condensation._inner_rows, None
        for level in range(2, 8):
            h, threads = self.thread_spy(sc)
            rows, runners = self.thread_spy(inner_rows)
            monkeypatch.setattr(condensation, "_inner_rows", rows)
            prev = _inner_k3(h, 2.5, _ts_nodes(level, 0.5, 1.0)[0], level, prev)[0]
            assert (runners == caller) == (level <= 6)
            assert threads <= runners

    def test_threaded_k3_under_stress(self, monkeypatch):
        # eight workers on one-row blocks, switching threads every microsecond: a lost row or point count
        # would change the refinement trace
        sc = SmoothCutoff(c=1.5, alpha=1.5).h
        monkeypatch.setattr(schemes, "_WORKERS", 1)
        want = condensation_constant(sc, 2.5, 3, tol=1e-4)  # levels 2 to 8
        monkeypatch.setattr(schemes, "_WORKERS", 8)
        monkeypatch.setattr("bigjumps.condensation._BLOCK", 1 << 10)
        got = []
        runner = threading.Thread(target=lambda: got.append(condensation_constant(sc, 2.5, 3, tol=1e-4)), daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(got) == 1 and got[0].levels == want.levels and got[0] == want


class TestLimitSampler:
    def test_uniform_limit_is_uniform_on_support(self):
        rng = np.random.default_rng(4)
        x = sample_limit_jumps(uniform_h, 1.5, 2, 40_000, rng).ravel()
        assert x.min() > 0.5 and x.max() < 1.0
        assert abs(x.mean() - 0.75) < 4 * (0.5 / math.sqrt(12)) / math.sqrt(len(x))
        counts, _ = np.histogram(x, bins=10, range=(0.5, 1.0))
        chi2 = np.sum((counts - len(x) / 10) ** 2 / (len(x) / 10))
        assert chi2 < 40  # 9 dof; generous

    def test_pareto_limit_mean(self):
        rng = np.random.default_rng(5)
        x = sample_limit_jumps(TP.h, 1.5, 2, 40_000, rng).ravel()
        # by the k = 2 exchange symmetry the mean must be rho / 2
        assert abs(x.mean() - 0.75) < 0.01


class TestHProposal:
    @staticmethod
    def two_searches(prop, u):
        """The lookup as two binary searches, np.interp for the draw and searchsorted for its segment."""
        seg_pdf = np.diff(prop._cdf) / np.diff(prop._x)
        x = np.clip(np.interp(u, prop._cdf, prop._x), prop.floor + _EDGE, 1.0 - _EDGE)
        seg = np.clip(np.searchsorted(prop._cdf, u, side="right") - 1, 0, len(seg_pdf) - 1)
        return x, np.asarray(prop._h(x), dtype=float) / np.maximum(seg_pdf[seg], 1e-300)

    @pytest.mark.parametrize("floor", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize(
        "h",
        [TP.h, TruncatedPareto(c=1.2, alpha=1.2).h, SmoothCutoff(c=1.5, alpha=1.5).h, uniform_h],
        ids=["TP", "TP12", "SC", "uniform"],
    )
    def test_guide_table_matches_two_searches(self, h, floor):
        prop = _HProposal(h, floor)
        knots = prop._cdf
        # every knot and its 1-ulp neighbours; _mc_krho's stratified (63 + r)/64 can round to exactly 1.0
        u = np.concatenate(
            [
                np.random.default_rng(8).random(200_000),
                knots,
                np.nextafter(knots, -1.0).clip(0.0, None),
                np.nextafter(knots, 2.0).clip(None, 1.0),
                [0.0, 1.0],
            ]
        )
        x, weight = prop.from_uniform(u)
        want_x, want_weight = self.two_searches(prop, u)
        assert np.array_equal(x, want_x)
        assert np.array_equal(weight, want_weight)
        assert prop._wide[(u * prop._bins).astype(np.intp)].any()  # the search fallback ran
        # the stratification of the first coordinate needs x non-decreasing in u
        assert np.all(np.diff(prop.from_uniform(np.sort(u))[0]) >= 0.0)

    def test_outputs_pinned(self):
        # the outputs of the two-search lookup, to the bit
        res = condensation_constant(TP.h, 3.5, 4, method="monte_carlo", samples=100_000, seed=3)
        assert (res.value.hex(), res.abs_error_bound.hex()) == ("0x1.bbb8537e20e0ap-2", "0x1.67007e990505ap-6")
        res = condensation_constant(TP.h, 1.5, 2, method="monte_carlo", samples=100_000, seed=3)
        assert (res.value.hex(), res.abs_error_bound.hex()) == ("0x1.4f3a48deb829dp+2", "0x1.f11333d682946p-11")
        draws = sample_limit_jumps(TP.h, 2.5, 3, 2000, np.random.default_rng(7))
        assert draws.shape == (2000, 2)
        assert (
            hashlib.sha256(draws.tobytes()).hexdigest()
            == "414dca16b87e4608238ba81e665140d1dff81c9a8d40f67c71ca6101ed30266d"
        )


def test_tabulated_h_loader(tmp_path):
    path = tmp_path / "h.csv"
    xs = np.linspace(0.001, 0.999, 200)
    with open(path, "w") as fh:
        fh.write("x,h\n")
        for xi in xs:
            fh.write(f"{xi},1.0\n")
    h = load_tabulated_h(path)
    res = condensation_constant(h, rho=1.5, k=2, tol=1e-7)
    assert abs(res.value - 0.5) < 1e-4
    with pytest.raises(ValueError):
        h(1.5)


def test_tabulated_h_matches_scipy_pchip(tmp_path):
    from scipy.interpolate import PchipInterpolator

    # uneven knots on [0.05, 0.95], a sign change in the slopes and flat stretches; (0, 1) extrapolates past both ends
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(0.05, 0.95, 57))
    vals = np.where(rng.random(57) < 0.2, 0.5, np.abs(np.sin(7.0 * xs)) + 0.1 * xs)
    path = tmp_path / "h.csv"
    path.write_text("x,h\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(xs.tolist(), vals.tolist())))
    q = np.concatenate((xs, np.linspace(1e-6, 1.0 - 1e-6, 100_001)))
    want = np.maximum(PchipInterpolator(xs, vals, extrapolate=True)(q), 0.0)
    h = load_tabulated_h(path)
    assert np.array_equal(h(q), want)
    assert h(0.01) == max(PchipInterpolator(xs, vals)(0.01), 0.0) and type(h(0.01)) is np.float64


@pytest.mark.parametrize("xs", [(0.1, 0.5, 0.5, 0.9), (0.1, 0.6, 0.4, 0.9)], ids=["repeated", "decreasing"])
def test_tabulated_h_rejects_unsorted_knots(tmp_path, xs):
    from bigjumps._pchip import pchip

    path = tmp_path / "h.csv"
    path.write_text("x,h\n" + "".join(f"{x},1.0\n" for x in xs))
    with pytest.raises(ValueError, match="strictly increasing"):
        load_tabulated_h(path)
    with pytest.raises(ValueError, match="strictly increasing"):
        pchip(xs, np.ones(len(xs)))
