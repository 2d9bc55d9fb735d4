import math

import numpy as np
import pytest

from bigjumps import (
    TruncatedPareto,
    condensation_constant,
    jump_marginal_mass,
    limit_jump_density,
    load_tabulated_h,
    sample_limit_jumps,
    uniform_h,
)
from bigjumps.condensation import _ts_nodes

TP = TruncatedPareto(c=1.5, alpha=1.5)


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

    def test_normalization(self):
        tol = 1e-8
        k = condensation_constant(TP.h, 1.5, 2, tol=tol, method="grid")
        mass = jump_marginal_mass(TP.h, 1.5, 2, 0.5, 1.0)
        assert abs(mass / k.value - 1.0) <= 5 * max(tol, k.abs_error_bound)

    def test_marginal_mass_k3(self):
        # h = 1, rho = 2.5: total marginal mass equals the slab area
        total = jump_marginal_mass(uniform_h, 2.5, 3, 0.5, 1.0)
        assert total == pytest.approx(0.125, abs=1e-6)

    def test_batch_shape(self):
        vals = limit_jump_density(uniform_h, 1.5, 2, np.array([[0.7], [0.3], [0.9]]))
        assert vals.tolist() == [1.0, 0.0, 1.0]


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
