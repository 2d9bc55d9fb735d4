import math

import numpy as np
import pytest

from bigjumps import (
    LatticeBall,
    TorusConfig,
    ball_point_count,
    calibrate_h,
    condensation_stats,
    g_eval,
    g_inverse,
    g_prime,
    generate_graph,
    h_lattice,
    lattice_tail_constant,
    out_degree_sample,
    torus_distance,
)
from bigjumps.torus import sorted_offset_norms2


class TestDistance:
    def test_zero_at_identity(self):
        assert torus_distance(2, 11, (3, -4), (3, -4)) == 0.0

    def test_wraps(self):
        # d=1, L=11: points -5 and 5 are one step apart around the seam
        assert torus_distance(1, 11, (-5,), (5,)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.integers(-5, 6, size=3)
            w = rng.integers(-5, 6, size=3)
            assert torus_distance(3, 11, v, w) == pytest.approx(torus_distance(3, 11, w, v))


class TestBallCount:
    def test_d1_nearest_neighbours(self):
        assert ball_point_count(1, 5, 1.5) == 2

    def test_d2_eight_neighbours(self):
        assert ball_point_count(2, 5, 1.5) == 8

    def test_d2_radius_2_1(self):
        assert ball_point_count(2, 5, 2.1) == 12

    def test_covers_whole_torus(self):
        for d, N in ((1, 5), (2, 5), (3, 3)):
            assert ball_point_count(d, N, N * math.sqrt(d) + 1.0) == (2 * N + 1) ** d - 1

    def test_open_ball_strictness(self):
        # R just above 1 catches only the 2d axis neighbours
        assert ball_point_count(2, 5, 1.0 + 1e-9) == 4

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(1)
        radii = np.sort(1.0 + 9.0 * rng.random(50))
        counts = [ball_point_count(2, 8, float(r)) for r in radii]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_small_radius_path_matches_table_path(self):
        for R in (1.2, 2.7, 3.9):
            small = ball_point_count(2, 40, R)  # box path
            table = int(np.searchsorted(sorted_offset_norms2(2, 40), R * R, side="left"))
            assert small == table

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            ball_point_count(2, 5, 0.0)


class TestOutDegree:
    CFG = TorusConfig(d=2, N=16, beta=3.0, seed=0)

    def test_min_degree_2d(self):
        rng = np.random.default_rng(2)
        w = out_degree_sample(self.CFG, rng, size=100_000)
        assert w.min() >= 2 * self.CFG.d

    def test_mean_stabilizes_across_N(self):
        means = []
        for N in (16, 32, 64):
            cfg = TorusConfig(d=2, N=N, beta=3.0, seed=0)
            rng = np.random.default_rng(3)
            means.append(out_degree_sample(cfg, rng, size=200_000).mean())
        assert abs(means[2] - means[1]) < abs(means[1] - means[0]) + 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TorusConfig(d=2, N=8, beta=1.5, seed=0)  # beta <= d
        with pytest.raises(ValueError):
            TorusConfig(d=0, N=8, beta=1.5, seed=0)


class TestGraph:
    def test_edge_conservation_exact(self):
        for seed in range(5):
            g = generate_graph(TorusConfig(d=2, N=12, beta=3.0, seed=seed))
            assert g.out_degrees.sum() == g.in_degrees.sum() == g.edge_count

    def test_deterministic(self):
        cfg = TorusConfig(d=1, N=50, beta=1.5, seed=9)
        a, b = generate_graph(cfg), generate_graph(cfg)
        assert np.array_equal(a.out_degrees, b.out_degrees)
        assert np.array_equal(a.in_degrees, b.in_degrees)

    def test_against_brute_force(self):
        cfg = TorusConfig(d=2, N=3, beta=3.0, seed=3)
        g = generate_graph(cfg)
        L, n = cfg.L, cfg.n
        rng = np.random.default_rng(np.random.SeedSequence(3))
        radii = (1.0 - rng.random(n)) ** (-1.0 / cfg.beta)
        coords = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
        ind = np.zeros(n, int)
        outd = np.zeros(n, int)
        for i in range(n):
            for j in range(n):
                if i != j and torus_distance(2, L, coords[i], coords[j]) < radii[i]:
                    outd[i] += 1
                    ind[j] += 1
        assert np.array_equal(outd, g.out_degrees)
        assert np.array_equal(ind, g.in_degrees)

    def test_local_in_degree_bound_for_small_radii(self):
        # with every radius < 2, nobody's in-degree can exceed the number of
        # lattice points within distance 2
        cfg = TorusConfig(d=2, N=10, beta=3.0, seed=4)
        capped = {i: min(1.9, r) for i, r in enumerate((1.0 - np.random.default_rng(4).random(cfg.n)) ** (-1 / 3.0))}
        g = generate_graph(cfg, planted_radii=capped)
        assert g.in_degrees.max() <= ball_point_count(2, 10, 2.0)

    def test_planted_giant_radius(self):
        cfg = TorusConfig(d=2, N=8, beta=3.0, seed=5)
        g = generate_graph(cfg, planted_radii={7: cfg.N * math.sqrt(2) + 1.0})
        stats = condensation_stats(g, k=1, eps=0.5)
        assert stats["big_out_count"] >= 1
        assert stats["top_k_out_share"] == pytest.approx((cfg.n - 1) / cfg.n)


class TestCondensationStats:
    def test_top_n_share_is_edge_density(self):
        cfg = TorusConfig(d=1, N=30, beta=1.5, seed=6)
        g = generate_graph(cfg)
        stats = condensation_stats(g, k=cfg.n, eps=0.9)
        assert stats["top_k_out_share"] == pytest.approx(g.rho_n)

    def test_tiny_radii_mean_no_condensate(self):
        cfg = TorusConfig(d=2, N=12, beta=3.0, seed=7)
        tiny = {i: 1.0 + 1e-9 for i in range(cfg.n)}
        g = generate_graph(cfg, planted_radii=tiny)
        stats = condensation_stats(g, k=3, eps=0.1)
        assert stats["top_k_out_share"] <= 3 * (2 * 2 + 1) / cfg.n
        assert stats["big_out_count"] == 0


class TestGeometry:
    def test_g_saturates_at_one(self):
        for d in (1, 2, 3):
            assert g_eval(d, 1.0) == pytest.approx(1.0, abs=1e-9)
            assert g_eval(d, 1.7) == 1.0

    def test_g_d1_closed_form(self):
        assert g_eval(1, 0.5) == 0.5
        assert g_eval(1, 0.25) == 0.25

    def test_g_d2_inscribed_disk(self):
        assert g_eval(2, 1.0 / math.sqrt(2.0)) == pytest.approx(math.pi / 4.0, abs=1e-10)

    def test_g_strictly_increasing(self):
        r = np.linspace(0.01, 0.99, 200)
        for d in (1, 2, 3):
            vals = np.asarray(g_eval(d, r))
            assert np.all(np.diff(vals) > 0)

    def test_g_inverse_roundtrip(self):
        for d, tol in ((1, 1e-8), (2, 1e-8), (3, 1e-5)):
            for r in (0.2, 0.5, 0.8):
                a = float(g_eval(d, r))
                assert abs(g_inverse(d, a) - r) < tol

    def test_g_inverse_domain(self):
        with pytest.raises(ValueError):
            g_inverse(2, 0.0)
        with pytest.raises(ValueError):
            g_inverse(2, 1.0)

    def test_g_prime_positive_and_consistent(self):
        for d in (1, 2, 3):
            for r in (0.3, 0.6, 0.9):
                fd = (g_eval(d, r + 1e-6) - g_eval(d, r - 1e-6)) / 2e-6
                gp = float(g_prime(d, r))
                assert gp > 0
                assert gp == pytest.approx(fd, rel=5e-3, abs=1e-4)

    def test_geometry_table_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIGJUMPS_OUT_DIR", str(tmp_path))
        from bigjumps.torus import GeometryTable

        t1 = GeometryTable.build(3)
        assert (tmp_path / "geometry_d3_4096.csv").exists()
        t2 = GeometryTable.build(3)
        assert np.array_equal(t1.g, t2.g)

    def test_truncated_geometry_cache_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIGJUMPS_OUT_DIR", str(tmp_path))
        from bigjumps.torus import GeometryTable

        fresh = GeometryTable.build(3)
        path = tmp_path / "geometry_d3_4096.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:2000]))
        loaded = GeometryTable.build(3)
        assert np.array_equal(loaded.r, fresh.r)
        assert np.array_equal(loaded.g, fresh.g)
        assert loaded(0.9) == fresh(0.9)
        assert len(path.read_text().splitlines()) == 4097  # the cache is rewritten whole
        assert [f.name for f in tmp_path.iterdir()] == [path.name]  # no temp file left behind


class TestLatticeShapeDensity:
    def test_d1_closed_form(self):
        # g^{-1}(a) = a for d = 1, so h = const * beta * x^{-beta-1}
        beta = 1.5
        const = lattice_tail_constant(1, beta)
        assert const == pytest.approx(2.0 ** beta)
        for x in (0.2, 0.5, 0.9):
            assert h_lattice(1, beta, x) == pytest.approx(const * beta * x ** (-beta - 1.0), rel=1e-6)

    def test_calibration_identity_d1(self):
        # int_a^1 h plus the top point mass equals the scaled upper tail
        beta, a = 1.5, 0.5
        const = lattice_tail_constant(1, beta)
        xs = np.linspace(a, 1.0 - 1e-9, 200_001)
        integral = np.trapezoid(h_lattice(1, beta, xs), xs)
        top_mass = const  # lim of n^beta * P(ball covers the torus) = const * g^{-1}(1)^{-beta}
        want = const * a ** -beta
        assert integral + top_mass == pytest.approx(want, rel=1e-3)
        # Monte Carlo tail oracle
        report = calibrate_h(1, beta, N_list=[512], a_list=(a,), samples=400_000, seed=0)
        row = report["rows"][0]
        assert abs(row["scaled_tail"] - want) < 4 * row["scaled_tail_se"] + 0.06 * want

    def test_d2_integrable_near_one(self):
        # refining quadrature of h over (0.9, 1) stabilizes: integrable singularity
        beta = 3.0
        vals = []
        for pts in (2_001, 4_001, 8_001):
            xs = 0.9 + 0.1 * (np.arange(pts) + 0.5) / pts
            vals.append(float(np.mean(h_lattice(2, beta, xs)) * 0.1))
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]) + 1e-3
        assert vals[2] < 10.0

    def test_domain(self):
        with pytest.raises(ValueError):
            h_lattice(2, 3.0, 1.0)

    def test_tail_constant_report(self):
        report = calibrate_h(1, 1.5, N_list=[128, 256], a_list=(0.5,), samples=200_000, seed=1)
        assert report["derived_const"] == pytest.approx(2.0 ** 1.5)
        assert report["quoted_const"] == pytest.approx(4.0 ** -0.75)
        for row in report["rows"]:
            assert abs(row["measured_const"] - report["derived_const"]) < 5 * row["measured_const_se"] + 0.2


class TestLatticeBallScheme:
    def test_tail_constant_matches_scheme_tail(self):
        lb = LatticeBall(d=1, beta=1.5)
        n = 1025  # N = 512
        scaled = n ** 1.5 * lb.tail(n, 0.5 * n)
        assert abs(scaled - 2.0 ** 1.5 * 0.5 ** -1.5) < 0.15
