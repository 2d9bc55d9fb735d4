import itertools
import math
import tracemalloc

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
)
from bigjumps import torus


def scalar_g_inverse(d, a):
    """Reference: the point-by-point bisection, stopped once the interval is under 1e-12."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(g_eval(d, mid)) < a:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def torus_distance(d: int, L: int, v, w) -> float:
    """Euclidean norm of the per-axis wrapped differences min(|dx|, L - |dx|): the brute-force oracle's metric."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (d,) or w.shape != (d,):
        raise ValueError(f"points must have shape ({d},)")
    delta = np.abs(v - w) % L
    delta = np.minimum(delta, L - delta)
    return float(np.sqrt(np.sum(delta * delta)))


def brute_force_degrees(cfg: TorusConfig, planted: dict) -> tuple[np.ndarray, np.ndarray]:
    """Out- and in-degrees by testing every vertex pair against the Pareto(beta) radii of the seed, planted ones overriding."""
    d, N, n = cfg.d, cfg.N, cfg.n
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    radii = (1.0 - rng.random(n)) ** (-1.0 / cfg.beta)
    for i, r in planted.items():
        radii[i] = r
    coords = list(itertools.product(range(-N, N + 1), repeat=d))
    ind = np.zeros(n, int)
    outd = np.zeros(n, int)
    for i in range(n):
        for j in range(n):
            if i != j and torus_distance(d, cfg.L, coords[i], coords[j]) < radii[i]:
                outd[i] += 1
                ind[j] += 1
    return outd, ind


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

    def test_array_matches_per_radius_calls(self):
        radii = np.array([[1.2, 2.7], [3.9, 57.0], [1.0, np.inf]])
        counts = ball_point_count(2, 40, radii)
        assert counts.shape == radii.shape
        assert counts.tolist() == [[ball_point_count(2, 40, float(r)) for r in row] for row in radii]
        assert counts[-1].tolist() == [0, 81 * 81 - 1]  # R = 1 is open; an infinite radius covers the torus
        assert np.ndim(ball_point_count(2, 40, 2.7)) == 0

    @pytest.mark.parametrize("d,N", [(1, 1), (1, 512), (1, 100000), (2, 8), (2, 512), (3, 4), (3, 20)])
    def test_table_read_equals_binary_search(self, d, N):
        # heavy-tailed radii, the integer and sqrt-integer boundaries from both sides, 1e9, inf and
        # radii whose square underflows; (1, 100000) keeps a table shorter than d N^2, so its far radii fall back
        rng = np.random.default_rng(d * 1000 + N)
        top = min(d * N * N, (2 * N + 1) ** d - 1)  # the last squared norm the count table holds
        k = np.concatenate([np.arange(1.0, 5001.0), top + np.arange(-2.0, 3.0), d * N * N + np.arange(-1.0, 2.0)])
        k = k[k > 0.0]
        special = [1.0, math.sqrt(2.0), 2.0, 1e9, np.inf, 1e-170, 5e-324]
        radii = np.concatenate([(1.0 - rng.random(1 << 20)) ** (-1.0 / 1.5), special, np.sqrt(k),
                                np.nextafter(k, 0.0), np.nextafter(k, np.inf), np.sqrt(np.nextafter(k, np.inf))])
        norms2 = torus.sorted_offset_norms2(d, N)
        for R in (radii, radii[: 3 * 1001].reshape(3, 1001), np.array(2.5), 2.5, np.sqrt(2.0)):
            want = np.searchsorted(norms2, np.asarray(R) * np.asarray(R), side="left")[()]
            got = ball_point_count(d, N, R)
            assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).dtype == np.asarray(want).dtype == np.intp

    def test_d1_open_ball_closed_form(self):
        # |x| < R on the integers: 2*min(ceil(R) - 1, N) points, so R = 3 counts +-1 and +-2 only
        assert ball_point_count(1, 10, 3.0) == 4
        radii = np.array([0.5, 1.0, 1.5, 2.0, 2.999, 3.0, 3.001, 9.5, 10.0, 10.5, 11.0, 1e6])
        assert ball_point_count(1, 10, radii).tolist() == (2 * np.minimum(np.ceil(radii) - 1, 10)).tolist()

    @pytest.mark.parametrize("d,N", [(1, 5), (2, 4), (3, 3), (2, 64)])
    def test_table_steps_decode_to_sorted_offsets(self, d, N):
        # each offset is its flat step in the box of side P = 4N+1: its base-P digits, less N, are the coordinates
        P, n = 4 * N + 1, (2 * N + 1) ** d
        steps = torus._offset_table(d, N)[0]
        rest, coords = steps + N * sum(P**j for j in range(d)), []
        for _ in range(d):
            rest, digit = np.divmod(rest, P)
            coords.append(digit - N)
        coords = np.stack(coords, axis=1)
        assert steps.dtype == np.int64 and steps.shape == (n - 1,) and not rest.any()
        assert np.all(np.abs(coords) <= N) and np.all(np.any(coords != 0, axis=1))
        assert np.unique(steps).size == n - 1
        assert np.array_equal(np.sum(coords * coords, axis=1), torus.sorted_offset_norms2(d, N))

    def test_empty_radius_array_builds_the_count_table(self):
        torus._offset_table.cache_clear()
        assert ball_point_count(2, 6, np.empty((0, 4))).shape == (0, 4)
        assert torus._offset_table.cache_info().currsize == 1

    def test_rejects_nonpositive_radius(self):
        for radius in (-5.0, 0.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                ball_point_count(2, 5, radius)
            with pytest.raises(ValueError, match="positive"):
                ball_point_count(2, 5, np.array([1.5, radius]))
            with pytest.raises(ValueError, match="positive"):
                generate_graph(TorusConfig(d=2, N=8, beta=3.0, seed=5), planted_radii={7: radius})


class TestOutDegree:
    CFG = TorusConfig(d=2, N=16, beta=3.0, seed=0)

    def test_min_degree_2d(self):
        rng = np.random.default_rng(2)
        w = LatticeBall(self.CFG.d, self.CFG.beta).sample(self.CFG.n, rng, size=100_000)
        assert w.min() >= 2 * self.CFG.d

    def test_mean_stabilizes_across_N(self):
        means = []
        for N in (16, 32, 64):
            rng = np.random.default_rng(3)
            means.append(LatticeBall(2, 3.0).sample((2 * N + 1) ** 2, rng, size=200_000).mean())
        assert abs(means[2] - means[1]) < abs(means[1] - means[0]) + 0.05

    def test_config_validation(self):
        # d and beta are checked by the LatticeBall law the graph draws from
        with pytest.raises(ValueError, match="beta must exceed d"):
            TorusConfig(d=2, N=8, beta=1.5, seed=0)
        with pytest.raises(ValueError, match="dimension d must be >= 1"):
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

    @pytest.mark.parametrize("d, N", [(1, 6), (2, 3), (3, 2)], ids=["d1", "d2", "d3"])
    def test_against_brute_force(self, d, N):
        cfg = TorusConfig(d=d, N=N, beta=d + 1.0, seed=3)
        n = cfg.n
        # a torus-covering ball, one at the wrap distance N and one just past the nearest neighbours
        planted = {0: math.inf, n // 2: float(N), n - 1: 1.0 + 1e-9}
        g = generate_graph(cfg, planted)
        outd, ind = brute_force_degrees(cfg, planted)
        assert np.array_equal(outd, g.out_degrees)
        assert np.array_equal(ind, g.in_degrees)

    @pytest.mark.parametrize("common", [0, 8])
    def test_shared_offsets_against_brute_force(self, common):
        # the offsets every ball holds are added as a torus shift, not visited: an empty planted ball
        # (radius 0.5) leaves none shared; radii all in (sqrt 2, 2) share the 8 offsets of norm^2 1 and 2
        cfg = TorusConfig(d=2, N=3, beta=3.0, seed=6)
        if common == 0:
            planted = {5: 0.5, 20: math.inf, 33: 2.5}
        else:
            planted = {i: 1.5 + 0.1 * (i % 5) for i in range(cfg.n)} | {7: 2.5, 30: float(cfg.N), 48: math.inf}
        g = generate_graph(cfg, planted)
        assert g.out_degrees.min() == common
        outd, ind = brute_force_degrees(cfg, planted)
        assert np.array_equal(outd, g.out_degrees)
        assert np.array_equal(ind, g.in_degrees)

    @pytest.mark.parametrize(
        "cfg, planted",
        [
            (TorusConfig(d=1, N=500, beta=1.5, seed=11), {0: math.inf, 7: 0.5, 1000: 1.0 + 1e-9}),
            (TorusConfig(d=1, N=500, beta=2.0, seed=12), {3: 40.0}),
            (TorusConfig(d=2, N=64, beta=3.0, seed=13), {0: math.inf, 100: 0.5, 16640: 9.5}),
            (TorusConfig(d=3, N=10, beta=6.0, seed=14), {9260: 2.5}),
        ],
        ids=["d1", "d1_beta2", "d2", "d3"],
    )
    def test_out_degrees_are_ball_counts_of_pareto_radii(self, cfg, planted):
        # the out-degree law written out: open-ball counts of Pareto(beta) radii, planted radii overriding
        for plant in (None, planted):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
            radii = (1.0 - rng.random(cfg.n)) ** (-1.0 / cfg.beta)
            for i, r in (plant or {}).items():
                radii[i] = r
            want = ball_point_count(cfg.d, cfg.N, radii)
            got = generate_graph(cfg, plant).out_degrees
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_does_not_change_degrees(self, monkeypatch, block):
        cases = [
            (TorusConfig(d=1, N=40, beta=1.5, seed=1), None),
            (TorusConfig(d=2, N=9, beta=3.0, seed=2), {5: math.inf, 6: 3.5, 200: 0.5}),
            (TorusConfig(d=3, N=3, beta=4.0, seed=3), {0: 2.5, 342: math.inf}),
        ]
        want = [generate_graph(cfg, planted) for cfg, planted in cases]
        monkeypatch.setattr(torus, "_BLOCK", block)
        for (cfg, planted), ref in zip(cases, want):
            g = generate_graph(cfg, planted)
            assert np.array_equal(g.out_degrees, ref.out_degrees)
            assert np.array_equal(g.in_degrees, ref.in_degrees)
            assert g.in_degrees.dtype == ref.in_degrees.dtype

    def test_visit_cap_counts_the_scattered_visits(self, monkeypatch):
        # the cap bounds the visits the scatter makes, not the n * min(out-degree) it skips
        cfg = TorusConfig(d=2, N=8, beta=3.0, seed=1)
        want = generate_graph(cfg)
        total = int(want.out_degrees.sum())
        unshared = total - cfg.n * int(want.out_degrees.min())
        assert 0 < unshared < total
        monkeypatch.setattr(torus, "_MAX_BALL_VISITS", (unshared + total) // 2)
        got = generate_graph(cfg)
        assert np.array_equal(got.out_degrees, want.out_degrees) and np.array_equal(got.in_degrees, want.in_degrees)
        monkeypatch.setattr(torus, "_MAX_BALL_VISITS", unshared - 1)
        with pytest.raises(ValueError, match=f"would scatter {unshared} ball points"):
            generate_graph(cfg)

    def test_memory_is_bounded_by_box_and_block(self):
        # 64 torus-covering balls make 4.8M ball visits; only the box and one block may be held
        cfg = TorusConfig(d=2, N=128, beta=3.0, seed=3)
        planted = {i * 997: math.inf for i in range(64)}
        torus._offset_table(2, 128)
        tracemalloc.start()
        try:
            g = generate_graph(cfg, planted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count > 64 * (cfg.n - 1)
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("index", [500, -1])
    def test_rejects_planted_index_outside_vertex_range(self, index):
        with pytest.raises(ValueError, match=f"planted vertex index {index} "):
            generate_graph(TorusConfig(d=2, N=4, beta=3.0, seed=1), {index: 5.0})

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
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_nonpositive_k(self, k):
        g = generate_graph(TorusConfig(d=2, N=4, beta=3.0, seed=1))
        with pytest.raises(ValueError, match=f"k must be >= 1; got {k}"):
            condensation_stats(g, k=k, eps=0.1)

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
            # an array solves every element exactly as a scalar bisection does; g(r) = r is inverted exactly for d = 1
            a = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 97), [0.5, 0.999999]])
            got = g_inverse(d, a)
            assert got.shape == a.shape
            assert np.array_equal(got, a if d == 1 else [scalar_g_inverse(d, float(ai)) for ai in a])
            assert g_inverse(d, 0.5) == (0.5 if d == 1 else scalar_g_inverse(d, 0.5))
            assert isinstance(g_inverse(d, 0.5), float)

    def test_g_inverse_domain(self):
        with pytest.raises(ValueError):
            g_inverse(2, 0.0)
        with pytest.raises(ValueError):
            g_inverse(2, 1.0)
        with pytest.raises(ValueError):
            g_inverse(2, np.array([0.3, 0.0, 0.6]))
        with pytest.raises(ValueError):
            g_inverse(2, np.array([0.3, np.nan, 0.6]))

    def test_scalar_in_gives_numpy_scalar_out(self):
        for d in (1, 2, 3):
            for value in (g_eval(d, 0.5), g_prime(d, 0.5), g_inverse(d, 0.5), h_lattice(d, 1.5 * d, np.array(0.5))):
                assert isinstance(value, float) and np.ndim(value) == 0
            assert h_lattice(d, 1.5 * d, 0.5) == h_lattice(d, 1.5 * d, np.array([0.5]))[0]
            assert g_prime(d, 0.5) == g_prime(d, np.array([0.5]))[0]

    def test_g_prime_positive_and_consistent(self):
        for d in (1, 2, 3):
            for r in (0.3, 0.6, 0.9):
                fd = (g_eval(d, r + 1e-6) - g_eval(d, r - 1e-6)) / 2e-6
                gp = float(g_prime(d, r))
                assert gp > 0
                assert gp == pytest.approx(fd, rel=5e-3, abs=1e-4)

    @pytest.mark.parametrize("d", [3, 4])
    def test_geometry_writes_no_file(self, d, tmp_path, monkeypatch):
        home, out = tmp_path / "home", tmp_path / "out"
        home.mkdir()
        out.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("BIGJUMPS_OUT_DIR", str(out))
        torus._g_table.cache_clear()
        for value in (g_eval(d, 0.5), g_prime(d, 0.5), g_inverse(d, 0.5), h_lattice(d, 1.5 * d, 0.5)):
            assert math.isfinite(value)
        assert list(home.iterdir()) == [] and list(out.iterdir()) == []

    @pytest.mark.parametrize("d,unit_ball", [(3, 4.0 / 3.0 * math.pi), (4, math.pi**2 / 2.0)])
    def test_g_inside_cube_is_ball_volume(self, d, unit_ball):
        # a ball of radius a <= 1/2 lies inside the cube; near a = 0 the interpolant
        # of a^d loses relative (not absolute) accuracy, so start at a = 0.05
        a = np.linspace(0.05, 0.5, 91)
        np.testing.assert_allclose(g_eval(d, 2.0 * a / math.sqrt(d)), unit_ball * a**d, rtol=2e-6)

    @pytest.mark.parametrize("d,unit_ball", [(3, 4.0 / 3.0 * math.pi), (4, math.pi**2 / 2.0)])
    def test_g_small_radius_is_closed_form(self, d, unit_ball):
        # below r = 1/sqrt(d) the ball of radius a = sqrt(d) r / 2 lies inside the cube
        for a in (0.001, 0.01):
            r = 2.0 * a / math.sqrt(d)
            assert g_eval(d, r) == pytest.approx(unit_ball * a**d, rel=1e-12, abs=0.0)
            assert g_prime(d, r) == pytest.approx(unit_ball * d * a ** (d - 1) * math.sqrt(d) / 2.0, rel=1e-12, abs=0.0)
        # and meets the table, which starts at r = 1/sqrt(d), to the table's accuracy (relative steps of g, g')
        edge = 1.0 / math.sqrt(d)
        for f, step in zip((g_eval, g_prime), {3: (1e-12, 1e-6), 4: (2e-8, 1e-6)}[d]):
            below, above = f(d, edge), f(d, np.nextafter(edge, 1.0))
            assert abs(above - below) <= step * below

    def test_g_d4_matches_pointwise_recursion(self):
        def volume(d, a):
            """Vol(B(0, a) ∩ unit cube) recursing point by point down to the d = 3 disk cross-section.

            A d = 3 ball of radius a <= 1/2 lies inside the cube, where its volume is closed-form.
            """
            if a <= 0.0:
                return 0.0
            if a * a >= d / 4.0:
                return 1.0
            if d == 3 and a <= 0.5:
                return 4.0 / 3.0 * math.pi * a**3
            # composite Simpson on 513 nodes, as the table build
            simpson = np.concatenate(([1.0], np.tile([4.0, 2.0], 256)[:-1], [1.0])) / 3.0
            t, dt = np.linspace(0.0, min(0.5, a), 513, retstep=True)
            s = np.sqrt(np.maximum(a * a - t * t, 0.0))
            if d == 3:
                cross = np.where(s * s >= 0.5, 1.0, torus._disk_square_area(np.minimum(s, math.sqrt(0.5))))
            else:
                cross = np.array([volume(d - 1, float(si)) for si in s])
            return float(2.0 * dt * np.dot(simpson, cross))

        # table nodes on [1/2, 1], where the interpolant returns the tabulated value; at d = 4 the ball radius is a = r
        r = np.linspace(0.5, 1.0, torus._TABLE_GRID)[[0, 300, 1000, 1500, 2048, 2600, 3000, 3500, 3900]]
        want = np.array([volume(4, float(ri)) for ri in r])
        assert np.max(np.abs(torus._g_table(4)[0](r) - want)) < 1e-9

    @staticmethod
    def scalar_volume(a):
        """One radius at a time: 513 Simpson nodes over the last axis, the disk area at every node, one dot product."""
        if a * a >= 0.75:
            return 1.0
        t = np.linspace(0.0, min(0.5, a), 513)
        s = np.sqrt(np.maximum(a * a - t * t, 0.0))
        cross = np.where(s * s >= 0.5, 1.0, torus._disk_square_area(np.minimum(s, math.sqrt(0.5))))
        return 2.0 * min(0.5, a) * float(torus._SIMPSON @ cross)

    def test_volumes_match_scalar_loop(self):
        a = 0.5 * math.sqrt(3.0) * np.linspace(1.0 / math.sqrt(3.0), 1.0, torus._TABLE_GRID)
        assert np.array_equal(torus._cube_ball_volume(3, a), [self.scalar_volume(ai) for ai in a])

    def test_volumes_at_random_radii_match_scalar_loop(self):
        # inside the cube, across both kinks of the cross-section and past the corner, in a ragged last chunk
        a = np.random.default_rng(3).uniform(0.0, 0.9, 3 * torus._VOLUME_ROWS + 7)
        assert np.array_equal(torus._cube_ball_volume(3, a), [self.scalar_volume(ai) for ai in a])

    @pytest.mark.parametrize("d", [3, 4])
    def test_table_interpolant_matches_scipy_pchip(self, d):
        from scipy.interpolate import PchipInterpolator

        from bigjumps import _pchip

        r = np.linspace(1.0 / math.sqrt(d), 1.0, torus._TABLE_GRID)
        g = np.maximum.accumulate(torus._cube_ball_volume(d, 0.5 * math.sqrt(d) * r))
        want = PchipInterpolator(r, g)
        assert np.array_equal(_pchip.coefficients(r, g), want.c)
        q = np.concatenate((r, np.random.default_rng(d).uniform(r[0], 1.0, 100_000)))
        value, derivative = torus._g_table(d)
        assert np.array_equal(value(q), want(q)) and np.array_equal(derivative(q), want.derivative()(q))

    @pytest.mark.xfail(strict=True, reason="g' near r = 1 is set by the spacing of the uniform table (1-7% off); a graded grid is still open")
    @pytest.mark.parametrize("r", [0.998, 0.999])
    def test_g_prime_near_one_matches_quad_volume(self, r):
        from scipy.integrate import quad

        def volume(a):
            """Vol(B(0, a) ∩ unit cube) at d = 3 by adaptive quadrature of the disk-square cross-sections."""

            def area(t):
                s2 = a * a - t * t
                return 1.0 if s2 >= 0.5 else float(torus._disk_square_area(math.sqrt(s2)))

            kinks = [math.sqrt(a * a - b) for b in (0.25, 0.5) if 0.0 < a * a - b < 0.25]
            return 2.0 * quad(area, 0.0, 0.5, points=kinks or None, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        dr, scale = 2e-6, 0.5 * math.sqrt(3.0)
        fd = (volume(scale * (r + dr)) - volume(scale * (r - dr))) / (2.0 * dr)
        assert g_prime(3, r) == pytest.approx(fd, rel=1e-3, abs=0.0)


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

    @pytest.mark.parametrize(
        "d, beta, N_list", [(1, 1.5, [64, 500]), (1, 2.0, [500]), (2, 3.0, [8, 64]), (3, 6.0, [10])],
        ids=["d1", "d1_beta2", "d2", "d3"],
    )
    def test_calibrate_h_rows_are_ball_counts_of_pareto_radii(self, d, beta, N_list):
        a_list, samples = (0.01, 0.05, 0.1, 0.3, 0.5, 0.8), 20_000
        rows = iter(calibrate_h(d, beta, N_list, a_list=a_list, samples=samples, seed=4)["rows"])
        for i, N in enumerate(N_list):
            rng = np.random.default_rng(np.random.SeedSequence((4, i)))
            w = ball_point_count(d, N, (1.0 - rng.random(samples)) ** (-1.0 / beta))
            n = (2 * N + 1) ** d
            for a in a_list:
                row = next(rows)
                p = float(np.count_nonzero(w >= a * n)) / samples
                assert (row["N"], row["n"], row["a"]) == (N, n, a)
                assert row["scaled_tail"] == n ** (beta / d) * p
                assert row["scaled_tail_se"] == n ** (beta / d) * math.sqrt(max(p * (1.0 - p), 0.0) / samples)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_calibrate_h_rejects_nonpositive_samples(self, samples):
        with pytest.raises(ValueError, match=f"samples must be >= 1; got {samples}"):
            calibrate_h(1, 1.5, N_list=[8], samples=samples)

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
