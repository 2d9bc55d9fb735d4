"""Lattice-torus random graph: geometry, degree sampling, condensation stats.

The vertex set is the n = (2N+1)^d lattice points of [-N, N]^d with
coordinates wrapped modulo L = 2N+1 (all points distinct, vertex-transitive).
Each vertex v carries an independent radius R_v with P(R_v > x) = x^(-beta)
for x >= 1, and sends an oriented edge to every other vertex of the open
ball B(v, R_v).

The bridge from radius tails to out-degree tails is the normalized clipped
ball volume

    g(r) = Vol(B(0, (sqrt(d)/2) r) ∩ [-1/2, 1/2]^d),   g(r) = 1 for r >= 1,

with inverse g^(-1): the number of lattice points within distance R of a
vertex is (2N)^d g(R / (sqrt(d) N)) up to a boundary term of order N^(d-1).
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = [
    "TorusConfig",
    "DegreeSummary",
    "GeometryTable",
    "torus_distance",
    "sorted_offset_norms2",
    "ball_point_count",
    "out_degree_sample",
    "generate_graph",
    "condensation_stats",
    "g_eval",
    "g_prime",
    "g_inverse",
    "h_lattice",
    "lattice_tail_constant",
    "calibrate_h",
]

# hard cap on total ball-point visits per graph build
_MAX_BALL_VISITS = 100_000_000
_MAX_VERTICES = 20_000_000


@dataclass(frozen=True)
class TorusConfig:
    d: int
    N: int
    beta: float
    seed: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.beta <= self.d:
            raise ValueError("need beta > d (alpha = beta/d > 1)")
        if self.n > _MAX_VERTICES:
            raise ValueError(f"n = (2N+1)^d = {self.n} exceeds the vertex cap {_MAX_VERTICES}")

    @property
    def L(self) -> int:
        return 2 * self.N + 1

    @property
    def n(self) -> int:
        return (2 * self.N + 1) ** self.d


@dataclass(frozen=True)
class DegreeSummary:
    out_degrees: np.ndarray
    in_degrees: np.ndarray
    config: TorusConfig

    @property
    def edge_count(self) -> int:
        return int(self.out_degrees.sum())

    @property
    def rho_n(self) -> float:
        return self.edge_count / self.config.n


def torus_distance(d: int, L: int, v, w) -> float:
    """Euclidean norm of the per-axis wrapped differences min(|dx|, L - |dx|)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (d,) or w.shape != (d,):
        raise ValueError(f"points must have shape ({d},)")
    delta = np.abs(v - w) % L
    delta = np.minimum(delta, L - delta)
    return float(np.sqrt(np.sum(delta * delta)))


@lru_cache(maxsize=16)
def sorted_offset_norms2(d: int, N: int) -> np.ndarray:
    """Sorted squared torus norms of the n-1 nonzero offsets in [-N, N]^d.

    One array per (d, N); every ball count is then a binary search.
    """
    n = (2 * N + 1) ** d
    if n > _MAX_VERTICES:
        raise ValueError(f"offset table for n={n} exceeds the vertex cap")
    axis = np.arange(-N, N + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    norms2 = sum(g.astype(np.int64) ** 2 for g in grids).ravel()
    norms2 = np.sort(norms2)
    return norms2[1:].astype(np.float64)  # drop the zero offset (the centre)


def ball_point_count(d: int, N: int, R: float) -> int:
    """Number of lattice points w != 0 with torus distance D(0, w) < R (open ball).

    Small radii are counted by enumerating the offset box [-floor(R), floor(R)]^d
    directly; otherwise the cached sorted-norm table is queried.
    """
    if R <= 0.0:
        raise ValueError("radius must be positive")
    r = int(math.floor(R))
    if R > N * math.sqrt(d):
        return (2 * N + 1) ** d - 1
    if r <= N and (2 * r + 1) ** d <= 4096:
        axis = np.arange(-min(r, N), min(r, N) + 1, dtype=np.int64)
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        norms2 = sum(g ** 2 for g in grids).ravel()
        return int(np.count_nonzero(norms2 < R * R)) - 1  # excludes the centre
    norms2 = sorted_offset_norms2(d, N)
    return int(np.searchsorted(norms2, R * R, side="left"))


def _sample_radii(beta: float, rng: np.random.Generator, size):
    u = rng.random(size)
    return (1.0 - u) ** (-1.0 / beta)


def out_degree_sample(config: TorusConfig, rng: np.random.Generator, size: int | None = None):
    """Out-degree draw(s): radius by inverse CDF, then the open-ball point count.

    By vertex-transitivity this is the out-degree law of every vertex.
    """
    norms2 = sorted_offset_norms2(config.d, config.N)
    r = _sample_radii(config.beta, rng, size)
    counts = np.searchsorted(norms2, np.square(r), side="left")
    if size is None:
        return int(counts)
    return counts.astype(np.int64)


def generate_graph(config: TorusConfig, planted_radii: dict[int, float] | None = None) -> DegreeSummary:
    """Sample all n radii and accumulate exact out- and in-degrees.

    No edge list is materialized: each vertex's ball is enumerated once as a
    prefix of the norm-sorted offset array, serving both degree counts.
    `planted_radii` overrides the radius of selected flat vertex indices
    (used for planted-condensation demonstrations).
    """
    d, N, L, n = config.d, config.N, config.L, config.n
    norms2 = sorted_offset_norms2(d, N)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    radii = _sample_radii(config.beta, rng, n)
    if planted_radii:
        for idx, r in planted_radii.items():
            radii[idx] = r
    out_deg = np.searchsorted(norms2, np.square(radii), side="left").astype(np.int64)

    visits = int(out_deg.sum())
    if visits > _MAX_BALL_VISITS:
        raise MemoryError(f"graph build would visit {visits} ball points (cap {_MAX_BALL_VISITS})")

    # offsets sorted by norm, so vertex v's ball = the first out_deg[v] rows
    axis = np.arange(-N, N + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    all_norms2 = np.sum(offsets * offsets, axis=1)
    order = np.argsort(all_norms2, kind="stable")
    offsets = offsets[order][1:]  # drop the centre

    coords = np.stack([g.ravel() for g in grids], axis=1)  # vertex index -> coords in [-N, N]^d
    weights = L ** np.arange(d - 1, -1, -1, dtype=np.int64)

    in_deg = np.zeros(n, dtype=np.int64)
    src = np.repeat(np.arange(n), out_deg)
    if len(src):
        starts = np.concatenate(([0], np.cumsum(out_deg)[:-1]))
        ball_pos = np.arange(visits) - np.repeat(starts, out_deg)
        tgt_coords = (coords[src] + offsets[ball_pos] + N) % L  # shift to 0..L-1
        flat = tgt_coords @ weights
        np.add.at(in_deg, flat, 1)

    return DegreeSummary(out_degrees=out_deg, in_degrees=in_deg, config=config)


def condensation_stats(summary: DegreeSummary, k: int, eps: float) -> dict:
    """Share statistics behind the condensation statements.

    top_k_out_share: (sum of the k largest out-degrees) / n
    big_out_count:   number of vertices with out-degree > eps*n
    max_in_share:    largest in-degree / n
    """
    n = summary.config.n
    out_sorted = np.sort(summary.out_degrees)[::-1]
    k = min(k, n)
    return {
        "top_k_out_share": float(out_sorted[:k].sum()) / n,
        "big_out_count": int(np.count_nonzero(summary.out_degrees > eps * n)),
        "max_in_share": float(summary.in_degrees.max()) / n,
        "rho_n": summary.rho_n,
        "edge_count": summary.edge_count,
    }


# ---------------------------------------------------------------------------
# clipped-ball geometry g, g', g^(-1)


def _g_d1(r):
    return np.minimum(np.asarray(r, dtype=float), 1.0)


def _disk_square_area(a):
    """Area of a disk of radius a centred in the unit square [-1/2, 1/2]^2."""
    scalar = np.isscalar(a) or np.ndim(a) == 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    out = np.pi * a * a
    over = a > 0.5
    if np.any(over):
        aa = a[over]
        # remove the four circular segments beyond each side (corners unreached for a <= sqrt(2)/2)
        seg = aa * aa * np.arccos(np.minimum(0.5 / aa, 1.0)) - 0.5 * np.sqrt(np.maximum(aa * aa - 0.25, 0.0))
        out[over] = np.pi * aa * aa - 4.0 * seg
    out = np.minimum(out, 1.0)
    return float(out[0]) if scalar else out


def _g_d2(r):
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.where(r >= 1.0, 1.0, _disk_square_area(r / math.sqrt(2.0)))
    return float(out[0]) if scalar else out


def _cube_ball_volume(d: int, a: float) -> float:
    """Vol(B(0, a) ∩ [-1/2, 1/2]^d) by recursive cross-section quadrature."""
    if a <= 0.0:
        return 0.0
    if a * a >= d / 4.0:
        return 1.0
    if d == 1:
        return min(2.0 * a, 1.0)
    if d == 2:
        return float(_disk_square_area(a))
    t = np.linspace(0.0, min(0.5, a), 513)
    s = np.sqrt(np.maximum(a * a - t * t, 0.0))
    if d == 3:
        # cross-section disk covers the unit square once s >= sqrt(2)/2
        cross = np.where(s * s >= 0.5, 1.0, _disk_square_area(np.minimum(s, math.sqrt(0.5))))
    else:
        cross = np.array([_cube_ball_volume(d - 1, float(si)) for si in s])
    return float(2.0 * np.trapezoid(cross, t))


_TABLE_GRID = 4096
_cache_env = "BIGJUMPS_OUT_DIR"


@dataclass
class GeometryTable:
    """Tabulated g on [0, 1] for d >= 3, with monotone interpolants."""

    d: int
    r: np.ndarray
    g: np.ndarray
    _interp: PchipInterpolator = field(init=False, repr=False)

    def __post_init__(self):
        self._interp = PchipInterpolator(self.r, self.g, extrapolate=False)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r >= 1.0, 1.0, np.where(r <= 0.0, 0.0, self._interp(np.clip(r, 0.0, 1.0))))
        return out

    def derivative(self, r):
        return self._interp.derivative()(np.clip(np.asarray(r, dtype=float), 0.0, 1.0))

    @staticmethod
    def _cache_path(d: int) -> Path:
        root = Path(os.environ.get(_cache_env, Path.home() / ".cache" / "bigjumps"))
        return root / f"geometry_d{d}_{_TABLE_GRID}.csv"

    @classmethod
    def build(cls, d: int) -> "GeometryTable":
        path = cls._cache_path(d)
        r = np.linspace(0.0, 1.0, _TABLE_GRID)
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if data.shape == (_TABLE_GRID, 2) and np.array_equal(data[:, 0], r):
                return cls(d=d, r=r, g=data[:, 1])
        except (OSError, ValueError):
            pass  # missing or unreadable cache: rebuild it
        g = np.array([_cube_ball_volume(d, 0.5 * math.sqrt(d) * ri) for ri in r])
        g = np.maximum.accumulate(g)
        table = cls(d=d, r=r, g=g)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # write a sibling temp file and rename it, so readers never see a partial table
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write("r,g\n")
                    for ri, gi in zip(r, g):
                        fh.write(f"{float(ri)!r},{float(gi)!r}\n")
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            pass  # cache is best-effort
        return table


@lru_cache(maxsize=8)
def _table(d: int) -> GeometryTable:
    return GeometryTable.build(d)


def g_eval(d: int, r):
    """g(r) = Vol(B(0, (sqrt(d)/2) r) ∩ unit cube); g(r) = 1 for r >= 1."""
    scalar = np.isscalar(r) or np.ndim(r) == 0
    if d == 1:
        out = _g_d1(r)
    elif d == 2:
        out = _g_d2(r)
    else:
        out = _table(d)(r)
    return float(out) if scalar else out


def g_prime(d: int, r):
    r = np.asarray(r, dtype=float)
    if d == 1:
        return np.where((r > 0.0) & (r < 1.0), 1.0, 0.0)
    if d == 2:
        a = r / math.sqrt(2.0)
        dA = np.where(a <= 0.5, 2.0 * np.pi * a, 2.0 * np.pi * a - 8.0 * a * np.arccos(np.minimum(0.5 / np.maximum(a, 1e-300), 1.0)))
        return np.where((r > 0.0) & (r < 1.0), dA / math.sqrt(2.0), 0.0)
    return np.where((r > 0.0) & (r < 1.0), _table(d).derivative(r), 0.0)


def g_inverse(d: int, a) -> float:
    """Monotone bisection solve of g(r) = a on (0, 1), to 1e-10."""
    a = float(a)
    if not 0.0 < a < 1.0:
        raise ValueError("g_inverse is defined on (0, 1)")
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


def lattice_tail_constant(d: int, beta: float) -> float:
    """Leading constant of n^(beta/d) * P(W(n) >= a n) -> const * g^(-1)(a)^(-beta).

    Derived from N = (n^(1/d) - 1)/2 and the radius tail: ((2N+1)/(N sqrt(d)))^beta
    -> (2/sqrt(d))^beta = (4/d)^(beta/2).  For d = 1 this is 2^beta, matching the
    closed-form count W = 2*min(floor(R), N).
    """
    return (4.0 / d) ** (beta / 2.0)


def h_lattice(d: int, beta: float, x):
    """Shape density of the lattice-ball out-degree scheme on (0, 1).

    h(x) = const(d, beta) * beta * g^(-1)(x)^(-beta-1) * (g^(-1))'(x), the
    derivative of the calibrated upper tail const * g^(-1)(x)^(-beta).
    """
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError("h_lattice is defined on the open interval (0, 1)")
    const = lattice_tail_constant(d, beta)
    ginv = np.array([g_inverse(d, xi) for xi in x])
    gp = np.maximum(np.asarray(g_prime(d, ginv), dtype=float), 1e-300)
    out = const * beta * ginv ** (-beta - 1.0) / gp
    return float(out[0]) if scalar else out


def calibrate_h(
    d: int,
    beta: float,
    N_list,
    a_list=(0.3, 0.5, 0.8),
    samples: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """Empirical tail calibration: measures n^(beta/d) P(W >= a n) across N.

    Reports the measured leading constant next to the derived (4/d)^(beta/2)
    and the (4d)^(-beta/2) variant quoted in the source analysis, which is
    inconsistent with the d = 1 closed form; the discrepancy is recorded here
    on purpose rather than resolved silently.
    """
    rows = []
    for i, N in enumerate(N_list):
        cfg = TorusConfig(d=d, N=int(N), beta=beta, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        w = out_degree_sample(cfg, rng, size=samples)
        n = cfg.n
        for a in a_list:
            p = float(np.count_nonzero(w >= a * n)) / samples
            se = math.sqrt(max(p * (1.0 - p), 0.0) / samples)
            scaled = n ** (beta / d) * p
            scaled_se = n ** (beta / d) * se
            ginv = a if d == 1 else g_inverse(d, a)
            rows.append(
                {
                    "N": int(N),
                    "n": n,
                    "a": a,
                    "scaled_tail": scaled,
                    "scaled_tail_se": scaled_se,
                    "measured_const": scaled * ginv ** beta,
                    "measured_const_se": scaled_se * ginv ** beta,
                }
            )
    return {
        "d": d,
        "beta": beta,
        "derived_const": lattice_tail_constant(d, beta),
        "quoted_const": (4.0 * d) ** (-beta / 2.0),
        "rows": rows,
    }
