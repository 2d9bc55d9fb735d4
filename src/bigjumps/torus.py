"""Lattice-torus random graph: geometry, degree sampling, condensation stats.

The vertex set is the n = (2N+1)^d lattice points of [-N, N]^d with
coordinates wrapped modulo L = 2N+1 (all points distinct, vertex-transitive).
Each vertex v carries an independent radius R_v with P(R_v > x) = x^(-beta)
for x >= 1, and sends an oriented edge to every other vertex of the open
ball B(v, R_v).  So the out-degrees are n independent draws of
`schemes.LatticeBall(d, beta)` at level n, the one place that law is written.

The bridge from radius tails to out-degree tails is the normalized clipped
ball volume

    g(r) = Vol(B(0, (sqrt(d)/2) r) ∩ [-1/2, 1/2]^d),   g(r) = 1 for r >= 1,

with inverse g^(-1): the number of lattice points within distance R of a
vertex is (2N)^d g(R / (sqrt(d) N)) up to a boundary term of order N^(d-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import schemes
from ._pchip import pchip

__all__ = [
    "TorusConfig",
    "DegreeSummary",
    "sorted_offset_norms2",
    "ball_point_count",
    "generate_graph",
    "condensation_stats",
    "g_eval",
    "g_prime",
    "g_inverse",
    "h_lattice",
    "lattice_tail_constant",
    "calibrate_h",
]

# hard cap on the ball-point visits one in-degree scatter makes
_MAX_BALL_VISITS = 100_000_000
# ball visits per in-degree scatter block, and radii per ball_point_count chunk
_BLOCK = 1 << 16
_MAX_VERTICES = 20_000_000


@dataclass(frozen=True)
class TorusConfig:
    d: int
    N: int
    beta: float
    seed: int

    def __post_init__(self):
        schemes.LatticeBall(self.d, self.beta)  # checks d >= 1 and beta > d
        if self.N < 1:
            raise ValueError("N must be >= 1")
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


@lru_cache(maxsize=16)
def _offset_table(d: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-1 nonzero offsets of [-N, N]^d sorted by squared torus norm, those norms, and their counts.

    Each offset is its flat index step in the box [-2N, 2N]^d of side 4N+1.  Every open ball is a union of
    whole equal-norm groups, so the order within a group does not matter.  cnt[m] = #{norms <= m} for
    m <= min(d N^2, n-1), int32 and never longer than the offsets; all read-only.
    """
    n = (2 * N + 1) ** d
    if n > _MAX_VERTICES:
        raise ValueError(f"offset table for n={n} exceeds the vertex cap")
    # steps and squared norms of all n offsets in flat vertex-index order, the first axis the slowest
    axis = np.arange(-N, N + 1, dtype=np.int64)
    steps = norms2 = np.zeros(1, dtype=np.int64)
    for _ in range(d):
        steps, norms2 = np.add.outer(steps * (4 * N + 1), axis).ravel(), np.add.outer(norms2, axis * axis).ravel()
    order = np.argsort(norms2)[1:]  # drop the zero offset (the centre)
    steps, norms2 = steps[order], norms2[order].astype(np.float64)
    cnt = np.searchsorted(norms2, np.arange(min(d * N * N, n - 1) + 1), side="right").astype(np.int32)
    steps.flags.writeable = norms2.flags.writeable = cnt.flags.writeable = False
    return steps, norms2, cnt


def sorted_offset_norms2(d: int, N: int) -> np.ndarray:
    """Sorted squared torus norms of the n-1 nonzero offsets in [-N, N]^d (one cached array per (d, N))."""
    return _offset_table(d, N)[1]


def ball_point_count(d: int, N: int, R):
    """Number of lattice points w != 0 with torus distance D(0, w) < R (open ball), elementwise.

    The one open-ball rule: norms are integers, so the count is one table read, cnt[ceil(R^2) - 1],
    and past the table a binary search of R^2 over the sorted norms.  Radii go in chunks of `_BLOCK`.
    Every radius must be > 0; an infinite one covers the torus.  A scalar R gives a NumPy integer.
    """
    R = np.asarray(R, dtype=float)
    if not np.all(R > 0.0):
        raise ValueError("radius must be positive")
    _, norms2, cnt = _offset_table(d, N)
    flat, out = R.reshape(-1), np.empty(R.size, dtype=np.intp)
    for a in range(0, R.size, _BLOCK):
        r2 = np.square(flat[a : a + _BLOCK])
        far = np.flatnonzero(r2 > len(cnt))
        # an R^2 that underflows to 0 gives index -1, which mode="clip" reads as cnt[0] = 0
        idx = np.ceil(np.minimum(r2, len(cnt), out=r2), out=r2).astype(np.intp) - 1
        out[a : a + _BLOCK] = cnt.take(idx, mode="clip")
        out[a + far] = np.searchsorted(norms2, np.square(flat[a + far]), side="left")
    return out.reshape(R.shape)[()]


def generate_graph(config: TorusConfig, planted_radii: dict[int, float] | None = None) -> DegreeSummary:
    """Draw the n out-degrees from `LatticeBall(d, beta)` and scatter the exact in-degrees (`_in_degrees`).

    The out-degrees are `LatticeBall(d, beta).sample(n, default_rng(SeedSequence(seed)), n)`; no edge list
    is materialized.  `planted_radii` overrides the radius of selected flat vertex indices, so vertex i
    gets out-degree `ball_point_count(d, N, r)` (used for planted-condensation demonstrations).
    """
    d, N, n = config.d, config.N, config.n
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    out_deg = schemes.LatticeBall(d, config.beta).sample(n, rng, n)
    for idx, r in (planted_radii or {}).items():
        if not 0 <= idx < n:
            raise ValueError(f"planted vertex index {idx} is outside [0, {n})")
        out_deg[idx] = ball_point_count(d, N, r)
    return DegreeSummary(out_degrees=out_deg, in_degrees=_in_degrees(d, N, out_deg), config=config)


def _in_degrees(d: int, N: int, out_deg: np.ndarray) -> np.ndarray:
    """In-degrees (int64) of the torus graph in which vertex i points at the first out_deg[i] table offsets.

    Every ball is a prefix of the norm-sorted table, so the first `common = out_deg.min()` offsets are in
    every ball.  Distinct offsets of [-N, N]^d stay distinct mod L = 2N+1, so adding one of them to every
    vertex permutes the torus and gives each vertex one in-edge: only the offsets [common, out_deg[i]) are
    visited, and `common` is added at the end.  A target v + o lies in the box [-2N, 2N]^d without wrapping,
    so visits are scattered into that box (side P = 4N+1) by flat index, flat(v) + flat(o), in blocks of
    about `_BLOCK` visits cut at vertex boundaries, then folded once onto the torus: memory is the box plus
    one block, whatever the visit count.
    """
    L, P = 2 * N + 1, 4 * N + 1
    common = int(out_deg.min())
    hot = np.flatnonzero(out_deg > common)
    extra = out_deg[hot] - common
    visits = int(extra.sum())
    if visits > _MAX_BALL_VISITS:
        raise ValueError(f"graph build would scatter {visits} ball points (cap {_MAX_BALL_VISITS})")
    # box index of each hot vertex from its base-L digits c, each at box coordinate c + N, the last axis the fastest
    flat_v, rest = np.zeros(hot.size, dtype=np.int64), hot
    for weight in (P**j for j in range(d)):
        rest, c = np.divmod(rest, L)
        flat_v += (c + N) * weight
    flat_o = _offset_table(d, N)[0][common:]
    ends = np.cumsum(extra)
    starts = ends - extra
    # cut where a block of _BLOCK visits ends; a ball straddling the mark gets a block of its own
    marks = np.arange(_BLOCK, visits, _BLOCK)
    cuts = np.concatenate((np.searchsorted(ends, marks, "right"), np.searchsorted(starts, marks, "left")))
    bounds = np.unique(np.concatenate(([0, hot.size], cuts)))
    box = np.zeros(P**d, dtype=np.int64)
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        deg = extra[a:b]
        pos = np.arange(starts[a], ends[b - 1]) - np.repeat(starts[a:b], deg)
        np.add.at(box, np.repeat(flat_v[a:b], deg) + flat_o.take(pos), 1)

    # fold axis 0 (box index x + 2N for x in [-2N, 2N], torus index (x + N) mod L), then rotate the axes
    box = box.reshape((P,) * d)
    for _ in range(d):
        box[2 * N + 1 : 3 * N + 1] += box[:N]
        box[N : 2 * N] += box[3 * N + 1 :]
        box = np.moveaxis(box[N : 3 * N + 1], 0, -1)
    in_deg = box.flatten()
    in_deg += common
    return in_deg


def condensation_stats(summary: DegreeSummary, k: int, eps: float) -> dict:
    """Share statistics behind the condensation statements.

    top_k_out_share: (sum of the k largest out-degrees) / n
    big_out_count:   number of vertices with out-degree > eps*n
    max_in_share:    largest in-degree / n
    """
    if k < 1:
        raise ValueError(f"k must be >= 1; got {k}")
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
    return np.minimum(r, 1.0)


def _disk_square_area(a):
    """Area of a disk of radius a centred in the unit square [-1/2, 1/2]^2."""
    # beyond a = 1/2 remove the four circular segments past each side (corners unreached for a <= sqrt(2)/2)
    seg = a * a * np.arccos(np.minimum(0.5 / np.maximum(a, 0.5), 1.0)) - 0.5 * np.sqrt(np.maximum(a * a - 0.25, 0.0))
    return np.minimum(np.where(a > 0.5, np.pi * a * a - 4.0 * seg, np.pi * a * a), 1.0)


def _g_d2(r):
    return np.where(r >= 1.0, 1.0, _disk_square_area(r / math.sqrt(2.0)))


# composite Simpson weights of 513 equispaced nodes on [0, 1]
_SIMPSON = np.concatenate(([1.0], np.tile([4.0, 2.0], 256)[:-1], [1.0])) / (3.0 * 512)


def _cube_ball_volume(d: int, a: np.ndarray) -> np.ndarray:
    """Vol(B(0, a) ∩ [-1/2, 1/2]^d) for d >= 3 at radii a > 0 (1-D) by composite Simpson over the last axis.

    The cross-section at height t is a (d-1)-ball of radius s = sqrt(a^2 - t^2)
    in the unit (d-1)-cube: the closed-form disk area for d = 3, g of d - 1
    beyond.  Radii go in chunks of `_VOLUME_ROWS`, each a C-contiguous block of
    node rows, and each row takes its own dot: strided rows or one matrix-vector
    product would change the last bits.
    """
    out = np.empty_like(a)
    for j in range(0, a.size, _VOLUME_ROWS):
        aj = a[j : j + _VOLUME_ROWS]
        top = np.minimum(0.5, aj)
        t = np.ascontiguousarray(np.linspace(0.0, top, 513, axis=-1))
        s = np.sqrt(np.maximum((aj * aj)[:, None] - t * t, 0.0))
        if d == 3:
            # cross-section disk covers the unit square once s >= sqrt(2)/2: its area is needed only below
            cross, part = np.ones_like(s), s * s < 0.5
            cross[part] = _disk_square_area(s[part])
        else:
            cross = g_eval(d - 1, 2.0 * s / math.sqrt(d - 1))
        out[j : j + _VOLUME_ROWS] = np.where(aj * aj >= d / 4.0, 1.0, 2.0 * top * np.array([_SIMPSON @ row for row in cross]))
    return out


_TABLE_GRID = 4096
_VOLUME_ROWS = 256


@lru_cache(maxsize=8)
def _g_table(d: int) -> tuple:
    """g on a uniform grid of [1/sqrt(d), 1] for d >= 3, where the closed form hands over, as a monotone interpolant, and its derivative."""
    r = np.linspace(1.0 / math.sqrt(d), 1.0, _TABLE_GRID)
    return pchip(r, np.maximum.accumulate(_cube_ball_volume(d, 0.5 * math.sqrt(d) * r)))


def _inside_cube(d: int, r, power: int):
    """V_d (sqrt(d)/2)^d r^power: g (power d) and g'/d (power d-1) up to r = 1/sqrt(d), where the ball is inside the cube."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * (math.sqrt(d) / 2.0) ** d * np.maximum(r, 0.0) ** power


def g_eval(d: int, r):
    """g(r) = Vol(B(0, (sqrt(d)/2) r) ∩ unit cube); g(r) = 1 for r >= 1.  A scalar r gives a NumPy float64."""
    r = np.asarray(r, dtype=float)
    if d == 1:
        out = _g_d1(r)
    elif d == 2:
        out = _g_d2(r)
    else:
        out = np.where(r >= 1.0, 1.0, np.where(r <= 1.0 / math.sqrt(d), _inside_cube(d, r, d), _g_table(d)[0](np.clip(r, 1.0 / math.sqrt(d), 1.0))))
    return out[()]


def g_prime(d: int, r):
    """g'(r), 0 outside (0, 1).  A scalar r gives a NumPy float64."""
    r = np.asarray(r, dtype=float)
    inside = (r > 0.0) & (r < 1.0)
    if d == 1:
        out = np.where(inside, 1.0, 0.0)
    elif d == 2:
        a = r / math.sqrt(2.0)
        dA = np.where(a <= 0.5, 2.0 * np.pi * a, 2.0 * np.pi * a - 8.0 * a * np.arccos(np.minimum(0.5 / np.maximum(a, 1e-300), 1.0)))
        out = np.where(inside, dA / math.sqrt(2.0), 0.0)
    else:
        out = np.where(inside, np.where(r <= 1.0 / math.sqrt(d), d * _inside_cube(d, r, d - 1), _g_table(d)[1](np.clip(r, 1.0 / math.sqrt(d), 1.0))), 0.0)
    return out[()]


def g_inverse(d: int, a):
    """Solve g(r) = a on (0, 1) elementwise; a scalar a gives a NumPy float64.

    Exact for d = 1, where g(r) = r.  For d >= 2 a monotone bisection to 1e-12:
    every interval is 2^-j wide after j halvings, so all elements stop together.
    """
    a = np.asarray(a, dtype=float)
    if not np.all((a > 0.0) & (a < 1.0)):
        raise ValueError("g_inverse is defined on (0, 1)")
    if d == 1:
        return a.copy()[()]
    lo, hi = np.zeros_like(a), np.ones_like(a)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = g_eval(d, mid) < a
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if np.all(hi - lo < 1e-12):
            break
    return (0.5 * (lo + hi))[()]


def lattice_tail_constant(d: int, beta: float) -> float:
    """Leading constant of n^(beta/d) * P(W(n) >= a n) -> const * g^(-1)(a)^(-beta).

    Derived from N = (n^(1/d) - 1)/2 and the radius tail: ((2N+1)/(N sqrt(d)))^beta
    -> (2/sqrt(d))^beta = (4/d)^(beta/2).  For d = 1 this is 2^beta, matching the
    closed-form open-ball count W = 2*min(ceil(R) - 1, N).
    """
    return (4.0 / d) ** (beta / 2.0)


def h_lattice(d: int, beta: float, x):
    """Shape density of the lattice-ball out-degree scheme on (0, 1).

    h(x) = const(d, beta) * beta * g^(-1)(x)^(-beta-1) * (g^(-1))'(x), the
    derivative of the calibrated upper tail const * g^(-1)(x)^(-beta).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError("h_lattice is defined on the open interval (0, 1)")
    const = lattice_tail_constant(d, beta)
    ginv = g_inverse(d, x)
    gp = np.maximum(g_prime(d, ginv), 1e-300)
    return (const * beta * np.power(ginv, -beta - 1.0) / gp)[()]


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
    if samples < 1:
        raise ValueError(f"samples must be >= 1; got {samples}")
    rows, ginvs = [], g_inverse(d, np.asarray(a_list, dtype=float))
    for i, N in enumerate(N_list):
        n = TorusConfig(d=d, N=int(N), beta=beta, seed=seed).n
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        w = schemes.LatticeBall(d, beta).sample(n, rng, samples)
        for a, ginv in zip(a_list, ginvs):
            p = float(np.count_nonzero(w >= a * n)) / samples
            se = math.sqrt(max(p * (1.0 - p), 0.0) / samples)
            scaled = n ** (beta / d) * p
            scaled_se = n ** (beta / d) * se
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
