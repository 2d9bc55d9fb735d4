"""Triangular schemes of independent cut-off heavy-tailed variables.

Each scheme describes, for every row size n, the law of a variable
W = W(n) with 0 <= W <= n whose upper range behaves like

    P(a*n <= W < b*n) ~ n^(-alpha) * integral_a^b h(x) dx,

for a shape density h on (0, 1) and a tail index alpha > 1.  The row sum
S_n = W_1 + ... + W_n then exhibits condensation: conditioned on a large
excess rho*n, the excess is carried by k = ceil(rho) coordinates of order n.

Built-in schemes
----------------
TruncatedPareto   exact Pareto density c*x^(-alpha-1) on [x0, inf),
                  x0 = (c/alpha)^(1/alpha), conditioned on W <= n.
                  h(x) = c*x^(-alpha-1), no mass at the cut-off itself.
SmoothCutoff      W Pareto with tail P(W > x) = c*x^(-alpha), pushed through
                  the smooth cut-off map phi(x) = n*(1 - exp(-x/n));
                  h(x) = c*alpha*(1-x)^(-1) * log(1/(1-x))^(-alpha-1).
LatticeBall       out-degree of a vertex of the lattice-torus ball graph
                  (number of lattice points within a heavy-tailed radius);
                  alpha = beta/d, h from the torus geometry (see torus module).
DiscreteGrid      values i*(n/m) with a fixed pmf; exists so that exact
                  dynamic-programming oracles are possible.

Each scheme writes its inverse CDF once, in `sample_above` (W(n)
conditioned on W(n) > threshold); `sample` is `sample_above` below the
support, since every W(n) >= 0.  No sampler rejects, and draws are
reproducible from (scheme, n, seed).
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import torus

__all__ = [
    "Scheme",
    "TruncatedPareto",
    "SmoothCutoff",
    "LatticeBall",
    "DiscreteGrid",
    "EstimateResult",
    "sample_sums",
    "lln_deviation",
    "load_scheme_config",
    "save_scheme_config",
]


@dataclass(frozen=True)
class EstimateResult:
    """A probability estimate with its standard error (binomial for hit counting)."""

    prob: float
    std_error: float
    samples: int
    hits: int
    method: str = "naive"

    def __post_init__(self):
        if self.hits > self.samples:
            raise ValueError("hits cannot exceed samples")


def _binomial_result(hits: int, samples: int, method: str) -> EstimateResult:
    p = hits / samples
    se = math.sqrt(p * (1.0 - p) / samples)
    return EstimateResult(prob=p, std_error=se, samples=samples, hits=hits, method=method)


# Elements per row block: large enough to amortize the per-call overhead, small
# enough to stay in cache.  Each block draws its own stream, so results depend on it.
_BLOCK = 1 << 16
# Threads drawing row blocks, from one pool per worker count made on first use
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_executor = lru_cache(maxsize=None)(ThreadPoolExecutor)


def _map_blocks(work, width: int, count: int, seed):
    """Yield work(rng, rows) for each row block of `count` replicas of `width` draws, in block order.

    Block b holds max(1, _BLOCK // width) replicas and draws from its own
    Generator, PCG64(SeedSequence(root.entropy, spawn_key=root.spawn_key + (b,))).
    The root is SeedSequence(seed), a SeedSequence seed itself, or a new child
    of a Generator seed's seed sequence, so reusing a Generator never repeats a
    stream.  Blocks run on _WORKERS threads (inline for one), at most one per
    worker in flight: results depend on _BLOCK, not on the machine or the
    worker count.  Blocks in flight when the caller stops are discarded.
    """
    if isinstance(seed, np.random.Generator):
        seed = seed.bit_generator.seed_seq.spawn(1)[0]
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rows = max(1, _BLOCK // width)

    def run(b):
        stream = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (b,))
        return work(np.random.Generator(np.random.PCG64(stream)), min(rows, count - b * rows))

    if _WORKERS == 1:
        yield from map(run, range(-(-count // rows)))
        return
    work(np.random.default_rng(root), 0)  # builds lazily cached tables (LatticeBall's offset norms) on this thread
    pending = deque()
    for b in range(-(-count // rows)):
        pending.append(_executor(_WORKERS).submit(run, b))
        if len(pending) == _WORKERS:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


class Scheme:
    """Base class for cut-off heavy-tailed schemes.

    Subclasses provide the row-level law of W(n) through `sample_above`
    (the one inverse CDF: draws conditioned on W(n) > threshold, also used
    for importance boosting), `tail` (exact upper-tail probabilities),
    `mu_n` (exact mean) and `h` (shape density).  `sample` is
    `sample_above` below the support, where the condition is void.
    `tail` and `h` take arrays elementwise, and a scalar argument gives a
    NumPy scalar (a NumPy float64 is a `float`).
    """

    alpha: float

    # -- law --------------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator, size=None):
        """Draws of W(n); W(n) >= 0, so W(n) > -1 conditions on nothing."""
        return self.sample_above(n, -1.0, rng, size)

    def tail(self, n: int, y):
        """Exact P(W(n) > y), elementwise in y."""
        raise NotImplementedError

    def sample_above(self, n: int, threshold: float, rng: np.random.Generator, size=None):
        """Draws of W(n) given W(n) > threshold; a ValueError for an invalid level n or if tail(n, threshold) == 0.

        The inverse CDF runs in place on the uniforms, which become the draws:
        a second array per row block would add its page faults to every draw.
        """
        raise NotImplementedError

    def _check_above(self, n: int, threshold: float) -> None:
        self.check_level(n)
        if self.tail(n, threshold) == 0.0:
            raise ValueError(f"W({n}) > {threshold} is an empty event: tail(n, threshold) is 0")

    def h(self, x):
        raise NotImplementedError

    def mu_n(self, n: int) -> tuple[float, float]:
        """Exact mean E[W(n)] as (value, 0.0): a float and a zero standard error."""
        raise NotImplementedError

    def check_level(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"scheme level n must be >= 1, got {n}")

    def spec_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class TruncatedPareto(Scheme):
    """Exact Pareto with density c*x^(-alpha-1) on [x0, inf), conditioned on W <= n.

    x0 = (c/alpha)^(1/alpha) makes the density integrate to one, so the
    shape density is exactly h(x) = c*x^(-alpha-1) with relative window
    error (1 - (c/alpha) n^(-alpha))^(-1) - 1 = O(n^(-alpha)).

    The law is conditioned (truncated) rather than capped: capping W at n
    would leave an atom of mass (c/alpha)*n^(-alpha) at the cut-off, which
    is of the same order as the window masses and feeds spurious
    boundary configurations into every k >= 2 window event.
    """

    c: float
    alpha: float

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if self.c <= 0.0:
            raise ValueError("c must be positive")

    @property
    def x0(self) -> float:
        return (self.c / self.alpha) ** (1.0 / self.alpha)

    def _norm(self, n: int) -> float:
        # P(W <= n) for the untruncated Pareto
        return 1.0 - (self.c / self.alpha) * float(n) ** (-self.alpha)

    def tail(self, n, y):
        self.check_level(n)
        y = np.asarray(y, dtype=float)
        z, n = self._norm(n), float(n)
        # y^-a - n^-a = n^-a expm1(-a log(y/n)) without cancellation; log1p keeps log(y/n) accurate near n
        ym = np.maximum(y, self.x0)
        log_r = np.where(ym > 0.5 * n, np.log1p((ym - n) / n), np.log(ym / n))
        inner = (self.c / self.alpha) * n**-self.alpha * np.expm1(-self.alpha * log_r) / z
        return np.where(y >= n, 0.0, np.where(y <= self.x0, 1.0, inner))[()]

    def check_level(self, n):
        if n <= self.x0:
            raise ValueError(f"level n={n} is below the support floor x0={self.x0:.3g}")

    def sample_above(self, n, threshold, rng, size=None):
        self._check_above(n, threshold)
        t = max(threshold, self.x0)
        ta, na = t ** -self.alpha, float(n) ** -self.alpha
        # x = min((ta - u (ta - na))^(-1/alpha), n), in place on the uniforms u
        x = rng.random(() if size is None else size)
        np.power(np.subtract(ta, np.multiply(x, ta - na, out=x), out=x), -1.0 / self.alpha, out=x)
        return np.minimum(x, float(n), out=x)[()]

    def h(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise ValueError("h is defined on the open interval (0, 1)")
        out = np.power(x, -self.alpha - 1.0, out=np.empty_like(x))
        return np.multiply(self.c, out, out=out)[()]

    def mu_n(self, n):
        self.check_level(n)
        a, c, x0 = self.alpha, self.c, self.x0
        raw = (c / (a - 1.0)) * (x0 ** (1.0 - a) - float(n) ** (1.0 - a))
        return raw / self._norm(n), 0.0

    def spec_dict(self):
        return {"shape": "truncated_pareto", "c": self.c, "alpha": self.alpha}


@dataclass(frozen=True)
class SmoothCutoff(Scheme):
    """Pareto tail P(W > x) = c*x^(-alpha) pushed through phi(x) = n(1 - e^(-x/n)).

    The cut-off map is a bijection onto (0, n), so W(n) < n almost surely.
    Shape density: h(x) = c*alpha*(1-x)^(-1) * log(1/(1-x))^(-alpha-1).
    """

    c: float
    alpha: float

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if self.c <= 0.0:
            raise ValueError("c must be positive")

    @property
    def x0(self) -> float:
        # support floor of the underlying Pareto: P(W > x0) = 1
        return self.c ** (1.0 / self.alpha)

    def tail(self, n, y):
        # m = phi^(-1)(y) for y clipped to [0, n]; y >= n maps to m = inf, whose tail is 0
        with np.errstate(divide="ignore"):
            m = -float(n) * np.log1p(-np.clip(np.asarray(y, dtype=float), 0.0, n) / float(n))
        return np.where(m <= self.x0, 1.0, self.c * np.power(np.maximum(m, self.x0), -self.alpha))[()]

    def sample_above(self, n, threshold, rng, size=None):
        self._check_above(n, threshold)
        m = max(-float(n) * math.log1p(-threshold / float(n)), self.x0)
        # x = n (1 - e^(-w/n)) with w = m (1 - u)^(-1/alpha), in place on the uniforms u
        x = rng.random(() if size is None else size)
        np.multiply(m, np.power(np.subtract(1.0, x, out=x), -1.0 / self.alpha, out=x), out=x)
        np.exp(np.divide(x, -float(n), out=x), out=x)
        return np.multiply(n, np.subtract(1.0, x, out=x), out=x)[()]

    def h(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise ValueError("h is defined on the open interval (0, 1)")
        if x.ndim == 0:  # NumPy scalar arithmetic, whose ** (libm's pow) the array loop need not match bit for bit
            return self.c * self.alpha / (1.0 - x) * (-np.log1p(-x)) ** (-self.alpha - 1.0)
        # (c alpha / (1 - x)) * ell^(-alpha-1) with ell = -log1p(-x), in two buffers
        ell, w = np.negative(x, out=np.empty_like(x)), np.subtract(1.0, x, out=np.empty_like(x))
        np.power(np.negative(np.log1p(ell, out=ell), out=ell), -self.alpha - 1.0, out=ell)
        return np.multiply(np.divide(self.c * self.alpha, w, out=w), ell, out=w)[()]

    def mu_n(self, n):
        # E[phi_n(W)] = int_0^inf phi_n'(x) P(W > x) dx with phi_n'(x) = e^(-x/n), and P(W > x) = 1 below x0
        from scipy.integrate import quad
        n, x0 = float(n), self.x0
        upper, _ = quad(lambda x: math.exp(-x / n) * x**-self.alpha, x0, math.inf, epsabs=0.0, epsrel=1e-12)
        return -n * math.expm1(-x0 / n) + self.c * upper, 0.0

    def spec_dict(self):
        return {"shape": "smooth_cutoff", "c": self.c, "alpha": self.alpha}


@dataclass(frozen=True)
class LatticeBall(Scheme):
    """Out-degree of the lattice-torus ball graph, as a triangular scheme.

    W(n) counts lattice points within an open ball of heavy-tailed radius
    (P(R > x) = x^(-beta), x >= 1) around a vertex of the d-dimensional
    torus on (2N+1)^d points.  Valid levels are n = (2N+1)^d.
    """

    d: int
    beta: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.beta <= self.d:
            raise ValueError("beta must exceed d so that alpha = beta/d > 1")

    @property
    def alpha(self) -> float:  # type: ignore[override]
        return self.beta / self.d

    def level_to_N(self, n: int) -> int:
        side = round(n ** (1.0 / self.d))
        # fix possible float rounding of the d-th root
        for cand in (side - 1, side, side + 1):
            if cand >= 3 and cand % 2 == 1 and cand ** self.d == n:
                return (cand - 1) // 2
        raise ValueError(f"n={n} is not (2N+1)^{self.d} for an integer N >= 1")

    def _geometry(self, n: int):
        return torus.sorted_offset_norms2(self.d, self.level_to_N(n))

    def tail(self, n, y):
        # W > y  <=>  W >= k+1 for k = floor(y)  <=>  R^2 > norms2[k], of probability
        # norms2[k]^(-beta/2); the smallest norm is 1, so k < 0 clips to a tail of 1
        norms2 = self._geometry(n)
        k = np.floor(np.asarray(y, dtype=float))
        if np.isnan(k).any():
            raise ValueError("tail is undefined at y = NaN")
        r2 = norms2[np.clip(k, 0, len(norms2) - 1).astype(np.int64)]
        return np.where(k >= len(norms2), 0.0, np.power(r2, -self.beta / 2.0))[()]

    def sample_above(self, n, threshold, rng, size=None):
        self._check_above(n, threshold)
        rstar = math.sqrt(float(self._geometry(n)[max(math.floor(threshold), 0)]))
        # r = rstar (1 - u)^(-1/beta), in place on the uniforms u
        x = rng.random(() if size is None else size)
        np.multiply(rstar, np.power(np.subtract(1.0, x, out=x), -1.0 / self.beta, out=x), out=x)
        return torus.ball_point_count(self.d, self.level_to_N(n), x)

    def h(self, x):
        return torus.h_lattice(self.d, self.beta, x)

    def mu_n(self, n):
        # E[W] = sum_j P(W > j), and P(W > j) = P(R^2 > norms2[j])
        return float(np.sum(self._geometry(n) ** (-self.beta / 2.0))), 0.0

    def spec_dict(self):
        return {"shape": "lattice_ball", "d": self.d, "beta": self.beta}


@dataclass(frozen=True)
class DiscreteGrid(Scheme):
    """Synthetic scheme on the grid values i*(n/m), i = 0..m, with a fixed pmf.

    Exists so that exact convolution oracles are possible; it is not meant
    to satisfy the asymptotic window assumption and has no shape density.
    """

    pmf: tuple[float, ...]
    alpha: float = field(default=float("nan"))  # no tail index; oracle-only scheme

    def __post_init__(self):
        p = np.asarray(self.pmf, dtype=float)
        if p.ndim != 1 or len(p) < 1:
            raise ValueError("pmf must be a 1-D sequence")
        if np.any(p < 0.0):
            raise ValueError("pmf entries must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1 within 1e-12, got {p.sum()!r}")
        object.__setattr__(self, "pmf", tuple(float(v) for v in p))

    @property
    def m(self) -> int:
        return len(self.pmf) - 1

    def grid_step(self, n: int) -> float:
        if self.m == 0:
            return 0.0
        return n / self.m

    def tail(self, n, y):
        # the values are increasing, so vals > y is the suffix from searchsorted(vals, y, "right")
        vals = np.arange(self.m + 1) * self.grid_step(n)
        upper = np.append(np.cumsum(self.pmf[::-1])[::-1], 0.0)  # upper[i] = P(index >= i)
        return upper[np.searchsorted(vals, y, side="right")][()]

    def sample_above(self, n, threshold, rng, size=None):
        self._check_above(n, threshold)
        vals = np.arange(self.m + 1) * self.grid_step(n)
        pmf = np.asarray(self.pmf)
        # zero-mass values are never drawn, so the last kept value is the top of the support
        keep = (vals > threshold) & (pmf > 0.0)
        mass = pmf[keep]
        cdf = np.cumsum(mass / mass.sum())
        x = rng.random(() if size is None else size)
        # a cdf summing below 1 leaves uniforms past its end: mode="clip" gives them the top kept value
        return np.take(vals[keep], np.searchsorted(cdf, x, side="right"), mode="clip", out=x)[()]

    def h(self, x):
        raise ValueError("DiscreteGrid has no shape density h (oracle-only scheme)")

    def mu_n(self, n):
        return float(np.dot(self.pmf, np.arange(self.m + 1)) * self.grid_step(n)), 0.0

    def spec_dict(self):
        return {"shape": "discrete_grid", "grid_m": self.m, "pmf": list(self.pmf)}


# ---------------------------------------------------------------------------
# replicated row sums


def sample_sums(spec: Scheme, n: int, count: int, seed) -> np.ndarray:
    """`count` independent row sums S_n = W_1 + ... + W_n, one stream per row block (see `_map_blocks`).

    `seed` is an int, a SeedSequence or a Generator.  DiscreteGrid rows are multinomial index counts.
    """
    if isinstance(spec, DiscreteGrid):
        index, step = np.arange(spec.m + 1), spec.grid_step(n)
        width, row_sums = spec.m + 1, lambda rng, rows: (rng.multinomial(n, spec.pmf, size=rows) @ index) * step
    else:
        width, row_sums = n, lambda rng, rows: spec.sample(n, rng, (rows, n)).sum(axis=1)
    return np.concatenate([np.empty(0), *_map_blocks(row_sums, width, count, seed)])


def lln_deviation(
    spec: Scheme,
    n: int,
    zeta: float,
    samples: int,
    seed: int = 0,
) -> EstimateResult:
    """Empirical P(|S_n - n*mu_n| > zeta*n) with binomial standard error."""
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    mu, _ = spec.mu_n(n)
    s = sample_sums(spec, n, samples, seed)
    hits = int(np.count_nonzero(np.abs(s - n * mu) > zeta * n))
    return _binomial_result(hits, samples, method="lln")


# ---------------------------------------------------------------------------
# plain-text scheme configs (key = value lines, # comments)

_SHAPES = {"truncated_pareto", "smooth_cutoff", "lattice_ball", "discrete_grid"}


def scheme_from_dict(d: dict) -> Scheme:
    shape = d.get("shape")
    try:
        if shape == "truncated_pareto":
            return TruncatedPareto(c=float(d["c"]), alpha=float(d["alpha"]))
        if shape == "smooth_cutoff":
            return SmoothCutoff(c=float(d["c"]), alpha=float(d["alpha"]))
        if shape == "lattice_ball":
            return LatticeBall(d=int(d["d"]), beta=float(d["beta"]))
        if shape == "discrete_grid":
            return DiscreteGrid(pmf=tuple(float(v) for v in d["pmf"]))
    except KeyError as exc:
        raise ValueError(f"scheme config for {shape!r} is missing {exc.args[0]}") from None
    raise ValueError(f"unknown scheme shape {shape!r}; expected one of {sorted(_SHAPES)}")


def load_scheme_config(path: str | Path) -> Scheme:
    """Read a scheme from a plain-text key = value config file."""
    raw: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key == "pmf":
            raw[key] = [float(v) for v in val.replace(",", " ").split()]
        else:
            raw[key] = val
    if "pmf" in raw and "shape" not in raw:
        raw["shape"] = "discrete_grid"
    return scheme_from_dict(raw)


def save_scheme_config(spec: Scheme, path: str | Path) -> None:
    lines = []
    for key, val in spec.spec_dict().items():
        if key == "pmf":
            val = ",".join(repr(v) for v in val)
        lines.append(f"{key} = {val}")
    Path(path).write_text("\n".join(lines) + "\n")
