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

All samplers are inverse-CDF (no rejection) and reproducible from
(scheme, n, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

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
    """A hit-counting probability estimate with its binomial standard error."""

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


# Elements per row block: large enough to amortize the per-call overhead,
# small enough to stay in cache.
_BLOCK = 1 << 16


def _row_blocks(draw, width: int, count: int):
    """Yield `count` rows of `width` draws as (rows, width) blocks of about _BLOCK elements.

    `draw(shape)` returns the next rows of the caller's single Generator.
    Every built-in draw consumes its stream in row order, so the
    concatenated rows, and every result built from them, do not depend on
    the block size.
    """
    rows = max(1, _BLOCK // width)
    for start in range(0, count, rows):
        yield draw((min(rows, count - start), width))


class Scheme:
    """Base class for cut-off heavy-tailed schemes.

    Subclasses provide the row-level law of W(n) through `sample`,
    `tail` (exact upper-tail probabilities), `sample_above` (conditional
    sampling used for importance boosting) and `h` (shape density).
    """

    alpha: float

    # -- law --------------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator, size: int | None = None):
        raise NotImplementedError

    def tail(self, n: int, y: float) -> float:
        """Exact P(W(n) > y)."""
        raise NotImplementedError

    def sample_above(self, n: int, threshold: float, rng: np.random.Generator, size: int):
        """Draws of W(n) conditioned on W(n) > threshold."""
        raise NotImplementedError

    def h(self, x):
        raise NotImplementedError

    def mu_n(self, n: int, samples: int = 200_000, rng: np.random.Generator | None = None):
        """Mean of W(n): (value, std_error); std_error 0.0 when analytic."""
        raise NotImplementedError

    @property
    def mu_limit(self) -> float | None:
        """Limit of the row means, None when only a Monte Carlo estimate exists."""
        return None

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

    def inverse_cdf(self, n: int, u):
        """Quantile transform of W(n); u = 1 maps to the cut-off n exactly."""
        z = self._norm(n)
        x = ((1.0 - np.asarray(u) * z) * (self.alpha / self.c)) ** (-1.0 / self.alpha)
        return np.minimum(x, float(n))

    def sample(self, n, rng, size=None):
        self.check_level(n)
        if n <= self.x0:
            raise ValueError(f"level n={n} is below the support floor x0={self.x0:.3g}")
        u = rng.random(size)
        return self.inverse_cdf(n, u)

    def cdf(self, n: int, y):
        y = np.asarray(y, dtype=float)
        z = self._norm(n)
        inner = 1.0 - (self.c / self.alpha) * np.maximum(y, self.x0) ** (-self.alpha)
        return np.clip(np.where(y < self.x0, 0.0, inner / z), 0.0, 1.0)

    def tail(self, n, y):
        if y >= n:
            return 0.0
        if y <= self.x0:
            return 1.0
        z = self._norm(n)
        return (self.c / self.alpha) * (y ** -self.alpha - float(n) ** -self.alpha) / z

    def sample_above(self, n, threshold, rng, size):
        t = max(threshold, self.x0)
        ta, na = t ** -self.alpha, float(n) ** -self.alpha
        u = rng.random(size)
        x = (ta - u * (ta - na)) ** (-1.0 / self.alpha)
        return np.minimum(x, float(n))

    def h(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise ValueError("h is defined on the open interval (0, 1)")
        return self.c * x ** (-self.alpha - 1.0)

    def mu_n(self, n, samples=0, rng=None):
        a, c, x0 = self.alpha, self.c, self.x0
        raw = (c / (a - 1.0)) * (x0 ** (1.0 - a) - float(n) ** (1.0 - a))
        return raw / self._norm(n), 0.0

    @property
    def mu_limit(self):
        return (self.c / (self.alpha - 1.0)) * self.x0 ** (1.0 - self.alpha)

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

    def _sample_underlying(self, rng, size):
        u = rng.random(size)
        return (self.c / (1.0 - u)) ** (1.0 / self.alpha)

    def sample(self, n, rng, size=None):
        self.check_level(n)
        w = self._sample_underlying(rng, size)
        return float(n) * (1.0 - np.exp(-w / float(n)))

    def tail(self, n, y):
        if y >= n:
            return 0.0
        if y <= 0.0:
            return 1.0
        m = -float(n) * math.log1p(-y / float(n))
        if m <= self.x0:
            return 1.0
        return self.c * m ** (-self.alpha)

    def sample_above(self, n, threshold, rng, size):
        m = max(-float(n) * math.log1p(-threshold / float(n)), self.x0)
        u = rng.random(size)
        w = m * (1.0 - u) ** (-1.0 / self.alpha)
        return n * (1.0 - np.exp(-w / n))

    def h(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise ValueError("h is defined on the open interval (0, 1)")
        ell = -np.log1p(-x)
        return self.c * self.alpha / (1.0 - x) * ell ** (-self.alpha - 1.0)

    def mu_n(self, n, samples=200_000, rng=None):
        rng = np.random.default_rng(0) if rng is None else rng
        w = self.sample(n, rng, size=samples)
        return float(np.mean(w)), float(np.std(w, ddof=1) / math.sqrt(samples))

    @property
    def mu_limit(self):
        # E[W] of the underlying Pareto; phi_n(x) -> x pointwise
        return self.alpha * self.c ** (1.0 / self.alpha) / (self.alpha - 1.0)

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
        from . import torus

        return torus.sorted_offset_norms2(self.d, self.level_to_N(n))

    def sample(self, n, rng, size=None):
        self.check_level(n)
        from . import torus

        cfg = torus.TorusConfig(d=self.d, N=self.level_to_N(n), beta=self.beta, seed=0)
        return torus.out_degree_sample(cfg, rng, size=size)

    def tail(self, n, y):
        norms2 = self._geometry(n)
        k = int(math.floor(y))  # count > y  <=>  count >= k+1
        if k < 0:
            return 1.0
        if k >= len(norms2):
            return 0.0
        r2 = float(norms2[k])
        return min(1.0, r2 ** (-self.beta / 2.0))

    def sample_above(self, n, threshold, rng, size):
        norms2 = self._geometry(n)
        k = int(math.floor(threshold))
        if k >= len(norms2):
            raise ValueError("threshold at or above the maximal degree")
        rstar = math.sqrt(float(norms2[k])) if k >= 0 else 1.0
        rstar = max(rstar, 1.0)
        u = rng.random(size)
        r = rstar * (1.0 - u) ** (-1.0 / self.beta)
        return np.searchsorted(norms2, r * r, side="left").astype(np.int64)

    def h(self, x):
        from . import torus

        return torus.h_lattice(self.d, self.beta, x)

    def mu_n(self, n, samples=200_000, rng=None):
        rng = np.random.default_rng(0) if rng is None else rng
        w = self.sample(n, rng, size=samples).astype(float)
        return float(np.mean(w)), float(np.std(w, ddof=1) / math.sqrt(samples))

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

    def _cdf(self):
        return np.cumsum(self.pmf)

    def sample_index(self, rng, size):
        u = rng.random(size)
        return np.searchsorted(self._cdf(), u, side="right")

    def sample(self, n, rng, size=None):
        self.check_level(n)
        idx = self.sample_index(rng, size)
        return idx * self.grid_step(n)

    def sum_indices(self, n, rng, size):
        """Index sums of n draws per replica, via multinomial counts (exact law)."""
        index = np.arange(self.m + 1)
        blocks = _row_blocks(lambda shape: rng.multinomial(n, self.pmf, size=shape[0]), self.m + 1, size)
        return np.concatenate([np.empty(0, dtype=np.int64), *(counts @ index for counts in blocks)])

    def tail(self, n, y):
        step = self.grid_step(n)
        vals = np.arange(self.m + 1) * step
        return float(np.sum(np.asarray(self.pmf)[vals > y]))

    def sample_above(self, n, threshold, rng, size):
        step = self.grid_step(n)
        vals = np.arange(self.m + 1) * step
        mask = vals > threshold
        mass = np.asarray(self.pmf)[mask]
        if mass.sum() <= 0.0:
            raise ValueError("no pmf mass above threshold")
        cdf = np.cumsum(mass / mass.sum())
        u = rng.random(size)
        return vals[mask][np.searchsorted(cdf, u, side="right")]

    def h(self, x):
        raise ValueError("DiscreteGrid has no shape density h (oracle-only scheme)")

    def mu_n(self, n, samples=0, rng=None):
        return float(np.dot(self.pmf, np.arange(self.m + 1)) * self.grid_step(n)), 0.0

    def spec_dict(self):
        return {"shape": "discrete_grid", "grid_m": self.m, "pmf": list(self.pmf)}


# ---------------------------------------------------------------------------
# replicated row sums


def sample_sums(spec: Scheme, n: int, count: int, rng: np.random.Generator):
    """`count` independent row sums S_n = W_1 + ... + W_n, drawn in row blocks."""
    if isinstance(spec, DiscreteGrid):
        return spec.sum_indices(n, rng, count) * spec.grid_step(n)
    sums = [w.sum(axis=1) for w in _row_blocks(partial(spec.sample, n, rng), n, count)]
    return np.concatenate([np.empty(0), *sums])


def lln_deviation(
    spec: Scheme,
    n: int,
    zeta: float,
    samples: int,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> EstimateResult:
    """Empirical P(|S_n - n*mu_n| > zeta*n) with binomial standard error."""
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    mu, _ = spec.mu_n(n)
    rng = np.random.default_rng(seed) if rng is None else rng
    s = sample_sums(spec, n, samples, rng)
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
