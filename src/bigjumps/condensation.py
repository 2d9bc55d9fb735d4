"""The condensation constant and the limiting joint law of the big jumps.

For a shape density h on (0, 1), a non-integer target excess rho and
k = ceil(rho), the constant is

    K(rho) = h(rho)                                    for k = 1,
    K(rho) = int over (0,1)^(k-1) of h(x_1)...h(x_{k-1})
             * h(rho - x_1 - ... - x_{k-1}) dx          for k >= 2,

restricted to the slab where the implicit k-th coordinate rho - sum(x)
also lies in (0, 1).  On that slab every coordinate automatically exceeds
rho - (k - 1) > 0, so the only possible integrand singularities sit at the
upper endpoint, where built-in shape densities may be unbounded but
integrable.  Quadrature therefore runs in tanh-sinh variables, which
collapse endpoint singularities, and never evaluates h within 1e-12 of 0
or 1.

Two independent evaluation routes are provided (refining tanh-sinh grids
and stratified importance-sampling Monte Carlo); they are cross-checked in
the test suite and never merged.
"""

from __future__ import annotations

import math
import threading
import warnings
from concurrent import futures
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from . import schemes
from ._pchip import pchip

__all__ = [
    "KrhoResult",
    "condensation_constant",
    "limit_jump_density",
    "jump_marginal_mass",
    "sample_limit_jumps",
    "load_tabulated_h",
    "uniform_h",
]

_EDGE = 1e-12
_MAX_LEVEL = {2: 12, 3: 9}  # finest tanh-sinh level per k
_BLOCK = 1 << 16  # points per h call in the k = 3 inner integral
_DIVERGENCE_LEVELS = 6
_DIVERGENCE_GROWTH = 1.01


@dataclass(frozen=True)
class KrhoResult:
    value: float
    abs_error_bound: float
    method: str  # "closed_form" | "grid" | "monte_carlo"
    diverged: bool = False
    note: str = ""
    levels: tuple = ()  # grid route: (level, h points, value) per refinement level

    def __post_init__(self):
        if not self.diverged and self.value < 0.0:
            raise ValueError("condensation constant cannot be negative")


def uniform_h(x):
    """h identically 1 on (0, 1); handy analytic reference density."""
    x = np.asarray(x, dtype=float)
    return np.ones_like(x)


# ---------------------------------------------------------------------------
# tanh-sinh nodes


@lru_cache(maxsize=16)
def _ts_rule(level: int):
    """A level's tanh-sinh abscissae and weights on (-1, 1), read-only; node j sits at t = j 2^-level."""
    step = 1.0 / (1 << level)
    t = np.arange(-int(3.6 / step), int(3.6 / step) + 1) * step
    sh = np.sinh(t)
    u = np.tanh(0.5 * np.pi * sh)
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(0.5 * np.pi * sh) ** 2 * step
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _ts_nodes(level: int, a, b, nodes=slice(None), out=(None, None)):
    """tanh-sinh abscissae/weights on (a, b), clipped 1e-12 away from the ends; `nodes` picks slots of the rule.

    a and b are scalars, or columns giving one row of nodes each; `out` may hold the two arrays to write
    into, as numpy's out= does.  The clip is a maximum, then a minimum: bit for bit np.clip on these finite
    nodes, without np.clip's Python wrapper.
    """
    u, w = _ts_rule(level)
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    y = np.multiply(rad, u[nodes], out=out[0])
    np.maximum(np.add(mid, y, out=y), a + _EDGE, out=y)
    return np.minimum(y, b - _EDGE, out=y), np.multiply(rad, w[nodes], out=out[1])


def _split(level: int) -> tuple[slice, slice]:
    """Slots of a level's nodes that the level before had (even j: its node j is node 2j here), and the new ones."""
    parity = int(3.6 * (1 << level)) % 2
    return slice(parity, None, 2), slice(1 - parity, None, 2)


def _edge_divergent(f: Callable, a: float, b: float) -> bool:
    """Probe the local growth exponent at both endpoints.

    Fits f ~ C * dist^(-p) from values at dist = 1e-6 and 1e-10 off each end;
    p >= 1 means the integral cannot be finite (the edge clip at 1e-12 would
    otherwise silently stabilize a divergent integral).  Log-corrected
    borderline densities like (1-x)^(-1) * log(1/(1-x))^(-a-1) measure p < 1
    and pass.
    """
    for edge, sign in ((a, +1.0), (b, -1.0)):
        d1, d2 = 1e-6, 1e-10
        try:
            f1 = float(f(np.array([edge + sign * d1]))[0])
            f2 = float(f(np.array([edge + sign * d2]))[0])
        except ArithmeticError:  # overflow or division by zero at the edge
            return True
        if not (math.isfinite(f1) and math.isfinite(f2)):
            return True
        if f1 <= 0.0 or f2 <= 0.0:
            continue
        p_hat = (math.log(f2) - math.log(f1)) / (math.log(d1) - math.log(d2))
        if p_hat >= 1.0:
            return True
    return False


def _inner_rows(h: Callable, lo: np.ndarray, rows: np.ndarray, level: int, nodes: slice, step: int, out: np.ndarray,
                blocks, claim: threading.Lock):
    """Add to out[rows] the inner sums of those rows over a level's `nodes`, block by block.

    A block is rows[start : start + step] for a start taken from the iterator `blocks` under the lock `claim`,
    so that threads sharing them take each block once.  Every block's nodes, weights and products go into the
    same three buffers, and each row takes one BLAS dot, the same sum as np.dot row by row: a row's value does
    not depend on its block.
    """
    shape = (min(step, len(rows)), len(_ts_rule(level)[0][nodes]))
    ybuf, wbuf, pbuf = np.empty(shape), np.empty(shape), np.empty(shape)
    while True:
        with claim:
            start = next(blocks, None)
        if start is None:
            return
        r = rows[start : start + step]
        y, w = _ts_nodes(level, lo[r, None], 1.0, nodes, out=(ybuf[: len(r)], wbuf[: len(r)]))
        hy = h(y.ravel()).reshape(y.shape)
        prod = np.multiply(hy, hy[:, ::-1], out=pbuf[: len(r)])
        out[r] += (prod[:, None, :] @ w[:, :, None])[:, 0, 0]


def _inner_k3(h: Callable, rho: float, x: np.ndarray, level: int, prev: np.ndarray | None = None):
    """int h(y) h(rho - x - y) dy over the slab's y-range (rho - 1 - x, 1) for each outer node x, on x's level.

    The range and its nodes are symmetric under y -> rho - x - y, so h(rho - x - y_j) is h(y_-j): one h call
    per node.  Given `prev`, the values of the level before, its rows get half that plus the new (odd) nodes.
    The old rows and the new rows each make one pass of blocks of _BLOCK points.  A pass of 2 * _WORKERS
    blocks or more is cut into blocks of _BLOCK // _WORKERS points instead, which the calling thread and
    _WORKERS - 1 pool threads take in turn, each as soon as it is free: a slow core then holds up a pass by
    one block at most.  Smaller passes run on the calling thread alone.  Returns the values and the number
    of points h was called on.
    """
    lo = rho - 1.0 - x
    out = np.zeros_like(x)
    groups = [(slice(None), slice(None))]
    if prev is not None:
        old, new = _split(level)
        out[old] = 0.5 * prev
        groups = [(old, new), (new, slice(None))]
    workers, points = schemes._WORKERS, 0
    for rows, nodes in groups:
        rows = np.arange(len(x))[rows][(1.0 - lo > 2 * _EDGE)[rows]]
        width = len(_ts_rule(level)[0][nodes])
        points += len(rows) * width
        step, helpers = max(1, _BLOCK // width), 0
        if workers > 1 and -(-len(rows) // step) >= 2 * workers:
            # the blocks in flight hold _BLOCK points between them, as one block does on one thread
            step, helpers = max(1, _BLOCK // workers // width), workers - 1
        task = (h, lo, rows, level, nodes, step, out, iter(range(0, len(rows), step)), threading.Lock())
        jobs = [schemes._executor(workers).submit(_inner_rows, *task) for _ in range(helpers)]
        try:
            _inner_rows(*task)
        finally:
            if jobs:
                futures.wait(jobs)  # no job outlives the call
        for job in jobs:
            job.result()
    return out, points


def _slab_integral(h: Callable, rho: float, k: int, lo: float, hi: float, tol: float):
    """Refining tanh-sinh estimate of the slab integral with x_1 restricted to (lo, hi).

    The integrand is h(x) h(rho - x) for k = 2, and h(x) times the inner
    integral over x_2 on the same level for k = 3.  A level evaluates h only
    at its new nodes.  Returns (value, bound, note, levels): the note is
    empty unless a rule stopped the refinement short of tol, a divergent
    integral has value and bound inf, and levels holds (level, h points,
    value) per level run.
    """
    h_points = 0

    def counted(y):
        nonlocal h_points
        h_points += len(y)
        return h(y)

    if k == 2:
        probe = lambda x: counted(x) * counted(rho - x)
    elif k == 3:
        # each coordinate stays above rho - 2 > 0, so the only possible
        # non-integrability is h's own upper edge
        probe = counted
    else:
        raise ValueError("grid quadrature supports k <= 3; use monte_carlo for larger k")
    if _edge_divergent(probe, lo, hi):
        return math.inf, math.inf, "endpoint probe found growth like dist^-p, p >= 1; integral treated as divergent", ()
    values, levels, f, inner = [], [], None, None
    for level in range(2, _MAX_LEVEL[k] + 1):
        x, w = _ts_nodes(level, lo, hi)
        h_points = 0  # the endpoint probe's points count for no level
        if f is None:
            f = probe(x)
        else:
            (old, new), f_old, f = _split(level), f, np.empty_like(x)
            f[old], f[new] = f_old, probe(x[new])
        if k == 3:
            # the inner points are counted here, not in `counted`: worker threads call h
            inner, points = _inner_k3(h, rho, x, level, inner)
            h_points += points
        values.append(float(np.dot(f if k == 2 else f * inner, w)))
        levels.append((level, h_points, values[-1]))
        if len(values) >= 2 and abs(values[-1] - values[-2]) <= 0.5 * tol:
            return values[-1], max(abs(values[-1] - values[-2]), 1e-16), "", tuple(levels)
        if len(values) > _DIVERGENCE_LEVELS:
            recent = values[-_DIVERGENCE_LEVELS - 1 :]
            if all(later > earlier * _DIVERGENCE_GROWTH for earlier, later in zip(recent, recent[1:])):
                return math.inf, math.inf, "refinements grew > 1% over 6 levels; integral treated as divergent", tuple(levels)
    bound = abs(values[-1] - values[-2])
    return values[-1], bound, f"max level {_MAX_LEVEL[k]} reached with bound {bound:.1e} > tol" if bound > tol else "", tuple(levels)


# ---------------------------------------------------------------------------
# importance proposal built from h itself


class _HProposal:
    """Per-coordinate proposal approximating q = h/H on (floor, 1).

    The inverse CDF is tabulated on tanh-sinh nodes; draws carry exact
    importance weights h(x)/q_hat(x) against the piecewise-linear sampler
    density q_hat, so estimators built on it are unbiased independent of
    the table resolution.  A guide table of four bins per knot (Chen & Asau
    1974) finds the segment of a uniform in O(1).
    """

    def __init__(self, h: Callable, floor: float):
        x, w = _ts_nodes(11, floor, 1.0)
        order = np.argsort(x)
        x, w = x[order], w[order]
        dens = np.asarray(h(x), dtype=float) * w
        cdf = np.concatenate(([0.0], np.cumsum(dens)))
        self.total = float(cdf[-1])
        xs = np.concatenate(([floor + _EDGE], x))
        keep = np.concatenate(([True], (np.diff(cdf) > 0) & (np.diff(xs) > 0)))
        self._cdf = cdf[keep] / self.total
        self._x = xs[keep]
        # per knot: np.interp's slope and the sampler density of its segment; the last knot takes u >= cdf[-1]
        self._slope = np.append(np.diff(self._x) / np.diff(self._cdf), 0.0)
        seg_pdf = np.diff(self._cdf) / np.diff(self._x)
        self._pdf = np.maximum(np.append(seg_pdf, seg_pdf[-1]), 1e-300)
        self._bins = 4 * len(self._cdf)
        # rounding u * bins is monotone, so the knot below u lies in [first[b], first[b] + counts[b]]
        counts = np.bincount((self._cdf * self._bins).astype(np.intp), minlength=self._bins + 1)
        self._first = np.maximum(np.cumsum(counts) - counts - 1, 0)
        self._wide = counts > 2  # bins that two steps from first[b] may not cross
        self._cdf_next = np.append(self._cdf[1:], np.inf)
        self.floor = floor
        self._h = h

    def from_uniform(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map uniforms to draws, returning (x, importance weight h(x)/q_hat(x))."""
        b = (u * self._bins).astype(np.intp)
        seg = self._first[b]
        for _ in range(2):
            seg += self._cdf_next[seg] <= u
        wide = self._wide[b]
        if wide.any():
            seg[wide] = np.searchsorted(self._cdf, u[wide], side="right") - 1
        x = np.clip(self._slope[seg] * (u - self._cdf[seg]) + self._x[seg], self.floor + _EDGE, 1.0 - _EDGE)
        weight = np.asarray(self._h(x), dtype=float) / self._pdf[seg]
        return x, weight


def _mc_krho(h, rho, k, samples, rng, strata=64):
    """Stratified importance sampling of the slab integral.

    Coordinates are drawn from the tabulated proposal approximating h/H on
    (rho - (k-1), 1), with exact per-draw importance weights; the first
    coordinate's quantile is sampled on a stratified grid, which for k = 2
    stratifies exactly the constrained direction sum(x) and for larger k
    its dominant component.
    """
    floor = max(rho - (k - 1), 0.0)
    prop = _HProposal(h, floor)
    per = max(samples // strata, 8)
    est = np.zeros(strata)
    var = np.zeros(strata)
    for i in range(strata):
        u1 = (i + rng.random(per)) / strata
        x1, w1 = prop.from_uniform(u1)
        weight = w1
        s = x1
        for _ in range(k - 2):
            xj, wj = prop.from_uniform(rng.random(per))
            weight = weight * wj
            s = s + xj
        y = rho - s
        inside = (y > _EDGE) & (y < 1.0 - _EDGE)
        f = np.zeros(per)
        if inside.any():
            f[inside] = weight[inside] * np.asarray(h(y[inside]), dtype=float)
        est[i] = f.mean()
        var[i] = f.var(ddof=1) / per
    value = float(est.mean())
    se = float(math.sqrt(var.sum()) / strata)
    return value, se


# ---------------------------------------------------------------------------
# public operations


def condensation_constant(
    h: Callable,
    rho: float,
    k: int,
    tol: float = 1e-8,
    method: str = "auto",
    samples: int = 400_000,
    seed: int = 0,
) -> KrhoResult:
    """Evaluate the condensation constant K(rho) for shape density h.

    k = 1 returns h(rho) exactly.  For k in {2, 3} the default route is the
    refining tanh-sinh grid; for k >= 4 stratified Monte Carlo.  The grid
    route reports the last refinement change as its absolute error bound.
    It flags divergence, with value and bound inf, when the endpoint probe
    finds h growing like dist^-p with p >= 1 or when six successive
    refinements each grow by more than 1 percent (finiteness of K is an
    assumption on h, not a guarantee); `note` names the rule that fired.
    When the finest level leaves the bound above tol, `note` says so and
    `diverged` stays False.  Otherwise `note` is empty.

    At k = 3 the inner rows of a large refinement pass run on the worker
    pool of the sampling routines, with results bit-identical at any worker
    count: h must be a pure elementwise function safe to call from several
    threads at once, and no pool thread may call this function.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (k - 1 < rho < k):
        raise ValueError(f"rho must lie in (k-1, k) = ({k-1}, {k}); got rho={rho}")
    if k == 1:
        return KrhoResult(value=float(h(rho)), abs_error_bound=0.0, method="closed_form")

    if method == "auto":
        method = "grid" if k <= 3 else "monte_carlo"

    if method == "grid":
        value, bound, note, levels = _slab_integral(h, rho, k, max(0.0, rho - (k - 1)), 1.0, tol)
        return KrhoResult(value, bound, "grid", diverged=math.isinf(value), note=note, levels=levels)

    if method == "monte_carlo":
        rng = np.random.default_rng(seed)
        value, se = _mc_krho(h, rho, k, samples, rng)
        # 3-sigma statistical bound so that independent routes overlap at their bounds
        return KrhoResult(value=value, abs_error_bound=3.0 * se, method="monte_carlo")

    raise ValueError(f"unknown method {method!r}")


def limit_jump_density(h: Callable, rho: float, k: int, x) -> float:
    """Unnormalized limiting density of the first k-1 normalized jump sizes.

    Value h(x_1)...h(x_{k-1}) * h(rho - sum(x)) on the support, else 0.
    Callers divide by condensation_constant(...).value to normalize.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != k - 1:
        raise ValueError(f"expected {k - 1} coordinates, got {x.shape[-1]}")
    batch = x.reshape(-1, k - 1)
    out = np.zeros(len(batch))
    y = rho - batch.sum(axis=1)
    ok = np.all((batch > 0.0) & (batch < 1.0), axis=1) & (y > 0.0) & (y < 1.0)
    if ok.any():
        vals = np.prod(np.asarray(h(batch[ok].ravel())).reshape(ok.sum(), k - 1), axis=1)
        out[ok] = vals * np.asarray(h(y[ok]))
    return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])


def jump_marginal_mass(h: Callable, rho: float, k: int, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Unnormalized mass of one jump coordinate in [lo, hi] under the limit law.

    For k = 2 this is int_lo^hi h(x) h(rho - x) dx; for k = 3 the inner
    coordinate is integrated out with exact limits.  The refinement is the
    grid route of condensation_constant.  Used to bin reference masses for
    goodness-of-fit tests.  A mass whose refinement stops short of tol comes
    with a RuntimeWarning carrying the refinement's note.
    """
    if k not in (2, 3):
        raise NotImplementedError("marginal masses implemented for k in {2, 3}")
    lo, hi = max(lo, rho - (k - 1), 0.0), min(hi, rho, 1.0)
    if hi <= lo:
        return 0.0
    value, _, note, _ = _slab_integral(h, rho, k, lo, hi, tol)
    if math.isinf(value):
        raise ValueError("marginal mass integral diverged")
    if note:
        warnings.warn(f"marginal mass on [{lo}, {hi}]: {note}", RuntimeWarning, stacklevel=2)
    return value


def sample_limit_jumps(
    h: Callable,
    rho: float,
    k: int,
    count: int,
    rng: np.random.Generator,
    max_tries: int = 2_000_000,
) -> np.ndarray:
    """Rejection samples of the (k-1)-vector from the normalized limit density.

    Proposal: per-coordinate q = h/H on the slab floor, accepted against the
    implicit coordinate's density value.  Used by calibration runs.
    """
    floor = max(rho - (k - 1), 0.0)
    prop = _HProposal(h, floor)
    # envelope for h(rho - s): h is monotone on built-in schemes only near the
    # edges, so bound it on a probe grid with safety margin (the margin also
    # covers the proposal's h/q_hat weights, which hover around H)
    probe = np.linspace(floor + 1e-6, 1.0 - 1e-6, 4097)
    bound = float(np.max(h(probe))) * 2.0
    out = np.empty((count, k - 1))
    got, tried = 0, 0
    while got < count:
        m = min(8192, max_tries - tried)
        if m <= 0:
            raise RuntimeError(f"rejection sampling exhausted {max_tries} proposals ({got}/{count} accepted)")
        u = rng.random((m, k - 1))
        x, w = prop.from_uniform(u.ravel())
        x = x.reshape(m, k - 1)
        wnorm = (w.reshape(m, k - 1) / prop.total).prod(axis=1)  # ~1, exact correction
        y = rho - x.sum(axis=1)
        ok = (y > _EDGE) & (y < 1.0 - _EDGE)
        acc = np.zeros(m, dtype=bool)
        if ok.any():
            target = np.asarray(h(y[ok]), dtype=float) * wnorm[ok]
            if np.any(target > bound):
                raise RuntimeError("rejection envelope violated; raise the bound margin")
            acc[ok] = rng.random(int(ok.sum())) * bound < target
        take = min(int(acc.sum()), count - got)
        out[got : got + take] = x[acc][:take]
        got += take
        tried += m
    return out


def load_tabulated_h(path: str | Path):
    """Load a tabulated shape density (CSV columns x,h) as a callable on (0, 1).

    Between rows it is the monotone cubic through them; past the first and last row, their cubics extend.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    x, vals = data[:, 0], data[:, 1]
    if np.any(vals < 0.0):
        raise ValueError("tabulated h must be nonnegative")
    interp = pchip(x, vals)[0]

    def h(q):
        q = np.asarray(q, dtype=float)
        if np.any(q <= 0.0) or np.any(q >= 1.0):
            raise ValueError("h is defined on the open interval (0, 1)")
        return np.maximum(interp(q), 0.0)

    return h
