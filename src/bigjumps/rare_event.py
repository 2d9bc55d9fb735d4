"""Window probabilities for the cut-off sum and the conditional jump structure.

The target event is S_n in I_n = [n(rho1 + mu), n(rho2 + mu)] for a window
(rho1, rho2) shrinking to a non-integer excess rho.  Estimators:

estimate_naive        hit counting over replicated row sums.
estimate_conditional  conditional Monte Carlo: the largest coordinate integrated out
                      through the exact tail, unbiased, every replica contributing.
exact_dp              exact window mass for DiscreteGrid schemes by one exponentially
                      tilted FFT, exact to round-off relative to the window mass.
predicted_window_prob the asymptotic prediction C(n,k) * width * n^(-alpha k) * K.
jump_sum_window_prob  P(T_k in [n s1, n s2]) for the k-fold sum alone, with
                      importance boosting (all coordinates conditioned big).
conditional_profiles  rejection sampling of full rows given S_n in I_n,
                      decomposed into eps-big jumps and bulk.

Windows are centered at n * mu_n, the exact finite-n mean `Scheme.mu_n`, rather
than n * mu: at desk scale the difference mu_n - mu shifts the window by more
than its width.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .condensation import KrhoResult, jump_marginal_mass
from .schemes import (
    DiscreteGrid,
    EstimateResult,
    Scheme,
    _binomial_result,
    _map_blocks,
    sample_sums,
)

__all__ = [
    "RhoWindow",
    "JumpProfile",
    "ConditionalSample",
    "GofResult",
    "estimate_naive",
    "estimate_conditional",
    "exact_dp",
    "exact_sum_distribution",
    "predicted_window_prob",
    "jump_sum_window_prob",
    "conditional_profiles",
    "structure_fraction",
    "jump_size_gof",
    "ratio_sweep",
]

_DP_CELL_CAP = 1_000_000


@dataclass(frozen=True)
class RhoWindow:
    """Target excess rho with k = ceil(rho) and an interval schedule.

    width_rule: ("fixed", w) keeps rho2 - rho1 = w; ("power", w0, gamma)
    shrinks it as w0 * n^(-gamma).  Windows are centered at rho.
    """

    rho: float
    width_rule: tuple = ("fixed", 0.1)

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        if abs(self.rho - round(self.rho)) < 1e-9:
            raise ValueError("rho must be non-integer (the window analysis collapses at integers)")
        kind = self.width_rule[0]
        if kind == "fixed":
            if len(self.width_rule) != 2 or self.width_rule[1] <= 0.0:
                raise ValueError("fixed width rule needs one positive width")
        elif kind == "power":
            if len(self.width_rule) != 3 or self.width_rule[1] <= 0.0:
                raise ValueError("power width rule needs (w0, gamma) with w0 > 0")
        else:
            raise ValueError(f"unknown width rule {kind!r}")

    @property
    def k(self) -> int:
        return math.ceil(self.rho)

    def width(self, n: int) -> float:
        if self.width_rule[0] == "fixed":
            return float(self.width_rule[1])
        w0, gamma = self.width_rule[1], self.width_rule[2]
        return float(w0) * float(n) ** (-float(gamma))

    def bounds(self, n: int) -> tuple[float, float]:
        w = self.width(n)
        return self.rho - 0.5 * w, self.rho + 0.5 * w

    def interval(self, n: int, mu_ref: float) -> tuple[float, float]:
        r1, r2 = self.bounds(n)
        return n * (r1 + mu_ref), n * (r2 + mu_ref)

    def validate_for_alpha(self, alpha: float) -> None:
        if self.width_rule[0] == "power":
            gamma = float(self.width_rule[2])
            if gamma >= min(1.0, alpha - 1.0):
                raise ValueError(
                    f"power rule gamma={gamma} must stay below min(1, alpha-1)={min(1.0, alpha - 1.0)} "
                    "so the window dominates the admissible schedules"
                )

    def default_eps(self, alpha: float) -> float:
        """Half the admissible decomposition-threshold bound (rho-(k-1))/(k+2/(alpha-1))."""
        return 0.5 * (self.rho - (self.k - 1)) / (self.k + 2.0 / (alpha - 1.0))


@dataclass(frozen=True)
class JumpProfile:
    """One conditioned replica decomposed at the threshold eps * n.

    A coordinate exactly equal to eps*n counts as bulk, not big.
    bulk_sum + sum of big-jump values equals s_n exactly by construction.
    """

    big_jumps: tuple  # ((index, value), ...) sorted by value descending
    bulk_sum: float
    s_n: float

    @property
    def n_big(self) -> int:
        return len(self.big_jumps)

    @property
    def big_sum(self) -> float:
        return self.s_n - self.bulk_sum


@dataclass(frozen=True)
class ConditionalSample:
    profiles: tuple
    samples_used: int
    target_hits: int
    n: int
    eps: float
    mu_ref: float
    interval: tuple

    @property
    def hits(self) -> int:
        return len(self.profiles)


@dataclass(frozen=True)
class GofResult:
    statistic: float
    pvalue: float
    dof: int
    observed: np.ndarray
    expected: np.ndarray
    bin_edges: np.ndarray
    used_profiles: int
    skipped_profiles: int  # wrong big-jump count
    out_of_support: int    # first-jump values outside the limit support
    merged_bins: int


# ---------------------------------------------------------------------------
# estimators


def _checked_interval(spec: Scheme, n: int, window: RhoWindow, mu_ref: float, samples: int) -> tuple[float, float]:
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for a window estimate")
    if not math.isnan(spec.alpha):
        window.validate_for_alpha(spec.alpha)
    return window.interval(n, mu_ref)


def estimate_naive(
    spec: Scheme,
    n: int,
    window: RhoWindow,
    mu_ref: float,
    samples: int,
    seed: int = 0,
) -> EstimateResult:
    """Hit-counting estimate of P(S_n in I_n) with binomial standard error."""
    lo, hi = _checked_interval(spec, n, window, mu_ref, samples)
    s = sample_sums(spec, n, samples, seed)
    hits = int(np.count_nonzero((s >= lo) & (s <= hi)))
    if hits < 25:
        warnings.warn(f"only {hits} hits out of {samples} samples; estimate is unreliable", stacklevel=2)
    return _binomial_result(hits, samples, method="naive")


def estimate_conditional(
    spec: Scheme,
    n: int,
    window: RhoWindow,
    mu_ref: float,
    samples: int,
    seed: int = 0,
) -> EstimateResult:
    """Conditional Monte Carlo estimate of P(S_n in I_n) (Asmussen & Kroese 2006), unbiased for every scheme.

    P(S_n in I) = n P(S_n in I, W_n the largest coordinate), ties broken by independent uniforms.  A replica
    draws n - 1 values with sum S, maximum M and tau of them equal to M, and integrates W = W_n out given them:
    n [P(W in [lo - S, hi - S], W > M) + 1{M in [lo - S, hi - S]} P(W = M) / (tau + 1)], both read from
    `tail` with P(W >= a) = tail(n, a^-), so lattice atoms count exactly.  `std_error` is the replicas'
    sample SD / sqrt(samples); `hits` counts the replicas with a positive contribution.
    """
    if n < 2:
        raise ValueError(f"the conditional estimator needs n >= 2; got {n}")
    lo, hi = _checked_interval(spec, n, window, mu_ref, samples)

    def at_least(y):  # P(W >= y)
        return spec.tail(n, np.nextafter(y, -np.inf))

    def block(rng, rows):
        w = spec.sample(n, rng, (rows, n - 1))
        s, m = w.sum(axis=1), w.max(axis=1)
        ties = np.count_nonzero(w == m[:, None], axis=1)
        a, b, above_m = lo - s, hi - s, spec.tail(n, m)
        # W in [a, b] and W > M: from max(a, M^+), as tail is nonincreasing
        beyond = np.maximum(np.minimum(at_least(a), above_m) - spec.tail(n, b), 0.0)
        at_m = np.where((a <= m) & (m <= b), np.maximum(at_least(m) - above_m, 0.0) / (ties + 1), 0.0)
        return n * (beyond + at_m)

    z = np.concatenate([np.empty(0), *_map_blocks(block, n - 1, samples, seed)])
    se, hits = float(z.std(ddof=1)) / math.sqrt(samples), int(np.count_nonzero(z > 0.0))
    return EstimateResult(prob=float(z.mean()), std_error=se, samples=samples, hits=hits, method="conditional")


def _check_grid(spec: DiscreteGrid, n: int) -> None:
    if not isinstance(spec, DiscreteGrid):
        raise TypeError("exact convolution oracle requires a DiscreteGrid scheme")
    if n * spec.m > _DP_CELL_CAP:
        raise ValueError(f"n*m = {n * spec.m} exceeds the {_DP_CELL_CAP} cell cap")


def exact_sum_distribution(spec: DiscreteGrid, n: int) -> np.ndarray:
    """Exact pmf of the index sum of n draws (support 0..n*m), by rolling convolution."""
    _check_grid(spec, n)
    m = spec.m
    pmf = np.asarray(spec.pmf)
    dist = np.zeros(n * m + 1)
    dist[0] = 1.0
    width = 0
    for _ in range(n):
        dist[: width + m + 1] = np.convolve(dist[: width + 1], pmf)
        width += m
    return dist


def exact_dp(spec: DiscreteGrid, n: int, interval: tuple[float, float]) -> float:
    """Exact P(S_n in [lo, hi]) for a DiscreteGrid scheme (value units), by one exponentially tilted FFT.

    The index pmf is tilted to p_j e^(theta j) / M(theta), theta putting the tilted mean of the sum at
    the window point nearest n * mean (0 when the window holds the mean), convolved n-fold by one rfft
    raised to the n-th power, and untilted by M(theta)^n e^(-theta s) on the window cells s only: the
    FFT round-off is relative to the window mass, not to the mode of S_n (Keich 2005, J. Comput. Biol.).
    """
    from scipy.fft import irfft, next_fast_len, rfft
    from scipy.optimize import brentq
    _check_grid(spec, n)
    lo, hi = interval
    step = spec.grid_step(n)
    if step == 0.0:
        return 1.0 if lo <= 0.0 <= hi else 0.0
    scale = max(abs(lo), abs(hi), step)
    i0 = int(np.ceil((lo - 1e-12 * scale) / step))
    i1 = int(np.floor((hi + 1e-12 * scale) / step))
    j, (first, last) = np.arange(spec.m + 1), np.flatnonzero(spec.pmf)[[0, -1]]
    i0, i1 = max(i0, n * first), min(i1, n * last)  # no mass outside n * [first, last]
    if i1 < i0:
        return 0.0
    logp = np.log(spec.pmf, out=np.full(spec.m + 1, -np.inf), where=np.asarray(spec.pmf) > 0.0)

    def tilt(theta, c):  # p_j e^(theta (j - c)) / M and log M, M the sum of the numerators
        a = logp + theta * (j - c)
        w = np.exp(a - a.max())
        return w / w.sum(), a.max() + math.log(w.sum())

    mean = n * float(np.dot(spec.pmf, j))
    target, theta = min(max(mean, i0), i1), 0.0
    if target != mean:
        # half a cell inside the support, the tilted mean needs |theta| < 2000 for any pmf in double range
        tau = min(max(target, n * first + 0.5), n * last - 0.5) / n
        theta = brentq(lambda t: tilt(t, 0)[0] @ j - tau, -2000.0, 2000.0)
    c = round(target / n)  # exponents centred next to the tilted mean cancel no large theta * j
    pmf, log_m = tilt(theta, c)
    size = next_fast_len(n * spec.m + 1, real=True)
    conv = irfft(rfft(pmf, size) ** n, size)[i0 : i1 + 1]
    # numpy's pairwise sum, not a BLAS dot, so the bits do not depend on the BLAS thread count
    p = float(np.add.reduce(conv * np.exp(n * log_m - theta * (np.arange(i0, i1 + 1) - n * c))))
    return min(max(p, 0.0), 1.0)  # clipped: round-off can carry a near-full window past 1


def predicted_window_prob(alpha: float, n: int, window: RhoWindow, krho: KrhoResult) -> float:
    """The asymptotic window probability C(n,k) * width * n^(-alpha k) * K.

    Computed in log space so that large n and k never underflow to zero.
    """
    if krho.diverged or not math.isfinite(krho.value):
        raise ValueError("condensation constant diverged; no finite prediction exists")
    if krho.value <= 0.0:
        return 0.0
    k = window.k
    w = window.width(n)
    if w <= 0.0:
        return 0.0
    log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log_binom + math.log(w) - alpha * k * math.log(n) + math.log(krho.value))


def jump_sum_window_prob(
    spec: Scheme,
    k: int,
    n: int,
    sigma1: float,
    sigma2: float,
    samples: int,
    seed: int = 0,
) -> EstimateResult:
    """P(n*sigma1 <= T_k <= n*sigma2) for T_k = W_1 + ... + W_k alone.

    Importance boosting: every coordinate is drawn conditioned on exceeding
    t = (sigma1 - (k-1)) * n, with the exact conditioning probability as a
    multiplicative weight.  The remainder is exactly zero: if some
    coordinate were <= t, the other k-1 (each <= n) could bring T_k at most
    to t + (k-1)n < sigma1 * n.
    """
    if not (k - 1 < sigma1 < sigma2 < k):
        warnings.warn(
            f"sigma window ({sigma1}, {sigma2}) is not inside (k-1, k) = ({k - 1}, {k}); "
            "the k-jump local analysis targets that range",
            stacklevel=2,
        )
    margin = sigma1 - (k - 1)
    if margin <= 0.0:
        # no boosting possible; plain hit counting on T_k
        method, weight, draw = "naive", 1.0, partial(spec.sample, n)
    else:
        threshold = margin * n * (1.0 - 1e-12)
        p_tail = spec.tail(n, threshold)
        if p_tail <= 0.0:
            return EstimateResult(prob=0.0, std_error=0.0, samples=samples, hits=0, method="importance")
        method, weight, draw = "importance", p_tail ** k, partial(spec.sample_above, n, threshold)

    def block_hits(rng, rows):
        t_k = draw(rng, (rows, k)).sum(axis=1)
        return int(np.count_nonzero((t_k >= n * sigma1) & (t_k <= n * sigma2)))

    hits = sum(_map_blocks(block_hits, k, samples, seed))
    p = hits / samples
    se = weight * math.sqrt(p * (1.0 - p) / samples)
    return EstimateResult(prob=weight * p, std_error=se, samples=samples, hits=hits, method=method)


# ---------------------------------------------------------------------------
# conditional structure


def _decompose(vector: np.ndarray, eps_n: float) -> JumpProfile:
    big = vector > eps_n  # strictly bigger: ties count as bulk
    idx = np.flatnonzero(big)
    idx = idx[np.argsort(vector[idx])[::-1]]
    values = vector[idx].astype(float).tolist()
    bulk = math.fsum(vector[~big].tolist())
    return JumpProfile(big_jumps=tuple(zip(idx.tolist(), values)), bulk_sum=bulk, s_n=bulk + math.fsum(values))


def conditional_profiles(
    spec: Scheme,
    n: int,
    window: RhoWindow,
    eps: float,
    target_hits: int,
    max_samples: int,
    seed: int = 0,
    mu_ref: float | None = None,
) -> ConditionalSample:
    """Rejection sampling: keep full coordinate vectors of replicas with S_n in I_n.

    Each kept replica is decomposed at the threshold eps*n.  Stops at
    target_hits or when max_samples replicas have been consumed, a whole
    row block at a time (the hit count is whatever was collected by then).
    """
    if target_hits < 1:
        raise ValueError("target_hits must be positive")
    if mu_ref is None:
        mu_ref, _ = spec.mu_n(n)
    lo, hi = window.interval(n, mu_ref)
    eps_n = eps * n

    def block(rng, rows):
        w = spec.sample(n, rng, (rows, n))
        s = w.sum(axis=1)
        return rows, w[(s >= lo) & (s <= hi)]

    used = 0

    def accepted():  # rows are decomposed here, lazily, so no row past the target ever is
        nonlocal used
        for rows, hits in _map_blocks(block, n, max_samples, seed):
            used += rows
            for row in hits:
                prof = _decompose(row, eps_n)
                if lo <= prof.s_n <= hi:  # recheck with the exact-identity sum
                    yield prof

    gen = accepted()
    profiles = tuple(itertools.islice(gen, target_hits))
    gen.close()
    if len(profiles) < target_hits:
        warnings.warn(
            f"collected {len(profiles)} of {target_hits} hits after {used} replicas",
            stacklevel=2,
        )
    return ConditionalSample(
        profiles=profiles,
        samples_used=used,
        target_hits=target_hits,
        n=n,
        eps=eps,
        mu_ref=mu_ref,
        interval=(lo, hi),
    )


def structure_fraction(cond: ConditionalSample, k: int, gamma: float, mu_ref: float, rho: float) -> float:
    """Fraction of the conditioned rows with exactly k big jumps, big-jump sum within gamma*n of rho*n,
    and bulk within gamma*n of mu_ref*n, n the row size `cond.n`; 0.0 for a sample without hits."""
    if not cond.profiles:
        return 0.0
    n = cond.n
    good = sum(
        p.n_big == k and abs(p.big_sum - rho * n) <= gamma * n and abs(p.bulk_sum - mu_ref * n) <= gamma * n
        for p in cond.profiles
    )
    return good / cond.hits


def jump_size_gof(
    cond: ConditionalSample | None,
    h: Callable,
    rho: float,
    k: int,
    krho: KrhoResult,
    bins: int = 8,
    seed: int = 0,
    values: np.ndarray | None = None,
) -> GofResult:
    """Chi-square test of the first k-1 normalized jump sizes of `cond` against the limit law.

    Rows without exactly k big jumps are skipped (count reported).  Each
    kept row's k jumps are shuffled, in row order, and the first k-1 taken,
    normalized by n.  Explicit `values` (already normalized) replace the
    jumps of `cond`, which may then be None.  Values outside the limit
    support are excluded with a reported count and the expected bin masses
    renormalized to the in-support sample size: the limit statement
    concerns the density on its support, while spill is a finite-n rate
    effect.  Bins with expected count < 5 are merged into their left
    neighbour, the leftmost into its right one (count reported).
    """
    from scipy.special import chdtrc
    if k < 2:
        raise ValueError("the jump-size law is nontrivial only for k >= 2")
    if bins < 1:
        raise ValueError(f"bins must be >= 1; got {bins}")
    if krho.diverged:
        raise ValueError("condensation constant diverged")

    skipped = 0
    if values is None:
        kept = [np.array([v for _, v in p.big_jumps]) for p in cond.profiles if p.n_big == k]
        rng = np.random.default_rng(seed)
        for jumps in kept:
            rng.shuffle(jumps)
        values = np.array([jumps[: k - 1] for jumps in kept], dtype=float).reshape(-1) / cond.n
        skipped = cond.hits - len(kept)

    slo = max(0.0, rho - (k - 1))
    shi = min(1.0, rho)
    edges = np.linspace(slo, shi, bins + 1)
    in_support = (values > slo) & (values < shi)
    out_of_support = int(values.size - in_support.sum())
    values = values[in_support]
    if values.size < 5 * bins // 2:
        raise ValueError(f"only {values.size} in-support jump values; too few for {bins} bins")

    observed, _ = np.histogram(values, bins=edges)
    masses = np.array([jump_marginal_mass(h, rho, k, edges[i], edges[i + 1]) for i in range(bins)])
    expected = masses / masses.sum() * values.size

    # merge bins with expected < 5 into their left neighbour (leftmost merges right); bins left of i
    # already hold >= 5 and merging only raises them, so one pass needs no restart
    merged = 0
    obs, exp = list(observed.astype(float)), list(expected)
    edge_list = list(edges)
    i = 0
    while i < len(exp):
        if exp[i] < 5.0 and len(exp) > 1:
            j = i - 1 if i > 0 else 1
            exp[j] += exp[i]
            obs[j] += obs[i]
            del exp[i], obs[i]
            del edge_list[i if i > 0 else 1]  # drop the edge shared with the absorbing bin
            merged += 1
        else:
            i += 1
    obs_arr, exp_arr = np.asarray(obs), np.asarray(exp)
    if len(obs_arr) == 1:
        stat, dof, pvalue = 0.0, 0, 1.0
    else:
        stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
        dof = len(obs_arr) - 1
        pvalue = float(chdtrc(dof, stat))  # chi2.sf(stat, dof), without importing scipy.stats
    return GofResult(
        statistic=stat,
        pvalue=pvalue,
        dof=dof,
        observed=obs_arr,
        expected=exp_arr,
        bin_edges=np.asarray(edge_list),
        used_profiles=int(values.size // max(k - 1, 1)),
        skipped_profiles=skipped,
        out_of_support=out_of_support,
        merged_bins=merged,
    )


def ratio_sweep(
    spec: Scheme,
    window: RhoWindow,
    n_list: Sequence[int],
    samples_per_n: int,
    krho: KrhoResult,
    seed: int = 0,
    alpha: float | None = None,
) -> list[dict]:
    """Per-n table of (n, method, prob, std_error, rhs, ratio over the prediction).

    DiscreteGrid schemes use the exact convolution oracle; otherwise the
    naive hit-counting estimator.
    `alpha` overrides the scheme's tail index in the prediction (needed for
    DiscreteGrid schemes, which have none).  A per-n domain error
    (`ValueError`, e.g. the exact-DP cell cap) is recorded as a row with an
    `error` field and the sweep continues; any other exception propagates.
    """
    alpha = spec.alpha if alpha is None else alpha
    if not math.isfinite(alpha):
        raise ValueError("scheme has no tail index; pass alpha explicitly")
    rows: list[dict] = []
    for i, n in enumerate(n_list):
        # SeedSequence((seed, i)) gives each (seed, row) its own stream
        row_seed = np.random.SeedSequence((seed, i))
        try:
            mu_n, _ = spec.mu_n(n)
            rhs = predicted_window_prob(alpha, n, window, krho)
            if isinstance(spec, DiscreteGrid):
                p = exact_dp(spec, n, window.interval(n, mu_n))
                est = EstimateResult(prob=p, std_error=0.0, samples=0, hits=0, method="exact_dp")
            else:
                est = estimate_naive(spec, n, window, mu_n, samples_per_n, seed=row_seed)
            rows.append({
                "n": n,
                "method": est.method,
                "prob": est.prob,
                "std_error": est.std_error,
                "rhs": rhs,
                "ratio": est.prob / rhs if rhs > 0 else math.nan,
            })
        except ValueError as exc:  # per-n domain errors recorded, sweep continues
            rows.append({"n": n, "error": f"{type(exc).__name__}: {exc}"})
    return rows
