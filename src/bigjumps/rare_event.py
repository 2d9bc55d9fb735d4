"""Window probabilities for the cut-off sum and the conditional jump structure.

The target event is S_n in I_n = [n(rho1 + mu), n(rho2 + mu)] for a window
(rho1, rho2) shrinking to a non-integer excess rho.  Estimators:

estimate_naive        hit counting over replicated row sums.
exact_dp              exact n-fold convolution oracle for DiscreteGrid schemes.
predicted_window_prob the asymptotic prediction C(n,k) * width * n^(-alpha k) * K.
jump_sum_window_prob  P(T_k in [n s1, n s2]) for the k-fold sum alone, with
                      importance boosting (all coordinates conditioned big).
estimate_structured   C(n,k) * P(T_k in inner window), the dominant-configuration
                      approximation.
conditional_profiles  rejection sampling of full rows given S_n in I_n,
                      decomposed into eps-big jumps and bulk.

Windows are centered at n * mu_n, the exact finite-n mean `Scheme.mu_n`, rather
than n * mu: at desk scale the difference mu_n - mu shifts the window by more
than its width.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.stats import chi2 as _chi2

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
    "exact_dp",
    "exact_sum_distribution",
    "predicted_window_prob",
    "jump_sum_window_prob",
    "estimate_structured",
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


def estimate_naive(
    spec: Scheme,
    n: int,
    window: RhoWindow,
    mu_ref: float,
    samples: int,
    seed: int = 0,
) -> EstimateResult:
    """Hit-counting estimate of P(S_n in I_n) with binomial standard error."""
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for a window estimate")
    if not math.isnan(spec.alpha):
        window.validate_for_alpha(spec.alpha)
    lo, hi = window.interval(n, mu_ref)
    s = sample_sums(spec, n, samples, seed)
    hits = int(np.count_nonzero((s >= lo) & (s <= hi)))
    if hits < 25:
        warnings.warn(f"only {hits} hits out of {samples} samples; estimate is unreliable", stacklevel=2)
    return _binomial_result(hits, samples, method="naive")


def exact_sum_distribution(spec: DiscreteGrid, n: int) -> np.ndarray:
    """Exact pmf of the index sum of n draws (support 0..n*m), by rolling convolution."""
    if not isinstance(spec, DiscreteGrid):
        raise TypeError("exact convolution oracle requires a DiscreteGrid scheme")
    m = spec.m
    if n * m > _DP_CELL_CAP:
        raise ValueError(f"n*m = {n * m} exceeds the {_DP_CELL_CAP} cell cap")
    pmf = np.asarray(spec.pmf)
    dist = np.zeros(n * m + 1)
    dist[0] = 1.0
    width = 0
    for _ in range(n):
        dist[: width + m + 1] = np.convolve(dist[: width + 1], pmf)
        width += m
    return dist


def exact_dp(spec: DiscreteGrid, n: int, interval: tuple[float, float]) -> float:
    """Exact P(S_n in [lo, hi]) for a DiscreteGrid scheme (value units)."""
    lo, hi = interval
    dist = exact_sum_distribution(spec, n)
    step = spec.grid_step(n)
    if step == 0.0:
        return float(dist[0]) if lo <= 0.0 <= hi else 0.0
    scale = max(abs(lo), abs(hi), step)
    i0 = int(np.ceil((lo - 1e-12 * scale) / step))
    i1 = int(np.floor((hi + 1e-12 * scale) / step))
    i0, i1 = max(i0, 0), min(i1, n * spec.m)
    if i1 < i0:
        return 0.0
    return float(dist[i0 : i1 + 1].sum())


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


def estimate_structured(
    spec: Scheme,
    n: int,
    window: RhoWindow,
    samples: int,
    seed: int = 0,
    delta_frac: float = 0.05,
) -> EstimateResult:
    """Dominant-configuration estimate C(n,k) * P(T_k in inner window).

    Approximates the leading event: exactly k big coordinates whose sum
    falls in the window shrunk by `delta_frac` of its width at each end,
    the remaining n-k coordinates taken to stay near their mean (a bulk
    factor of one).  Contributions from misplaced jump sums, extra big
    jumps and too few big jumps are omitted; they vanish asymptotically
    but the estimator is an approximation at finite n and is
    cross-validated against estimate_naive, not claimed unbiased.
    """
    k = window.k
    r1, r2 = window.bounds(n)
    delta = delta_frac * window.width(n)
    inner = jump_sum_window_prob(spec, k, n, r1 + delta, r2 - delta, samples, seed=seed)
    log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    prob = math.exp(log_binom) * inner.prob
    se = math.exp(log_binom) * inner.std_error
    if prob > 1.0:
        warnings.warn("structured estimate exceeded 1; window too wide for the factorization", stacklevel=2)
        prob, se = 1.0, min(se, 1.0)
    return EstimateResult(
        prob=prob, std_error=se, samples=inner.samples, hits=inner.hits, method="structured"
    )


# ---------------------------------------------------------------------------
# conditional structure


def _decompose(vector: np.ndarray, eps_n: float) -> JumpProfile:
    big_idx = np.flatnonzero(vector > eps_n)  # strictly bigger: ties count as bulk
    order = np.argsort(vector[big_idx])[::-1]
    big_idx = big_idx[order]
    big = tuple((int(i), float(vector[i])) for i in big_idx)
    mask = np.ones(len(vector), dtype=bool)
    mask[big_idx] = False
    bulk = float(math.fsum(vector[mask].tolist()))
    s_n = bulk + math.fsum(v for _, v in big)
    return JumpProfile(big_jumps=big, bulk_sum=bulk, s_n=s_n)


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
        kept = (_decompose(w[i], eps_n) for i in np.flatnonzero((s >= lo) & (s <= hi)))
        return rows, [prof for prof in kept if lo <= prof.s_n <= hi]  # recheck with the exact-identity sum

    profiles: list[JumpProfile] = []
    used = 0
    for rows, kept in _map_blocks(block, n, max_samples, seed):
        used += rows
        profiles += kept[: target_hits - len(profiles)]
        if len(profiles) >= target_hits:
            break
    if len(profiles) < target_hits:
        warnings.warn(
            f"collected {len(profiles)} of {target_hits} hits after {used} replicas",
            stacklevel=2,
        )
    return ConditionalSample(
        profiles=tuple(profiles),
        samples_used=used,
        target_hits=target_hits,
        n=n,
        eps=eps,
        mu_ref=mu_ref,
        interval=(lo, hi),
    )


def structure_fraction(
    profiles: Sequence[JumpProfile] | ConditionalSample,
    k: int,
    gamma: float,
    mu_ref: float,
    rho: float,
    n: int | None = None,
) -> float:
    """Fraction of profiles with exactly k big jumps, big-jump sum within
    gamma*n of rho*n, and bulk within gamma*n of mu_ref*n."""
    if isinstance(profiles, ConditionalSample):
        n = profiles.n
        profiles = profiles.profiles
    elif n is None:
        raise ValueError("pass a ConditionalSample or give the row size n explicitly")
    profiles = tuple(profiles)
    if not profiles:
        return 0.0
    good = 0
    for p in profiles:
        ok = (
            p.n_big == k
            and abs(p.big_sum - rho * n) <= gamma * n
            and abs(p.bulk_sum - mu_ref * n) <= gamma * n
        )
        good += bool(ok)
    return good / len(profiles)


def jump_size_gof(
    profiles: Sequence[JumpProfile] | ConditionalSample,
    h: Callable,
    rho: float,
    k: int,
    krho: KrhoResult,
    bins: int = 8,
    seed: int = 0,
    values: np.ndarray | None = None,
) -> GofResult:
    """Chi-square test of the first k-1 normalized jump sizes against the limit law.

    Profiles without exactly k big jumps are skipped (count reported).  The
    k jumps are put in random order and the first k-1 taken, normalized by
    n.  Values outside the limit support are excluded with a reported count
    and the expected bin masses renormalized to the in-support sample size:
    the limit statement concerns the density on its support, while spill is
    a finite-n rate effect.  Bins with expected count < 5 are merged into
    their neighbour (count reported).
    """
    if k < 2:
        raise ValueError("the jump-size law is nontrivial only for k >= 2")
    if krho.diverged:
        raise ValueError("condensation constant diverged")
    rng = np.random.default_rng(seed)

    skipped = 0
    if values is None:
        if isinstance(profiles, ConditionalSample):
            n = profiles.n
            plist = profiles.profiles
        else:
            raise ValueError("pass a ConditionalSample (or explicit `values`)")
        vals = []
        for p in plist:
            if p.n_big != k:
                skipped += 1
                continue
            jumps = np.array([v for _, v in p.big_jumps], dtype=float)
            rng.shuffle(jumps)
            vals.extend(jumps[: k - 1] / n)
        values = np.asarray(vals, dtype=float)

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

    # merge bins with expected < 5 into their left neighbour (leftmost merges right)
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
            i = 0
        else:
            i += 1
    obs_arr, exp_arr = np.asarray(obs), np.asarray(exp)
    if len(obs_arr) == 1:
        stat, dof, pvalue = 0.0, 0, 1.0
    else:
        stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
        dof = len(obs_arr) - 1
        pvalue = float(_chi2.sf(stat, dof))
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
    structured_samples: int = 0,
    alpha: float | None = None,
) -> list[dict]:
    """Per-n table of (n, method, prob, std_error, rhs, ratio over the prediction).

    DiscreteGrid schemes use the exact convolution oracle; otherwise the
    naive hit-counting estimator, plus optionally the structured estimator.
    `alpha` overrides the scheme's tail index in the prediction (needed for
    DiscreteGrid schemes, which have none).  A per-n domain error
    (`ValueError`, e.g. the exact-DP cell cap) is recorded as a row with an
    `error` field and the sweep continues; any other exception propagates.
    """
    if alpha is None:
        alpha = spec.alpha
    if not math.isfinite(alpha):
        raise ValueError("scheme has no tail index; pass alpha explicitly")
    rows: list[dict] = []
    for i, n in enumerate(n_list):
        # SeedSequence((seed, i)) gives each (seed, row) its own stream; the structured column takes its first child
        row_seed = np.random.SeedSequence((seed, i))
        try:
            mu_n, _ = spec.mu_n(n)
            rhs = predicted_window_prob(alpha, n, window, krho)
            if isinstance(spec, DiscreteGrid):
                p = exact_dp(spec, n, window.interval(n, mu_n))
                est = EstimateResult(prob=p, std_error=0.0, samples=0, hits=0, method="exact_dp")
            else:
                est = estimate_naive(spec, n, window, mu_n, samples_per_n, seed=row_seed)
            row = {
                "n": n,
                "method": est.method,
                "prob": est.prob,
                "std_error": est.std_error,
                "rhs": rhs,
                "ratio": est.prob / rhs if rhs > 0 else math.nan,
            }
            if structured_samples > 0 and not isinstance(spec, DiscreteGrid):
                st = estimate_structured(spec, n, window, structured_samples, seed=row_seed.spawn(1)[0])
                row["structured"] = st.prob
                row["structured_ratio"] = st.prob / rhs if rhs > 0 else math.nan
            rows.append(row)
        except ValueError as exc:  # per-n domain errors recorded, sweep continues
            rows.append({"n": n, "error": f"{type(exc).__name__}: {exc}"})
    return rows
