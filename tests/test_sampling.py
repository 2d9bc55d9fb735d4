"""The row-block sampling driver: every replicated-sampling result equals the
same computation done in one shot on the same Generator, bit for bit."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigjumps import (
    DiscreteGrid,
    LatticeBall,
    RhoWindow,
    SmoothCutoff,
    TruncatedPareto,
    conditional_profiles,
    jump_sum_window_prob,
    sample_sums,
)
from bigjumps.rare_event import _decompose
from bigjumps.schemes import _BLOCK

SCHEMES = {
    "truncated_pareto": TruncatedPareto(c=1.5, alpha=1.5),
    "smooth_cutoff": SmoothCutoff(c=1.5, alpha=1.5),
    "lattice_ball": LatticeBall(d=1, beta=1.5),
    "discrete_grid": DiscreteGrid(pmf=(0.5, 0.25, 0.125, 0.125)),
}


def _one_shot_sums(spec, n, count, rng):
    if isinstance(spec, DiscreteGrid):
        return rng.multinomial(n, spec.pmf, size=count) @ np.arange(spec.m + 1) * spec.grid_step(n)
    return spec.sample(n, rng, size=(count, n)).sum(axis=1)


@st.composite
def _sum_cases(draw):
    name = draw(st.sampled_from(sorted(SCHEMES)))
    spec = SCHEMES[name]
    if isinstance(spec, LatticeBall):
        n = 2 * draw(st.integers(1, 1000)) + 1  # levels are (2N+1)^d
    else:
        n = draw(st.integers(2, 2000))
    width = spec.m + 1 if isinstance(spec, DiscreteGrid) else n
    rows = _BLOCK // width
    count = draw(st.integers(2 * rows + 1, 3 * rows + 1))  # spans three or four blocks
    return spec, n, count, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=12, deadline=None, database=None)
@given(_sum_cases())
def test_sample_sums_match_one_shot_reference(case):
    spec, n, count, seed = case
    got = sample_sums(spec, n, count, np.random.default_rng(seed))
    want = _one_shot_sums(spec, n, count, np.random.default_rng(seed))
    assert got.shape == (count,)
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore:sigma window")
@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("k,sigma", [(2, (1.4, 1.6)), (2, (0.5, 1.5))], ids=["boosted", "plain"])
def test_jump_sum_window_prob_matches_one_shot(name, k, sigma):
    spec = SCHEMES[name]
    n = 65
    samples = 3 * (_BLOCK // k) + 5
    est = jump_sum_window_prob(spec, k, n, *sigma, samples, seed=7)
    rng = np.random.default_rng(7)
    margin = sigma[0] - (k - 1)
    if margin > 0.0:
        t_k = spec.sample_above(n, margin * n * (1.0 - 1e-12), rng, (samples, k)).sum(axis=1)
    else:
        t_k = spec.sample(n, rng, size=(samples, k)).sum(axis=1)
    assert est.hits == np.count_nonzero((t_k >= n * sigma[0]) & (t_k <= n * sigma[1]))


@pytest.mark.parametrize("name,n", [("truncated_pareto", 64), ("smooth_cutoff", 64), ("discrete_grid", 64)])
@pytest.mark.parametrize("target", [250, 10**6], ids=["target", "exhausted"])
def test_conditional_profiles_match_one_shot_rejection(name, n, target):
    spec = SCHEMES[name]
    window = RhoWindow(0.5, ("fixed", 0.4))
    mu, _ = spec.mu_n(n)
    rows = _BLOCK // n
    max_samples = 3 * rows + 5
    exhausted = pytest.warns(UserWarning, match="collected") if target == 10**6 else contextlib.nullcontext()
    with exhausted:
        cond = conditional_profiles(
            spec, n, window, eps=0.1, target_hits=target, max_samples=max_samples, seed=3, mu_ref=mu
        )
    w = spec.sample(n, np.random.default_rng(3), size=(max_samples, n))
    s = w.sum(axis=1)
    lo, hi = window.interval(n, mu)
    accepted = []
    for i in np.flatnonzero((s >= lo) & (s <= hi)):
        prof = _decompose(w[i], 0.1 * n)
        if lo <= prof.s_n <= hi:
            accepted.append((i, prof))
    assert cond.profiles == tuple(prof for _, prof in accepted[:target])
    if len(accepted) >= target:
        # replicas are consumed a whole block at a time
        last = accepted[target - 1][0]
        assert last >= rows, "the target should be reached after the first block"
        assert cond.samples_used == min(max_samples, (last // rows + 1) * rows)
    else:
        assert cond.samples_used == max_samples
