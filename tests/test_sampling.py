"""The row-block sampling driver: every replicated-sampling result equals the
same computation done one shot per block stream, bit for bit, whatever the
number of worker threads."""

import contextlib
import dataclasses
import subprocess
import sys

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
    condensation_constant,
    conditional_profiles,
    estimate_conditional,
    estimate_naive,
    jump_marginal_mass,
    jump_size_gof,
    jump_sum_window_prob,
    lln_deviation,
    sample_sums,
    uniform_h,
)
from bigjumps import schemes
from bigjumps.rare_event import _decompose
from bigjumps.schemes import _BLOCK

SCHEMES = {
    "truncated_pareto": TruncatedPareto(c=1.5, alpha=1.5),
    "smooth_cutoff": SmoothCutoff(c=1.5, alpha=1.5),
    "lattice_ball": LatticeBall(d=1, beta=1.5),
    "discrete_grid": DiscreteGrid(pmf=(0.5, 0.25, 0.125, 0.125)),
}


def _block_streams(seed, width, count):
    """(Generator, rows) of each row block: block b draws from SeedSequence(seed, spawn_key=(b,))."""
    rows = _BLOCK // width
    for b, start in enumerate(range(0, count, rows)):
        stream = np.random.SeedSequence(seed, spawn_key=(b,))
        yield np.random.Generator(np.random.PCG64(stream)), min(rows, count - start)


def _one_shot_sums(spec, n, count, seed):
    if isinstance(spec, DiscreteGrid):
        index = np.arange(spec.m + 1)
        blocks = _block_streams(seed, spec.m + 1, count)
        return np.concatenate([rng.multinomial(n, spec.pmf, size=rows) @ index for rng, rows in blocks]) * spec.grid_step(n)
    return np.concatenate([spec.sample(n, rng, size=(rows, n)) for rng, rows in _block_streams(seed, n, count)]).sum(axis=1)


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
    got = sample_sums(spec, n, count, seed)
    want = _one_shot_sums(spec, n, count, seed)
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
    margin = sigma[0] - (k - 1)
    if margin > 0.0:
        draws = [spec.sample_above(n, margin * n * (1.0 - 1e-12), rng, (rows, k)) for rng, rows in _block_streams(7, k, samples)]
    else:
        draws = [spec.sample(n, rng, size=(rows, k)) for rng, rows in _block_streams(7, k, samples)]
    t_k = np.concatenate(draws).sum(axis=1)
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
    w = np.concatenate([spec.sample(n, rng, size=(rows, n)) for rng, rows in _block_streams(3, n, max_samples)])
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


def _gof(seed):
    tp = SCHEMES["truncated_pareto"]
    window = RhoWindow(1.5, ("fixed", 0.2))
    cond = conditional_profiles(tp, 64, window, eps=0.3, target_hits=60, max_samples=200_000, seed=0)
    return jump_size_gof(cond, tp.h, 1.5, 2, condensation_constant(tp.h, 1.5, 2, tol=1e-6), bins=4, seed=seed)


_TP = SCHEMES["truncated_pareto"]
_SEEDED = {
    "estimate_naive": lambda seed: estimate_naive(_TP, 256, RhoWindow(0.5, ("fixed", 0.4)), _TP.mu_n(256)[0], 20_000, seed=seed),
    "jump_sum_window_prob": lambda seed: jump_sum_window_prob(_TP, 2, 65, 1.4, 1.6, 20_000, seed=seed),
    "estimate_conditional": lambda seed: estimate_conditional(_TP, 256, RhoWindow(1.5, ("fixed", 0.2)), _TP.mu_n(256)[0], 20_000, seed=seed),
    "conditional_profiles": lambda seed: conditional_profiles(
        _TP, 64, RhoWindow(0.5, ("fixed", 0.4)), eps=0.1, target_hits=50, max_samples=20_000, seed=seed
    ),
    "jump_size_gof": _gof,
    "condensation_constant": lambda seed: condensation_constant(uniform_h, 3.5, 4, samples=20_000, seed=seed),
    "lln_deviation": lambda seed: lln_deviation(_TP, 64, 0.3, 2_000, seed=seed),
}


def _fields_equal(one, two):
    if not dataclasses.is_dataclass(one):
        return one == two
    return all(np.array_equal(getattr(one, f.name), getattr(two, f.name)) for f in dataclasses.fields(one))


@pytest.mark.parametrize("name", list(_SEEDED))
def test_seed_may_be_a_generator(name):
    # a Generator seeds each call from its own state: a fresh one repeats a result, a reused one moves on
    first, again = _SEEDED[name](np.random.default_rng(11)), _SEEDED[name](np.random.default_rng(11))
    assert _fields_equal(first, again)
    rng = np.random.default_rng(11)
    _SEEDED[name](rng)
    assert not _fields_equal(first, _SEEDED[name](rng))


_ROWS_64 = _BLOCK // 64  # rows per block at n = 64
_ACROSS_BLOCKS = {
    "estimate_naive": lambda: estimate_naive(_TP, 64, RhoWindow(0.5, ("fixed", 0.4)), _TP.mu_n(64)[0], 11 * _ROWS_64 + 3, seed=5),
    "lln_deviation": lambda: lln_deviation(SCHEMES["lattice_ball"], 65, 0.3, 11 * _ROWS_64 + 3, seed=5),
    # width n - 1 = 64: 1024 rows per block, so 11 full blocks and a short one
    "estimate_conditional": lambda: estimate_conditional(
        SCHEMES["lattice_ball"], 65, RhoWindow(0.5, ("fixed", 0.4)), SCHEMES["lattice_ball"].mu_n(65)[0], 11 * _ROWS_64 + 3, seed=5
    ),
    "jump_sum_boosted": lambda: jump_sum_window_prob(_TP, 2, 65, 1.4, 1.6, 7 * (_BLOCK // 2) + 3, seed=5),
    "jump_sum_plain": lambda: jump_sum_window_prob(_TP, 2, 65, 0.5, 1.5, 7 * (_BLOCK // 2) + 3, seed=5),
    # about 150 hits per block of 1024 rows: the target falls in the fifth block
    "conditional_target": lambda: conditional_profiles(
        _TP, 64, RhoWindow(0.5, ("fixed", 0.4)), eps=0.1, target_hits=700, max_samples=11 * _ROWS_64 + 3, seed=5
    ),
    "conditional_exhausted": lambda: conditional_profiles(
        _TP, 64, RhoWindow(0.5, ("fixed", 0.4)), eps=0.1, target_hits=10**6, max_samples=11 * _ROWS_64 + 3, seed=5
    ),
    # the k = 3 slab integral splits the row blocks of its finer levels among the workers; TruncatedPareto's
    # mass converges on levels that stay on the calling thread, SmoothCutoff's runs to level 9 on the pool
    "krho_grid_k3": lambda: condensation_constant(SCHEMES["smooth_cutoff"].h, 2.5, 3, tol=1e-8),
    "marginal_mass_k3": lambda: jump_marginal_mass(_TP.h, 2.5, 3, 0.6, 0.8),
    "marginal_mass_k3_pool": lambda: jump_marginal_mass(SCHEMES["smooth_cutoff"].h, 2.5, 3, 0.6, 0.8),
}


@pytest.mark.filterwarnings("ignore:sigma window", "ignore:collected", "ignore:marginal mass")
@pytest.mark.parametrize("name", list(_ACROSS_BLOCKS))
def test_results_do_not_depend_on_worker_count(name, monkeypatch):
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(schemes, "_WORKERS", workers)
        results.append(_ACROSS_BLOCKS[name]())
    assert _fields_equal(results[0], results[1]) and _fields_equal(results[0], results[2])


def test_import_starts_no_thread():
    code = "import threading, bigjumps; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "1"


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["krho", "--h", "uniform", "--rho", "1.5", "--k", "2", "--tol", "1e-6"],
        ["graph", "gen", "--d", "2", "--N", "4", "--beta", "3.0", "--seed", "1"],
        ["calibrate-h", "--d", "3", "--beta", "4", "--N-list", "2,4", "--samples", "1000"],
        ["krho", "--scheme", "{tmp}/ball.cfg", "--rho", "2.5", "--k", "3", "--tol", "0.1"],
        ["krho", "--h-table", "{tmp}/h.csv", "--rho", "1.5", "--k", "2", "--tol", "1e-6"],
    ],
    ids=["import", "krho", "graph-gen", "calibrate-h-d3", "krho-lattice-d3", "krho-h-table"],
)
def test_no_scipy_module_is_loaded_until_used(tmp_path, argv):
    # each scipy submodule is imported in the function that uses it: about 1 s of start-up otherwise,
    # and the d >= 3 geometry table and tabulated h interpolate without scipy
    (tmp_path / "ball.cfg").write_text("shape = lattice_ball\nd = 3\nbeta = 4.0\n")
    (tmp_path / "h.csv").write_text("x,h\n" + "".join(f"{i / 10},1.0\n" for i in range(1, 10)))
    code = "import sys, bigjumps\n"
    if argv is not None:
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code += f"from bigjumps import cli\nassert cli.run({['--outdir', str(tmp_path), *argv]!r}) == 0\n"
    code += "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
    if argv is not None:
        assert list(tmp_path.glob("*.manifest.json"))
