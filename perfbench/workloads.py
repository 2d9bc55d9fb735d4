"""The four workloads: op lists generated from a seed, op runners and their oracle checks.

An op is one closed-loop request: the benchmark issues it, waits for it to
return, checks its output, and issues the next.  Ops call public functions
of bigjumps with scientific parameters and a seed only; they never pass
worker counts, chunk sizes or other plumbing, so that a change to those
shows as a gain without an edit here.

Every statistical check is a two-sided band of ``Z`` standard errors under
the normal approximation, a false-failure rate of 5.7e-7 per check.
A run makes a few hundred such checks, so the chance that a correct
program fails one anywhere in a campaign of a hundred runs stays below 1e-2.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bigjumps import cli, condensation, rare_event, schemes, torus
from bigjumps.condensation import uniform_h
from bigjumps.rare_event import RhoWindow
from bigjumps.schemes import DiscreteGrid, LatticeBall, SmoothCutoff, TruncatedPareto

import reference
from tracing import Tracer

Z = 5.0
WORKLOADS = ("mc_window", "condition", "quadrature", "graph")

TP = TruncatedPareto(c=1.5, alpha=1.5)
TP12 = TruncatedPareto(c=1.2, alpha=1.2)
SC = SmoothCutoff(c=1.5, alpha=1.5)
LB1 = LatticeBall(d=1, beta=1.5)
LB2 = LatticeBall(d=2, beta=3.0)
WINDOW = RhoWindow(rho=0.5, width_rule=("fixed", 0.1))
K2_WINDOW = RhoWindow(rho=1.5, width_rule=("fixed", 0.2))


@dataclass(frozen=True)
class Op:
    id: int
    kind: str
    params: dict = field(hash=False)


class OpFailed(Exception):
    """An op's output disagrees with its oracle."""


@dataclass
class Outcome:
    op: Op
    latency_s: float
    check_s: float
    ok: bool
    error: str = ""
    rel_se: float | None = None  # relative standard error of a Monte Carlo estimate op


class Context:
    """What ops share during a run: the tracer, the frozen references and a scratch directory."""

    def __init__(self, tracer: Tracer, refs: dict, workdir: Path):
        self.tracer = tracer
        self.refs = refs
        self.workdir = workdir
        self.reported: dict[str, list] = {}  # values shown with a run's detail but not gated

    def report(self, name: str, value) -> None:
        self.reported.setdefault(name, []).append(value)


# ---------------------------------------------------------------------------
# op lists


def _spawn(seed: int, pass_index: int, toy: bool):
    """The generator every draw of one pass's op list comes from."""
    return np.random.default_rng(np.random.SeedSequence([seed, pass_index, int(toy), 0x6A756D70]))


def op_list(workload: str, seed: int, pass_index: int, toy: bool = False) -> list[Op]:
    """Pass ``pass_index`` of a workload's op list; a pure function of its arguments.

    ``toy`` shrinks every size: the same op kinds for warm-up and self-tests.
    """
    rng = _spawn(seed, pass_index, toy)
    specs = {"mc_window": _mc_window, "condition": _condition, "quadrature": _quadrature, "graph": _graph}
    raw = specs[workload](rng, toy)
    return [Op(id=pass_index * 1000 + i, kind=kind, params=params) for i, (kind, params) in enumerate(raw)]


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _random_pmf(rng, m: int) -> tuple:
    p = rng.dirichlet(np.full(m + 1, 0.5))
    return tuple(float(v) for v in p / p.sum())


def _mc_window(rng, toy):
    ops = []
    # window probabilities at rho = 0.5 on the continuous schemes (frozen references)
    plan = [(TP, 64, 40_000), (TP, 256, 20_000), (TP, 1024, 10_000), (TP, 4096, 10_000),
            (SC, 256, 20_000), (SC, 1024, 10_000), (LB1, 1025, 10_000)]
    if toy:
        plan = [(TP, 64, 10_000)]
    ops += [("estimate", {"spec": s, "n": n, "samples": k, "seed": _seed(rng)}) for s, n, k in plan]
    # DiscreteGrid windows against the exact convolution oracle; pmfs from the seed.  The window
    # is 0.1 n wide and the sums lie on multiples of n / m, so m >= 10 puts grid points inside it.
    for m, n, k in ([(16, 128, 20_000), (16, 256, 20_000), (64, 512, 20_000), (32, 1024, 10_000)]
                    if not toy else [(16, 32, 10_000)]):
        ops.append(("grid_window", {"spec": DiscreteGrid(pmf=_random_pmf(rng, m)), "n": n,
                                    "samples": k, "seed": _seed(rng)}))
    for n, k in ([(256, 8000), (1024, 4000), (4096, 1000)] if not toy else [(256, 200)]):
        ops.append(("lln", {"spec": TP, "n": n, "zeta": 0.05, "samples": k, "seed": _seed(rng)}))
    for n in (256, 1024, 4096) if not toy else (256,):
        ops.append(("jump_sum", {"spec": TP12, "k": 2, "n": n, "sigma": (1.4, 1.6),
                                 "samples": 1_000_000 if not toy else 10_000, "seed": _seed(rng)}))
    # one row block per scheme, row sizes 0.5 KiB to 32 KiB of float64
    grid = DiscreteGrid(pmf=_random_pmf(rng, 16))
    for spec, n in ((TP, 64), (TP, 4096), (SC, 1024), (LB1, 1025), (grid, 256)):
        ops.append(("sample", {"spec": spec, "n": n, "rows": (1 << 22) // n if not toy else 16,
                               "seed": _seed(rng)}))
    ops.append(("ratio_sweep", {"spec": SC, "n_list": (256,),
                                "samples": 10_000, "seed": _seed(rng)}))
    ops.append(("cli_ldp_sweep", {"spec": TP, "n_list": (64, 256) if not toy else (64,),
                                  "samples": 10_000, "seed": _seed(rng)}))
    return ops


def _condition(rng, toy):
    ops = []
    eps = WINDOW.default_eps(TP.alpha)
    # conditional_profiles samples 4096-row chunks (2048 at n = 2048) and keeps on until the target:
    # each target sits half a chunk's expected hits below a whole number of chunks, so the chunk
    # count, and with it the op's cost, hardly varies with the seed
    # six like ops at n = 512 hold op_s.p50, the two k = 3 limit-law draws op_s.p90
    sizes = [(64, 375)] * 2 + [(512, 300)] * 6 + [(2048, 55)]
    for n, hits in (sizes if not toy else [(64, 20)]):
        ops.append(("profiles", {"spec": TP, "n": n, "window": WINDOW, "eps": eps, "hits": hits,
                                 "seed": _seed(rng)}))
    ops.append(("profiles_gof", {"spec": TP12, "n": 256, "window": K2_WINDOW, "eps": 0.4,
                                 "hits": 120 if not toy else 100, "seed": _seed(rng)}))
    # SmoothCutoff's h is unbounded at 1, beyond the sampler's envelope, so it is not drawn from here
    for spec, rho, k, count in ((TP, 1.5, 2, 20_000), (TP12, 1.5, 2, 20_000), (TP, 2.5, 3, 8000), (TP, 2.5, 3, 8000)):
        ops.append(("limit_jumps", {"spec": spec, "rho": rho, "k": k, "count": count if not toy else 500,
                                    "seed": _seed(rng)}))
    return ops


def _quadrature(rng, toy):
    ops = []
    # The mix puts a group of like ops at each reported quantile, so that op_s.p50 and op_s.p90
    # do not jump between op kinds from run to run: p50 falls among the eight marginal-mass
    # bins, p90 among the three SmoothCutoff k = 3 solves.
    # k = 1 is the closed form K = h(rho)
    for h in (TP, SC, LB1, LB2, "uniform"):
        ops.append(("krho", {"h": h, "rho": 0.5, "k": 1, "tol": 1e-8, "method": "auto"}))
    ops.append(("krho", {"h": "uniform", "rho": 1.5, "k": 2, "tol": 1e-8, "method": "auto"}))
    ops.append(("krho", {"h": "uniform", "rho": 2.5, "k": 3, "tol": 1e-8, "method": "auto"}))
    for spec, k, rho, tols in ((TP, 2, 1.5, (1e-8, 1e-10)), (TP, 3, 2.5, (1e-8, 1e-10)),
                               (SC, 2, 1.5, (1e-8, 1e-10)), (SC, 3, 2.5, (1e-8, 1e-9, 1e-10))):
        for tol in (tols if not toy else tols[:1]):
            ops.append(("krho", {"h": spec, "rho": rho, "k": k, "tol": tol, "method": "auto"}))
    # SmoothCutoff's h(rho - x) is not square-integrable at the slab edge, so its Monte Carlo
    # route has infinite variance and a meaningless standard error; it runs on the grid only
    mc = [(TP, 1.5, 2), (TP12, 1.5, 2), ("uniform", 3.5, 4), (TP, 3.5, 4)]
    for h, rho, k in mc:
        ops.append(("krho", {"h": h, "rho": rho, "k": k, "tol": 1e-8, "method": "monte_carlo",
                             "samples": 400_000 if not toy else 20_000, "seed": _seed(rng)}))
    for spec in (LB1, LB2) if not toy else (LB1,):
        ops.append(("krho", {"h": spec, "rho": 1.5, "k": 2, "tol": 0.1, "method": "auto"}))
    edges = np.linspace(0.5, 1.0, 9 if not toy else 3)
    for lo, hi in zip(edges[:-1], edges[1:]):
        ops.append(("marginal_mass", {"h": "uniform", "rho": 2.5, "k": 3, "lo": float(lo), "hi": float(hi)}))
    return ops


def _graph(rng, toy):
    plan = [(2, 3.0, 64, 12), (2, 3.0, 128, 8), (2, 3.0, 256, 3), (2, 3.0, 512, 1),
            (1, 1.5, 100_000, 2), (3, 4.0, 20, 3)]
    if toy:
        plan = [(2, 3.0, 16, 1), (1, 1.5, 1000, 1), (3, 4.0, 4, 1)]
    ops = []
    for d, beta, N, repeats in plan:
        for _ in range(repeats):
            ops.append(("graph", {"d": d, "N": N, "beta": beta, "k": 2, "eps": 0.1, "seed": _seed(rng)}))
    # sizes where P(W >= a n) >= 0.005, so even the toy sample sizes see a hundred hits
    for d, beta, n_list in ((1, 1.5, (20, 50)), (2, 3.0, (4, 8)), (3, 4.0, (2, 4))):
        ops.append(("calibrate", {"d": d, "beta": beta, "N_list": n_list, "a_list": (0.1, 0.3),
                                  "samples": 200_000 if not toy else 20_000, "seed": _seed(rng)}))
    N = 512 if not toy else 16
    seed = _seed(rng)
    ops.append(("cli_graph_gen", {"d": 2, "N": N, "beta": 3.0, "seed": seed}))
    ops.append(("cli_graph_degrees", {}))
    ops.append(("cli_graph_condense", {"k": 2, "eps": 0.1}))
    return ops


def lattice_tables(workload: str) -> list[tuple[int, int]]:
    """(d, N) offset tables the workload's ops look up; built during set-up."""
    return {
        "mc_window": [(1, 512)],
        "condition": [],
        "quadrature": [],
        "graph": [(2, 64), (2, 128), (2, 256), (2, 512), (1, 100_000), (3, 20),
                  (1, 20), (1, 50), (2, 4), (2, 8), (3, 2), (3, 4)],
    }[workload]


# ---------------------------------------------------------------------------
# helpers shared by checks


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise OpFailed(msg)


def _within(value: float, ref: float, se: float, what: str) -> None:
    _require(abs(value - ref) <= Z * se, f"{what}: {value!r} vs reference {ref!r} (band {Z} x {se:.3g})")


def _binomial_se(p: float, samples: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / samples)


def _check_window_prob(ctx, key: str, prob: float, samples: int, hits: int) -> float:
    """Estimate against the frozen reference; returns the relative standard error."""
    _require(hits > 0, f"{key}: zero hits")
    ref = ctx.refs[key]
    se = math.hypot(_binomial_se(ref["prob"], samples), ref["se"])
    _within(prob, ref["prob"], se, key)
    return _binomial_se(prob, samples) / prob


def _h_of(ctx, h):
    """The callable handed to the program for an op's ``h`` parameter, wrapped by the tracer."""
    if h == "uniform":
        return ctx.tracer.wrap_h("schemes.h", uniform_h)
    name = "torus.h_lattice" if isinstance(h, LatticeBall) else "schemes.h"
    return ctx.tracer.wrap_h(name, h.h)


def _mu(ctx, spec, n):
    return ctx.tracer.call("schemes.mu_n", spec.mu_n, n)[0]


def _quiet_cli(ctx, name: str, argv: list[str], work=None) -> str:
    """Run a CLI subcommand in-process; returns its stdout."""
    out = io.StringIO()

    def run():
        with contextlib.redirect_stdout(out):
            return cli.run(argv)

    code = ctx.tracer.call(name, run, work=work)
    _require(code == 0, f"{name}: exit code {code}")
    return out.getvalue()


def _files(outdir: Path) -> dict:
    """name -> (size, mtime) of the files in ``outdir``."""
    return {p.name: (st.st_size, st.st_mtime_ns) for p in outdir.iterdir() for st in (p.stat(),)}


def _written_bytes(outdir: Path, before: dict) -> int:
    """Bytes in the files of ``outdir`` written since the ``_files`` snapshot ``before``."""
    return sum(sig[0] for name, sig in _files(outdir).items() if before.get(name) != sig)


# ---------------------------------------------------------------------------
# op kinds: each runs its calls, then checks the outputs; returns the relative
# standard error of a Monte Carlo estimate op, or None


def op_estimate(ctx, spec, n, samples, seed):
    T = ctx.tracer
    mu = _mu(ctx, spec, n)
    est = T.call("rare_event.estimate_naive", rare_event.estimate_naive, spec, n, WINDOW, mu, samples,
                 seed=seed, work=lambda r: {"draws": samples * n, "samples": samples, "hits": r.hits})
    yield
    return _check_window_prob(ctx, reference.window_key(spec, n), est.prob, samples, est.hits)


def op_grid_window(ctx, spec, n, samples, seed):
    T = ctx.tracer
    mu = _mu(ctx, spec, n)
    interval = WINDOW.interval(n, mu)
    cells = spec.m * n * (n + 1) // 2 + n
    exact = T.call("rare_event.exact_dp", rare_event.exact_dp, spec, n, interval, work=lambda _: {"cells": cells})
    est = T.call("rare_event.estimate_naive", rare_event.estimate_naive, spec, n, WINDOW, mu, samples,
                 seed=seed, work=lambda r: {"draws": samples * n, "samples": samples, "hits": r.hits})
    yield
    _require(0.0 < exact < 1.0, f"exact window probability {exact!r} outside (0, 1)")
    _require(est.hits > 0, "zero hits")
    _within(est.prob, exact, _binomial_se(exact, samples), f"DiscreteGrid m={spec.m} n={n}")
    # not counted in t_rel1pct_s: the window mass here comes with the pmf drawn from the seed
    return None


def op_lln(ctx, spec, n, zeta, samples, seed):
    est = ctx.tracer.call("schemes.lln_deviation", schemes.lln_deviation, spec, n, zeta, samples, seed=seed,
                          work=lambda r: {"draws": samples * n})
    yield
    return _check_window_prob(ctx, reference.lln_key(spec, n, zeta), est.prob, samples, est.hits)


def op_jump_sum(ctx, spec, k, n, sigma, samples, seed):
    est = ctx.tracer.call("rare_event.jump_sum_window_prob", rare_event.jump_sum_window_prob,
                          spec, k, n, sigma[0], sigma[1], samples, seed=seed,
                          work=lambda r: {"draws": samples * k})
    yield
    key = reference.jump_sum_key(spec, k, n, sigma)
    _require(est.hits > 0, f"{key}: zero hits")
    ref = ctx.refs[key]
    _within(est.prob, ref["prob"], math.hypot(est.std_error, ref["se"]), key)
    return est.std_error / est.prob


def op_sample(ctx, spec, n, rows, seed):
    shape = spec.spec_dict()["shape"]
    rng = np.random.default_rng(seed)
    w = ctx.tracer.call(f"schemes.sample.{shape}", spec.sample, n, rng, size=(rows, n),
                        work=lambda _: {"draws": rows * n})
    yield
    _require(w.shape == (rows, n), f"shape {w.shape}")
    _require(float(w.min()) >= 0.0 and float(w.max()) <= n, "draw outside [0, n]")
    # fraction above n/8 against the scheme's exact tail
    y = n / 8.0
    p = spec.tail(n, y)
    _within(float(np.count_nonzero(w > y)) / w.size, p, _binomial_se(p, w.size), f"{shape} tail at n/8")
    return None


def _check_sweep_rows(ctx, spec, rows, n_list, samples) -> float:
    _require([r.get("n") for r in rows] == list(n_list), f"sweep rows {rows!r}")
    worst = 0.0
    for row in rows:
        _require("error" not in row, f"sweep row failed: {row.get('error')}")
        hits = round(row["prob"] * samples)
        worst = max(worst, _check_window_prob(ctx, reference.window_key(spec, row["n"]), row["prob"], samples, hits))
    return worst


def op_ratio_sweep(ctx, spec, n_list, samples, seed):
    T = ctx.tracer
    krho = T.call("condensation.krho.closed_form", condensation.condensation_constant,
                  _h_of(ctx, spec), WINDOW.rho, WINDOW.k)
    rows = T.call("rare_event.ratio_sweep", rare_event.ratio_sweep, spec, WINDOW, list(n_list), samples, krho,
                  seed=seed)
    yield
    return _check_sweep_rows(ctx, spec, rows, n_list, samples)


def op_cli_ldp_sweep(ctx, spec, n_list, samples, seed):
    config = ctx.workdir / "scheme.cfg"
    schemes.save_scheme_config(spec, config)
    before = _files(ctx.workdir)
    argv = ["ldp-sweep", "--scheme", str(config), "--rho", str(WINDOW.rho), "--width", str(WINDOW.width(1)),
            "--n-list", ",".join(map(str, n_list)), "--samples", str(samples), "--seed", str(seed)]
    text = _quiet_cli(ctx, "cli.ldp_sweep", argv, work=lambda _: {"bytes": _written_bytes(ctx.workdir, before)})
    yield
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    _require((ctx.workdir / "ldp_sweep.csv").is_file(), "ldp_sweep.csv missing")
    return _check_sweep_rows(ctx, spec, rows, n_list, samples)


def op_profiles(ctx, spec, n, window, eps, hits, seed):
    T = ctx.tracer
    mu = _mu(ctx, spec, n)
    cond = T.call("rare_event.conditional_profiles", rare_event.conditional_profiles, spec, n, window, eps,
                  hits, 1_000_000, seed=seed, mu_ref=mu,
                  work=lambda r: {"replicas": r.samples_used, "hits": r.hits})
    yield
    _check_profiles(cond, hits)
    return None


def _check_profiles(cond, hits):
    _require(cond.hits == hits, f"collected {cond.hits} of {hits} hits")
    lo, hi = cond.interval
    eps_n = cond.eps * cond.n
    for p in cond.profiles:
        _require(lo <= p.s_n <= hi, f"s_n={p.s_n!r} outside [{lo!r}, {hi!r}]")
        _require(math.isclose(p.bulk_sum + p.big_sum, p.s_n, rel_tol=1e-12), "bulk + big != s_n")
        values = [v for _, v in p.big_jumps]
        _require(all(v > eps_n for v in values), "big jump at or below eps*n")
        _require(values == sorted(values, reverse=True), "big jumps not in descending order")


def op_profiles_gof(ctx, spec, n, window, eps, hits, seed):
    T = ctx.tracer
    mu = _mu(ctx, spec, n)
    h = _h_of(ctx, spec)
    cond = T.call("rare_event.conditional_profiles", rare_event.conditional_profiles, spec, n, window, eps,
                  hits, 1_000_000, seed=seed, mu_ref=mu,
                  work=lambda r: {"replicas": r.samples_used, "hits": r.hits})
    tol = 1e-8
    krho = T.call("condensation.krho.grid_k2", condensation.condensation_constant, h, window.rho, window.k, tol=tol)
    gof = T.call("rare_event.jump_size_gof", rare_event.jump_size_gof, cond, h, window.rho, window.k, krho,
                 seed=seed)
    fraction = T.call("rare_event.structure_fraction", rare_event.structure_fraction, cond, window.k, 0.1, mu,
                      window.rho)
    yield
    # reported, not gated: the 0.9 of acceptance check A4a is out of reach at this row size (README)
    ctx.report("structure_fraction", fraction)
    ctx.report("gof_pvalue", gof.pvalue)
    _check_profiles(cond, hits)
    _check_krho(ctx, krho, spec, window.rho, window.k, tol)
    _require(math.isfinite(gof.statistic) and 0.0 <= gof.pvalue <= 1.0, f"gof {gof.statistic!r} {gof.pvalue!r}")
    _require(math.isclose(gof.observed.sum(), gof.expected.sum(), rel_tol=1e-9), "gof observed/expected totals")
    return None


def op_limit_jumps(ctx, spec, rho, k, count, seed):
    x = ctx.tracer.call("condensation.sample_limit_jumps", condensation.sample_limit_jumps,
                        _h_of(ctx, spec), rho, k, count, np.random.default_rng(seed))
    yield
    _require(x.shape == (count, k - 1), f"shape {x.shape}")
    last = rho - x.sum(axis=1)
    floor = rho - (k - 1)
    inside = np.all((x > floor) & (x < 1.0), axis=1) & (last > 0.0) & (last < 1.0)
    _require(bool(inside.all()), "draw outside the slab")
    # the limit law is exchangeable in its k coordinates, so each has mean rho / k
    first = x[:, 0]
    se = float(first.std(ddof=1)) / math.sqrt(count)
    _within(float(first.mean()), rho / k, se, f"limit-law mean k={k}")
    return se / (rho / k)


def _uniform_krho(rho: float, k: int) -> float:
    """K for h = 1: the slab volume P(rho - 1 < U_1 + ... + U_{k-1} < rho) (Irwin-Hall)."""
    def cdf(x, m):
        return sum((-1) ** j * math.comb(m, j) * max(x - j, 0.0) ** m for j in range(m + 1)) / math.factorial(m)
    return cdf(rho, k - 1) - cdf(rho - 1.0, k - 1)


def _check_krho(ctx, res, h, rho, k, tol):
    _require(not res.diverged and math.isfinite(res.value), f"K diverged: {res.note}")
    if k == 1:
        # closed form; evaluated here on the raw h
        exact = float(uniform_h(rho)) if h == "uniform" else float(h.h(rho))
        _require(res.value == exact, f"K = {res.value!r}, h(rho) = {exact!r}")
        return None
    mc = res.method == "monte_carlo"
    # a Monte Carlo bound is 3 SE, widened to Z SE; a grid value promises the tolerance asked for
    # even where its last refinement step (its reported bound) understates the error
    bound = res.abs_error_bound * Z / 3.0 if mc else max(res.abs_error_bound, tol)
    if h == "uniform":
        exact = _uniform_krho(rho, k)
        _require(abs(res.value - exact) <= bound + 1e-12, f"K = {res.value!r} vs exact {exact!r} (bound {bound:.3g})")
    else:
        ref = ctx.refs[reference.krho_key(h, rho, k)]
        _require(abs(res.value - ref["value"]) <= bound + ref["bound"],
                 f"K = {res.value!r} vs reference {ref['value']!r} (bounds {bound:.3g} + {ref['bound']:.3g})")
    return res.abs_error_bound / 3.0 / res.value if mc else None


def op_krho(ctx, h, rho, k, tol, method, samples=None, seed=None):
    if k == 1:
        route = "closed_form"
    elif method == "monte_carlo" or k >= 4:
        route = "monte_carlo"
    else:
        route = f"grid_k{k}"
    extra = {} if samples is None else {"samples": samples, "seed": seed}
    res = ctx.tracer.call(f"condensation.krho.{route}", condensation.condensation_constant,
                          _h_of(ctx, h), rho, k, tol=tol, method=method, **extra)
    yield
    return _check_krho(ctx, res, h, rho, k, tol)


def op_marginal_mass(ctx, h, rho, k, lo, hi):
    mass = ctx.tracer.call("condensation.jump_marginal_mass", condensation.jump_marginal_mass,
                           _h_of(ctx, h), rho, k, lo, hi)
    yield
    _require(h == "uniform" and k == 3, "closed form known for h = 1, k = 3 only")
    # one coordinate x of the k = 3 slab carries the length x - (rho - 2) of the other's range
    a = rho - 2.0
    exact = 0.5 * ((hi - a) ** 2 - (lo - a) ** 2)
    _require(math.isclose(mass, exact, rel_tol=1e-9), f"mass {mass!r} vs exact {exact!r}")
    return None


def op_graph(ctx, d, N, beta, k, eps, seed):
    T = ctx.tracer
    cfg = torus.TorusConfig(d=d, N=N, beta=beta, seed=seed)
    g = T.call("torus.generate_graph", torus.generate_graph, cfg,
               work=lambda r: {"ball_visits": r.edge_count, "vertices": cfg.n})
    stats = T.call("torus.condensation_stats", torus.condensation_stats, g, k, eps)
    yield
    _check_degrees(g.out_degrees, g.in_degrees, g.edge_count, cfg.n)
    n = cfg.n
    _require(stats["edge_count"] == g.edge_count, "edge_count")
    top = np.sort(g.out_degrees)[::-1][:k]
    _require(stats["top_k_out_share"] == float(top.sum()) / n, "top_k_out_share")
    _require(stats["max_in_share"] == float(g.in_degrees.max()) / n, "max_in_share")
    _require(stats["big_out_count"] == int(np.count_nonzero(g.out_degrees > eps * n)), "big_out_count")
    return None


def _check_degrees(out_deg, in_deg, edge_count, n):
    _require(out_deg.shape == (n,) and in_deg.shape == (n,), "degree arrays of the wrong length")
    _require(int(out_deg.min()) >= 0 and int(out_deg.max()) <= n - 1, "out-degree outside [0, n-1]")
    out_sum, in_sum = int(out_deg.sum()), int(in_deg.sum())
    _require(out_sum == in_sum == edge_count, f"degree sums out={out_sum} in={in_sum} edges={edge_count}")


def op_calibrate(ctx, d, beta, N_list, a_list, samples, seed):
    report = ctx.tracer.call("torus.calibrate_h", torus.calibrate_h, d, beta, list(N_list), a_list=a_list,
                             samples=samples, seed=seed)
    yield
    _require(len(report["rows"]) == len(N_list) * len(a_list), "row count")
    spec = LatticeBall(d=d, beta=beta)
    worst = 0.0
    for row in report["rows"]:
        n = row["n"]
        p = row["scaled_tail"] / n ** (beta / d)
        # P(W >= a n) is exact from the sorted offset norms
        exact = spec.tail(n, math.ceil(row["a"] * n) - 1)
        _require(p > 0.0, f"zero hits at N={row['N']} a={row['a']}")
        _within(p, exact, _binomial_se(exact, samples), f"lattice tail d={d} N={row['N']} a={row['a']}")
        worst = max(worst, _binomial_se(p, samples) / p)
    return worst


def op_cli_graph_gen(ctx, d, N, beta, seed):
    before = _files(ctx.workdir)
    text = _quiet_cli(ctx, "cli.graph_gen", ["graph", "gen", "--d", str(d), "--N", str(N), "--beta", str(beta),
                                             "--seed", str(seed)],
                      work=lambda _: {"bytes": _written_bytes(ctx.workdir, before)})
    yield
    report = json.loads(text)
    with np.load(ctx.workdir / "graph.npz") as data:
        out_deg, in_deg = data["out_degrees"], data["in_degrees"]
    n = (2 * N + 1) ** d
    _require(report["n"] == n, "vertex count")
    _check_degrees(out_deg, in_deg, report["edge_count"], n)
    return None


def op_cli_graph_degrees(ctx):
    before = _files(ctx.workdir)
    text = _quiet_cli(ctx, "cli.graph_degrees", ["graph", "degrees"],
                      work=lambda _: {"bytes": _written_bytes(ctx.workdir, before)})
    yield
    report = json.loads(text)
    with open(report["csv"], "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    _require(lines == report["n"] + 1, f"degrees.csv has {lines} lines for n={report['n']}")
    return None


def op_cli_graph_condense(ctx, k, eps):
    before = _files(ctx.workdir)
    text = _quiet_cli(ctx, "cli.graph_condense", ["graph", "condense", "--k", str(k), "--eps", str(eps)],
                      work=lambda _: {"bytes": _written_bytes(ctx.workdir, before)})
    yield
    stats = json.loads(text)
    with np.load(ctx.workdir / "graph.npz") as data:
        edges = int(data["out_degrees"].sum())
    _require(stats["edge_count"] == edges, "edge_count of the stored graph")
    return None


KINDS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}
