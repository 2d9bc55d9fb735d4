"""Command-line entry point: every experiment with reproducible seeds.

Scientific parameters (alpha, beta, c, rho, width, eps, zeta) must be given
explicitly or through a named scheme config echoed in the manifest; only
plumbing (output paths) has defaults.  Tables are CSV,
scalars and records JSON, and every output is accompanied by a manifest
that reproduces it bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import condensation, rare_event, schemes, torus

_OUT_ENV = "BIGJUMPS_OUT_DIR"


def _outdir(args) -> Path:
    root = Path(getattr(args, "outdir", None) or os.environ.get(_OUT_ENV, "."))
    root.mkdir(parents=True, exist_ok=True)
    return root


def _write_manifest(args, name: str, started: float, params: dict) -> None:
    manifest = {
        "subcommand": name,
        "params": params,
        "seed": params.get("seed"),
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
    }
    path = _outdir(args) / f"{name.replace(' ', '_')}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _params(args) -> dict:
    skip = {"func"}
    out = {}
    for key, val in vars(args).items():
        if key in skip:
            continue
        out[key] = str(val) if isinstance(val, Path) else val
    scheme = out.get("scheme")
    if scheme:  # echo the config so the manifest pins every scientific parameter
        out["scheme_config"] = Path(scheme).read_text()
    return out


def _load_scheme(args) -> schemes.Scheme:
    return schemes.load_scheme_config(args.scheme)


def _emit(obj, args, filename: str | None = None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, default=_jsonable)
    print(text)
    if filename:
        (_outdir(args) / filename).write_text(text + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(row.get(col, "")) if not isinstance(row.get(col), str) else row[col] for col in header) + "\n")


def _resolve_h(args, spec=None):
    if getattr(args, "h", None) == "uniform":
        return condensation.uniform_h
    if getattr(args, "h_table", None):
        return condensation.load_tabulated_h(args.h_table)
    if spec is None and getattr(args, "scheme", None):
        spec = _load_scheme(args)
    if spec is None:
        raise ValueError("provide --scheme, --h uniform, or --h-table")
    return spec.h


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_krho(args):
    h = _resolve_h(args)
    res = condensation.condensation_constant(h, rho=args.rho, k=args.k, tol=args.tol, method=args.method)
    _emit(
        {
            "value": res.value if math.isfinite(res.value) else "inf",
            "abs_error_bound": res.abs_error_bound if math.isfinite(res.abs_error_bound) else "inf",
            "method": res.method,
            "diverged": res.diverged,
        },
        args,
        "krho.json",
    )


def _cmd_tail_check(args):
    spec = _load_scheme(args)
    rows = []
    for i, n in enumerate(args.n_list):
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, i)))
        w = spec.sample(n, rng, size=args.samples)
        p = float(np.count_nonzero((w >= args.a * n) & (w < args.b * n))) / args.samples
        se = math.sqrt(max(p * (1 - p), 0.0) / args.samples)
        x, wts = np.linspace(args.a + 1e-9, args.b - 1e-9, 20001), None
        hint = float(np.trapezoid(spec.h(x), x)) * n ** (-spec.alpha)
        rows.append(
            {"n": n, "empirical": p, "std_error": se, "expected": hint, "ratio": p / hint if hint > 0 else math.nan}
        )
    _write_csv(_outdir(args) / "tail_check.csv", ["n", "empirical", "std_error", "expected", "ratio"], rows)
    _emit(rows, args)


def _cmd_lln(args):
    spec = _load_scheme(args)
    rows = []
    for i, n in enumerate(args.n_list):
        est = schemes.lln_deviation(spec, n, zeta=args.zeta, samples=args.samples, seed=args.seed + i)
        rows.append({"n": n, "prob": est.prob, "std_error": est.std_error})
    _write_csv(_outdir(args) / "lln.csv", ["n", "prob", "std_error"], rows)
    _emit(rows, args)


def _window(args) -> rare_event.RhoWindow:
    if getattr(args, "power_width", None):
        w0, gamma = args.power_width
        return rare_event.RhoWindow(rho=args.rho, width_rule=("power", w0, gamma))
    return rare_event.RhoWindow(rho=args.rho, width_rule=("fixed", args.width))


def _cmd_estimate(args):
    spec = _load_scheme(args)
    window = _window(args)
    mu_n, _ = spec.mu_n(args.n)
    if args.method == "naive":
        est = rare_event.estimate_naive(spec, args.n, window, mu_n, args.samples, seed=args.seed)
    else:
        est = rare_event.estimate_structured(
            spec, args.n, window, eps=args.eps, krho=None, samples=args.samples, seed=args.seed
        )
    _emit(
        {
            "prob": est.prob,
            "std_error": est.std_error,
            "samples": est.samples,
            "hits": est.hits,
            "method": est.method,
            "interval": list(window.interval(args.n, mu_n)),
            "mu_n": mu_n,
        },
        args,
        "estimate.json",
    )


def _cmd_ldp_sweep(args):
    spec = _load_scheme(args)
    window = _window(args)
    h = spec.h if not isinstance(spec, schemes.DiscreteGrid) else condensation.uniform_h
    krho = condensation.condensation_constant(h, rho=window.rho, k=window.k, tol=args.tol)
    rows = rare_event.ratio_sweep(spec, window, args.n_list, args.samples, krho, seed=args.seed, alpha=args.alpha)
    for row in rows:
        print(json.dumps(row, default=_jsonable))
    _write_csv(
        _outdir(args) / "ldp_sweep.csv",
        ["n", "method", "prob", "std_error", "rhs", "ratio"],
        [r for r in rows if "error" not in r],
    )


def _cmd_condition(args):
    spec = _load_scheme(args)
    window = _window(args)
    cond = rare_event.conditional_profiles(
        spec, args.n, window, eps=args.eps, target_hits=args.hits, max_samples=args.max_samples, seed=args.seed
    )
    path = _outdir(args) / "profiles.jsonl"
    with open(path, "w") as fh:
        for p in cond.profiles:
            fh.write(
                json.dumps(
                    {"big_jumps": [[i, v] for i, v in p.big_jumps], "bulk_sum": p.bulk_sum, "s_n": p.s_n}
                )
                + "\n"
            )
    _emit(
        {
            "hits": cond.hits,
            "samples_used": cond.samples_used,
            "eps": cond.eps,
            "mu_ref": cond.mu_ref,
            "interval": list(cond.interval),
            "profiles_file": str(path),
        },
        args,
    )


def _cmd_gof(args):
    spec = _load_scheme(args)
    window = _window(args)
    krho = condensation.condensation_constant(spec.h, rho=window.rho, k=window.k, tol=1e-8)
    cond = rare_event.conditional_profiles(
        spec, args.n, window, eps=args.eps, target_hits=args.hits, max_samples=args.max_samples, seed=args.seed
    )
    res = rare_event.jump_size_gof(cond, spec.h, window.rho, window.k, krho, bins=args.bins, seed=args.seed)
    _emit(
        {
            "statistic": res.statistic,
            "pvalue": res.pvalue,
            "dof": res.dof,
            "observed": res.observed,
            "expected": res.expected,
            "used_profiles": res.used_profiles,
            "skipped_profiles": res.skipped_profiles,
            "out_of_support": res.out_of_support,
            "merged_bins": res.merged_bins,
        },
        args,
        "gof.json",
    )


def _graph_path(args) -> Path:
    return Path(args.graph) if getattr(args, "graph", None) else _outdir(args) / "graph.npz"


def _cmd_graph_gen(args):
    cfg = torus.TorusConfig(d=args.d, N=args.N, beta=args.beta, seed=args.seed)
    planted = {}
    for spec_str in args.plant or []:
        idx, radius = spec_str.split(":")
        planted[int(idx)] = float(radius)
    summary = torus.generate_graph(cfg, planted_radii=planted or None)
    path = _graph_path(args)
    np.savez_compressed(
        path,
        out_degrees=summary.out_degrees,
        in_degrees=summary.in_degrees,
        d=cfg.d,
        N=cfg.N,
        beta=cfg.beta,
        seed=cfg.seed,
    )
    _emit(
        {"n": cfg.n, "edge_count": summary.edge_count, "rho_n": summary.rho_n, "graph_file": str(path)},
        args,
    )


def _load_graph(args) -> torus.DegreeSummary:
    data = np.load(_graph_path(args))
    cfg = torus.TorusConfig(d=int(data["d"]), N=int(data["N"]), beta=float(data["beta"]), seed=int(data["seed"]))
    return torus.DegreeSummary(out_degrees=data["out_degrees"], in_degrees=data["in_degrees"], config=cfg)


def _cmd_graph_degrees(args):
    summary = _load_graph(args)
    path = Path(args.out) if args.out else _outdir(args) / "degrees.csv"
    with open(path, "w") as fh:
        fh.write("vertex_index,out_degree,in_degree\n")
        for i, (o, d) in enumerate(zip(summary.out_degrees, summary.in_degrees)):
            fh.write(f"{i},{int(o)},{int(d)}\n")
    _emit({"n": summary.config.n, "csv": str(path), "edge_count": summary.edge_count}, args)


def _cmd_graph_condense(args):
    summary = _load_graph(args)
    stats = torus.condensation_stats(summary, k=args.k, eps=args.eps)
    _emit(stats, args, "condense.json")


def _cmd_calibrate_h(args):
    report = torus.calibrate_h(
        d=args.d, beta=args.beta, N_list=args.N_list, a_list=tuple(args.a_list), samples=args.samples, seed=args.seed
    )
    _emit(report, args, "calibrate_h.json")


# ---------------------------------------------------------------------------
# parser


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _power_width(text: str) -> tuple[float, float]:
    w0, gamma = text.split(":")
    return float(w0), float(gamma)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bigjumps", description=__doc__)
    parser.add_argument("--outdir", default=None, help=f"output directory (default: ${_OUT_ENV} or cwd)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn, _name=name)
        return p

    p = add("krho", _cmd_krho, help="evaluate the condensation constant")
    p.add_argument("--scheme", help="scheme config file supplying h")
    p.add_argument("--h", choices=["uniform"], help="built-in analytic h")
    p.add_argument("--h-table", help="CSV file with tabulated h")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--method", default="auto", choices=["auto", "grid", "monte_carlo"])

    p = add("tail-check", _cmd_tail_check, help="empirical window mass against the shape density")
    p.add_argument("--scheme", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("lln", _cmd_lln, help="law-of-large-numbers deviation probabilities")
    p.add_argument("--scheme", required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("estimate", _cmd_estimate, help="estimate P(S_n in I_n)")
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--width", type=float)
    p.add_argument("--power-width", type=_power_width, help="w0:gamma for width w0*n^-gamma")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", default="naive", choices=["naive", "structured"])
    p.add_argument("--eps", type=float, help="big-jump threshold fraction (structured)")

    p = add("ldp-sweep", _cmd_ldp_sweep, help="ratio table over an n sweep")
    p.add_argument("--scheme", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--width", type=float)
    p.add_argument("--power-width", type=_power_width)
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, help="tail index override (required for discrete_grid schemes)")

    p = add("condition", _cmd_condition, help="conditional jump profiles (JSON lines)")
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--hits", type=int, default=300)
    p.add_argument("--max-samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("gof", _cmd_gof, help="goodness of fit of conditioned jump sizes")
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--hits", type=int, default=300)
    p.add_argument("--max-samples", type=int, default=1_000_000)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    graph = sub.add_parser("graph", help="lattice-torus graph commands")
    gsub = graph.add_subparsers(dest="graph_command", required=True)

    p = gsub.add_parser("gen", help="sample the full graph and store degree arrays")
    p.set_defaults(func=_cmd_graph_gen, _name="graph gen")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--graph", help="output .npz path (default <outdir>/graph.npz)")
    p.add_argument("--plant", nargs="*", help="vertex_index:radius overrides")

    p = gsub.add_parser("degrees", help="export per-vertex degrees as CSV")
    p.set_defaults(func=_cmd_graph_degrees, _name="graph degrees")
    p.add_argument("--graph", help="input .npz path")
    p.add_argument("--out", help="CSV output path")

    p = gsub.add_parser("condense", help="condensation statistics of a stored graph")
    p.set_defaults(func=_cmd_graph_condense, _name="graph condense")
    p.add_argument("--graph", help="input .npz path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = add("calibrate-h", _cmd_calibrate_h, help="empirical lattice tail constant report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--N-list", type=_int_list, required=True)
    p.add_argument("--a-list", type=_float_list, default=[0.3, 0.5, 0.8])
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.time()
    try:
        if getattr(args, "command", None) == "estimate" and args.width is None and args.power_width is None:
            raise ValueError("give --width or --power-width explicitly")
        if getattr(args, "command", None) == "ldp-sweep" and args.width is None and args.power_width is None:
            raise ValueError("give --width or --power-width explicitly")
        args.func(args)
        _write_manifest(args, getattr(args, "_name", args.command), started, _params(args))
    except (ValueError, OSError, MemoryError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
