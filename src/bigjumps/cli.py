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
import platform
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from . import condensation, rare_event, schemes, torus

_OUT_ENV = "BIGJUMPS_OUT_DIR"
# rows per formatted write of `graph degrees`
_CSV_ROWS = 1 << 16


def _outdir(args) -> Path:
    root = Path(getattr(args, "outdir", None) or os.environ.get(_OUT_ENV, "."))
    root.mkdir(parents=True, exist_ok=True)
    return root


@lru_cache(maxsize=1)
def _libraries() -> dict:
    """Python, numpy and scipy versions, scipy's read from its installed metadata (None if absent) without importing it."""
    import importlib.metadata
    scipy = next(importlib.metadata.distributions(name="scipy"), None)
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.version if scipy else None}


def _write_manifest(args, name: str, started: float, params: dict) -> None:
    manifest = {
        "subcommand": name,
        "params": params,
        "seed": params.get("seed"),
        "version": __version__,
        "libraries": _libraries(),
        "workers": schemes._WORKERS,
        "cpu_count": os.cpu_count(),
        "duration_s": round(time.time() - started, 3),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write(_outdir(args) / f"{name.replace(' ', '_')}.manifest.json", lambda fh: fh.write(text.encode()))


def _params(args) -> dict:
    out = {key: val for key, val in vars(args).items() if key != "func"}
    if out.get("scheme"):  # echo the config so the manifest pins every scientific parameter
        out["scheme_config"] = Path(out["scheme"]).read_text()
    return out


def _emit(obj, args, filename: str | None = None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, default=_jsonable)
    print(text)
    if filename:
        _write(_outdir(args) / filename, lambda fh: fh.write((text + "\n").encode()))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write(path: Path, write) -> None:
    """Write ``path`` whole or not at all: ``write(fh)`` fills a binary ``.NAME.tmp`` beside it, renamed onto it."""
    if path.exists() and not path.is_file():  # the rename would replace a directory, a device or a link to one
        raise ValueError(f"{path} exists and is not a regular file")
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    text = ",".join(header) + "\n" + "".join(
        ",".join(repr(row.get(col, "")) if not isinstance(row.get(col), str) else row[col] for col in header) + "\n"
        for row in rows
    )
    _write(path, lambda fh: fh.write(text.encode()))


def _resolve_h(args):
    if getattr(args, "h", None) == "uniform":
        return condensation.uniform_h
    if getattr(args, "h_table", None):
        return condensation.load_tabulated_h(args.h_table)
    if getattr(args, "scheme", None):
        return schemes.load_scheme_config(args.scheme).h
    raise ValueError("provide --scheme, --h uniform, or --h-table")


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
    if not 0.0 < args.a < args.b <= 1.0:
        raise ValueError(f"tail-check needs 0 < a < b <= 1; got a={args.a}, b={args.b}")
    spec = schemes.load_scheme_config(args.scheme)
    rows = []
    for n in args.n_list:
        spec.check_level(n)
        # P(a n <= W < b n) = P(W > a n^-) - P(W > b n^-), exact for integer-valued W too
        lo, hi = np.nextafter([args.a * n, args.b * n], -np.inf)
        p = float(spec.tail(n, lo) - spec.tail(n, hi))
        x = np.linspace(args.a + 1e-9, args.b - 1e-9, 20001)
        hint = float(np.trapezoid(spec.h(x), x)) * n ** (-spec.alpha)
        rows.append({"n": n, "exact": p, "expected": hint, "ratio": p / hint if hint > 0 else math.nan})
    _write_csv(_outdir(args) / "tail_check.csv", ["n", "exact", "expected", "ratio"], rows)
    _emit(rows, args)


def _cmd_lln(args):
    spec = schemes.load_scheme_config(args.scheme)
    rows = []
    for i, n in enumerate(args.n_list):
        seed = np.random.SeedSequence((args.seed, i))
        est = schemes.lln_deviation(spec, n, zeta=args.zeta, samples=args.samples, seed=seed)
        rows.append({"n": n, "prob": est.prob, "std_error": est.std_error})
    _write_csv(_outdir(args) / "lln.csv", ["n", "prob", "std_error"], rows)
    _emit(rows, args)


def _window(args) -> rare_event.RhoWindow:
    if getattr(args, "power_width", None):
        w0, gamma = args.power_width
        return rare_event.RhoWindow(rho=args.rho, width_rule=("power", w0, gamma))
    if args.width is None:
        raise ValueError("give --width or --power-width explicitly")
    return rare_event.RhoWindow(rho=args.rho, width_rule=("fixed", args.width))


def _cmd_estimate(args):
    window = _window(args)
    spec = schemes.load_scheme_config(args.scheme)
    mu_n, _ = spec.mu_n(args.n)
    estimate = rare_event.estimate_naive if args.method == "naive" else rare_event.estimate_conditional
    est = estimate(spec, args.n, window, mu_n, args.samples, seed=args.seed)
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
    window = _window(args)
    spec = schemes.load_scheme_config(args.scheme)
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


def _profiles(args, spec, window) -> rare_event.ConditionalSample:
    return rare_event.conditional_profiles(
        spec, args.n, window, eps=args.eps, target_hits=args.hits, max_samples=args.max_samples, seed=args.seed
    )


def _cmd_condition(args):
    cond = _profiles(args, schemes.load_scheme_config(args.scheme), _window(args))
    path = _outdir(args) / "profiles.jsonl"
    text = "".join(json.dumps(dataclasses.asdict(p)) + "\n" for p in cond.profiles)
    _write(path, lambda fh: fh.write(text.encode()))
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
    spec = schemes.load_scheme_config(args.scheme)
    if args.bins < 1:  # before the sampling, which takes seconds
        raise ValueError(f"bins must be >= 1; got {args.bins}")
    window = _window(args)
    krho = condensation.condensation_constant(spec.h, rho=window.rho, k=window.k, tol=1e-8)
    cond = _profiles(args, spec, window)
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
    summary = torus.generate_graph(cfg, planted_radii=dict(args.plant or ()) or None)
    path = _graph_path(args)
    arrays = {"out_degrees": summary.out_degrees, "in_degrees": summary.in_degrees}
    _write(path, lambda fh: np.savez(fh, **arrays, d=cfg.d, N=cfg.N, beta=cfg.beta, seed=cfg.seed))
    _emit({"n": cfg.n, "edge_count": summary.edge_count, "rho_n": summary.rho_n, "graph_file": str(path)}, args)


def _load_graph(args) -> torus.DegreeSummary:
    path = _graph_path(args)
    with np.load(path) as data:
        missing = sorted({"out_degrees", "in_degrees", "d", "N", "beta", "seed"}.difference(data.files))
        if missing:
            raise ValueError(f"{path} is not a stored graph: it lacks {', '.join(missing)}")
        cfg = torus.TorusConfig(d=int(data["d"]), N=int(data["N"]), beta=float(data["beta"]), seed=int(data["seed"]))
        out_deg, in_deg = data["out_degrees"], data["in_degrees"]
    if not len(out_deg) == len(in_deg) == cfg.n:
        raise ValueError(f"{len(out_deg)} out- and {len(in_deg)} in-degrees for {cfg.n} vertices")
    return torus.DegreeSummary(out_degrees=out_deg, in_degrees=in_deg, config=cfg)


def _csv_rows(*cols: np.ndarray) -> bytes:
    """The rows of equal-length non-negative integer columns, each formatted ``"%d,...,%d\\n"``.

    Each column's digits are written right to left into a uint8 grid as wide as
    the block's largest value (on int32 when that is below 2**31); the positions
    left of a value's leading digit stay NUL and are deleted at the end.
    """
    columns = []
    for col in cols:
        if col.dtype.kind not in "iu" or col.min() < 0:
            raise ValueError(f"degrees must be non-negative integers; got {col.dtype} with minimum {col.min()}")
        top = int(col.max())
        columns.append((col.astype(np.int32) if top < 2**31 else col, len(str(top))))
    buf = np.empty((len(cols[0]), sum(width for _, width in columns) + len(columns)), np.uint8)
    end = 0
    for value, width in columns:
        end += width
        for pos in range(end - 1, end - width - 1, -1):
            quot = value // 10
            digit = value - 10 * quot + ord("0")
            if pos < end - 1:  # the units digit always prints, so 0 is written "0"
                digit *= value > 0
            buf[:, pos] = digit
            value = quot
        buf[:, end] = ord(",")
        end += 1
    buf[:, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0")


def _cmd_graph_degrees(args):
    summary = _load_graph(args)
    path = Path(args.out) if args.out else _outdir(args) / "degrees.csv"
    n = summary.config.n

    def write(fh):
        fh.write(b"vertex_index,out_degree,in_degree\n")
        for start in range(0, n, _CSV_ROWS):
            stop = min(start + _CSV_ROWS, n)
            fh.write(_csv_rows(np.arange(start, stop), summary.out_degrees[start:stop], summary.in_degrees[start:stop]))

    _write(path, write)
    _emit({"n": n, "csv": str(path), "edge_count": summary.edge_count}, args)


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


def _plant(text: str) -> tuple[int, float]:
    try:
        idx, radius = text.split(":")
        return int(idx), float(radius)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INDEX:RADIUS, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bigjumps", description=__doc__)
    parser.add_argument("--outdir", default=None, help=f"output directory (default: ${_OUT_ENV} or cwd)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, subs=sub, **kwargs):
        p = subs.add_parser(name.split()[-1], **kwargs)
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

    p = add("tail-check", _cmd_tail_check, help="exact window mass against the shape density")
    p.add_argument("--scheme", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n-list", type=_int_list, required=True)

    p = add("lln", _cmd_lln, help="law-of-large-numbers deviation probabilities")
    p.add_argument("--scheme", required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    windowed = argparse.ArgumentParser(add_help=False)  # estimate and ldp-sweep
    windowed.add_argument("--scheme", required=True)
    windowed.add_argument("--rho", type=float, required=True)
    windowed.add_argument("--width", type=float)
    windowed.add_argument("--power-width", type=_power_width, help="w0:gamma for width w0*n^-gamma")
    windowed.add_argument("--samples", type=int, default=100_000)
    windowed.add_argument("--seed", type=int, default=0)

    p = add("estimate", _cmd_estimate, parents=[windowed], help="estimate P(S_n in I_n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", default="naive", choices=["naive", "conditional"])

    p = add("ldp-sweep", _cmd_ldp_sweep, parents=[windowed], help="ratio table over an n sweep")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--alpha", type=float, help="tail index override (required for discrete_grid schemes)")

    conditioned = argparse.ArgumentParser(add_help=False)  # condition and gof
    conditioned.add_argument("--scheme", required=True)
    conditioned.add_argument("--n", type=int, required=True)
    conditioned.add_argument("--rho", type=float, required=True)
    conditioned.add_argument("--width", type=float, required=True)
    conditioned.add_argument("--eps", type=float, required=True)
    conditioned.add_argument("--hits", type=int, default=300)
    conditioned.add_argument("--max-samples", type=int, default=1_000_000)
    conditioned.add_argument("--seed", type=int, default=0)

    add("condition", _cmd_condition, parents=[conditioned], help="conditional jump profiles (JSON lines)")
    p = add("gof", _cmd_gof, parents=[conditioned], help="goodness of fit of conditioned jump sizes")
    p.add_argument("--bins", type=int, default=8)

    graph = sub.add_parser("graph", help="lattice-torus graph commands")
    gsub = graph.add_subparsers(dest="graph_command", required=True)

    p = add("graph gen", _cmd_graph_gen, gsub, help="sample the full graph and store degree arrays")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--graph", help="output .npz path (default <outdir>/graph.npz)")
    p.add_argument(
        "--plant", nargs="*", type=_plant, metavar="INDEX:RADIUS",
        help="planted radius overrides; write a negative index as --plant=-1:5",
    )

    stored = argparse.ArgumentParser(add_help=False)  # graph degrees and condense
    stored.add_argument("--graph", help="input .npz path")

    p = add("graph degrees", _cmd_graph_degrees, gsub, parents=[stored], help="export per-vertex degrees as CSV")
    p.add_argument("--out", help="CSV output path")

    p = add("graph condense", _cmd_graph_condense, gsub, parents=[stored],
            help="condensation statistics of a stored graph")
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
        args.func(args)
        _write_manifest(args, getattr(args, "_name", args.command), started, _params(args))
    except (ValueError, OSError, MemoryError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
