"""Frozen high-sample references for the ops that have no closed form.

Each entry holds a value with its own standard error (Monte Carlo) or error
bound (quadrature).  The estimates checked against them must agree within a
combined band, so a change of random streams does not count as a failure
while a wrong law or a wrong window does.

Regenerate (a few minutes on two cores) with

    python3 perfbench/reference.py

which rewrites ``perfbench/reference.json``.  The reference streams are
seeded apart from every benchmark seed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

PATH = Path(__file__).resolve().with_name("reference.json")
# reference runs use many times the samples of the ops checked against them
FACTOR = 25


def _spec(spec) -> str:
    return ",".join(f"{k}={v}" for k, v in spec.spec_dict().items())


def window_key(spec, n: int) -> str:
    return f"window|{_spec(spec)}|rho=0.5|width=0.1|n={n}"


def lln_key(spec, n: int, zeta: float) -> str:
    return f"lln|{_spec(spec)}|zeta={zeta}|n={n}"


def jump_sum_key(spec, k: int, n: int, sigma) -> str:
    return f"jump_sum|{_spec(spec)}|k={k}|sigma={sigma[0]}-{sigma[1]}|n={n}"


def krho_key(spec, rho: float, k: int) -> str:
    return f"krho|{_spec(spec)}|rho={rho}|k={k}"


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def build() -> dict:
    """Every reference the full-size op lists check against."""
    from bigjumps import condensation, rare_event, schemes
    import workloads as W

    # key -> (op kind, params, samples of the most precise op checked against it)
    wanted: dict = {}

    def want(key, kind, params, samples=0):
        old = wanted.get(key, (kind, params, 0))
        wanted[key] = (kind, params, max(old[2], samples))

    for op in (op for wl in ("mc_window", "condition", "quadrature") for op in W.op_list(wl, 0, 0)):
        p = op.params
        if op.kind in ("estimate", "ratio_sweep", "cli_ldp_sweep"):
            for n in p.get("n_list", (p.get("n"),)):
                want(window_key(p["spec"], n), "window", {"spec": p["spec"], "n": n}, p["samples"])
        elif op.kind == "lln":
            want(lln_key(p["spec"], p["n"], p["zeta"]), "lln", p, p["samples"])
        elif op.kind == "jump_sum":
            want(jump_sum_key(p["spec"], p["k"], p["n"], p["sigma"]), "jump_sum", p, p["samples"])
        elif op.kind == "profiles_gof":
            want(krho_key(p["spec"], p["window"].rho, p["window"].k), "krho",
                 {"h": p["spec"], "rho": p["window"].rho, "k": p["window"].k})
        elif op.kind == "krho" and p["k"] > 1 and p["h"] != "uniform":
            want(krho_key(p["h"], p["rho"], p["k"]), "krho", p, p.get("samples", 0))

    refs: dict = {}
    for i, (key, (kind, p, samples)) in enumerate(sorted(wanted.items())):
        t0 = time.perf_counter()
        seed = 0x7E7E0000 + i
        samples *= FACTOR
        if kind == "window":
            mu, _ = p["spec"].mu_n(p["n"])
            est = rare_event.estimate_naive(p["spec"], p["n"], W.WINDOW, mu, samples, seed=seed)
        elif kind == "lln":
            est = schemes.lln_deviation(p["spec"], p["n"], p["zeta"], samples, seed=seed)
        elif kind == "jump_sum":
            est = rare_event.jump_sum_window_prob(p["spec"], p["k"], p["n"], *p["sigma"], samples, seed=seed)
        elif kind == "krho" and p["k"] >= 4:
            res = condensation.condensation_constant(p["h"].h, p["rho"], p["k"], method="monte_carlo",
                                                     samples=samples, seed=seed)
        else:
            tol = 1e-3 if isinstance(p["h"], schemes.LatticeBall) else 1e-11
            res = condensation.condensation_constant(p["h"].h, p["rho"], p["k"], tol=tol, method="grid")
        if kind == "krho":
            refs[key] = {"value": res.value, "bound": res.abs_error_bound, "method": res.method}
        else:
            refs[key] = {"prob": est.prob, "se": est.std_error, "samples": samples}
        print(f"{time.perf_counter() - t0:7.1f}s  {key}  {refs[key]}", file=sys.stderr, flush=True)
    return refs


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    refs = build()
    PATH.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {len(refs)} references to {PATH}")
