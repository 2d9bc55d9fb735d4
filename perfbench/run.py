"""bigjumps benchmark: one closed-loop workload per run, every op checked against an oracle.

    python3 perfbench/run.py --workload mc_window --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One caller issues each op when the previous one has returned;
the benchmark starts no threads of its own.  The op list of a workload is
a pure function of ``--seed`` and is run pass after pass for about
``--seconds`` (ending at the pass boundary nearest to it), and for at
least ``MIN_OPS`` ops.

The run is hermetic: it uses a fresh ``BIGJUMPS_OUT_DIR`` under
``perfbench/out/``, writes no bytecode, and measures set-up (``import
bigjumps`` plus a warm-up of every op kind and cache the workload uses) in
fresh processes.  Everything it writes stays under ``perfbench/out/``.

End-to-end metrics (``--trace 0``):

    setup_s      median over fresh processes of import plus warm-up
    wall_s       median over passes of the summed op latencies (checks excluded)
    op_s.p50/p90 quantiles of the latency of every op of the run (count: "ops")
    t_rel1pct_s  median over passes of the sum, over Monte Carlo estimate ops,
                 of latency x (SE / estimate / 0.01)^2: the time to 1 % relative SE
    peak_rss_mb  maximum resident set size of the run's process

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, writing the
spans to ``perfbench/out/trace-<workload>-<seed>.jsonl``.  The last line of
standard output is the result object; the line before it carries
provenance and per-op-kind detail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 1  # fresh set-up processes besides the run's own; setup_s is the median of all
MIN_OPS = 100
MAX_MEASURE_S = 120.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("mc_window", "condition", "quadrature", "graph"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _use_checkout(outdir: Path) -> None:
    """Import bigjumps from this checkout only, write no bytecode, keep its caches in ``outdir``."""
    src = ROOT / "src"
    if not (src / "bigjumps" / "__init__.py").is_file():
        raise SystemExit(f"error: no bigjumps package under {src}")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(HERE)]
    os.environ["BIGJUMPS_OUT_DIR"] = str(outdir)


def setup(workload: str, seed: int):
    """Import bigjumps and warm every op kind and cache the workload uses.

    Returns (import_s, warmup_s, workloads module).
    """
    t0 = time.perf_counter()
    import bigjumps

    if not Path(bigjumps.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported bigjumps from {bigjumps.__file__}, not from this checkout")
    import workloads as W
    from bigjumps import torus

    t1 = time.perf_counter()
    for d, N in W.lattice_tables(workload):
        torus.sorted_offset_norms2(d, N)
    if workload == "graph":
        torus.g_eval(3, 0.5)  # the d = 3 geometry table, built in the fresh BIGJUMPS_OUT_DIR
    import reference
    from tracing import Tracer

    workdir = Path(os.environ["BIGJUMPS_OUT_DIR"])
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = W.Context(Tracer(), reference.load(), workdir)
    for op in W.op_list(workload, seed, 0, toy=True):
        execute(W, ctx, op)  # a wrong answer is counted where it is measured, not here
    return t1 - t0, time.perf_counter() - t1, W


def execute(W, ctx, op):
    """Run one op and then its check; only the calls are timed."""
    ctx.tracer.op_id = op.id
    steps = W.KINDS[op.kind](ctx, **op.params)
    t0 = time.perf_counter()
    try:
        next(steps)
    except Exception as exc:  # an op that raises counts as failed; the loop goes on
        return W.Outcome(op, time.perf_counter() - t0, 0.0, False, f"raised {type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    try:
        next(steps)
    except StopIteration as stop:
        return W.Outcome(op, t1 - t0, time.perf_counter() - t1, True, rel_se=stop.value)
    except Exception as exc:  # a failed check, or a check that could not run
        return W.Outcome(op, t1 - t0, time.perf_counter() - t1, False, f"{type(exc).__name__}: {exc}")
    raise RuntimeError(f"op {op.kind} yielded twice")


def _probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up times of one fresh process, which keeps its caches in its own temporary directory."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"], probe["warmup_s"]


def _cpu_steal_s() -> float | None:
    """CPU time the host took from this machine so far (Linux), to explain a noisy run."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args, outcomes) -> dict:
    import numpy
    import scipy

    kinds: dict[str, int] = {}
    for o in outcomes:
        kinds[o.op.kind] = kinds.get(o.op.kind, 0) + 1
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_kind": kinds,
    }


def measure(args, W, ctx, tracer):
    """Closed loop over passes of the op list; returns (outcomes, per-pass records)."""
    outcomes, passes = [], []
    start = time.perf_counter()
    p = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S:
            break
        if len(outcomes) >= MIN_OPS and (not args.trace or p >= 2):
            # stop at the pass boundary nearest to the measuring time asked for
            expected = statistics.median(q["wall_s"] for q in passes)
            if elapsed + expected / 2 > args.seconds:
                break
        tracer.enabled = bool(args.trace) and p % 2 == 1
        first_span = len(tracer.spans)
        done = [execute(W, ctx, op) for op in W.op_list(args.workload, args.seed, p)]
        tracer.enabled = False
        mc = [o for o in done if o.rel_se is not None]
        passes.append({
            "traced": p % 2 == 1 and bool(args.trace),
            "wall_s": sum(o.latency_s for o in done),
            "t_rel1pct_s": sum(o.latency_s * (o.rel_se / 0.01) ** 2 for o in mc),
            "spans": (first_span, len(tracer.spans)),
        })
        outcomes += done
        p += 1
    return outcomes, passes


def main(argv=None) -> int:
    args = _parse(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        _use_checkout(tmp / "main")
        if args.setup_probe:
            import_s, warmup_s, _ = setup(args.workload, args.seed)
            print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
            return 0
        setups = [_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        import_s, warmup_s, W = setup(args.workload, args.seed)
        setups.append((import_s, warmup_s))
        import reference
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        ctx = W.Context(tracer, reference.load(), tmp / "main")
        steal0 = _cpu_steal_s()
        outcomes, passes = measure(args, W, ctx, tracer)
        steal1 = _cpu_steal_s()

        failed = [o for o in outcomes if not o.ok]
        untraced = [p for p in passes if not p["traced"]]
        if args.trace:
            traced = [p for p in passes if p["traced"]]
            spans = [s for p in traced for s in tracer.spans[p["spans"][0]:p["spans"][1]]]
            m = layer_metrics(spans, len(traced), sum(p["wall_s"] for p in traced))
            m["setup.import_s"] = statistics.median(s[0] for s in setups)
            m["setup.warmup_s"] = statistics.median(s[1] for s in setups)
            m["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                     - statistics.median(p["wall_s"] for p in untraced))
            tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            lat = [o.latency_s for o in outcomes]
            m = {
                "setup_s": statistics.median(a + b for a, b in setups),
                "wall_s": statistics.median(p["wall_s"] for p in untraced),
                "op_s.p50": statistics.median(lat),
                "op_s.p90": _quantile(lat, 0.9),
                "t_rel1pct_s": statistics.median(p["t_rel1pct_s"] for p in untraced),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        # names and units as BENCHMARK.json declares them; a metric not computed above is a KeyError
        section = bench["per_layer" if args.trace else "end_to_end"]
        metrics = {d["name"]: {"value": m[d["name"]], "unit": d["unit"]} for d in section}
        detail = {
            "provenance": _provenance(args, outcomes),
            "passes": len(passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "cpu_steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
            "ops": len(outcomes),
            "fail_frac": len(failed) / len(outcomes),
            "failures": [f"op {o.op.id} {o.op.kind}: {o.error}" for o in failed[:20]],
            "check_s": sum(o.check_s for o in outcomes),
            "setup_samples": setups,
            "reported_medians": {k: statistics.median(v) for k, v in ctx.reported.items()},
        }
        print(json.dumps(detail, default=str))
        correct = not failed and all(math.isfinite(v["value"]) for v in metrics.values())
        print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failed), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
