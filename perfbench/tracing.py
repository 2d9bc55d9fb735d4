"""Spans around the benchmark's calls into bigjumps, and the per-layer metrics built from them.

A span is opened by the benchmark itself, around one call into a public
function of a layer (``schemes``, ``rare_event``, ``condensation``,
``torus``, ``cli``).  Nothing inside the program is instrumented: the only
view below a call is the shape density ``h`` that the benchmark hands to
``condensation`` and ``rare_event`` functions, which is wrapped so that every
evaluation becomes a child span named ``schemes.h`` or ``torus.h_lattice``.
That splits the self time of the quadrature from the self time of ``h``.

Spans are kept in memory; ``Tracer.dump`` writes them once, at exit.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("schemes", "rare_event", "condensation", "torus", "cli")
H_SPANS = ("schemes.h", "torus.h_lattice")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op_id: int | None
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; otherwise calls straight through."""

    def __init__(self) -> None:
        self.enabled = False
        self.op_id: int | None = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def call(self, name: str, fn, *args, work=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span.

        ``work`` maps the result to work counts stored on the span
        (draws, hits, points, ...); it runs after the span has ended.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1].id if self._stack else None,
            op_id=self.op_id,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span.work.update(work(result))
        return result

    def wrap_h(self, name: str, h):
        """The shape density ``h`` as passed to the program, traced when enabled."""
        if not self.enabled:
            return h

        def traced_h(x):
            return self.call(name, h, x, work=lambda _: {"points": int(np.size(x)), "calls": 1})

        return traced_h

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part covered by its children.

    Calls are sequential, so children never overlap and their durations add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _share_layer(name: str) -> str:
    return "h" if name in H_SPANS else name.split(".", 1)[0]


def layer_metrics(spans: list[Span], passes: int, op_time_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Times and counts are per pass; rates are totals over totals.
    ``op_time_s`` is the summed latency of the traced ops, the base of the
    self-time shares (what no span covers is the harness's share).
    """
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    work: dict[str, dict[str, float]] = {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        acc = work.setdefault(s.name, {})
        for key, val in s.work.items():
            acc[key] = acc.get(key, 0.0) + val

    def b(name):
        return busy.get(name, 0.0)

    def w(name, key):
        return work.get(name, {}).get(key, 0.0)

    def rate(count, seconds, scale=1.0):
        return count / seconds / scale if seconds > 0 else 0.0

    m: dict[str, float] = {}
    for shape in ("truncated_pareto", "smooth_cutoff", "lattice_ball", "discrete_grid"):
        name = f"schemes.sample.{shape}"
        m[f"schemes.sample.mdraws_per_s.{shape}"] = rate(w(name, "draws"), b(name), 1e6)
    m["schemes.lln_deviation.busy_s"] = b("schemes.lln_deviation") / passes
    m["schemes.lln_deviation.mdraws_per_s"] = rate(w("schemes.lln_deviation", "draws"), b("schemes.lln_deviation"), 1e6)
    m["schemes.mu_n.busy_s"] = b("schemes.mu_n") / passes
    m["schemes.h.points"] = w("schemes.h", "points") / passes
    m["schemes.h.busy_s"] = b("schemes.h") / passes
    m["rare_event.estimate_naive.busy_s"] = b("rare_event.estimate_naive") / passes
    m["rare_event.estimate_naive.mdraws_per_s"] = rate(
        w("rare_event.estimate_naive", "draws"), b("rare_event.estimate_naive"), 1e6)
    samples = w("rare_event.estimate_naive", "samples")
    m["rare_event.estimate_naive.hit_ratio"] = w("rare_event.estimate_naive", "hits") / samples if samples else 0.0
    m["rare_event.ratio_sweep.busy_s"] = b("rare_event.ratio_sweep") / passes
    m["rare_event.jump_sum_window_prob.busy_s"] = b("rare_event.jump_sum_window_prob") / passes
    m["rare_event.jump_sum_window_prob.mdraws_per_s"] = rate(
        w("rare_event.jump_sum_window_prob", "draws"), b("rare_event.jump_sum_window_prob"), 1e6)
    # exact_dp is exact_sum_distribution plus an O(1) window sum
    m["rare_event.exact_sum_distribution.busy_s"] = b("rare_event.exact_dp") / passes
    m["rare_event.exact_sum_distribution.cells_per_s"] = rate(w("rare_event.exact_dp", "cells"), b("rare_event.exact_dp"))
    cp = "rare_event.conditional_profiles"
    m[f"{cp}.busy_s"] = b(cp) / passes
    m[f"{cp}.replicas_per_s"] = rate(w(cp, "replicas"), b(cp))
    m[f"{cp}.accept_ratio"] = w(cp, "hits") / w(cp, "replicas") if w(cp, "replicas") else 0.0
    m["rare_event.jump_size_gof.busy_s"] = b("rare_event.jump_size_gof") / passes
    for route in ("closed_form", "grid_k2", "grid_k3", "monte_carlo"):
        m[f"condensation.krho.busy_s.{route}"] = b(f"condensation.krho.{route}") / passes
    m["condensation.krho.self_s"] = sum(
        t for s, t in zip(spans, selfs) if s.name.startswith("condensation.krho.")) / passes
    h_under_condensation = [
        s for s in spans
        if s.name in H_SPANS and s.parent is not None and spans[s.parent].name.startswith("condensation.")
    ]
    m["condensation.h_calls"] = sum(s.work.get("calls", 0) for s in h_under_condensation) / passes
    m["condensation.h_points"] = sum(s.work.get("points", 0) for s in h_under_condensation) / passes
    m["condensation.jump_marginal_mass.busy_s"] = b("condensation.jump_marginal_mass") / passes
    m["condensation.sample_limit_jumps.busy_s"] = b("condensation.sample_limit_jumps") / passes
    m["torus.h_lattice.busy_s"] = b("torus.h_lattice") / passes
    m["torus.h_lattice.points_per_s"] = rate(w("torus.h_lattice", "points"), b("torus.h_lattice"))
    gg = "torus.generate_graph"
    m[f"{gg}.busy_s"] = b(gg) / passes
    m[f"{gg}.ball_visits_per_s"] = rate(w(gg, "ball_visits"), b(gg))
    m[f"{gg}.vertices_per_s"] = rate(w(gg, "vertices"), b(gg))
    m["torus.calibrate_h.busy_s"] = b("torus.calibrate_h") / passes
    for cmd in ("graph_gen", "graph_degrees", "graph_condense", "ldp_sweep"):
        m[f"cli.{cmd}.busy_s"] = b(f"cli.{cmd}") / passes
    m["cli.bytes_written"] = sum(w(name, "bytes") for name in work if name.startswith("cli.")) / passes

    shares = {layer: 0.0 for layer in (*LAYERS, "h")}
    for s, t in zip(spans, selfs):
        shares[_share_layer(s.name)] += t
    covered = sum(s.duration for s in spans if s.parent is None)
    for layer, t in shares.items():
        m[f"self_share.{layer}"] = t / op_time_s if op_time_s > 0 else 0.0
    m["self_share.harness"] = max(op_time_s - covered, 0.0) / op_time_s if op_time_s > 0 else 0.0
    return m
