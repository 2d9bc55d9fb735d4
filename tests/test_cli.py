import importlib.metadata
import json
import os
import platform
import re
import stat

import numpy as np
import pytest

from bigjumps import cli, schemes, torus
from bigjumps.cli import run


@pytest.fixture()
def pareto_cfg(tmp_path):
    path = tmp_path / "pareto.cfg"
    path.write_text("shape = truncated_pareto\nc = 1.5\nalpha = 1.5\n")
    return path


@pytest.fixture()
def grid_cfg(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text("shape = discrete_grid\npmf = 0.5, 0.25, 0.25\n")
    return path


def test_krho_uniform_analytic(tmp_path, capsys):
    code = run(["--outdir", str(tmp_path), "krho", "--h", "uniform", "--rho", "1.5", "--k", "2", "--tol", "1e-6"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 0.5) < 1e-6
    assert not out["diverged"]
    assert (tmp_path / "krho.json").exists()
    assert (tmp_path / "krho.manifest.json").exists()


def test_krho_from_scheme(tmp_path, capsys, pareto_cfg):
    code = run(["--outdir", str(tmp_path), "krho", "--scheme", str(pareto_cfg), "--rho", "0.5", "--k", "1", "--tol", "1e-9"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(1.5 * 0.5 ** -2.5)
    manifest = json.loads((tmp_path / "krho.manifest.json").read_text())
    assert manifest["subcommand"] == "krho"
    assert manifest["params"]["rho"] == 0.5
    assert manifest["libraries"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
    }
    assert manifest["workers"] == schemes._WORKERS
    assert manifest["cpu_count"] == os.cpu_count()


def test_manifest_library_version_is_null_when_not_installed(tmp_path, monkeypatch):
    cli._libraries.cache_clear()
    monkeypatch.setattr(importlib.metadata, "distributions", lambda **kwargs: iter(()))
    try:
        assert run(["--outdir", str(tmp_path), "krho", "--h", "uniform", "--rho", "1.5", "--k", "2", "--tol", "1e-6"]) == 0
    finally:
        cli._libraries.cache_clear()
    manifest = json.loads((tmp_path / "krho.manifest.json").read_text())
    assert manifest["libraries"]["scipy"] is None


@pytest.mark.parametrize(
    "rho, k, text",
    [
        ("1.5", "2", '{\n  "abs_error_bound": 8.881784197001252e-16,\n  "diverged": false,\n  "method": "grid",\n  "value": 5.237828008789241\n}\n'),
        ("2.5", "3", '{\n  "abs_error_bound": 1e-16,\n  "diverged": false,\n  "method": "grid",\n  "value": 1.8002900088246405\n}\n'),
    ],
    ids=["k2", "k3"],
)
def test_krho_output_bytes(tmp_path, capsys, pareto_cfg, rho, k, text):
    # the refinement trace stays off stdout and krho.json, and the grid values keep their bits
    code = run(["--outdir", str(tmp_path), "krho", "--scheme", str(pareto_cfg), "--rho", rho, "--k", k, "--tol", "1e-10"])
    assert code == 0
    assert capsys.readouterr().out == text
    assert (tmp_path / "krho.json").read_text() == text


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    code = run(["--outdir", str(tmp_path), "krho", "--h", "uniform", "--rho", "1.5", "--tol", "1e-6"])
    assert code == 2
    assert not (tmp_path / "krho.json").exists()


def test_unknown_subcommand_is_usage_error(tmp_path):
    assert run(["--outdir", str(tmp_path), "frobnicate"]) == 2


def test_domain_error_exit_one(tmp_path, capsys):
    # rho outside (k-1, k)
    code = run(["--outdir", str(tmp_path), "krho", "--h", "uniform", "--rho", "2.5", "--k", "2", "--tol", "1e-6"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_graph_gen_then_degrees_conserves_edges(tmp_path, capsys):
    assert run(["--outdir", str(tmp_path), "graph", "gen", "--d", "1", "--N", "5", "--beta", "1.5", "--seed", "1"]) == 0
    assert run(["--outdir", str(tmp_path), "graph", "degrees", "--out", str(tmp_path / "deg.csv")]) == 0
    rows = (tmp_path / "deg.csv").read_text().splitlines()[1:]
    outs = [int(r.split(",")[1]) for r in rows]
    ins = [int(r.split(",")[2]) for r in rows]
    assert sum(outs) == sum(ins)
    assert len(rows) == 11


def test_graph_gen_deterministic_bytes(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert run(["--outdir", str(d), "graph", "gen", "--d", "1", "--N", "8", "--beta", "1.5", "--seed", "3"]) == 0
        assert run(["--outdir", str(d), "graph", "degrees", "--out", str(d / "deg.csv")]) == 0
    assert (tmp_path / "a" / "deg.csv").read_bytes() == (tmp_path / "b" / "deg.csv").read_bytes()


def test_graph_condense_planted(tmp_path, capsys):
    assert (
        run(
            [
                "--outdir", str(tmp_path),
                "graph", "gen", "--d", "2", "--N", "4", "--beta", "3.0", "--seed", "2",
                "--plant", "0:7.0",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert run(["--outdir", str(tmp_path), "graph", "condense", "--k", "1", "--eps", "0.5"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["big_out_count"] >= 1
    assert stats["top_k_out_share"] == pytest.approx(80 / 81)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_graph_condense_rejects_nonpositive_k(tmp_path, capsys, k):
    assert run(["--outdir", str(tmp_path), "graph", "gen", "--d", "2", "--N", "4", "--beta", "3.0", "--seed", "1"]) == 0
    capsys.readouterr()
    assert run(["--outdir", str(tmp_path), "graph", "condense", "--k", k, "--eps", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"k must be >= 1; got {k}" in captured.err


@pytest.mark.parametrize("rows", [None, 7])
def test_graph_degrees_csv_matches_per_row_writer(tmp_path, monkeypatch, rows):
    argv = ["--outdir", str(tmp_path), "graph", "gen", "--d", "2", "--N", "6", "--beta", "3.0", "--seed", "4"]
    assert run([*argv, "--plant", "0:inf", "17:6.0", "168:1.5"]) == 0
    if rows:
        monkeypatch.setattr(cli, "_CSV_ROWS", rows)
    assert run(["--outdir", str(tmp_path), "graph", "degrees", "--out", str(tmp_path / "deg.csv")]) == 0
    with np.load(tmp_path / "graph.npz") as data:
        out_deg, in_deg = data["out_degrees"], data["in_degrees"]
    want = "vertex_index,out_degree,in_degree\n" + "".join(
        f"{i},{int(o)},{int(d)}\n" for i, (o, d) in enumerate(zip(out_deg, in_deg))
    )
    assert out_deg[0] == 168
    assert (tmp_path / "deg.csv").read_bytes() == want.encode()


def _percent_rows(*cols):
    return "".join("%d,%d,%d\n" % row for row in zip(*(c.tolist() for c in cols))).encode()


@pytest.mark.parametrize("value", [0, *(v for k in range(1, 10) for v in (10**k - 1, 10**k)), 2**31 - 1, 2**31])
def test_csv_rows_matches_percent_format_at_digit_edges(value):
    # 2**31 - 1 is the widest value formatted on int32, 2**31 the narrowest kept on int64
    col = np.array([value, 0, 7, value])
    cols = (col, col[::-1].copy(), np.full(4, value))
    assert cli._csv_rows(*cols) == _percent_rows(*cols)


def test_csv_rows_matches_percent_format_on_random_block():
    rng = np.random.default_rng(11)
    cols = (
        rng.integers(0, 10**6, 4000, dtype=np.int32),
        rng.integers(0, 2**40, 4000),
        rng.integers(0, 2**64 - 1, 4000, dtype=np.uint64, endpoint=True),
    )
    assert cli._csv_rows(*cols) == _percent_rows(*cols)


def test_graph_degrees_one_row_blocks_with_zero_degrees(tmp_path, monkeypatch):
    # N=6, d=1: vertex 6's ball of radius 5.5 reaches vertices 1..11, every other radius 0.5 reaches none,
    # so vertex 0's row is all zeros and the widest value changes from block to block
    plant = [f"{i}:0.5" for i in range(13) if i != 6]
    argv = ["--outdir", str(tmp_path), "graph", "gen", "--d", "1", "--N", "6", "--beta", "3.0", "--seed", "4"]
    assert run([*argv, "--plant", "6:5.5", *plant]) == 0
    monkeypatch.setattr(cli, "_CSV_ROWS", 1)
    assert run(["--outdir", str(tmp_path), "graph", "degrees", "--out", str(tmp_path / "deg.csv")]) == 0
    with np.load(tmp_path / "graph.npz") as data:
        want = _percent_rows(np.arange(13), data["out_degrees"], data["in_degrees"])
    got = (tmp_path / "deg.csv").read_bytes()
    assert got == b"vertex_index,out_degree,in_degree\n" + want
    rows = got.splitlines()[1:]
    assert rows[0] == b"0,0,0" and rows[6] == b"6,10,0"


@pytest.mark.parametrize(
    "out_deg, in_deg, err",
    [
        ([1, 0, 0], [0, -1, 1], "degrees must be non-negative integers"),
        ([1.0, 0.0, 0.0], [0, 1, 0], "degrees must be non-negative integers"),
        ([2], [0, 1, 1], "1 out- and 3 in-degrees for 3 vertices"),
        ([1, 0, 0, 0], [0, 1, 0, 0], "4 out- and 4 in-degrees for 3 vertices"),
    ],
    ids=["negative", "float", "short", "long"],
)
def test_graph_degrees_malformed_npz_exits_one(tmp_path, capsys, out_deg, in_deg, err):
    graph = tmp_path / "graph.npz"
    np.savez(graph, out_degrees=np.array(out_deg), in_degrees=np.array(in_deg), d=1, N=1, beta=3.0, seed=0)
    assert run(["--outdir", str(tmp_path), "graph", "degrees", "--graph", str(graph)]) == 1
    assert err in capsys.readouterr().err


@pytest.mark.parametrize("existing", [None, b"old bytes\n"], ids=["absent", "existing"])
def test_graph_degrees_failure_leaves_no_partial_csv(tmp_path, capsys, monkeypatch, existing):
    # row 0 formats, row 1 holds a negative in-degree: the error comes after the first block was written
    graph = tmp_path / "graph.npz"
    np.savez(graph, out_degrees=np.array([1, 0, 0]), in_degrees=np.array([0, -1, 1]), d=1, N=1, beta=3.0, seed=0)
    csv = tmp_path / "degrees.csv"
    if existing:
        csv.write_bytes(existing)
    monkeypatch.setattr(cli, "_CSV_ROWS", 1)
    assert run(["--outdir", str(tmp_path), "graph", "degrees"]) == 1
    assert "degrees must be non-negative integers" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["degrees.csv", "graph.npz"] if existing else ["graph.npz"])
    if existing:
        assert csv.read_bytes() == existing


def test_graph_path_without_npz_suffix_round_trips(tmp_path, capsys):
    graph, out = tmp_path / "g", tmp_path / "g.csv"
    argv = ["--outdir", str(tmp_path), "graph", "gen", "--d", "1", "--N", "50", "--beta", "1.5", "--seed", "2"]
    assert run([*argv, "--graph", str(graph)]) == 0
    assert json.loads(capsys.readouterr().out)["graph_file"] == str(graph)
    assert graph.is_file() and not (tmp_path / "g.npz").exists()
    assert run(["--outdir", str(tmp_path), "graph", "degrees", "--graph", str(graph), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["csv"] == str(out)
    assert run(["--outdir", str(tmp_path), "graph", "condense", "--graph", str(graph), "--k", "1", "--eps", "0.1"]) == 0
    stats = json.loads(capsys.readouterr().out)
    with np.load(graph) as data:
        want = "vertex_index,out_degree,in_degree\n" + "".join(
            f"{i},{o},{d}\n" for i, (o, d) in enumerate(zip(data["out_degrees"].tolist(), data["in_degrees"].tolist()))
        )
        assert stats["edge_count"] == int(data["out_degrees"].sum())
    assert out.read_text() == want


_STORED = {"out_degrees": [2, 2, 2], "in_degrees": [3, 3], "d": 1, "N": 5, "beta": 1.5, "seed": 0}


@pytest.mark.parametrize(
    "arrays, err",
    [
        (_STORED, "3 out- and 2 in-degrees for 11 vertices"),
        ({**_STORED, "in_degrees": [1] * 11, "out_degrees": [1] * 11, "d": None}, "is not a stored graph: it lacks d"),
    ],
    ids=["short", "no-d"],
)
@pytest.mark.parametrize(
    "command", [["degrees"], ["condense", "--k", "1", "--eps", "0.1"]], ids=["degrees", "condense"]
)
def test_stored_graph_is_checked_where_it_is_loaded(tmp_path, capsys, arrays, err, command):
    np.savez(tmp_path / "graph.npz", **{key: np.array(val) for key, val in arrays.items() if val is not None})
    assert run(["--outdir", str(tmp_path), "graph", *command]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and err in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.npz"]


@pytest.mark.parametrize("kind", ["directory", "device-link"])
def test_out_that_is_not_a_regular_file_is_refused(tmp_path, capsys, kind):
    assert run(["--outdir", str(tmp_path), "graph", "gen", "--d", "1", "--N", "5", "--beta", "1.5", "--seed", "1"]) == 0
    capsys.readouterr()
    target = tmp_path / "target"
    target.mkdir() if kind == "directory" else target.symlink_to(os.devnull)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(["--outdir", str(tmp_path), "graph", "degrees", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"{target} exists and is not a regular file" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if kind == "directory":
        assert target.is_dir() and not any(target.iterdir())
    else:
        assert target.is_symlink() and stat.S_ISCHR(target.stat().st_mode)


def test_symlinked_out_is_replaced_not_written_through(tmp_path, capsys):
    assert run(["--outdir", str(tmp_path), "graph", "gen", "--d", "1", "--N", "5", "--beta", "1.5", "--seed", "1"]) == 0
    real, link = tmp_path / "real.csv", tmp_path / "deg.csv"
    real.write_bytes(b"kept\n")
    link.symlink_to(real)
    assert run(["--outdir", str(tmp_path), "graph", "degrees", "--out", str(link)]) == 0
    assert not link.is_symlink() and link.read_text().startswith("vertex_index,out_degree,in_degree\n")
    assert real.read_bytes() == b"kept\n"


def test_graph_gen_above_the_visit_cap_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(torus, "_MAX_BALL_VISITS", 10)
    assert run(["--outdir", str(tmp_path), "graph", "gen", "--d", "2", "--N", "8", "--beta", "3.0", "--seed", "1"]) == 1
    assert "(cap 10)" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("plant", ["500:5", "-1:5"])
def test_graph_gen_rejects_planted_index_outside_vertex_range(tmp_path, capsys, plant):
    argv = ["--outdir", str(tmp_path), "graph", "gen", "--d", "2", "--N", "4", "--beta", "3.0", "--seed", "1"]
    assert run([*argv, f"--plant={plant}"]) == 1
    assert f"planted vertex index {plant.split(':')[0]} is outside [0, 81)" in capsys.readouterr().err
    assert not (tmp_path / "graph.npz").exists()


@pytest.mark.parametrize("plant", ["3", "a:b"])
def test_graph_gen_malformed_plant_is_usage_error(tmp_path, capsys, plant):
    argv = ["--outdir", str(tmp_path), "graph", "gen", "--d", "2", "--N", "4", "--beta", "3.0", "--seed", "1"]
    assert run([*argv, "--plant", plant]) == 2
    assert f"expected INDEX:RADIUS, got '{plant}'" in capsys.readouterr().err
    assert not (tmp_path / "graph.npz").exists()


def test_graph_gen_help_names_the_negative_index_form(capsys):
    assert run(["graph", "gen", "--help"]) == 0
    assert "--plant=-1:5" in capsys.readouterr().out


@pytest.mark.parametrize("radius", ["-5", "0", "nan"])
def test_graph_gen_rejects_nonpositive_planted_radius(tmp_path, capsys, radius):
    argv = ["--outdir", str(tmp_path), "graph", "gen", "--d", "2", "--N", "8", "--beta", "3.0", "--seed", "5"]
    assert run([*argv, "--plant", f"7:{radius}"]) == 1
    assert "radius must be positive" in capsys.readouterr().err
    assert not (tmp_path / "graph.npz").exists()


@pytest.mark.parametrize(
    "command", [["estimate", "--n", "64"], ["ldp-sweep", "--n-list", "16,32"]], ids=["estimate", "ldp-sweep"]
)
def test_estimate_requires_width(tmp_path, pareto_cfg, capsys, command):
    code = run(["--outdir", str(tmp_path), *command, "--scheme", str(pareto_cfg), "--rho", "0.5", "--samples", "20000"])
    assert code == 1
    assert "--width or --power-width" in capsys.readouterr().err


_WINDOWED = ["--scheme", "--rho", "--width", "--power-width", "--samples", "--seed"]
_CONDITIONED = ["--scheme", "--n", "--rho", "--width", "--eps", "--hits", "--max-samples", "--seed"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("estimate", [*_WINDOWED, "--n", "--method"]),
        ("ldp-sweep", [*_WINDOWED, "--n-list", "--tol", "--alpha"]),
        ("condition", _CONDITIONED),
        ("gof", [*_CONDITIONED, "--bins"]),
    ],
)
def test_help_lists_every_flag(capsys, command, flags):
    assert run([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert sorted(re.findall(r"^  (--[\w-]+)", out, re.M)) == sorted(flags)
    if "--power-width" in flags:
        assert "w0:gamma for width w0*n^-gamma" in out


def test_estimate_and_sweep(tmp_path, grid_cfg, capsys):
    code = run(
        [
            "--outdir", str(tmp_path),
            "estimate", "--scheme", str(grid_cfg), "--n", "32", "--rho", "0.45",
            "--width", "0.3", "--samples", "20000", "--seed", "0",
        ]
    )
    assert code == 0
    est = json.loads(capsys.readouterr().out)
    assert 0.0 <= est["prob"] <= 1.0
    code = run(
        [
            "--outdir", str(tmp_path),
            "ldp-sweep", "--scheme", str(grid_cfg), "--rho", "0.45", "--width", "0.3",
            "--n-list", "16,32", "--samples", "10000", "--seed", "0", "--alpha", "1.5",
        ]
    )
    assert code == 0
    lines = (tmp_path / "ldp_sweep.csv").read_text().splitlines()
    assert lines[0] == "n,method,prob,std_error,rhs,ratio"
    assert len(lines) == 3


def test_estimate_conditional(tmp_path, pareto_cfg, capsys):
    argv = [
        "--outdir", str(tmp_path),
        "estimate", "--scheme", str(pareto_cfg), "--n", "64", "--rho", "0.5",
        "--width", "0.2", "--samples", "20000", "--seed", "3", "--method", "conditional",
    ]
    assert run(argv) == 0
    est = json.loads(capsys.readouterr().out)
    assert est == json.loads((tmp_path / "estimate.json").read_text())
    assert sorted(est) == ["hits", "interval", "method", "mu_n", "prob", "samples", "std_error"]
    assert est["method"] == "conditional" and est["samples"] == 20000
    assert 0 < est["hits"] <= 20000
    assert 0.0 < est["std_error"] < 0.05 * est["prob"]
    mu_n = schemes.TruncatedPareto(1.5, 1.5).mu_n(64)[0]
    assert est["mu_n"] == mu_n and est["interval"] == [64 * (0.4 + mu_n), 64 * (0.6 + mu_n)]
    manifest = json.loads((tmp_path / "estimate.manifest.json").read_text())
    assert manifest["subcommand"] == "estimate" and manifest["seed"] == 3
    assert manifest["params"]["method"] == "conditional"


def test_condition_writes_profiles(tmp_path, pareto_cfg, capsys):
    code = run(
        [
            "--outdir", str(tmp_path),
            "condition", "--scheme", str(pareto_cfg), "--n", "64", "--rho", "0.5",
            "--width", "0.4", "--eps", "0.1", "--hits", "20", "--max-samples", "200000", "--seed", "0",
        ]
    )
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["hits"] == 20
    lines = (tmp_path / "profiles.jsonl").read_text().splitlines()
    assert len(lines) == 20
    prof = json.loads(lines[0])
    total = sum(v for _, v in prof["big_jumps"]) + prof["bulk_sum"]
    assert total == pytest.approx(prof["s_n"], rel=1e-12)


def test_gof_runs(tmp_path, capsys):
    cfg = tmp_path / "p12.cfg"
    cfg.write_text("shape = truncated_pareto\nc = 1.2\nalpha = 1.2\n")
    code = run(
        [
            "--outdir", str(tmp_path),
            "gof", "--scheme", str(cfg), "--n", "128", "--rho", "1.5", "--width", "0.2",
            "--eps", "0.4", "--hits", "150", "--max-samples", "400000", "--bins", "4", "--seed", "1",
        ]
    )
    assert code == 0
    res = json.loads(capsys.readouterr().out)
    assert 0.0 <= res["pvalue"] <= 1.0


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_gof_rejects_nonpositive_bins(tmp_path, capsys, monkeypatch, bins):
    def no_sampling(*args, **kwargs):
        raise AssertionError("--bins is checked before conditional_profiles runs")

    monkeypatch.setattr(cli.rare_event, "conditional_profiles", no_sampling)
    cfg = tmp_path / "p12.cfg"
    cfg.write_text("shape = truncated_pareto\nc = 1.2\nalpha = 1.2\n")
    argv = [
        "--outdir", str(tmp_path),
        "gof", "--scheme", str(cfg), "--n", "128", "--rho", "1.5", "--width", "0.2",
        "--eps", "0.4", "--hits", "20", "--max-samples", "400000", f"--bins={bins}", "--seed", "1",
    ]
    assert run(argv) == 1
    assert f"bins must be >= 1; got {bins}" in capsys.readouterr().err
    assert not (tmp_path / "gof.json").exists()


def test_calibrate_h_report(tmp_path, capsys):
    code = run(
        [
            "--outdir", str(tmp_path),
            "calibrate-h", "--d", "1", "--beta", "1.5", "--N-list", "64,128",
            "--samples", "50000", "--seed", "0",
        ]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["derived_const"] == pytest.approx(2.0 ** 1.5)
    assert rep["quoted_const"] == pytest.approx((4.0) ** -0.75)
    assert len(rep["rows"]) == 6


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_calibrate_h_rejects_nonpositive_samples(tmp_path, capsys, samples):
    argv = ["--outdir", str(tmp_path), "calibrate-h", "--d", "1", "--beta", "1.5", "--N-list", "8", "--samples", samples]
    assert run(argv) == 1
    assert f"samples must be >= 1; got {samples}" in capsys.readouterr().err
    assert not (tmp_path / "calibrate_h.json").exists()


def test_lln_and_tail_check(tmp_path, pareto_cfg, capsys):
    assert (
        run(
            [
                "--outdir", str(tmp_path),
                "lln", "--scheme", str(pareto_cfg), "--zeta", "0.3", "--n-list", "64,256",
                "--samples", "2000", "--seed", "0",
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    assert rows[1]["prob"] <= rows[0]["prob"] + 0.05
    assert (
        run(
            [
                "--outdir", str(tmp_path),
                "tail-check", "--scheme", str(pareto_cfg), "--a", "0.3", "--b", "0.7", "--n-list", "256,1024",
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    spec = schemes.load_scheme_config(pareto_cfg)
    for row, n in zip(rows, (256, 1024)):
        lo, hi = np.nextafter([0.3 * n, 0.7 * n], -np.inf)
        assert row["exact"] == float(spec.tail(n, lo) - spec.tail(n, hi))
        assert abs(row["ratio"] - 1.0) < 1e-3
    assert (tmp_path / "tail_check.csv").read_text().splitlines()[0] == "n,exact,expected,ratio"


def test_lln_rows_seed_from_seed_and_row(tmp_path, pareto_cfg, capsys):
    argv = [
        "--outdir", str(tmp_path),
        "lln", "--scheme", str(pareto_cfg), "--zeta", "0.3", "--n-list", "64,64,256",
        "--samples", "2000", "--seed", "3",
    ]
    assert run(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    spec = schemes.load_scheme_config(pareto_cfg)
    for i, row in enumerate(rows):
        est = schemes.lln_deviation(spec, row["n"], zeta=0.3, samples=2000, seed=np.random.SeedSequence((3, i)))
        assert (row["prob"], row["std_error"]) == (est.prob, est.std_error)


@pytest.mark.parametrize("a,b", [("0.5", "0.3"), ("0", "0.5")], ids=["a_above_b", "a_zero"])
def test_tail_check_rejects_window_outside_unit_interval(tmp_path, pareto_cfg, capsys, a, b):
    argv = [
        "--outdir", str(tmp_path),
        "tail-check", "--scheme", str(pareto_cfg), "--a", a, "--b", b, "--n-list", "256",
    ]
    assert run(argv) == 1
    assert "0 < a < b <= 1" in capsys.readouterr().err
    assert not (tmp_path / "tail_check.csv").exists()


def test_tail_check_rejects_level_below_support_floor(tmp_path, pareto_cfg, capsys):
    argv = ["--outdir", str(tmp_path), "tail-check", "--scheme", str(pareto_cfg), "--a", "0.3", "--b", "0.7", "--n-list", "1"]
    assert run(argv) == 1
    assert "level n=1 is below the support floor" in capsys.readouterr().err


def test_estimate_does_not_depend_on_cpu_count(tmp_path, pareto_cfg, capsys, monkeypatch):
    argv = [
        "--outdir", str(tmp_path),
        "estimate", "--scheme", str(pareto_cfg), "--n", "256", "--rho", "0.5",
        "--width", "0.1", "--samples", "20000", "--seed", "1",
    ]
    outs = []
    for cpus in (1, 3):
        monkeypatch.setattr(schemes, "_WORKERS", cpus)  # the sampling threads, one per CPU
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_workers_flag_is_usage_error(tmp_path, pareto_cfg):
    argv = [
        "--outdir", str(tmp_path),
        "estimate", "--scheme", str(pareto_cfg), "--n", "256", "--rho", "0.5",
        "--width", "0.1", "--samples", "20000", "--workers", "2",
    ]
    assert run(argv) == 2


def test_estimate_eps_flag_is_usage_error(tmp_path, pareto_cfg):
    argv = [
        "--outdir", str(tmp_path),
        "estimate", "--scheme", str(pareto_cfg), "--n", "256", "--rho", "0.5",
        "--width", "0.1", "--method", "conditional", "--eps", "0.05",
    ]
    assert run(argv) == 2


def test_config_missing_key_is_domain_error(tmp_path, capsys):
    cfg = tmp_path / "no_alpha.cfg"
    cfg.write_text("shape = truncated_pareto\nc = 1.5\n")
    code = run(["--outdir", str(tmp_path), "krho", "--scheme", str(cfg), "--rho", "0.5", "--k", "1", "--tol", "1e-9"])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_programming_error_propagates(tmp_path, monkeypatch):
    def broken(args):
        raise KeyError("not a domain error")

    monkeypatch.setattr(cli, "_cmd_krho", broken)
    with pytest.raises(KeyError):
        run(["--outdir", str(tmp_path), "krho", "--h", "uniform", "--rho", "1.5", "--k", "2", "--tol", "1e-6"])
