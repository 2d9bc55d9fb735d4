import json

import numpy as np
import pytest

from bigjumps import cli, schemes
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
                "tail-check", "--scheme", str(pareto_cfg), "--a", "0.3", "--b", "0.7",
                "--n-list", "256,1024", "--samples", "200000", "--seed", "0",
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        assert abs(row["ratio"] - 1.0) < 4 * row["std_error"] / row["expected"] + 0.02


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
        "tail-check", "--scheme", str(pareto_cfg), "--a", a, "--b", b, "--n-list", "256", "--samples", "1000",
    ]
    assert run(argv) == 1
    assert "0 < a < b <= 1" in capsys.readouterr().err
    assert not (tmp_path / "tail_check.csv").exists()


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
        "--width", "0.1", "--method", "structured", "--eps", "0.05",
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
