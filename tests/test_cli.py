import json
from pathlib import Path

import numpy as np
import pytest

from stringchain.cli import run


@pytest.fixture
def chain_json(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"densities": [1.0, 4.0]}))
    return str(path)


@pytest.fixture
def mono_json(tmp_path):
    path = tmp_path / "mono.json"
    path.write_text(json.dumps({"densities": [1.0]}))
    return str(path)


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 64
    assert run(["spectrum"]) == 64  # missing required --config / --rect


def test_config_error_exit_codes(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert run(["gap", "--config", missing, "--step", "0.1"]) == 65
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"densities": [1.0, -2.0]}))
    assert run(["gap", "--config", str(bad), "--step", "0.1"]) == 65


def test_spectrum_command(chain_json, tmp_path, capsys):
    out = tmp_path / "spec"
    code = run([
        "spectrum", "--config", chain_json, "--rect", "-2,0,0,30",
        "--grid", "48,160", "--out", str(out),
    ])
    assert code == 0
    rows = (out / "roots.csv").read_text().strip().splitlines()
    assert rows[0] == "re,im,residual"
    assert len(rows) == 6
    res = [float(r.split(",")[0]) for r in rows[1:]]
    assert max(abs(v + np.log(3.0)) for v in res) < 1e-7
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["count"] == 5
    assert summary["abscissa"] == pytest.approx(-np.log(3.0), abs=1e-7)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["config"] == {"densities": [1.0, 4.0]}


def test_gap_and_det_bound(chain_json, tmp_path):
    out = tmp_path / "gap"
    assert run(["gap", "--config", chain_json, "--beta-min", "-20", "--beta-max", "20",
                "--step", "0.001", "--out", str(out)]) == 0
    header = (out / "det_scan.csv").read_text().splitlines()[0]
    assert header == "beta,re_D,im_D,abs_D,re_Dt,im_Dt,re_DDbar"
    out2 = tmp_path / "db"
    assert run(["det-bound", "--config", chain_json, "--beta-min", "-20", "--beta-max", "20",
                "--step", "0.001", "--out", str(out2)]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["gamma_numeric"] >= manifest["gamma_analytic"] - 1e-9


def test_resolvent_scan_deterministic_across_jobs(mono_json, tmp_path):
    out1 = tmp_path / "scan1"
    out2 = tmp_path / "scan2"
    args = ["resolvent-scan", "--config", mono_json, "--betas", "5,20,80",
            "--probes", "2", "--seed", "3"]
    assert run(args + ["--out", str(out1), "--jobs", "1"]) == 0
    assert run(args + ["--out", str(out2), "--jobs", "3"]) == 0
    a = (out1 / "resolvent_scan.csv").read_bytes()
    b = (out2 / "resolvent_scan.csv").read_bytes()
    assert a == b


def test_schrodinger_scan_negative_betas(mono_json, tmp_path):
    out = tmp_path / "ss"
    assert run(["schrodinger-scan", "--config", mono_json, "--betas", "-100,-1000",
                "--probes", "2", "--out", str(out), "--jobs", "1"]) == 0
    rows = (out / "schrodinger_scan.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        beta, est = float(row.split(",")[0]), float(row.split(",")[1])
        assert est <= 1.2 / abs(beta)


def test_transfer_scan(mono_json, tmp_path):
    out = tmp_path / "ts"
    assert run(["transfer-scan", "--config", mono_json, "--gamma", "1.0",
                "--beta-min", "-20", "--beta-max", "20", "--step", "0.01",
                "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sup_abs"] == pytest.approx(1.0 / np.tanh(1.0), rel=1e-3)


def test_decay_command_reports_extinction(mono_json, tmp_path):
    out = tmp_path / "decay"
    assert run(["decay", "--config", mono_json, "--T", "4", "--points", "800",
                "--stride", "10", "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["extinction_time"] is not None
    assert meta["extinction_time"] <= 2.2
    rows = (out / "energy.csv").read_text().splitlines()
    assert rows[0] == "t,E,boundary_flux_cum"


def test_schrodinger_decay_command(mono_json, tmp_path):
    out = tmp_path / "sdecay"
    assert run(["schrodinger-decay", "--config", mono_json, "--T", "3", "--points", "300",
                "--dt", "0.002", "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["flux_balance_defect"] <= 1e-8


def test_io_ratios_command(mono_json, tmp_path):
    out = tmp_path / "io"
    assert run(["io-ratios", "--config", mono_json, "--T", "4", "--points", "400",
                "--out", str(out)]) == 0
    data = json.loads((out / "io_ratios.json").read_text())
    assert data["observability_ratio"] > 0.1
    assert np.isfinite(data["admissibility_ratio"])
    assert data["round_trip_time"] == pytest.approx(2.0)


def test_verify_command_passes(mono_json, tmp_path, capsys):
    out = tmp_path / "verify"
    code = run(["verify", "--config", mono_json, "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in captured
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["all_ok"] is True


def test_jobs_env_override(mono_json, tmp_path, monkeypatch):
    monkeypatch.setenv("STRINGCHAIN_JOBS", "1")
    out = tmp_path / "env"
    assert run(["resolvent-scan", "--config", mono_json, "--betas", "5,20",
                "--probes", "1", "--out", str(out), "--jobs", "4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["options"]["jobs"] == 4  # flag recorded; env controlled the pool


@pytest.mark.parametrize("densities", ["14", 3])
def test_non_list_densities_are_config_errors(tmp_path, densities, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"densities": densities}))
    assert run(["det-bound", "--config", str(path), "--beta-min", "-5", "--beta-max", "5",
                "--step", "0.1", "--out", str(tmp_path / "out")]) == 65
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [["--count", "0"], ["--count", "-3"], ["--betas", "5,x"]])
def test_resolvent_scan_bad_beta_grid_is_usage_error(mono_json, tmp_path, grid, capsys):
    assert run(["resolvent-scan", "--config", mono_json, *grid,
                "--out", str(tmp_path / "out"), "--jobs", "1"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_far_left_spectrum_overflow_is_a_numerical_failure(chain_json, tmp_path, capsys):
    assert run(["spectrum", "--config", chain_json, "--rect", "-820,-780,0,10",
                "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: DeterminantOverflow")


def test_transfer_scan_overflow_is_a_numerical_failure(chain_json, tmp_path, capsys):
    assert run(["transfer-scan", "--config", chain_json, "--gamma", "800",
                "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: DeterminantOverflow")


def test_jobs_env_not_an_integer_is_usage_error(mono_json, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STRINGCHAIN_JOBS", "abc")
    assert run(["resolvent-scan", "--config", mono_json, "--betas", "5,20",
                "--probes", "1", "--out", str(tmp_path / "out")]) == 64
    assert "usage error" in capsys.readouterr().err


def test_manifest_bytes_repeat_and_timing_apart(mono_json, tmp_path):
    out = tmp_path / "ts"
    args = ["transfer-scan", "--config", mono_json, "--beta-min", "-5", "--beta-max", "5",
            "--step", "0.01", "--out", str(out)]
    assert run(args) == 0
    first = (out / "manifest.json").read_bytes()
    assert run(args) == 0
    assert (out / "manifest.json").read_bytes() == first
    manifest = json.loads(first)
    assert "wall_time_s" not in manifest
    keys = {"command", "config", "options", "outputs", "seed", "version", "sup_abs"}
    assert keys <= set(manifest)
    assert json.loads((out / "timing.json").read_text())["wall_time_s"] >= 0.0
    out = tmp_path / "decay"
    args = ["decay", "--config", mono_json, "--T", "0.5", "--points", "40", "--out", str(out)]
    assert run(args) == 0
    first = (out / "run.json").read_bytes()
    assert run(args) == 0
    assert (out / "run.json").read_bytes() == first


@pytest.mark.parametrize("argv", [
    ["resolvent-scan", "--betas", "5", "--probes", "0"],
    ["schrodinger-scan", "--betas", "100", "--probes", "0"],
    ["decay", "--stride", "0"],
    ["schrodinger-decay", "--dt", "0"],
    ["transfer-scan", "--step", "-1"],
    ["transfer-scan", "--beta-min", "5", "--beta-max", "1"],
    ["transfer-scan", "--gamma", "0"],
    ["det-bound", "--step", "0"],
    ["gap", "--step", "0"],
    ["gap", "--csv-stride", "0"],
    ["decay", "--T", "0"],
    ["io-ratios", "--T", "nan"],
    ["spectrum", "--rect", "-1,0,0,1", "--grid", "8,8"],
    ["resolvent-scan", "--betas", "5", "--seed", "-1"],
    ["decay", "--points", "1"],
    ["decay", "--cfl", "0"],
    ["io-ratios", "--cfl", "1.5"],
    ["schrodinger-decay", "--points", "7"],
    ["resolvent-scan", "--betas", "5", "--points", "1"],
    ["schrodinger-scan", "--betas", "100", "--points", "1"],
    ["spectrum", "--rect", "a,0,0,1"],
    ["spectrum", "--rect", "-1,0,0,1", "--grid", "nan,64"],
    ["resolvent-scan", "--betas", "nan"],
    ["spectrum", "--rect", "0,-1,0,1"],
    ["spectrum", "--rect", "0,1,0,1"],
])
def test_rejected_option_values_are_usage_errors(chain_json, tmp_path, argv, capsys):
    # option values the library rejects or cannot use are caught before any work starts
    assert run([*argv, "--config", chain_json, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 64
    assert capsys.readouterr().err.startswith("usage error:")


TINY_RUNS = [
    ["spectrum", "--rect", "-2,0,0,10", "--grid", "16,16"],
    ["gap", "--beta-min", "-1", "--beta-max", "1"],
    ["det-bound", "--beta-min", "-1", "--beta-max", "1"],
    ["resolvent-scan", "--betas", "10", "--probes", "1"],
    ["schrodinger-scan", "--betas", "100,-100", "--probes", "1"],
    ["transfer-scan", "--beta-min", "-1", "--beta-max", "1"],
    ["decay", "--T", "0.2", "--points", "40"],
    ["schrodinger-decay", "--T", "0.01", "--points", "40"],
    ["io-ratios", "--T", "0.2", "--points", "40"],
    ["verify"],
]


@pytest.mark.parametrize("argv", TINY_RUNS, ids=lambda argv: argv[0])
def test_runner_writes_manifest_timing_and_only_listed_outputs(chain_json, tmp_path, argv):
    manifests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run([*argv, "--config", chain_json, "--out", str(out), "--jobs", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert json.loads((out / "timing.json").read_text())["wall_time_s"] >= 0.0
        outputs = [Path(p) for p in manifest["outputs"]]
        assert all(p.parent == out and p.is_file() for p in outputs)
        written = {p.name for p in out.iterdir()}
        assert written == {"manifest.json", "timing.json"} | {p.name for p in outputs}
        # --out is an input the manifest pins; apart from it and the outputs
        # under it, runs into different directories record the same manifest
        assert manifest["options"].pop("out") == str(out)
        del manifest["outputs"]
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
