import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stringchain
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


def test_spectrum_unrefined_candidates_exit_2(chain_json, tmp_path, capsys):
    out = tmp_path / "spec"
    assert run(["spectrum", "--config", chain_json, "--rect", "-2,0,0,10", "--grid", "16,16",
                "--tol", "1e-30", "--out", str(out)]) == 2
    assert capsys.readouterr().out.count("unrefined candidate near") == 2
    assert json.loads((out / "spectrum_summary.json").read_text())["failures"] == 2


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
    # one scan serves both subcommands: the same minimum and the same table
    assert manifest["gamma_numeric"] == json.loads((out / "manifest.json").read_text())["gap"]
    assert (out2 / "det_scan.csv").read_bytes() == (out / "det_scan.csv").read_bytes()
    # the certified minimum lies at or below every written row, from a few thousand lambda
    rows = np.loadtxt(out / "det_scan.csv", delimiter=",", skiprows=1)
    assert manifest["gamma_numeric"] <= np.min(rows[:, 3])
    search = manifest["search"]
    assert search["minimum"] == "certified" and search["open_cells"] == 0
    assert search["lower_bound"] <= manifest["gamma_numeric"]
    assert rows.shape[0] <= search["lambdas"] <= 50_000


def test_gap_records_a_sampled_minimum_and_flags_open_cells(chain_json, tmp_path, capsys):
    out = tmp_path / "schr"
    assert run(["gap", "--config", chain_json, "--which", "schrodinger", "--beta-min", "-20",
                "--beta-max", "20", "--step", "0.01", "--out", str(out)]) == 0
    search = json.loads((out / "manifest.json").read_text())["search"]
    assert search == {"minimum": "sampled", "lower_bound": None, "lambdas": 4001, "rounds": 1,
                      "open_cells": 0}
    # at 1e15 the floats are 0.125 apart, so no cell can be split: a numerical failure
    for command in ("gap", "det-bound"):
        out = tmp_path / command
        assert run([command, "--config", chain_json, "--beta-min", "1e15", "--beta-max",
                    "1.000000000000004e15", "--step", "0.125", "--csv-stride", "1",
                    "--out", str(out)]) == 2
        assert "NOT certified" in capsys.readouterr().out
        search = json.loads((out / "manifest.json").read_text())["search"]
        assert search["minimum"] == "sampled" and search["open_cells"] >= 1


def test_resolvent_scan_deterministic_across_jobs(mono_json, tmp_path):
    out1 = tmp_path / "scan1"
    out2 = tmp_path / "scan2"
    # --jobs selects nothing: the rows are the same bytes, in the order of --betas
    args = ["resolvent-scan", "--config", mono_json, "--betas", "80,5,20,320,160",
            "--probes", "2", "--seed", "3"]
    assert run(args + ["--out", str(out1), "--jobs", "1"]) == 0
    assert run(args + ["--out", str(out2), "--jobs", "2"]) == 0
    a = (out1 / "resolvent_scan.csv").read_bytes()
    b = (out2 / "resolvent_scan.csv").read_bytes()
    assert a == b
    rows = a.decode().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [80.0, 5.0, 20.0, 320.0, 160.0]


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


def test_verify_makes_no_per_lambda_kernel_calls(tmp_path, monkeypatch, capsys):
    # its checks pass lam arrays: one boundary_matrices call, one exp_hyp call per edge
    # drawn, and no det_pair call at a scalar lam
    import stringchain.cli as cli
    calls = {"boundary_matrices": [], "exp_hyp": [], "det_pair": []}
    for name, seen in calls.items():
        def counted(*args, fn=getattr(cli, name), seen=seen):
            seen.append(np.ndim(args[1]))
            return fn(*args)
        monkeypatch.setattr(cli, name, counted)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"densities": [1.0, 4.0, 0.5]}))
    assert run(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert calls["boundary_matrices"] == [1]
    assert 1 <= len(calls["exp_hyp"]) <= 3 and set(calls["exp_hyp"]) == {1}
    assert calls["det_pair"] and 0 not in calls["det_pair"]


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


def test_overflowing_schrodinger_gap_is_a_numerical_failure(tmp_path, capsys):
    config = tmp_path / "eight.json"
    config.write_text(json.dumps({"densities": [0.25] * 8}))
    assert run(["gap", "--which", "schrodinger", "--beta-min", "-3000", "--beta-max", "-1000",
                "--step", "0.01", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: DeterminantOverflow")
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_transfer_scan_reports_the_largest_abs_h_it_writes(tmp_path):
    # on this chain the two largest values lie at beta = -21.3 and +21.3, where
    # np.abs and Python's abs (hypot) differ in the last bit
    config = tmp_path / "four.json"
    config.write_text(json.dumps(
        {"densities": [0.5679574238562732, 0.5071776648166756, 3.90662647370337,
                       0.8171924764985474]}))
    out = tmp_path / "ts"
    assert run(["transfer-scan", "--config", str(config), "--out", str(out)]) == 0
    table = np.loadtxt(out / "transfer_scan.csv", delimiter=",", skiprows=1)
    k = int(np.argmax(table[:, 4]))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sup_abs"] == table[k, 4] == np.max(table[:, 4])
    assert manifest["argmax_beta"] == table[k, 1]
    cfg = stringchain.ChainConfig(tuple(json.loads(config.read_text())["densities"]))
    assert stringchain.transfer_sup_scan(cfg, 1.0, (-50.0, 50.0), 0.01) == (
        manifest["sup_abs"], manifest["argmax_beta"])


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
    ["spectrum", "--rect", "-1,0,0,1", "--grid", "16.5,16"],  # sizes are whole numbers
    ["resolvent-scan", "--betas", "nan"],
    ["spectrum", "--rect", "0,-1,0,1"],
    ["spectrum", "--rect", "0,1,0,1"],
    ["decay", "--T", "inf"],
    ["gap", "--step", "inf"],
    ["schrodinger-decay", "--dt", "inf"],
    ["spectrum", "--rect", "-2,-1,0,10", "--tol", "nan"],
    ["spectrum", "--rect", "-2,-1,0,10", "--tol", "-1"],
    ["resolvent-scan", "--betas", "5", "--jobs", "0"],
    ["schrodinger-scan", "--betas", "100", "--jobs", "-2"],
    ["resolvent-scan", "--betas", "0.5", "--points", "2"],  # the residual needs 3 points
    ["schrodinger-scan", "--betas", "-100", "--points", "2"],
    ["schrodinger-scan", "--betas", "100,0"],  # ZeroBeta, before beta = 100 is solved
])
def test_rejected_option_values_are_usage_errors(chain_json, tmp_path, argv, capsys):
    # option values the library rejects or cannot use are caught before any work starts
    assert run([*argv, "--config", chain_json, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 64
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["gap", "--step", "1e-15"],  # numpy's MemoryError: 2.78 EiB
    ["gap", "--step", "1e-300"],  # numpy's "Maximum allowed size exceeded"
    ["transfer-scan", "--step", "1e-300"],
    ["resolvent-scan", "--count", "10000000000000000000"],
    ["resolvent-scan", "--betas", "1e300"],  # points per edge
    ["resolvent-scan", "--betas", "10", "--points", "9223372036854775807"],  # linspace IndexError
    ["resolvent-scan", "--count", "9223372036854775807"],
    ["spectrum", "--rect", "-1,0,0,1", "--grid", "9223372036854775805,16"],
    ["spectrum", "--rect", "-1,0,0,1", "--grid", "16,4611686018427387904"],
    ["schrodinger-scan", "--betas", "-1e300"],
    ["decay", "--T", "1e300"],  # energy records
    ["io-ratios", "--T", "1e300"],
    ["schrodinger-decay", "--dt", "1e-300"],
    ["schrodinger-decay", "--T", "1e300", "--dt", "1e-300"],  # T / dt overflows
    ["decay", "--T", "1e308", "--cfl", "1e-10", "--points", "8"],
    ["resolvent-scan", "--betas", "1.7e308"],  # the scan grid's point count overflows
])
def test_oversized_grids_are_usage_errors(chain_json, tmp_path, argv, capsys):
    # each grid is refused when it is allocated, before any memory is touched
    assert run([*argv, "--config", chain_json, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


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


def test_cli_import_loads_only_light_scipy_subpackages():
    # every CLI launch pays for its imports: scipy.signal alone adds about 1 s,
    # and scipy.integrate once made up most of the import time; a run is one
    # process, so no process-pool module is loaded either
    probe = ("import json, pkgutil, sys, stringchain.cli, scipy\n"
             "loaded = {m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}\n"
             "public = {m.name for m in pkgutil.iter_modules(scipy.__path__)\n"
             "          if m.ispkg and not m.name.startswith('_')}\n"
             "pools = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n"
             "print(json.dumps([sorted(loaded & public), sorted(pools)]))")
    env = dict(os.environ, PYTHONPATH=str(Path(stringchain.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    scipy_loaded, pools = json.loads(out)
    assert set(scipy_loaded) <= {"linalg", "sparse"}
    assert pools == []


@pytest.mark.parametrize("argv", [
    ["decay", "--T", "1e-155", "--points", "8"],  # dt^2 subnormal: the energies were nan
    ["decay", "--T", "1e-163", "--points", "8"],  # dt^2 == 0: ZeroDivisionError
    ["io-ratios", "--T", "1e-155", "--points", "8"],
    ["io-ratios", "--T", "1e-163", "--points", "8"],
])
def test_tiny_horizons_are_numerical_failures(chain_json, tmp_path, argv, capsys):
    # a leapfrog step whose square is not a normal float is refused before stepping
    out = tmp_path / "out"
    assert run([*argv, "--config", chain_json, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: DegenerateData") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_verify_on_a_chain_whose_solutions_underflow_is_a_numerical_failure(tmp_path, capsys):
    # at density 1e300 the wave resolvent's solution has zero L2 norm in floats,
    # so the oracle's relative distance has nothing to divide by
    config = tmp_path / "heavy.json"
    config.write_text(json.dumps({"densities": [1e300]}))
    assert run(["verify", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: DegenerateData") and err.count("\n") == 1


SCIPY_FREE_RUNS = [
    ["spectrum", "--rect", "-2,0,0,10", "--grid", "16,16"],
    ["spectrum", "--which", "schrodinger", "--rect", "-2,0,0,10", "--grid", "16,16"],
    ["gap", "--beta-min", "-1", "--beta-max", "1"],
    ["gap", "--which", "schrodinger", "--beta-min", "-1", "--beta-max", "1"],
    ["det-bound", "--beta-min", "-1", "--beta-max", "1"],
    ["transfer-scan", "--beta-min", "-1", "--beta-max", "1"],
    ["decay", "--T", "0.2", "--points", "40"],
    ["io-ratios", "--T", "0.2", "--points", "40"],
    ["resolvent-scan", "--betas", "10", "--probes", "1"],
    ["schrodinger-scan", "--betas", "100", "--probes", "1"],
    ["schrodinger-scan", "--betas", "-100", "--probes", "1"],
]


def test_commands_that_never_call_scipy_never_load_it(chain_json, tmp_path):
    # importing scipy.linalg and scipy.sparse takes about 0.35 s, ten times a
    # typical spectral command; only the code that calls scipy imports it
    probe = ("import json, sys\n"
             "import stringchain, stringchain.cli\n"
             "loaded = ['scipy' in sys.modules]\n"
             "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
             "    out = f'{sys.argv[3]}/{i}'\n"
             "    code = stringchain.cli.run([*argv, '--config', sys.argv[2], '--out', out])\n"
             "    loaded.append((argv[0], code, 'scipy' in sys.modules))\n"
             "print(json.dumps(loaded))")
    env = dict(os.environ, PYTHONPATH=str(Path(stringchain.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(SCIPY_FREE_RUNS), chain_json,
                          str(tmp_path)], env=env, capture_output=True, text=True,
                         check=True).stdout
    imported, *runs = json.loads(out.splitlines()[-1])
    assert imported is False
    assert runs == [[argv[0], 0, False] for argv in SCIPY_FREE_RUNS]


def test_schrodinger_scan_negative_log_grid(mono_json, tmp_path):
    # both ends negative: the log grid runs from -1000 to -100 with its sign restored
    out = tmp_path / "neg"
    assert run(["schrodinger-scan", "--config", mono_json, "--beta-min", "-1000",
                "--beta-max", "-100", "--count", "3", "--probes", "1", "--out", str(out)]) == 0
    rows = (out / "schrodinger_scan.csv").read_text().splitlines()[1:]
    betas = [float(r.split(",")[0]) for r in rows]
    assert betas == pytest.approx([-1000.0, -1000.0 / np.sqrt(10.0), -100.0], rel=1e-15)


@pytest.mark.parametrize("argv, name, results", [
    (["decay", "--T", "0.5", "--points", "40"], "run.json", {"fitted_rate", "extinction_time"}),
    (["schrodinger-decay", "--T", "0.1", "--points", "40"], "run.json",
     {"fitted_rate", "flux_balance_defect"}),
    (["spectrum", "--rect", "-2,-0.5,0,4", "--grid", "16,16"], "spectrum_summary.json",
     {"abscissa", "count", "rect", "failures"}),
    (["io-ratios", "--T", "1", "--points", "40"], "io_ratios.json",
     {"admissibility_ratio", "observability_ratio", "round_trip_time"}),
])
def test_side_files_hold_results_and_the_manifest_the_inputs(mono_json, tmp_path, argv, name,
                                                              results):
    out = tmp_path / "out"
    assert run([*argv, "--config", mono_json, "--out", str(out)]) == 0
    assert set(json.loads((out / name).read_text())) == results
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"densities": [1.0]}
    assert {k.lstrip("-").replace("-", "_") for k in argv[1::2]} <= set(manifest["options"])
