import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, side, trace, rate, time, failed):
    metrics = {"rate": {"value": rate, "unit": "1/s"}, "time": {"value": time, "unit": "s"}}
    return {"workload": "w", "seed": seed, "trace": trace, "side": side,
            "result": {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}}


def test_summary_records_medians_wins_failures_and_bounds():
    bench_pairs = _load_tool()
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "rate", "better": "higher", "bound": 0.25},
                           {"name": "time", "better": "lower", "bound": 0.1}]}
    runs = []
    for i in range(10):
        rate = 1.0 + i
        time = 1.0 + 0.1 * i
        runs.append(_run(101 + i, "base", 0, rate, time, failed=3))
        # the change raises the rate on every pair but the first (a tie)
        # and takes 20% longer on every pair
        runs.append(_run(101 + i, "change", 0, rate + (i > 0), 1.2 * time, failed=2))
    # a traced pair is left out of every figure
    runs.append(_run(101, "base", 1, 1e6, 1e6, failed=50))
    runs.append(_run(101, "change", 1, 1e-6, 1e-6, failed=50))

    summary = bench_pairs.summarize({"runs": runs}, spec)["w"]

    assert summary["jobs"] == {"base": {"attempted": 1000, "failed": 30},
                               "change": {"attempted": 1000, "failed": 20}}
    rate, time = summary["rate"], summary["time"]
    assert rate["pairs"] == time["pairs"] == 10
    assert rate["base"]["median"] == pytest.approx(5.5)
    assert rate["change"]["median"] == pytest.approx(6.5)
    assert rate["change_won"] == 9
    assert rate["relative_change"] == pytest.approx(-1.0 / 5.5)  # better: negative
    assert not rate["worse_than_bound"]
    assert time["base"]["median"] == pytest.approx(1.45)
    assert time["change"]["median"] == pytest.approx(1.74)
    assert time["change_won"] == 0
    assert time["relative_change"] == pytest.approx(0.2)  # worse: positive
    assert time["worse_than_bound"]


def test_summary_judges_every_layer_by_its_traced_medians():
    bench_pairs = _load_tool()
    layers = {"slow.s": "lower", "noise.s": "lower", "rate": "higher", "new.calls": "lower",
              "idle.s": "lower"}
    spec = {"workloads": [{"name": "w"}], "end_to_end": [],
            "per_layer": [{"name": n, "better": b} for n, b in layers.items()]}
    # per layer, three traced pairs (seeds 101-103) of base and change values
    values = {"slow.s": ([1.0, 1.0, 5.0], [1.2, 1.15, 1.0]),  # median +15%, one pair won
              "noise.s": ([1.0, 2.0, 3.0], [0.9, 2.1, 3.5]),  # median +5%
              "rate": ([10.0, 10.0, 10.0], [8.5, 8.8, 12.0]),  # median 8.8: 12% worse
              "new.calls": ([0, 0, 0], [4, 4, 4]),  # no base work: any is worse
              "idle.s": ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])}
    runs = []
    for i in range(3):
        for side, k in (("base", 0), ("change", 1)):
            metrics = {n: {"value": v[k][i], "unit": "s"} for n, v in values.items()}
            runs.append({"workload": "w", "seed": 101 + i, "trace": 1, "side": side,
                         "result": {"attempted": 10, "failed": 0, "metrics": metrics}})
    # an untraced pair is left out of the per-layer figures
    runs += [_run(101, side, 0, 1.0, 1.0, failed=0) for side in ("base", "change")]
    for r in runs[-2:]:
        r["result"]["metrics"]["slow.s"] = {"value": 1e6 if r["side"] == "change" else 1.0}

    summary = bench_pairs.summarize({"runs": runs}, spec)["w"]

    per_layer = summary["per_layer"]
    assert set(per_layer) == set(layers)
    slow = per_layer["slow.s"]
    assert slow["pairs"] == 3 and slow["change_won"] == 1
    assert slow["base"]["median"] == 1.0 and slow["change"]["median"] == 1.15
    assert slow["relative_change"] == pytest.approx(0.15)
    assert per_layer["noise.s"]["relative_change"] == pytest.approx(0.05)
    assert per_layer["rate"]["relative_change"] == pytest.approx(0.12)  # lower rate: worse
    assert per_layer["new.calls"]["relative_change"] is None
    assert per_layer["idle.s"]["relative_change"] is None
    flagged = {n for n, e in per_layer.items() if e["worse_than_rule"]}
    assert flagged == {"slow.s", "rate", "new.calls"}

    lines = bench_pairs.report({"w": summary}, spec)
    layer_lines = [line for line in lines if line.startswith("w layer ")]
    assert [line.split()[2].rstrip(":") for line in layer_lines] == ["slow.s", "rate", "new.calls"]
    assert "worse by +15.0%" in layer_lines[0] and "worse from a base of 0" in layer_lines[2]


def _throwaway_repo(repo: Path, run_py: str, files: dict) -> None:
    """A committed repository of files with one workload, whose benchmark is run_py."""
    for name, text in {"perfbench/run.py": run_py, **files}.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "run_seconds": 1, "end_to_end": []}))
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "bench"]):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)


def test_record_counts_the_src_lines_of_base_and_working_tree(tmp_path):
    # a benchmark that reports one job at once; the working tree adds two lines
    repo = tmp_path / "repo"
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    _throwaway_repo(repo, f"print({json.dumps(result)!r})\n",
                    {"src/pkg/a.py": "x = 1\ny = 2\n", "src/b.py": "z = 3\n",
                     "src/notes.txt": "not python\n", "tools/c.py": "outside src\n"})
    (repo / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\nw = 4\nv = 5\n")
    subprocess.run([sys.executable, str(_TOOL), "--base", "HEAD", "--out", "out.json"],
                   cwd=repo, check=True, capture_output=True)
    record = json.loads((repo / "out.json").read_text())
    assert record["src_lines"] == {"base": 3, "change": 5}
    assert record["change"].endswith(" with uncommitted changes")


def test_change_side_runs_in_a_copy_of_the_working_tree(tmp_path):
    # the benchmark reports where it runs, which files it sees and what tracked.txt says
    repo = tmp_path / "repo"
    names = ("untracked.txt", "ignored/cache.txt", "deleted.txt")
    run_py = ("import json, os\n"
              f"seen = {{n: {{'value': int(os.path.exists(n))}} for n in {names!r}}}\n"
              "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': seen,"
              " 'cwd': os.getcwd(), 'tracked': open('tracked.txt').read()}))\n")
    _throwaway_repo(repo, run_py, {".gitignore": "ignored/\n", "tracked.txt": "base\n",
                                   "deleted.txt": "deleted in the working tree\n"})
    (repo / "tracked.txt").write_text("changed\n")
    (repo / "untracked.txt").write_text("new\n")
    (repo / "ignored").mkdir()
    (repo / "ignored" / "cache.txt").write_text("left over\n")
    (repo / "deleted.txt").unlink()
    subprocess.run([sys.executable, str(_TOOL), "--base", "HEAD", "--out", "out.json"],
                   cwd=repo, check=True, capture_output=True)
    results = {r["side"]: r["result"] for r in json.loads((repo / "out.json").read_text())["runs"]}
    seen = {side: {n: m["value"] for n, m in r["metrics"].items()} for side, r in results.items()}
    assert seen == {
        "base": {"untracked.txt": 0, "ignored/cache.txt": 0, "deleted.txt": 1},
        "change": {"untracked.txt": 1, "ignored/cache.txt": 0, "deleted.txt": 0}}
    assert (results["base"]["tracked"], results["change"]["tracked"]) == ("base\n", "changed\n")
    for result in results.values():  # both copies are gone with the tool
        assert not Path(result["cwd"]).exists()


def test_sigterm_removes_the_base_checkout_and_stops_the_run(tmp_path):
    # a throwaway repository whose benchmark only records its pid and sleeps
    repo, tmpdir, pidfile = tmp_path / "repo", tmp_path / "tmp", tmp_path / "bench.pid"
    tmpdir.mkdir()
    _throwaway_repo(repo, f"import os, time\nopen({str(pidfile)!r}, 'w').write(str(os.getpid()))"
                          "\ntime.sleep(120)\n", {})
    env = {**os.environ, "TMPDIR": str(tmpdir)}
    tool = subprocess.Popen([sys.executable, str(_TOOL), "--base", "HEAD", "--out", "out.json"],
                            cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    pid = None
    try:
        deadline = time.monotonic() + 60
        while not (pidfile.exists() and pidfile.read_text()):
            assert tool.poll() is None, tool.stderr.read()
            assert time.monotonic() < deadline, "the benchmark never started"
            time.sleep(0.05)
        pid = int(pidfile.read_text())
        assert list(tmpdir.glob("tmp*")), "the base checkout is not in TMPDIR"
        tool.send_signal(signal.SIGTERM)
        tool.wait(timeout=30)
        assert not list(tmpdir.glob("tmp*"))
        deadline = time.monotonic() + 10
        while _alive(pid):
            assert time.monotonic() < deadline, "the sleeping benchmark outlived the tool"
            time.sleep(0.05)
    finally:
        tool.kill()
        tool.wait()
        if pid is not None and _alive(pid):
            os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
