"""Benchmark entry point for stringchain.

    python3 perfbench/run.py --workload spectral|resolvent|timedomain \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
interpreter (worker.py) with BLAS pinned to one thread and the package
taken from ``src/``.  An untraced run starts the worker SETUP_LAUNCHES
times: every launch times its set-up, the last one also runs the job
list, and ``setup_s`` is the median over the launches.  A traced run
starts one worker with spans around the package's public functions and
reports the per-layer figures instead.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectral", "resolvent", "timedomain")
SETUP_LAUNCHES = 5
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("STRINGCHAIN_JOBS", None)  # it would override --jobs 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every launch compiles alike; nothing lands in src/
    return env


def _launch(args, root: Path, work: Path, deadline: float, extra: list[str]) -> tuple[float, dict]:
    """Start one worker, wait for it, return (launch time, its result.json)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--dir", str(work), *extra]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(work / "result.json") as fh:
        return launched, json.load(fh)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stringchain" / "cli.py").is_file():
        print("run.py: no src/stringchain here; run from the root of a stringchain checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    setups = []
    launches = 1 if args.trace else SETUP_LAUNCHES
    try:
        for i in range(launches - 1):
            launched, res = _launch(args, root, base / f"setup{i}", deadline, ["--setup-only"])
            setups.append(res["ready"] - launched)
        launched, res = _launch(args, root, base / "run", deadline,
                                ["--trace"] if args.trace else [])
        setups.append(res["ready"] - launched)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    jobs = res["jobs"]
    seconds = [j["seconds"] for j in jobs]
    unexpected = [j for j in jobs if j["failed"] and not j["expect_fail"]]
    for j in jobs:
        if j["failed"]:
            kind = "kept-failing" if j["expect_fail"] else "FAILED"
            print(f"{kind}: {j['name']}: {'; '.join(j['problems'])}")
    tail = ""
    if len(jobs) >= 100:
        tail = f", p90 {statistics.quantiles(seconds, n=10)[-1]:.4g} s"
    print(f"{args.workload}: {len(jobs)} jobs in {sum(seconds):.3f} s, p50 "
          f"{statistics.median(seconds):.4g} s{tail}; set-up launches "
          + ", ".join(f"{s:.3f}" for s in setups))
    if args.trace:
        metrics = {k: _metric(v, _unit(k)) for k, v in res["layers"].items()}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "jobs_per_s": _metric(len(jobs) / sum(seconds), "1/s"),
            "job_s.p50": _metric(statistics.median(seconds), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if j["failed"]),
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s", "s_per_beta")):
        return "s"
    if name.endswith("ns_per_lambda") or name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("us_per_scalar_call") or name.endswith("us_per_step"):
        return "us"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_per_counted", "norm_est_over_fd")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
