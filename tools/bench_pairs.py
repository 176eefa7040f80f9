"""Alternate perfbench runs between a base commit and the working tree.

    python3 tools/bench_pairs.py --base HEAD --out BENCH_10.json

Run from the root of a checkout.  The base commit is exported with
``git archive`` into a temporary directory, so the repository itself is
left as it is.  Each pair runs ``python3 perfbench/run.py`` in the base
copy and in the working tree with the same seed; odd pairs run the
working tree first.  Every workload in BENCHMARK.json gets ten untraced
pairs (seeds 101-110) and one traced pair (seed 101), and every run lasts
BENCHMARK.json's run_seconds.
The output file holds every result line, both commits, the sha256 of
``git diff --binary HEAD`` (so a file measured on uncommitted changes
names the tree it measured), the numpy and scipy versions and the CPU
count.  Its ``"summary"`` gives, per workload of the untraced pairs,
each side's total attempted and failed jobs (under ``"jobs"``) and, per
end-to-end metric, each side's median and quartiles
(``statistics.quantiles``, exclusive method), the number of pairs the
change won (ties count for neither side), the signed relative change of
the medians (positive means worse) and whether that change is worse than
the metric's ``bound`` in BENCHMARK.json; it is printed at the end too.
A SIGTERM ends the tool as an exception would: the running benchmark
is killed and the temporary checkout removed.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PAIRS = 10
FIRST_SEED = 101


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def _run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(record: dict, spec: dict) -> dict:
    """Job totals per workload; median, quartiles, pairs won and the relative
    change against its bound per workload and end-to-end metric."""
    summary: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [r for r in record["runs"] if r["workload"] == workload and not r["trace"]]
        summary[workload] = {"jobs": {
            side: {key: sum(r["result"][key] for r in runs if r["side"] == side)
                   for key in ("attempted", "failed")}
            for side in ("base", "change")}}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            by_seed: dict = {}
            for r in runs:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
            pairs = [(p["base"], p["change"]) for p in by_seed.values() if len(p) == 2]
            entry = {"pairs": len(pairs),
                     "change_won": sum(sign * (c - b) > 0 for b, c in pairs)}
            for i, side in enumerate(("base", "change")):
                values = [p[i] for p in pairs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                entry[side] = {"median": median, "q1": q1, "q3": q3}
            base = entry["base"]["median"]
            entry["relative_change"] = -sign * (entry["change"]["median"] - base) / base
            entry["worse_than_bound"] = entry["relative_change"] > metric["bound"]
            summary[workload][name] = entry
    return summary


def _exit_on_sigterm(signum, frame):
    # under the default handler the process dies at once: the child keeps
    # running and TemporaryDirectory never removes the base checkout
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="commit to compare against, e.g. HEAD")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    plan = [(w, FIRST_SEED + i, 0) for w in workloads for i in range(PAIRS)]
    plan += [(w, FIRST_SEED, 1) for w in workloads]
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        check=True, capture_output=True, text=True).stdout.split()
    dirty = _git("status", "--porcelain", "--untracked-files=no").strip()
    record = {
        "base": _git("rev-parse", args.base).decode().strip(),
        "change": _git("rev-parse", "HEAD").decode().strip()
        + (" with uncommitted changes" if dirty else ""),
        "change_diff_sha256": hashlib.sha256(_git("diff", "--binary", "HEAD")).hexdigest(),
        "numpy": versions[0],
        "scipy": versions[1],
        "nproc": os.cpu_count(),
        "seconds": spec["run_seconds"],
        "runs": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", args.base))) as tar:
            tar.extractall(tmp, filter="data")
        sides = [("base", Path(tmp)), ("change", Path.cwd())]
        for i, (workload, seed, trace) in enumerate(plan):
            for side, root in sides[::-1] if i % 2 else sides:
                result = _run(root, workload, seed, spec["run_seconds"], trace)
                record["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                                       "side": side, "result": result})
                print(workload, seed, trace, side, json.dumps(result)[:100], flush=True)
    record["summary"] = summarize(record, spec)
    for workload, entries in record["summary"].items():
        print(f"{workload} jobs failed: " + ", ".join(
            f"{side} {j['failed']} of {j['attempted']}" for side, j in entries["jobs"].items()))
        for name in (m["name"] for m in spec["end_to_end"]):
            e = entries[name]
            b, c = e["base"], e["change"]
            print(f"{workload} {name}: base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
                  f" change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f" change won {e['change_won']}/{e['pairs']}"
                  f" worse by {e['relative_change']:+.1%}"
                  + (" BEYOND BOUND" if e["worse_than_bound"] else ""))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
