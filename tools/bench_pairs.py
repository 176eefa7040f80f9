"""Alternate perfbench runs between a base commit and the working tree.

    python3 tools/bench_pairs.py --base HEAD --out BENCH_10.json

Run from the root of a checkout.  The base commit is exported with
``git archive`` into a temporary directory, and the working tree is
copied beside it: its tracked files and its untracked files that are
not ignored, as they are on disk.  So both sides start from fresh
trees, without the working tree's build and benchmark leftovers, and
the repository itself is left as it is.  Each pair runs
``python3 perfbench/run.py`` in the base copy and in the working-tree
copy with the same seed; odd pairs run the working tree first.  Every
workload in BENCHMARK.json gets ten untraced pairs (seeds 101-110) and
three traced pairs (seeds 101-103), and every run lasts BENCHMARK.json's
run_seconds.
The output file holds every result line, both commits, the sha256 of
``git diff --binary HEAD`` (so a file measured on uncommitted changes
names the tree it measured), the numpy and scipy versions, the CPU
count, and under ``"src_lines"`` the lines of ``src/**/*.py`` in the
base copy and in the working-tree copy.  Its ``"summary"`` gives, per
workload of the untraced pairs, each side's total attempted and failed
jobs (under ``"jobs"``) and, per end-to-end metric, each side's median
and quartiles (``statistics.quantiles``, exclusive method), the number
of pairs the change won (ties count for neither side), the signed
relative change of the medians (positive means worse) and whether that
change is worse than the metric's ``bound`` in BENCHMARK.json; it is
printed at the end too.
Under ``"per_layer"`` it gives the same figures for every per-layer
metric of BENCHMARK.json over the traced pairs, whose spans measure the
layers, and whether the change median is worse than the base median by
more than 10% (the relative change is null where the base median is 0;
any worse value then counts); every such layer is printed.
A SIGTERM ends the tool as an exception would: the running benchmark
is killed and the temporary copies removed.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PAIRS = 10
TRACED_PAIRS = 3
FIRST_SEED = 101
LAYER_RULE = 0.10  # a layer this much slower (or otherwise worse) must be explained


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def _run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked files and its untracked files that are not
    ignored, as they are on disk, into dest."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split(b"\0")):
        path = Path(os.fsdecode(name))
        if path.is_file():  # a tracked file deleted in the working tree is left out
            (dest / path).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest / path)


def src_lines(root: Path) -> int:
    """Lines of src/**/*.py under root, counted as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src").rglob("*.py"))


def _paired(runs: list, name: str) -> list:
    """(base, change) values of one metric, one pair per seed that both sides report."""
    by_seed: dict = {}
    for r in runs:
        metric = r["result"]["metrics"].get(name)
        if metric is not None:
            by_seed.setdefault(r["seed"], {})[r["side"]] = metric["value"]
    return [(p["base"], p["change"]) for p in by_seed.values() if len(p) == 2]


def _compare(pairs: list, better: str) -> dict:
    """Pairs, pairs the change won (ties count for neither side), each side's median
    and quartiles, and the signed relative change of the medians (positive means
    worse; None where the base median is 0)."""
    sign = 1 if better == "higher" else -1
    entry = {"pairs": len(pairs), "change_won": sum(sign * (c - b) > 0 for b, c in pairs)}
    for i, side in enumerate(("base", "change")):
        q1, median, q3 = statistics.quantiles([p[i] for p in pairs], n=4)
        entry[side] = {"median": median, "q1": q1, "q3": q3}
    base, change = entry["base"]["median"], entry["change"]["median"]
    entry["relative_change"] = -sign * (change - base) / base if base else None
    return entry


def summarize(record: dict, spec: dict) -> dict:
    """Job totals per workload; per end-to-end metric (untraced pairs) and per-layer
    metric (traced pairs) the medians, quartiles, pairs won and relative change,
    judged against the metric's bound or against LAYER_RULE."""
    summary: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        ours = [r for r in record["runs"] if r["workload"] == workload]
        runs = [r for r in ours if not r["trace"]]
        summary[workload] = {"jobs": {
            side: {key: sum(r["result"][key] for r in runs if r["side"] == side)
                   for key in ("attempted", "failed")}
            for side in ("base", "change")}}
        for metric in spec["end_to_end"]:
            entry = _compare(_paired(runs, metric["name"]), metric["better"])
            entry["worse_than_bound"] = entry["relative_change"] > metric["bound"]
            summary[workload][metric["name"]] = entry
        layers = summary[workload]["per_layer"] = {}
        traced = [r for r in ours if r["trace"]]
        for metric in spec.get("per_layer", []):
            pairs = _paired(traced, metric["name"])
            if len(pairs) < 2:  # too few for quartiles
                continue
            entry = layers[metric["name"]] = _compare(pairs, metric["better"])
            rel, change = entry["relative_change"], entry["change"]["median"]
            sign = 1 if metric["better"] == "higher" else -1
            entry["worse_than_rule"] = rel > LAYER_RULE if rel is not None else sign * change < 0
    return summary


def report(summary: dict, spec: dict) -> list[str]:
    """The printed summary: job failures, every end-to-end metric, and every layer
    worse than LAYER_RULE."""
    lines = []
    for workload, entries in summary.items():
        lines.append(f"{workload} jobs failed: " + ", ".join(
            f"{side} {j['failed']} of {j['attempted']}" for side, j in entries["jobs"].items()))
        for name in (m["name"] for m in spec["end_to_end"]):
            e = entries[name]
            b, c = e["base"], e["change"]
            lines.append(f"{workload} {name}: base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
                         f" change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                         f" change won {e['change_won']}/{e['pairs']}"
                         f" worse by {e['relative_change']:+.1%}"
                         + (" BEYOND BOUND" if e["worse_than_bound"] else ""))
        for name, e in entries["per_layer"].items():
            if e["worse_than_rule"]:
                rel = e["relative_change"]
                worse = "from a base of 0" if rel is None else f"by {rel:+.1%}"
                lines.append(f"{workload} layer {name}: base {e['base']['median']:.4g}"
                             f" change {e['change']['median']:.4g} worse {worse}, beyond"
                             f" {LAYER_RULE:.0%} (medians of {e['pairs']} traced pairs)")
    return lines


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
    plan += [(w, FIRST_SEED + i, 1) for w in workloads for i in range(TRACED_PAIRS)]
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
        sides = [("base", Path(tmp) / "base"), ("change", Path(tmp) / "change")]
        with tarfile.open(fileobj=io.BytesIO(_git("archive", args.base))) as tar:
            tar.extractall(sides[0][1], filter="data")
        copy_working_tree(sides[1][1])
        record["src_lines"] = {side: src_lines(root) for side, root in sides}
        for i, (workload, seed, trace) in enumerate(plan):
            for side, root in sides[::-1] if i % 2 else sides:
                result = _run(root, workload, seed, spec["run_seconds"], trace)
                record["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                                       "side": side, "result": result})
                print(workload, seed, trace, side, json.dumps(result)[:100], flush=True)
    record["summary"] = summarize(record, spec)
    print("\n".join(report(record["summary"], spec)))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
