"""One workload in one fresh interpreter: set up, run the job list, check every output.

Started by run.py, never by hand.  Set-up is the import of stringchain,
the building of the inputs (the chain configs) and a warm-up that runs
each subcommand of the workload once on a tiny input.  The worker then
runs the fixed job list as a closed loop with one client and writes its
figures to ``result.json`` in its directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _run_job(cli, job, out: Path):
    """Run one job, stdout captured; returns (result, seconds, error)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            if job.argv is not None:
                result = cli.run(job.argv + ["--out", str(out)])
            else:
                result = job.call()
            error = None
        except Exception as exc:  # a job that raises counts as failed, the run goes on
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return result, seconds, error


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    start = time.perf_counter()
    import stringchain.cli as cli

    import_s = time.perf_counter() - start

    import jobs
    import tracer as tracing

    work = Path(args.dir)
    (work / "configs").mkdir(parents=True, exist_ok=True)
    workload = jobs.build(args.workload, args.seed, args.seconds, work / "configs")
    warm_start = time.perf_counter()
    for job in workload.warmup:
        _, _, error = _run_job(cli, job, work / "warmup")
        if error:
            print(f"warm-up {job.name}: {error}", file=sys.stderr)
            return 1
    shutil.rmtree(work / "warmup", ignore_errors=True)
    warmup_s = time.perf_counter() - warm_start
    ready = time.monotonic()
    if args.setup_only:
        (work / "result.json").write_text(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ledger = {"roots_found": 0, "roots_counted": 0, "norm_est_over_fd": [],
              "bytes_written": 0, "import_s": import_s, "warmup_s": warmup_s}
    records = []
    for i, job in enumerate(workload.jobs):
        out = work / f"job{i}"
        out.mkdir()
        span_name = f"cli.{job.argv[0]}" if job.argv is not None else "job.library"
        span = tracer.span(span_name) if tracer else contextlib.nullcontext()
        with span:
            result, seconds, error = _run_job(cli, job, out)
        ledger["bytes_written"] += _bytes_under(out)
        if error:
            problems = [error]
        else:
            try:
                problems = job.check(out, result, ledger)
            except Exception:  # unreadable or missing output is a failed check
                problems = ["check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
        shutil.rmtree(out)
        records.append({"name": job.name, "seconds": seconds, "failed": bool(problems),
                        "expect_fail": job.expect_fail, "problems": problems})

    report = {
        "ready": ready,
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(work / "trace.json")
        report["layers"] = tracing.layer_metrics(tracer, ledger)
    (work / "result.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
