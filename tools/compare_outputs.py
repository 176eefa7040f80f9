"""Run the CLI at a base commit and in the working tree, and compare the outputs byte for byte.

    python3 tools/compare_outputs.py --base HEAD

Run from the root of a checkout.  The base commit is exported with
``git archive`` into a temporary directory, so the repository itself is
left as it is.  Every invocation in INVOCATIONS runs on every chain in
CHAINS, once with the base copy's ``src`` and once with the working
tree's, each into its own ``--out`` directory; the exit code, stdout and
stderr of each run are kept beside it in ``console.txt``, so the failing
invocations compare their error text too.  The two trees of
results are then compared file by file: ``timing.json`` (a wall time) is
skipped, and in ``manifest.json`` the run's own ``--out`` path is
replaced by ``<out>``.  Every differing file, or a file on one side only,
is printed, and the exit code is 1 if there is any.  A differing file
whose numeric cells have the same shape on both sides (the text between
the numbers is the same) is printed with the largest relative change,
|change - base| / |base|, and the largest absolute change,
|change - base|, of each numeric column that moved (a column that
reaches or crosses 0 reads a relative change of 1 or inf, whatever the
size of the move): a CSV column is named by its header, any other number
by the text that leads up to it on its line, numbers shown as #.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# one edge, a mismatched pair, three edges, the 8-edge chain of the
# benchmark's spectral_chain(np.random.default_rng(1), 8), and a 7-edge chain
# with two roots on the real axis, which spectrum lists in order of Re
CHAINS = {
    "one-edge": (1.0,),
    "two-edge": (1.0, 4.0),
    "three-edge": (1.0, 4.0, 0.5),
    "eight-edge": (3.876159240814838, 0.7905985476986265, 3.8074354267646644,
                   1.4193679450393204, 1.8374741836471586, 3.3538847268266565,
                   1.7844967613843548, 2.310976328773973),
    "seven-edge": (1.6996, 0.3399, 3.7271, 1.7759, 3.8453, 1.848, 3.1206),
}

_GAP = ["--beta-min", "-20", "--beta-max", "20", "--step", "0.01"]
INVOCATIONS = {
    "spectrum-wave": ["spectrum", "--rect", "-3,0,0,20", "--grid", "32,32"],
    "spectrum-wave-default-grid": ["spectrum", "--rect", "-3,0,0,20"],
    "spectrum-schrodinger": ["spectrum", "--which", "schrodinger", "--rect", "-3,0,0,60",
                             "--grid", "32,32"],
    # the spectral benchmark's grids: enough 8 x 8-cell blocks for the search to skip some
    "spectrum-wave-bench-grid": ["spectrum", "--rect", "-3,0,0,20", "--grid", "128,384"],
    "spectrum-schrodinger-bench-grid": ["spectrum", "--which", "schrodinger", "--rect",
                                        "-3,0,0,60", "--grid", "160,768"],
    "gap-wave": ["gap", *_GAP],
    "gap-schrodinger": ["gap", "--which", "schrodinger", *_GAP],
    "det-bound": ["det-bound", *_GAP],
    # the CLI defaults, as the spectral benchmark runs them: 4,001-row det_scan.csv tables
    "gap-defaults": ["gap"],
    "det-bound-defaults": ["det-bound"],
    "resolvent-scan": ["resolvent-scan", "--beta-max", "100", "--count", "4", "--probes", "2"],
    "schrodinger-scan": ["schrodinger-scan", "--beta-max", "1000", "--count", "4",
                         "--probes", "2"],
    # the resolvent benchmark's scans at the CLI defaults: betas up to 1e4 and 8 probes, so
    # stacks of one probe on grids of up to 17,502 points an edge (more where c_min < 1)
    "resolvent-scan-defaults": ["resolvent-scan"],
    "schrodinger-scan-defaults": ["schrodinger-scan"],
    "schrodinger-scan-negative": ["schrodinger-scan", "--beta-min", "-1000", "--beta-max",
                                  "-100", "--count", "3", "--probes", "2"],
    # 8 probes on the eight-edge chain: two stacks per beta (7 + 1)
    "schrodinger-scan-negative-stacks": ["schrodinger-scan", "--beta-min", "-10000",
                                         "--beta-max", "-100", "--count", "3"],
    # the resolvent benchmark's beta < 0 job: 20 betas, 8 probes
    "schrodinger-scan-negative-defaults": ["schrodinger-scan", "--beta-min", "-100",
                                           "--beta-max", "-10000"],
    # a scan keeps its grid tables while the point count stays and its probe bases while the
    # bands do: fixed points with moving bands (up to beta = 100, which 301 points resolve on
    # every chain here), and betas whose grids change and change back
    "resolvent-scan-fixed-points": ["resolvent-scan", "--points", "301", "--beta-max", "100",
                                    "--count", "6", "--probes", "3"],
    "resolvent-scan-grid-returns": ["resolvent-scan", "--betas", "10,2000,20,2000",
                                    "--probes", "2"],
    "transfer-scan": ["transfer-scan"],
    "decay": ["decay", "--T", "10", "--points", "100"],
    "decay-stride": ["decay", "--T", "10", "--points", "100", "--stride", "7"],
    # energies that decay below 1e-5, so %.17g's exponent form is written too
    "decay-exponent-form": ["decay", "--T", "20", "--points", "200"],
    "schrodinger-decay": ["schrodinger-decay", "--T", "0.5", "--points", "100", "--dt", "0.003"],
    "io-ratios": ["io-ratios", "--T", "2", "--points", "100"],
    "verify": ["verify"],
    # failures: an overflowing transfer value (exit 2), an empty beta range (exit 64) and a
    # Schrodinger beta of 0 (exit 64)
    "transfer-scan-overflow": ["transfer-scan", "--gamma", "800"],
    "gap-empty-range": ["gap", "--beta-min", "1", "--beta-max", "-1"],
    "schrodinger-scan-zero-beta": ["schrodinger-scan", "--betas", "100,0"],
    # a range of one beta, where half a step vanishes beside 1e15 (exit 0)
    "gap-one-beta": ["gap", "--beta-min", "1e15", "--beta-max", "1e15"],
}


def run_all(src: Path, dest: Path) -> None:
    """Every invocation on every chain with the package in src, into dest/<chain>/<invocation>."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for chain, densities in CHAINS.items():
        config = dest / chain / "config.json"
        config.parent.mkdir(parents=True)
        config.write_text(json.dumps({"densities": list(densities)}))
        for name, argv in INVOCATIONS.items():
            run_dir = dest / chain / name
            run_dir.mkdir()
            cmd = [sys.executable, "-m", "stringchain.cli", *argv, "--config", str(config),
                   "--out", str(run_dir / "out")]
            done = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, text=True)
            (run_dir / "console.txt").write_text(
                f"exit {done.returncode}\n{done.stdout}{done.stderr}")


def _normalised(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "manifest.json":  # the --out directory is the manifest's own
        data = data.replace(str(path.parent).encode(), b"<out>")
    return data


def compare_trees(base: Path, change: Path) -> list[str]:
    """Relative paths of the files that differ between two result trees, or that
    only one holds; timing.json is skipped, manifest.json compared as `_normalised`."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (base, change) for p in root.rglob("*") if p.is_file()})
    differ = []
    for name in names:
        if Path(name).name == "timing.json":
            continue
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()) or _normalised(a) != _normalised(b):
            differ.append(name)
    return differ


# a number standing alone (not part of a name or of a dotted version): an int, a float in
# Python's or JSON's spelling, or one of their infinities and NaNs
_NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     rb"|inf|nan|Infinity|NaN)(?![\w.])")


def _changes(x: float, y: float) -> tuple[float, float]:
    """(relative, absolute) change from x to y: 0 for equal cells, inf for a non-finite move."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    moved = abs(y - x)
    rel = moved / abs(x) if x else math.inf
    return tuple(v if math.isfinite(v) else math.inf for v in (rel, moved))


def column_moves(base: Path, change: Path):
    """{column: (largest relative change, largest absolute change) of its cells} of two
    files, compared as `_normalised`, or None if the text between their numbers differs.
    A CSV file's columns are its header's fields; elsewhere a number's column is the text
    before it on its line, with numbers shown as #."""
    a, b = _normalised(base), _normalised(change)
    if _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
        return None
    lines_a, lines_b = a.splitlines(), b.splitlines()
    header = lines_a[0].decode().split(",") if base.suffix == ".csv" and lines_a else None
    moves: dict[str, tuple[float, float]] = {}
    for line_a, line_b in zip(lines_a, lines_b):
        for x, y in zip(_NUMBER.finditer(line_a), _NUMBER.finditer(line_b)):
            lead = line_a[:x.start()]
            field = lead.count(b",")
            column = (header[field] if header and field < len(header)
                      else _NUMBER.sub(b"#", lead).decode().strip())
            rel, moved = _changes(float(x.group()), float(y.group()))
            old_rel, old_moved = moves.get(column, (0.0, 0.0))
            moves[column] = max(old_rel, rel), max(old_moved, moved)
    return moves


def column_changes(base: Path, change: Path):
    """{column: largest relative change of its cells}: `column_moves` without the
    absolute changes, or None."""
    moves = column_moves(base, change)
    return None if moves is None else {column: rel for column, (rel, _) in moves.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="commit to compare against, e.g. HEAD")
    args = ap.parse_args(argv)
    archive = subprocess.run(["git", "archive", args.base], check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "checkout", filter="data")
        run_all(tmp / "checkout" / "src", tmp / "base")
        run_all(Path.cwd() / "src", tmp / "change")
        differ = compare_trees(tmp / "base", tmp / "change")
        for name in differ:
            a, b = tmp / "base" / name, tmp / "change" / name
            moved = column_moves(a, b) if a.is_file() and b.is_file() else None
            if moved is None:
                print(f"differs: {name}")
            else:
                cells = ", ".join(f"{column or '-'} {rel:.3g} (abs {by:.3g})"
                                  for column, (rel, by) in moved.items() if by)
                print(f"differs: {name} (largest relative and absolute change by column: "
                      f"{cells or 'none'})")
    print(f"{len(CHAINS) * len(INVOCATIONS)} runs on each side, {len(differ)} files differ "
          "(timing.json skipped)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
