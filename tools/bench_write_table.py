"""Time chain_core.write_table per table cell on three tables the library builds.

    python3 tools/bench_write_table.py

Run from the root of a checkout.  The tables:
  - det_scan: the `gap` default's det_scan.csv (4,001 x 7) on the eight-edge
    chain of tools/compare_outputs.py;
  - transfer_scan: the `transfer-scan` default's table (10,001 x 5) on the
    same chain;
  - energy_trace: an energy trace of 160,001 rows (t, E, boundary_flux_cum),
    a damped leapfrog run on (1, 4) to T = 20 at 8 points per edge.
Each table is written once untimed (the first call builds the digit tables),
then REPEAT times into a temporary directory, each time to a new file, as
the CLI writes them (replacing a file first frees its pages, which takes
longer than writing a new one); the median wall time over the table's cells
is printed in ns per cell.  numpy and the standard library only.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stringchain as sc  # noqa: E402
from stringchain.chain_core import uniform_betas, write_table  # noqa: E402
from stringchain.transfer_function import transfer_values  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import CHAINS  # noqa: E402

REPEAT = 15  # timed writes per table


def tables() -> dict:
    """name -> (header, columns) of the three benchmark tables."""
    eight = sc.ChainConfig(CHAINS["eight-edge"])
    found = sc.imaginary_axis_gap(eight, "wave", (-200.0, 200.0), 1e-3, 100)
    pair = found.first
    det_scan = (["beta", "re_D", "im_D", "abs_D", "re_Dt", "im_Dt", "re_DDbar"],
                (found.rows, pair.d.real, pair.d.imag, np.abs(pair.d),
                 pair.d_tilde.real, pair.d_tilde.imag, pair.identity_value))
    betas = uniform_betas((-50.0, 50.0), 0.01)
    vals = transfer_values(eight, 1.0 + 1j * betas)
    transfer_scan = (["gamma", "beta", "re_H", "im_H", "abs_H"],
                     (np.full(betas.size, 1.0), betas, vals.real, vals.imag, np.abs(vals)))
    cfg = sc.ChainConfig((1.0, 4.0))
    init = sc.sample_state(cfg, 8, lambda x: sc.chain_core.smooth_bump(x, 0.2, 0.8))
    # dt = cfl h / 2 with h = 1/7: 20 / 160,000 steps
    trace, _ = sc.simulate_wave(cfg, init, sc.SimOptions(points_per_edge=8, T=20.0,
                                                          cfl=20.0 * 14 / 160_000))
    energy_trace = (["t", "E", "boundary_flux_cum"],
                    (trace.times, trace.energies, trace.boundary_flux))
    return {"det_scan": det_scan, "transfer_scan": transfer_scan, "energy_trace": energy_trace}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        for name, (header, columns) in tables().items():
            cells = min(len(c) for c in columns) * len(columns)
            write_table(path, header, *columns)
            times = []
            for _ in range(REPEAT):
                path.unlink()
                t0 = time.perf_counter()
                write_table(path, header, *columns)
                times.append(time.perf_counter() - t0)
            rows = cells // len(columns)
            print(f"{name:14s} {rows:7d} x {len(columns)}  "
                  f"{statistics.median(times) / cells * 1e9:7.1f} ns per cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
