"""Command-line front end: scans, simulations, root searches, verification.

Every subcommand reads the chain from a JSON config {"densities": [...]},
writes its results as CSV next to a manifest.json that pins the exact
inputs (command, options, seed) and a timing.json with the wall time,
and prints a one-line summary.  Exit codes: 0 success, 1 validation
failure, 2 numerical failure, 64 usage error, 65 config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .chain_core import (
    ChainConfig,
    sample_function,
    sample_state,
    smooth_bump,
    uniform_grids,
    validate_config,
)
from .errors import ChainError, ConfigError, UsageError
from .oracle import fd_bvp_solve, oracle_transfer_value
from .resolvent import (
    random_probe,
    schrodinger_norm_scan,
    schrodinger_resolvent,
    wave_resolvent,
    wave_resolvent_norm_scan,
)
from .spectrum import char_det_schrodinger, find_eigenvalues, imaginary_axis_gap
from .timesim import SimOptions, fit_decay_rate, simulate_schrodinger, simulate_wave
from .transfer_function import (
    admissibility_ratio,
    observability_ratio,
    round_trip_time,
    transfer_value,
    transfer_values,
)
from .transfer_matrix import (
    analytic_gap_bound,
    boundary_matrices,
    det_lower_bound,
    det_pair,
    exp_hyp,
    exp_osc,
)
from .chain_core import l2_norm
from .errors import InsufficientDecay

_G = "%.17g"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-2,0,0,30" (rectangles, beta lists) must parse as values
        self._negative_number_matcher = re.compile(r"^-\d[\d.,eE+\-]*$")

    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return _G % x


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_config(path: str) -> ChainConfig:
    try:
        with open(path) as fh:
            cfg = ChainConfig.from_json(fh.read())
        return validate_config(cfg)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    except ChainError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def _jobs(args) -> int:
    env = os.environ.get("STRINGCHAIN_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"STRINGCHAIN_JOBS={env!r} is not an integer") from None
    if args.jobs is not None:
        return max(1, args.jobs)
    return os.cpu_count() or 1


def _manifest(args, cfg: ChainConfig, outputs, started, extra=None):
    """Write manifest.json (inputs and results only, so equal runs give equal
    bytes) and timing.json (the wall time) into the output directory."""
    options = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "config") and not callable(v)
    }
    data = {
        "command": args.command,
        "config": {"densities": list(cfg.densities)},
        "options": options,
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", 0),
        "version": __version__,
    }
    if extra:
        data.update(extra)
    out = Path(args.out)
    with open(out / "timing.json", "w") as fh:
        json.dump({"wall_time_s": time.perf_counter() - started}, fh, indent=2)
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, default=str)
    return path


def _parse_floats(text: str, count: int, what: str):
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != count:
        raise UsageError(f"{what} needs {count} comma-separated numbers")
    return [float(p) for p in parts]


def _require_positive(args, *names) -> None:
    """Usage error unless each named option is > 0 (a NaN fails too)."""
    for name in names:
        value = getattr(args, name)
        if not value > 0:
            raise UsageError(f"--{name.replace('_', '-')} must be positive, got {value}")


def _require_points(args, least: int) -> None:
    """Usage error unless --points, when given, is at least `least`."""
    if args.points is not None and args.points < least:
        raise UsageError(f"--points must be at least {least}, got {args.points}")


def _require_cfl(args) -> None:
    if not 0.0 < args.cfl <= 1.0:
        raise UsageError(f"--cfl must be in (0, 1], got {args.cfl}")


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _check_beta_range(args) -> None:
    _require_positive(args, "step")
    if not args.beta_max >= args.beta_min:
        raise UsageError(f"--beta-max {args.beta_max} is below --beta-min {args.beta_min}")


def _beta_range(args) -> np.ndarray:
    """--beta-min to --beta-max in --step increments; never empty."""
    _check_beta_range(args)
    return np.arange(args.beta_min, args.beta_max + 0.5 * args.step, args.step)


def _beta_grid(args) -> np.ndarray:
    if args.betas:
        try:
            return np.array([float(b) for b in args.betas.split(",")])
        except ValueError:
            raise UsageError(f"--betas {args.betas!r} is not a comma-separated list") from None
    lo, hi, cnt = args.beta_min, args.beta_max, args.count
    if cnt < 1:
        raise UsageError(f"--count must be at least 1, got {cnt}")
    if lo == 0 or hi == 0 or (lo < 0) != (hi < 0):
        raise UsageError("log beta grid needs endpoints of one sign, away from 0")
    sgn = 1.0 if lo > 0 else -1.0
    return sgn * np.logspace(np.log10(abs(lo)), np.log10(abs(hi)), cnt)


def _scan_chunk_wave(payload):
    densities, betas, probes, points, seed = payload
    cfg = ChainConfig(densities=tuple(densities))
    return wave_resolvent_norm_scan(cfg, betas, probes, points_per_edge=points, seed=seed)


def _scan_chunk_schrodinger(payload):
    densities, betas, probes, points, seed = payload
    cfg = ChainConfig(densities=tuple(densities))
    return schrodinger_norm_scan(cfg, betas, probes, points_per_edge=points, seed=seed)


def _run_scan(worker, cfg, betas, probes, points, seed, jobs):
    if jobs <= 1 or len(betas) < 2:
        return worker((cfg.densities, list(betas), probes, points, seed))
    chunks = [list(c) for c in np.array_split(np.asarray(betas), min(jobs, len(betas)))]
    payloads = [(cfg.densities, c, probes, points, seed) for c in chunks if c]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(worker, payloads))
    flat = [pt for chunk in results for pt in chunk]
    return sorted(flat, key=lambda pt: pt.beta)


def _cmd_spectrum(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    rect = tuple(_parse_floats(args.rect, 4, "--rect"))
    grid = tuple(int(v) for v in _parse_floats(args.grid, 2, "--grid"))
    if min(grid) < 16:
        raise UsageError(f"--grid needs at least 16 x 16 points, got {args.grid}")
    eig = find_eigenvalues(cfg, rect, args.which, grid=grid, tol=args.tol)
    out = Path(args.out)
    roots_csv = out / "roots.csv"
    _write_csv(
        roots_csv,
        ["re", "im", "residual"],
        [[_fmt(z.real), _fmt(z.imag), _fmt(r)] for z, r in zip(eig.eigenvalues, eig.residuals)],
    )
    summary = {
        "abscissa": eig.abscissa,
        "count": int(eig.eigenvalues.size),
        "rect": list(eig.search_rect),
        "tol": args.tol,
        "failures": len(eig.failures),
    }
    summary_path = out / "spectrum_summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    _manifest(args, cfg, [roots_csv, summary_path], started)
    print(
        f"spectrum: {eig.eigenvalues.size} roots in rect {eig.search_rect}, "
        f"abscissa = {eig.abscissa}, failures = {len(eig.failures)}"
    )
    if eig.failures:
        for f in eig.failures:
            print(f"  unrefined candidate near {f['start']}: residual {f['residual']:.3g}")
        return 2
    return 0


def _det_scan_rows(cfg, betas, stride):
    betas = betas[::stride]
    pair = det_pair(cfg, 1j * betas)
    ident = pair.identity_value
    rows = []
    for i, b in enumerate(betas):
        d, dt_ = pair.d[i], pair.d_tilde[i]
        rows.append(
            [_fmt(b), _fmt(d.real), _fmt(d.imag), _fmt(abs(d)),
             _fmt(dt_.real), _fmt(dt_.imag), _fmt(ident[i])]
        )
    return rows


def _cmd_gap(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    _check_beta_range(args)
    _require_positive(args, "csv_stride")
    gap = imaginary_axis_gap(cfg, args.which, (args.beta_min, args.beta_max), args.step)
    out = Path(args.out)
    outputs = []
    betas = _beta_range(args)  # after the scan: held through it, it raises the peak memory
    if args.which == "wave":
        scan_csv = out / "det_scan.csv"
        _write_csv(
            scan_csv,
            ["beta", "re_D", "im_D", "abs_D", "re_Dt", "im_Dt", "re_DDbar"],
            _det_scan_rows(cfg, betas, args.csv_stride),
        )
        outputs.append(scan_csv)
        bound = analytic_gap_bound(cfg)
        print(f"gap: min |det| = {gap:.6g} over [{args.beta_min}, {args.beta_max}], "
              f"analytic bound {bound:.6g}")
    else:
        scan_csv = out / "det_scan.csv"
        vals = char_det_schrodinger(cfg, 1j * betas[:: args.csv_stride])
        _write_csv(
            scan_csv,
            ["beta", "re_D", "im_D", "abs_D"],
            [[_fmt(b), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
             for b, v in zip(betas[:: args.csv_stride], np.atleast_1d(vals))],
        )
        outputs.append(scan_csv)
        print(f"gap: min |det| = {gap:.6g} over [{args.beta_min}, {args.beta_max}]")
    _manifest(args, cfg, outputs, started, extra={"gap": gap})
    return 0


def _cmd_det_bound(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    betas = _beta_range(args)
    _require_positive(args, "csv_stride")
    gamma_analytic, gamma_numeric = det_lower_bound(cfg, betas)
    out = Path(args.out)
    scan_csv = out / "det_scan.csv"
    _write_csv(
        scan_csv,
        ["beta", "re_D", "im_D", "abs_D", "re_Dt", "im_Dt", "re_DDbar"],
        _det_scan_rows(cfg, betas, args.csv_stride),
    )
    _manifest(args, cfg, [scan_csv], started,
              extra={"gamma_analytic": gamma_analytic, "gamma_numeric": gamma_numeric})
    ok = gamma_numeric >= gamma_analytic - 1e-9
    print(f"det-bound: gamma_numeric = {gamma_numeric:.6g}, gamma_analytic = {gamma_analytic:.6g} "
          f"({'ok' if ok else 'VIOLATED'})")
    return 0 if ok else 1


def _cmd_resolvent_scan(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    _require_positive(args, "probes")
    _require_points(args, 2)
    betas = _beta_grid(args)
    points = _run_scan(_scan_chunk_wave, cfg, betas, args.probes, args.points, args.seed, _jobs(args))
    out = Path(args.out)
    scan_csv = out / "resolvent_scan.csv"
    _write_csv(
        scan_csv,
        ["beta", "norm_estimate", "probes", "residual_max"],
        [[_fmt(p.beta), _fmt(p.norm_estimate), p.probes, _fmt(p.residual_max)] for p in points],
    )
    _manifest(args, cfg, [scan_csv], started)
    ests = [p.norm_estimate for p in points]
    print(f"resolvent-scan: {len(points)} frequencies, estimates in "
          f"[{min(ests):.4g}, {max(ests):.4g}]")
    return 0


def _cmd_schrodinger_scan(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    _require_positive(args, "probes")
    _require_points(args, 2)
    betas = _beta_grid(args)
    points = _run_scan(_scan_chunk_schrodinger, cfg, betas, args.probes, args.points,
                       args.seed, _jobs(args))
    out = Path(args.out)
    scan_csv = out / "schrodinger_scan.csv"
    _write_csv(
        scan_csv,
        ["beta", "norm_estimate", "probes", "residual_max"],
        [[_fmt(p.beta), _fmt(p.norm_estimate), p.probes, _fmt(p.residual_max)] for p in points],
    )
    _manifest(args, cfg, [scan_csv], started)
    ests = [p.norm_estimate for p in points]
    print(f"schrodinger-scan: {len(points)} frequencies, estimates in "
          f"[{min(ests):.4g}, {max(ests):.4g}]")
    return 0


def _cmd_transfer_scan(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    _require_positive(args, "gamma")
    betas = _beta_range(args)
    vals = transfer_values(cfg, args.gamma + 1j * betas)
    out = Path(args.out)
    scan_csv = out / "transfer_scan.csv"
    _write_csv(
        scan_csv,
        ["gamma", "beta", "re_H", "im_H", "abs_H"],
        [[_fmt(args.gamma), _fmt(b), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
         for b, v in zip(betas, vals)],
    )
    k = int(np.argmax(np.abs(vals)))
    _manifest(args, cfg, [scan_csv], started,
              extra={"sup_abs": float(abs(vals[k])), "argmax_beta": float(betas[k])})
    print(f"transfer-scan: sup |H| = {abs(vals[k]):.6g} at beta = {betas[k]:.6g} "
          f"on Re lam = {args.gamma}")
    return 0


def _cmd_decay(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    _require_positive(args, "T", "stride")
    _require_points(args, 8)
    _require_cfl(args)
    opts = SimOptions(points_per_edge=args.points, T=args.T, cfl=args.cfl,
                      record_stride=args.stride)
    init = sample_state(cfg, args.points, smooth_bump)
    trace, _ = simulate_wave(cfg, init, opts, mode="damped")
    try:
        omega = fit_decay_rate(trace)
        trace.fitted_rate = omega
    except InsufficientDecay:
        omega = None
    out = Path(args.out)
    energy_csv = out / "energy.csv"
    trace.to_csv(energy_csv)
    e0 = trace.energies[0]
    below = trace.times[trace.energies <= 1e-6 * e0]
    extinction = float(below[0]) if below.size else None
    run_json = out / "run.json"
    with open(run_json, "w") as fh:
        json.dump(
            {
                "config": {"densities": list(cfg.densities)},
                "options": {"points": args.points, "T": args.T, "cfl": args.cfl,
                            "stride": args.stride},
                "fitted_rate": omega,
                "extinction_time": extinction,
            },
            fh,
            indent=2,
        )
    _manifest(args, cfg, [energy_csv, run_json], started)
    msg = f"decay: E(0) = {e0:.6g}, E(T)/E(0) = {trace.energies[-1] / e0:.3e}"
    if omega is not None:
        msg += f", fitted rate = {omega:.4g}"
    if extinction is not None:
        msg += f", extinction by t = {extinction:.3g}"
    print(msg)
    return 0


def _cmd_schrodinger_decay(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    _require_positive(args, "T", "dt")
    _require_points(args, 8)
    opts = SimOptions(points_per_edge=args.points, T=args.T, dt=args.dt)
    init = sample_function(cfg, args.points, smooth_bump)
    trace, _ = simulate_schrodinger(cfg, init, opts)
    try:
        omega = fit_decay_rate(trace)
        trace.fitted_rate = omega
    except InsufficientDecay:
        omega = None
    out = Path(args.out)
    energy_csv = out / "energy.csv"
    trace.to_csv(energy_csv)
    run_json = out / "run.json"
    balance = abs(trace.energies[0] - trace.energies[-1] - trace.boundary_flux[-1])
    with open(run_json, "w") as fh:
        json.dump(
            {
                "config": {"densities": list(cfg.densities)},
                "options": {"points": args.points, "T": args.T, "dt": args.dt},
                "fitted_rate": omega,
                "flux_balance_defect": balance,
            },
            fh,
            indent=2,
        )
    _manifest(args, cfg, [energy_csv, run_json], started)
    msg = (f"schrodinger-decay: E(T)/E(0) = {trace.energies[-1] / trace.energies[0]:.3e}, "
           f"flux balance defect = {balance:.3e}")
    if omega is not None:
        msg += f", fitted rate = {omega:.4g}"
    print(msg)
    return 0


def _cmd_io_ratios(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    _require_positive(args, "T")
    _require_points(args, 8)
    _require_cfl(args)
    opts = SimOptions(points_per_edge=args.points, T=args.T, cfl=args.cfl)
    adm = admissibility_ratio(cfg, lambda t: np.sin(2.0 * np.pi * t), args.T, opts)

    def mode0(x):
        out = np.where(x <= 1.0, np.cos(0.5 * np.pi * np.clip(x, 0.0, 1.0)), 0.0)
        return out.astype(complex)

    state = sample_state(cfg, args.points, mode0)
    obs = observability_ratio(cfg, state, args.T, opts)
    out = Path(args.out)
    ratios_json = out / "io_ratios.json"
    payload = {
        "admissibility_ratio": adm,
        "observability_ratio": obs,
        "round_trip_time": round_trip_time(cfg),
        "T": args.T,
    }
    with open(ratios_json, "w") as fh:
        json.dump(payload, fh, indent=2)
    _manifest(args, cfg, [ratios_json], started)
    print(f"io-ratios: admissibility = {adm:.6g}, observability = {obs:.6g}, "
          f"round trip = {payload['round_trip_time']:.4g}")
    return 0


def _verify_checks(cfg: ChainConfig, seed: int):
    """Deterministic invariant battery; yields (name, ok, detail)."""
    rng = np.random.default_rng(seed)
    betas = rng.uniform(-100.0, 100.0, size=300)
    ident = det_pair(cfg, 1j * betas).identity_value
    err = float(np.max(np.abs(ident - 1.0)))
    yield "determinant identity Re(D conj Dt) = 1", err <= 1e-9, f"max |err| = {err:.2e}"

    lams = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-50, 50, 20)
    worst = 0.0
    for lam in lams:
        h, ht = boundary_matrices(cfg, lam)
        dh = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        dp = det_pair(cfg, lam)
        worst = max(worst, abs(dh - dp.d) / max(1.0, abs(dp.d)))
    yield "det recursion matches boundary matrices", worst <= 1e-10, f"max rel err = {worst:.2e}"

    worst = 0.0
    for _ in range(200):
        rho = float(rng.choice(cfg.densities))
        beta = float(rng.uniform(-50, 50))
        x = float(rng.uniform(-1, 1))
        worst = max(worst, float(np.max(np.abs(exp_hyp(rho, 1j * beta, x) - exp_osc(rho, beta, x)))))
    yield "hyperbolic/oscillatory continuation", worst <= 1e-13, f"max |err| = {worst:.2e}"

    betas_scan = np.arange(-50.0, 50.0 + 5e-4, 1e-3)
    ga, gn = det_lower_bound(cfg, betas_scan)
    yield "axis gap above analytic bound", gn >= ga - 1e-9 and gn > 0, \
        f"numeric {gn:.4g} vs analytic {ga:.4g}"

    grids = uniform_grids(cfg, 801)
    g = random_probe(cfg, grids, seed=[seed, 1], arity=2)
    sol = wave_resolvent(cfg, 3.0, g)
    ref = fd_bvp_solve(cfg, 3.0j, _resample_vector(cfg, g, 1200), "wave", 1200)
    diff = _vector_rel_diff(cfg, sol.W, ref)
    yield "wave resolvent vs box oracle", diff <= 0.02 and sol.residual <= 1e-3, \
        f"rel diff = {diff:.2e}, residual = {sol.residual:.2e}"

    gs = random_probe(cfg, uniform_grids(cfg, 1601), seed=[seed, 2], arity=1)
    sol_s = schrodinger_resolvent(cfg, 17.0, gs)
    ref_s = fd_bvp_solve(cfg, 17.0j, gs, "schrodinger", 1600)
    diff_s = _scalar_rel_diff(sol_s.u, ref_s)
    yield "schrodinger resolvent vs fd oracle", diff_s <= 0.02, f"rel diff = {diff_s:.2e}"

    gneg = random_probe(cfg, uniform_grids(cfg, 801), seed=[seed, 3], arity=1)
    soln = schrodinger_resolvent(cfg, -40.0, gneg)
    ratio = l2_norm(soln.u) / l2_norm(gneg)
    yield "schrodinger a priori bound (beta < 0)", ratio <= 1.2 / 40.0, \
        f"|u|/|g| = {ratio:.3e} vs 1.2/40 = {1.2 / 40:.3e}"

    lam = 1.0 + 2.0j
    tv = transfer_value(cfg, lam, 1.0)
    ov = oracle_transfer_value(cfg, lam, 1.0, 1600)
    rel = abs(tv - ov) / abs(ov)
    yield "transfer value vs fd oracle", rel <= 0.01, f"rel diff = {rel:.2e}"


def _resample_vector(cfg, g, m):
    """Linear resample of a 2-vector load onto the oracle's m-cell grid."""
    grids = [np.linspace(j, j + 1, m + 1) for j in range(cfg.n_edges)]
    values = []
    for j in range(cfg.n_edges):
        x_old = g.grids[j]
        comp = [np.interp(grids[j], x_old, g.values[j][:, c]) for c in range(2)]
        values.append(np.stack(comp, axis=1))
    from .chain_core import ChainFunction

    return ChainFunction(grids, values)


def _vector_rel_diff(cfg, a, b):
    num = 0.0
    den = 0.0
    for j in range(cfg.n_edges):
        xa = a.grids[j]
        va = a.values[j]
        vb = np.stack(
            [np.interp(xa, b.grids[j], b.values[j][:, c]) for c in range(2)], axis=1
        )
        num += float(np.trapezoid(np.sum(np.abs(va - vb) ** 2, axis=1), xa))
        den += float(np.trapezoid(np.sum(np.abs(va) ** 2, axis=1), xa))
    return np.sqrt(num / den)


def _scalar_rel_diff(a, b):
    num = 0.0
    den = 0.0
    for j in range(len(a.grids)):
        xa = a.grids[j]
        vb = np.interp(xa, b.grids[j], b.values[j])
        num += float(np.trapezoid(np.abs(a.values[j] - vb) ** 2, xa))
        den += float(np.trapezoid(np.abs(a.values[j]) ** 2, xa))
    return np.sqrt(num / den)


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config)
    all_ok = True
    results = []
    for name, ok, detail in _verify_checks(cfg, args.seed):
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail})")
        results.append({"name": name, "ok": bool(ok), "detail": detail})
        all_ok &= bool(ok)
    _manifest(args, cfg, [], started, extra={"checks": results, "all_ok": bool(all_ok)})
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 1


def _add_common(p):
    p.add_argument("--config", required=True, help="JSON file {\"densities\": [...]}")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker pool size (env STRINGCHAIN_JOBS overrides)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="stringchain",
                     description="Spectral and time-domain analysis of a damped chain of strings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="locate eigenvalues in a rectangle")
    _add_common(p)
    p.add_argument("--rect", required=True, help="re_min,re_max,im_min,im_max")
    p.add_argument("--which", choices=("wave", "schrodinger"), default="wave")
    p.add_argument("--grid", default="64,64", help="nx,ny scan resolution")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("gap", help="minimum |det| on the imaginary axis")
    _add_common(p)
    p.add_argument("--which", choices=("wave", "schrodinger"), default="wave")
    p.add_argument("--beta-min", type=float, default=-200.0)
    p.add_argument("--beta-max", type=float, default=200.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--csv-stride", type=int, default=100)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("det-bound", help="analytic vs numeric determinant lower bound")
    _add_common(p)
    p.add_argument("--beta-min", type=float, default=-200.0)
    p.add_argument("--beta-max", type=float, default=200.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--csv-stride", type=int, default=100)
    p.set_defaults(func=_cmd_det_bound)

    p = sub.add_parser("resolvent-scan", help="wave resolvent norm estimates over beta")
    _add_common(p)
    p.add_argument("--betas", default=None, help="explicit comma-separated betas")
    p.add_argument("--beta-min", type=float, default=10.0)
    p.add_argument("--beta-max", type=float, default=1e4)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--probes", type=int, default=8)
    p.add_argument("--points", type=int, default=None, help="points per edge (default: auto)")
    p.set_defaults(func=_cmd_resolvent_scan)

    p = sub.add_parser("schrodinger-scan", help="Schrodinger resolvent estimates over beta")
    _add_common(p)
    p.add_argument("--betas", default=None)
    p.add_argument("--beta-min", type=float, default=100.0)
    p.add_argument("--beta-max", type=float, default=1e4)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--probes", type=int, default=8)
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(func=_cmd_schrodinger_scan)

    p = sub.add_parser("transfer-scan", help="|H| on a vertical line Re lam = gamma")
    _add_common(p)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--beta-min", type=float, default=-50.0)
    p.add_argument("--beta-max", type=float, default=50.0)
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(func=_cmd_transfer_scan)

    p = sub.add_parser("decay", help="damped wave run with decay fit")
    _add_common(p)
    p.add_argument("--T", type=float, default=20.0)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--cfl", type=float, default=0.5)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("schrodinger-decay", help="Crank-Nicolson run with decay fit")
    _add_common(p)
    p.add_argument("--T", type=float, default=5.0)
    p.add_argument("--points", type=int, default=600)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=_cmd_schrodinger_decay)

    p = sub.add_parser("io-ratios", help="admissibility and observability ratios")
    _add_common(p)
    p.add_argument("--T", type=float, default=4.0)
    p.add_argument("--points", type=int, default=800)
    p.add_argument("--cfl", type=float, default=0.5)
    p.set_defaults(func=_cmd_io_ratios)

    p = sub.add_parser("verify", help="one-shot invariant and oracle suite")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv) -> int:
    """Parse and execute one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 65
    except ChainError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
