"""Command-line front end: scans, simulations, root searches, verification.

Every subcommand reads the chain from a JSON config {"densities": [...]},
writes its results as CSV next to a manifest.json that pins the exact
inputs (command, options with --out, seed) and a timing.json with the
wall time, and prints a one-line summary; one runner, `run`, does this
for all of them, in one process (`--jobs` is checked and recorded but
selects nothing).  Option values are checked where they are declared,
before any work.  Exit codes: 0 success, 1 validation failure, 2
numerical failure (e.g. an overflowing determinant or transfer value),
64 usage error (one rule, `chain_core.too_large`, maps every size refused
by numpy to it), 65 config error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import expm

from . import __version__
from .chain_core import (
    ChainConfig,
    l2_norm,
    sample_function,
    sample_state,
    smooth_bump,
    too_large,
    uniform_betas,
    uniform_grids,
    write_table,
)
from .errors import ChainError, ConfigError, InsufficientDecay, UsageError
from .oracle import fd_bvp_solve, oracle_transfer_value, rel_l2_diff, resample_load
from .resolvent import (
    random_probe,
    schrodinger_norm_scan,
    schrodinger_resolvent,
    wave_resolvent,
    wave_resolvent_norm_scan,
)
from .spectrum import _AXIS_MARGIN, _modulus, find_eigenvalues, imaginary_axis_gap
from .timesim import SimOptions, fit_decay_rate, simulate_schrodinger, simulate_wave
from .transfer_function import (
    admissibility_ratio,
    observability_ratio,
    round_trip_time,
    transfer_value,
    transfer_values,
)
from .transfer_matrix import analytic_gap_bound, boundary_matrices, det_pair, exp_hyp


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-2,0,0,30" (rectangles, beta lists) must parse as values
        self._negative_number_matcher = re.compile(r"^-\d[\d.,eE+\-]*$")
        # (ok, message) checks that span several options, run once parsing is done;
        # the message is formatted with the parsed options
        self.checks = []

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for ok, message in self.checks:
            if not ok(namespace):
                raise UsageError(message.format(**vars(namespace)))
        return namespace, extras

    def error(self, message):
        raise UsageError(message)


class _Done(NamedTuple):
    """What a handler hands back to the runner."""

    summary: str  # printed once manifest.json is written
    outputs: tuple = ()  # the files the handler wrote, in manifest order
    extra: Optional[dict] = None  # result fields the manifest records after the inputs
    code: int = 0


def _write_json(path: Path, data) -> Path:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, default=str)
    return path


def _load_config(path: str) -> ChainConfig:
    try:
        return ChainConfig.from_json(Path(path).read_text())
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    except ChainError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def _manifest(args, cfg: ChainConfig, out: Path, done: _Done, started: float) -> None:
    """Write manifest.json (inputs and results only, so equal runs give equal
    bytes) and timing.json (the wall time) into the output directory."""
    options = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "config" and not callable(v)  # the handler in "func" is callable
    }
    data = {
        "command": args.command,
        "config": {"densities": list(cfg.densities)},
        "options": options,
        "outputs": [str(p) for p in done.outputs],
        "seed": getattr(args, "seed", 0),
        "version": __version__,
    }
    data.update(done.extra or {})
    _write_json(out / "timing.json", {"wall_time_s": time.perf_counter() - started})
    _write_json(out / "manifest.json", data)


def _typed(parse, ok, need: str):
    """argparse type: parse(text), a usage error unless it succeeds and ok(value)."""

    def typed(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")

    return typed


def _at_least(least: int):
    return _typed(int, lambda v: v >= least, f"an integer >= {least}")


class _Numbers(str):
    """Comma-separated finite numbers: the text, which the manifest records, and `values`."""

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self.values = tuple(float(p) for p in text.split(",") if p != "")
        if not self.values or not np.all(np.isfinite(self.values)):
            raise ValueError(f"{text!r} is not a list of finite numbers")
        return self


def _is_rect(values) -> bool:
    re0, re1, im0, im1 = values  # a ValueError unless there are four
    return re0 < min(re1, -_AXIS_MARGIN) and im0 < im1  # searches stop short of the axis


_positive = _typed(float, lambda v: 0 < v < np.inf, "a positive finite number")
_finite = _typed(float, np.isfinite, "a finite number")
_cfl = _typed(float, lambda v: 0 < v <= 1, "a number in (0, 1]")
_betas = _typed(_Numbers, lambda v: True, "a comma-separated list of finite numbers")
_rect = _typed(_Numbers, lambda v: _is_rect(v.values),
               f"re_min,re_max,im_min,im_max with re_min < re_max, re_min < -{_AXIS_MARGIN:g} "
               "and im_min < im_max")
_grid = _typed(_Numbers, lambda v: len(v.values) == 2 and min(v.values) >= 16,
               "nx,ny with at least 16 x 16 points")


def _beta_grid(args) -> np.ndarray:
    """--betas if given, else --count log-spaced betas from --beta-min to --beta-max."""
    if args.betas is not None:
        return np.array(args.betas.values)
    lo, hi = args.beta_min, args.beta_max
    sgn = 1.0 if lo > 0 else -1.0
    with too_large(f"--count {args.count}"):
        return sgn * np.logspace(np.log10(abs(lo)), np.log10(abs(hi)), args.count)


def _cmd_spectrum(args, cfg, out) -> _Done:
    grid = tuple(int(v) for v in args.grid.values)
    eig = find_eigenvalues(cfg, args.rect.values, args.which, grid=grid, tol=args.tol)
    roots_csv = write_table(out / "roots.csv", ["re", "im", "residual"],
                            eig.eigenvalues.real, eig.eigenvalues.imag, eig.residuals)
    summary_json = _write_json(out / "spectrum_summary.json", {
        "abscissa": eig.abscissa,
        "count": int(eig.eigenvalues.size),
        "rect": list(eig.search_rect),
        "tol": args.tol,
        "failures": len(eig.failures),
    })
    lines = [f"spectrum: {eig.eigenvalues.size} roots in rect {eig.search_rect}, "
             f"abscissa = {eig.abscissa}, failures = {len(eig.failures)}"]
    lines += [f"  unrefined candidate near {f['start']}: residual {f['residual']:.3g}"
              for f in eig.failures]
    return _Done("\n".join(lines), (roots_csv, summary_json), code=2 if eig.failures else 0)


def _write_det_scan(out: Path, which: str, found) -> Path:
    """det_scan.csv at round one's rows: D(i beta), and for the wave chain D~ and
    Re(D conj D~), taken from the search's own first round."""
    path = out / "det_scan.csv"
    betas = found.rows
    if which == "schrodinger":
        d = found.first
        return write_table(path, ["beta", "re_D", "im_D", "abs_D"],
                           betas, d.real, d.imag, _modulus(d))
    pair = found.first
    return write_table(path, ["beta", "re_D", "im_D", "abs_D", "re_Dt", "im_Dt", "re_DDbar"],
                       betas, pair.d.real, pair.d.imag, _modulus(pair.d),
                       pair.d_tilde.real, pair.d_tilde.imag, pair.identity_value)


def _cmd_gap(args, cfg, out) -> _Done:
    """gap and det-bound: min |D(i beta)| from one imaginary_axis_gap search (det-bound
    searches the wave chain).  det-bound exits 1 if the minimum lies below
    analytic_gap_bound; either exits 2 if the wave search left a cell open."""
    which = getattr(args, "which", "wave")  # det-bound has no --which
    found = imaginary_axis_gap(cfg, which, (args.beta_min, args.beta_max), args.step,
                               args.csv_stride)
    scan_csv = _write_det_scan(out, which, found)
    gap = found.value
    search = {"minimum": "certified" if found.certified else "sampled",
              "lower_bound": found.lower, "lambdas": found.lambdas, "rounds": found.rounds,
              "open_cells": found.open_cells}
    code, note = 0, ""
    if found.open_cells:
        code, note = 2, f"; {found.open_cells} cells left open: NOT certified"
    if args.command == "det-bound":
        bound = analytic_gap_bound(cfg)
        ok = gap >= bound - 1e-9
        return _Done(f"det-bound: gamma_numeric = {gap:.6g}, gamma_analytic = {bound:.6g} "
                     f"({'ok' if ok else 'VIOLATED'}){note}", (scan_csv,),
                     {"gamma_analytic": bound, "gamma_numeric": gap, "search": search},
                     code if ok else 1)
    summary = f"gap: min |det| = {gap:.6g} over [{args.beta_min}, {args.beta_max}]"
    if which == "wave":
        summary += f", analytic bound {analytic_gap_bound(cfg):.6g}"
    return _Done(summary + note, (scan_csv,), {"gap": gap, "search": search}, code)


def _cmd_scan(args, cfg, out) -> _Done:
    """resolvent-scan (wave) and schrodinger-scan: norm estimates over beta, one
    row per beta in the order of the grid."""
    scan = wave_resolvent_norm_scan if args.command == "resolvent-scan" else schrodinger_norm_scan
    points = scan(cfg, _beta_grid(args), args.probes, points_per_edge=args.points, seed=args.seed)
    rows = [(p.beta, p.norm_estimate, p.probes, p.residual_max) for p in points]
    scan_csv = write_table(out / (args.command.replace("-", "_") + ".csv"),
                           ["beta", "norm_estimate", "probes", "residual_max"], *zip(*rows))
    ests = [p.norm_estimate for p in points]
    return _Done(f"{args.command}: {len(points)} frequencies, estimates in "
                 f"[{min(ests):.4g}, {max(ests):.4g}]", (scan_csv,))


def _cmd_transfer_scan(args, cfg, out) -> _Done:
    betas = uniform_betas((args.beta_min, args.beta_max), args.step)
    vals = transfer_values(cfg, args.gamma + 1j * betas)
    scan_csv = write_table(out / "transfer_scan.csv", ["gamma", "beta", "re_H", "im_H", "abs_H"],
                           np.full(betas.size, args.gamma), betas, vals.real, vals.imag,
                           _modulus(vals))
    k = int(np.argmax(np.abs(vals)))
    return _Done(
        f"transfer-scan: sup |H| = {abs(vals[k]):.6g} at beta = {betas[k]:.6g} "
        f"on Re lam = {args.gamma}",
        (scan_csv,),
        {"sup_abs": float(abs(vals[k])), "argmax_beta": float(betas[k])},
    )


def _write_decay(args, cfg, out, trace, option_names, **results):
    """Fit the decay rate, write energy.csv and run.json; returns (rate note, outputs)."""
    try:
        omega = fit_decay_rate(trace)
    except InsufficientDecay:
        omega = None
    energy_csv = out / "energy.csv"
    trace.to_csv(energy_csv)
    run_json = _write_json(out / "run.json", {
        "config": {"densities": list(cfg.densities)},
        "options": {name: getattr(args, name) for name in option_names},
        "fitted_rate": omega,
        **results,
    })
    note = "" if omega is None else f", fitted rate = {omega:.4g}"
    return note, (energy_csv, run_json)


def _cmd_decay(args, cfg, out) -> _Done:
    opts = SimOptions(points_per_edge=args.points, T=args.T, cfl=args.cfl,
                      record_stride=args.stride)
    init = sample_state(cfg, args.points, smooth_bump)
    trace, _ = simulate_wave(cfg, init, opts, mode="damped")
    e0 = trace.energies[0]
    below = trace.times[trace.energies <= 1e-6 * e0]
    extinction = float(below[0]) if below.size else None
    note, outputs = _write_decay(args, cfg, out, trace, ("points", "T", "cfl", "stride"),
                                 extinction_time=extinction)
    msg = f"decay: E(0) = {e0:.6g}, E(T)/E(0) = {trace.energies[-1] / e0:.3e}{note}"
    if extinction is not None:
        msg += f", extinction by t = {extinction:.3g}"
    return _Done(msg, outputs)


def _cmd_schrodinger_decay(args, cfg, out) -> _Done:
    opts = SimOptions(points_per_edge=args.points, T=args.T, dt=args.dt)
    init = sample_function(cfg, args.points, smooth_bump)
    trace, _ = simulate_schrodinger(cfg, init, opts)
    balance = abs(trace.energies[0] - trace.energies[-1] - trace.boundary_flux[-1])
    note, outputs = _write_decay(args, cfg, out, trace, ("points", "T", "dt"),
                                 flux_balance_defect=balance)
    return _Done(f"schrodinger-decay: E(T)/E(0) = {trace.energies[-1] / trace.energies[0]:.3e}, "
                 f"flux balance defect = {balance:.3e}{note}", outputs)


def _cmd_io_ratios(args, cfg, out) -> _Done:
    opts = SimOptions(points_per_edge=args.points, T=args.T, cfl=args.cfl)
    adm = admissibility_ratio(cfg, lambda t: np.sin(2.0 * np.pi * t), opts)

    def mode0(x):
        y = np.where(x <= 1.0, np.cos(0.5 * np.pi * np.clip(x, 0.0, 1.0)), 0.0)
        return y.astype(complex)

    state = sample_state(cfg, args.points, mode0)
    obs = observability_ratio(cfg, state, opts)
    payload = {
        "admissibility_ratio": adm,
        "observability_ratio": obs,
        "round_trip_time": round_trip_time(cfg),
        "T": args.T,
    }
    ratios_json = _write_json(out / "io_ratios.json", payload)
    return _Done(f"io-ratios: admissibility = {adm:.6g}, observability = {obs:.6g}, "
                 f"round trip = {payload['round_trip_time']:.4g}", (ratios_json,))


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
        # exp(i beta x B^{-1}); expm's rounding error grows with the phase beta x / c
        ref = expm(1j * beta * x * np.array([[0.0, 1.0 / rho], [1.0, 0.0]]))
        err = float(np.max(np.abs(exp_hyp(rho, 1j * beta, x) - ref)))
        worst = max(worst, err / max(1.0, abs(beta * x) / np.sqrt(rho)))
    yield "hyperbolic/oscillatory continuation", worst <= 1e-13, f"max |err| / phase = {worst:.2e}"

    ga = analytic_gap_bound(cfg)
    found = imaginary_axis_gap(cfg, "wave", (-50.0, 50.0), 0.1)
    gn = found.value
    yield "axis gap above analytic bound", gn >= ga - 1e-9 and gn > 0, \
        f"{'certified' if found.certified else 'sampled'} {gn:.4g} vs analytic {ga:.4g}"

    grids = uniform_grids(cfg, 801)
    g = random_probe(cfg, grids, seed=[seed, 1], arity=2)
    sol = wave_resolvent(cfg, 3.0, g)
    ref = fd_bvp_solve(cfg, 3.0j, resample_load(cfg, g, 1200), "wave", 1200)
    diff = rel_l2_diff(sol.W, ref)
    yield "wave resolvent vs box oracle", diff <= 0.02 and sol.residual <= 1e-3, \
        f"rel diff = {diff:.2e}, residual = {sol.residual:.2e}"

    gs = random_probe(cfg, uniform_grids(cfg, 1601), seed=[seed, 2], arity=1)
    sol_s = schrodinger_resolvent(cfg, 17.0, gs)
    ref_s = fd_bvp_solve(cfg, 17.0j, gs, "schrodinger", 1600)
    diff_s = rel_l2_diff(sol_s.u, ref_s)
    yield "schrodinger resolvent vs fd oracle", diff_s <= 0.02, f"rel diff = {diff_s:.2e}"

    gneg = random_probe(cfg, uniform_grids(cfg, 801), seed=[seed, 3], arity=1)
    soln = schrodinger_resolvent(cfg, -40.0, gneg)
    ratio = l2_norm(soln.u) / l2_norm(gneg)
    yield "schrodinger a priori bound (beta < 0)", ratio <= 1.2 / 40.0, \
        f"|u|/|g| = {ratio:.3e} vs 1.2/40 = {1.2 / 40:.3e}"

    lam = 1.0 + 2.0j
    tv = transfer_value(cfg, lam)
    ov = oracle_transfer_value(cfg, lam, 1600)
    rel = abs(tv - ov) / abs(ov)
    yield "transfer value vs fd oracle", rel <= 0.01, f"rel diff = {rel:.2e}"


def _cmd_verify(args, cfg, out) -> _Done:
    results = []
    for name, ok, detail in _verify_checks(cfg, args.seed):
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail})")
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    all_ok = all(r["ok"] for r in results)
    return _Done(f"verify: {'all checks passed' if all_ok else 'FAILURES present'}", (),
                 {"checks": results, "all_ok": all_ok}, 0 if all_ok else 1)


def _subcommand(sub, name: str, help_: str, handler) -> _Parser:
    p = sub.add_parser(name, help=help_)
    p.add_argument("--config", required=True, help="JSON file {\"densities\": [...]}")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--jobs", type=_at_least(1),
                   help="accepted and recorded in the manifest; selects nothing (one process)")
    p.set_defaults(func=handler)
    return p


def _add_beta_range(p, beta_min: float, beta_max: float, step: float,
                    step_help: Optional[str] = None) -> None:
    p.add_argument("--beta-min", type=_finite, default=beta_min)
    p.add_argument("--beta-max", type=_finite, default=beta_max)
    p.add_argument("--step", type=_positive, default=step, help=step_help)
    p.checks.append((lambda a: a.beta_max >= a.beta_min,
                     "--beta-max {beta_max} is below --beta-min {beta_min}"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="stringchain",
                     description="Spectral and time-domain analysis of a damped chain of strings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "spectrum", "locate eigenvalues in a rectangle", _cmd_spectrum)
    p.add_argument("--rect", type=_rect, required=True, help="re_min,re_max,im_min,im_max")
    p.add_argument("--grid", type=_grid, default="64,64", help="nx,ny scan resolution")
    p.add_argument("--tol", type=_positive, default=1e-10)

    for name, help_ in (("gap", "minimum |det| on the imaginary axis"),
                        ("det-bound", "analytic vs numeric determinant lower bound")):
        p = _subcommand(sub, name, help_, _cmd_gap)
        _add_beta_range(p, -200.0, 200.0, 1e-3,
                        "beta grid spacing: --which schrodinger samples every point; "
                        "step * csv-stride spaces det_scan.csv and the wave search's first round")
        p.add_argument("--csv-stride", type=_at_least(1), default=100,
                       help="det_scan.csv, and the certified wave search's first round, take "
                            "every csv-stride-th point of the --step grid")
    for name in ("spectrum", "gap"):
        sub.choices[name].add_argument("--which", choices=("wave", "schrodinger"), default="wave")

    for name, help_, beta_min, count in (
        ("resolvent-scan", "wave resolvent norm estimates over beta", 10.0, 40),
        ("schrodinger-scan", "Schrodinger resolvent estimates over beta", 100.0, 20),
    ):
        p = _subcommand(sub, name, help_, _cmd_scan)
        p.add_argument("--betas", type=_betas, help="explicit comma-separated betas")
        p.add_argument("--beta-min", type=_finite, default=beta_min)
        p.add_argument("--beta-max", type=_finite, default=1e4)
        p.add_argument("--count", type=_at_least(1), default=count)
        p.add_argument("--probes", type=_at_least(1), default=8)
        p.add_argument("--points", type=_at_least(2), help="points per edge (default: auto)")
        p.checks.append((lambda a: a.betas is not None or min(a.beta_min, a.beta_max) > 0
                         or max(a.beta_min, a.beta_max) < 0,
                         "log beta grid needs endpoints of one sign, away from 0"))

    p = _subcommand(sub, "transfer-scan", "|H| on a vertical line Re lam = gamma",
                    _cmd_transfer_scan)
    p.add_argument("--gamma", type=_positive, default=1.0)
    _add_beta_range(p, -50.0, 50.0, 0.01)

    p = _subcommand(sub, "decay", "damped wave run with decay fit", _cmd_decay)
    p.add_argument("--T", type=_positive, default=20.0)
    p.add_argument("--points", type=_at_least(8), default=2000)
    p.add_argument("--cfl", type=_cfl, default=0.5)
    p.add_argument("--stride", type=_at_least(1), default=1)

    p = _subcommand(sub, "schrodinger-decay", "Crank-Nicolson run with decay fit",
                    _cmd_schrodinger_decay)
    p.add_argument("--T", type=_positive, default=5.0)
    p.add_argument("--points", type=_at_least(8), default=600)
    p.add_argument("--dt", type=_positive, default=1e-3)

    p = _subcommand(sub, "io-ratios", "admissibility and observability ratios", _cmd_io_ratios)
    p.add_argument("--T", type=_positive, default=4.0)
    p.add_argument("--points", type=_at_least(8), default=800)
    p.add_argument("--cfl", type=_cfl, default=0.5)

    _subcommand(sub, "verify", "one-shot invariant and oracle suite", _cmd_verify)
    return parser


def run(argv=None) -> int:
    """Parse and execute one command line (default sys.argv[1:]); returns the exit code."""
    try:
        args = _PARSER.parse_args(argv)
        started = time.perf_counter()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        cfg = _load_config(args.config)
        done = args.func(args, cfg, out)
        _manifest(args, cfg, out, done, started)
        print(done.summary)
        return done.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except MemoryError as exc:  # a grid too large to allocate
        print(f"usage error: grid too large: {exc}", file=sys.stderr)
        return 64
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 65
    except ChainError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


_PARSER = _build_parser()  # one per process: a parser is ~900 objects in reference cycles
main = run  # the console-script entry point

if __name__ == "__main__":
    sys.exit(run())
