"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.
"""

import time

import numpy as np

import stringchain as sc
from stringchain.chain_core import (
    sample_function,
    sample_state,
    smooth_bump,
    uniform_grids,
)
from stringchain.oracle import oracle_transfer_value
from stringchain.resolvent import (
    random_probe,
    schrodinger_norm_scan,
    wave_resolvent_norm_scan,
)
from stringchain.timesim import SimOptions
from stringchain.transfer_function import transfer_values
from stringchain.transfer_matrix import analytic_gap_bound


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_cfg(rng, n_max=6):
    n = int(rng.integers(1, n_max + 1))
    return sc.ChainConfig(densities=tuple(rng.uniform(0.1, 10.0, n)))


def test_criterion_01_determinant_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        cfg = _random_cfg(rng)
        beta = float(rng.uniform(-100.0, 100.0))
        ident = sc.det_pair(cfg, 1j * beta).identity_value
        worst = max(worst, abs(ident - 1.0))
    _report(1, "determinant identity", worst <= 1e-9,
            f"max |Re(D conj Dt) - 1| = {worst:.2e} over 200 draws "
            f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_02_unimodularity_and_continuation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_det = 0.0
    worst_cont = 0.0
    # operating envelope: |Re lam| <= 2, |x| <= 1, rho in [1/4, 4]
    for _ in range(1000):
        rho = float(rng.uniform(0.25, 4.0))
        beta = float(rng.uniform(-50.0, 50.0))
        x = float(rng.uniform(-1.0, 1.0))
        lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(-50.0, 50.0))
        mo = sc.exp_hyp(rho, 1j * beta, x)
        mh = sc.exp_hyp(rho, lam, x)
        worst_det = max(worst_det, abs(mo[0, 0] * mo[1, 1] - mo[0, 1] * mo[1, 0] - 1.0))
        worst_det = max(worst_det, abs(mh[0, 0] * mh[1, 1] - mh[0, 1] * mh[1, 0] - 1.0))
        # against the real-frequency propagator written out, t = beta x / c
        c = np.sqrt(rho)
        t = beta * x / c
        osc = np.array([[np.cos(t), 1j * np.sin(t) / c], [1j * c * np.sin(t), np.cos(t)]])
        worst_cont = max(worst_cont, float(np.max(np.abs(mo - osc))))
    ok = worst_det <= 1e-12 and worst_cont <= 1e-13
    _report(2, "unimodularity and continuation", ok,
            f"max |det - 1| = {worst_det:.2e}, max continuation gap = {worst_cont:.2e} "
            f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_03_imaginary_axis_gap():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    betas = np.arange(-200.0, 200.0 + 5e-4, 1e-3)
    ok = True
    margin = np.inf
    for _ in range(20):
        cfg = _random_cfg(rng)
        ga = analytic_gap_bound(cfg)
        gn = float(np.min(np.abs(sc.det_pair(cfg, 1j * betas).d)))
        ok &= gn > 0 and gn >= ga - 1e-9
        margin = min(margin, gn - ga)
    _report(3, "imaginary-axis gap", ok,
            f"20 random configs, min(gamma_numeric - gamma_analytic) = {margin:.3e} "
            f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_04_known_root_reproduction():
    t0 = time.perf_counter()
    cfg = sc.ChainConfig(densities=(0.25,))
    eig = sc.find_eigenvalues(cfg, (-1, 0, 0, 10), "wave", grid=(48, 160))
    re_err = float(np.max(np.abs(eig.eigenvalues.real + np.log(3.0) / 4.0)))
    sp_err = float(np.max(np.abs(np.diff(eig.eigenvalues.imag) - np.pi / 2)))
    empty = sc.find_eigenvalues(
        sc.ChainConfig(densities=(1.0,)), (-1, 0, 0, 10), "wave", grid=(48, 160)
    )
    ok = re_err <= 1e-8 and sp_err <= 1e-8 and empty.eigenvalues.size == 0
    _report(4, "known-root reproduction", ok,
            f"{eig.eigenvalues.size} roots, max Re error {re_err:.2e}, "
            f"max spacing error {sp_err:.2e}, matched chain empty: "
            f"{empty.eigenvalues.size == 0} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_05_oracle_eigenvalue_agreement():
    t0 = time.perf_counter()
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    eig = sc.find_eigenvalues(cfg, (-2, 0, 0, 30), "wave", grid=(48, 160))
    ev2 = np.linalg.eigvals(sc.fd_wave_matrix(cfg, 200).matrix.toarray())
    ev4 = np.linalg.eigvals(sc.fd_wave_matrix(cfg, 400).matrix.toarray())
    worst = 0.0
    for z in eig.eigenvalues:
        m2 = ev2[np.argmin(np.abs(ev2 - z))]
        m4 = ev4[np.argmin(np.abs(ev4 - z))]
        rich = m4 + (m4 - m2) / 3.0
        worst = max(worst, abs(rich - z))
    negative = bool(np.all(eig.eigenvalues.real < 0))
    ok = worst <= 1e-2 and negative and eig.eigenvalues.size == 5
    _report(5, "oracle eigenvalue agreement", ok,
            f"{eig.eigenvalues.size} roots, worst Richardson distance {worst:.2e}, "
            f"all Re < 0: {negative} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_06_resolvent_closed_form_vs_oracle():
    t0 = time.perf_counter()
    cfg = sc.ChainConfig(densities=(1.0, 4.0, 9.0))
    worst_diff = 0.0
    worst_res = 0.0
    for beta in (1.0, 10.0, 100.0):
        g = random_probe(cfg, uniform_grids(cfg, 2000), seed=[106, int(beta)], arity=2)
        sol = sc.wave_resolvent(cfg, beta, g)
        # the oracle needs twice the resolution so that its own second-order
        # phase error at beta = 100 stays below the 1% comparison budget
        g_ref = random_probe(cfg, uniform_grids(cfg, 4001), seed=[106, int(beta)], arity=2)
        ref = sc.fd_bvp_solve(cfg, 1j * beta, g_ref, "wave", 4000)
        num = den = 0.0
        for j in range(cfg.n_edges):
            xa = sol.W.grids[j]
            vb = np.stack(
                [np.interp(xa, ref.grids[j], ref.values[j][:, c]) for c in range(2)], axis=1
            )
            num += np.trapezoid(np.sum(np.abs(sol.W.values[j] - vb) ** 2, axis=1), xa).real
            den += np.trapezoid(np.sum(np.abs(sol.W.values[j]) ** 2, axis=1), xa).real
        worst_diff = max(worst_diff, float(np.sqrt(num / den)))
        worst_res = max(worst_res, sol.residual)
    ok = worst_diff <= 0.01 and worst_res <= 1e-3
    _report(6, "resolvent vs oracle", ok,
            f"worst L2 diff {worst_diff:.2e} (<= 1%), worst residual {worst_res:.2e} "
            f"(<= 1e-3) at 2000 points/edge ({time.perf_counter() - t0:.1f}s)")


def test_criterion_07_uniform_resolvent_boundedness():
    t0 = time.perf_counter()
    cfg = sc.ChainConfig(densities=(1.0,))
    betas = np.logspace(1, 4, 40)
    pts = wave_resolvent_norm_scan(cfg, betas, probes=6, seed=107)
    ests = np.array([p.norm_estimate for p in pts])
    spread = float(ests.max() / ests.min())
    op = sc.fd_wave_matrix(cfg, 600)
    ratios = []
    for beta in (10.0, 31.6227766, 100.0):
        fd = sc.fd_resolvent_norm(op, beta)
        est = wave_resolvent_norm_scan(cfg, [beta], probes=16, seed=107)[0].norm_estimate
        ratios.append(max(fd / est, est / fd))
    ok = spread < 10.0 and max(ratios) <= 3.0
    _report(7, "uniform resolvent boundedness", ok,
            f"sup/inf = {spread:.2f} (< 10), fd agreement ratios {np.round(ratios, 2)} "
            f"(<= 3) ({time.perf_counter() - t0:.1f}s)")


def test_criterion_08_decay_rate_consistency():
    t0 = time.perf_counter()
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    eig = sc.find_eigenvalues(cfg, (-2, 0, 0, 30), "wave", grid=(48, 160))
    target = 2.0 * abs(eig.abscissa)

    def u0(x):
        return np.where(x <= 1.0, smooth_bump(np.clip(x, 0.0, 1.0)), 0.0).astype(complex)

    init = sample_state(cfg, 2000, u0)
    trace, _ = sc.simulate_wave(
        cfg, init, SimOptions(points_per_edge=2000, T=40.0, cfl=0.5)
    )
    omega = sc.fit_decay_rate(trace)
    e0 = trace.energies[0]
    max_rise = float(np.max(np.diff(trace.energies))) / e0
    balance = abs(e0 - trace.energies[-1] - trace.boundary_flux[-1]) / e0
    dev = abs(omega - target) / target
    ok = dev <= 0.15 and max_rise <= 1e-6 and balance <= 0.01
    _report(8, "decay-rate consistency", ok,
            f"omega = {omega:.4f} vs 2|abscissa| = {target:.4f} (dev {dev:.1%}), "
            f"max rise/step {max_rise:.1e}, balance {balance:.1e} "
            f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_09_finite_time_extinction():
    t0 = time.perf_counter()
    cfg = sc.ChainConfig(densities=(1.0,))
    init = sample_state(cfg, 2000, smooth_bump)
    trace, _ = sc.simulate_wave(cfg, init, SimOptions(points_per_edge=2000, T=4.0, cfl=0.5))
    e0 = trace.energies[0]
    late = float(np.max(trace.energies[trace.times >= 2.2]))
    ok = late <= 1e-6 * e0
    _report(9, "finite-time extinction", ok,
            f"max E(t >= 2.2)/E(0) = {late / e0:.2e} (<= 1e-6) "
            f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_10_transfer_function():
    t0 = time.perf_counter()
    cfg = sc.ChainConfig(densities=(1.0,))
    betas = np.linspace(-50, 50, 100)
    vals = transfer_values(cfg, 1.0 + 1j * betas)
    tanh_err = float(np.max(np.abs(vals + np.tanh(1.0 + 1j * betas))))
    sup1, _ = sc.transfer_sup_scan(cfg, 1.0, (-50, 50), 0.02)
    sup2, _ = sc.transfer_sup_scan(cfg, 1.0, (-50, 50), 0.01)
    stable = abs(sup2 - sup1) / sup1 < 0.01
    cfg3 = sc.ChainConfig(densities=(1.0, 4.0, 9.0))
    worst_rel = 0.0
    for lam in (1.0 + 2.0j, 1.0 + 9.0j):
        tv = sc.transfer_value(cfg3, lam)
        ov = oracle_transfer_value(cfg3, lam, 2000)
        worst_rel = max(worst_rel, abs(tv - ov) / abs(ov))
    ok = tanh_err <= 1e-10 and np.isfinite(sup2) and stable and worst_rel <= 0.005
    _report(10, "transfer function", ok,
            f"tanh error {tanh_err:.1e} (<= 1e-10), sup {sup2:.4f} stable: {stable}, "
            f"oracle rel diff {worst_rel:.2e} (<= 0.5%) ({time.perf_counter() - t0:.1f}s)")


def test_criterion_11_schrodinger_suite():
    t0 = time.perf_counter()
    cfg = sc.ChainConfig(densities=(1.0,))
    u0 = sample_function(cfg, 600, smooth_bump)
    trace, _ = sc.simulate_schrodinger(cfg, u0, SimOptions(points_per_edge=600, T=5.0, dt=1e-3))
    decreasing = bool(np.all(np.diff(trace.energies) < 0))
    e0 = trace.energies[0]
    balance = abs(e0 - trace.energies[-1] - trace.boundary_flux[-1]) / e0
    pos = schrodinger_norm_scan(cfg, np.logspace(2, 4, 12), probes=4, seed=111)
    pos_bounded = max(p.norm_estimate for p in pos) <= 1.0
    neg = schrodinger_norm_scan(cfg, -np.logspace(2, 4, 12), probes=4, seed=111)
    neg_ok = all(p.norm_estimate <= 1.2 / abs(p.beta) for p in neg)
    cfg2 = sc.ChainConfig(densities=(1.0, 4.0))
    g = random_probe(cfg2, uniform_grids(cfg2, 1601), seed=111, arity=1)
    sol = sc.schrodinger_resolvent(cfg2, 100.0, g)
    ref = sc.fd_bvp_solve(cfg2, 100.0j, g, "schrodinger", 1600)
    num = den = 0.0
    for j in range(cfg2.n_edges):
        xa = sol.u.grids[j]
        vb = np.interp(xa, ref.grids[j], ref.values[j])
        num += np.trapezoid(np.abs(sol.u.values[j] - vb) ** 2, xa).real
        den += np.trapezoid(np.abs(sol.u.values[j]) ** 2, xa).real
    oracle_diff = float(np.sqrt(num / den))
    ok = decreasing and balance <= 0.01 and pos_bounded and neg_ok and oracle_diff <= 0.01
    _report(11, "Schrodinger suite", ok,
            f"strictly decreasing: {decreasing}, balance {balance:.1e}, ratios bounded: "
            f"{pos_bounded}, beta<0 a priori: {neg_ok}, oracle diff {oracle_diff:.2e} "
            f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_12_admissibility_observability():
    t0 = time.perf_counter()
    cfg = sc.ChainConfig(densities=(1.0,))
    r800 = sc.admissibility_ratio(cfg, lambda t: np.sin(2 * np.pi * t),
                                  SimOptions(points_per_edge=800, T=4.0, cfl=0.5))
    r1600 = sc.admissibility_ratio(cfg, lambda t: np.sin(2 * np.pi * t),
                                   SimOptions(points_per_edge=1600, T=4.0, cfl=0.5))
    stable = abs(r1600 - r800) / r800 < 0.05
    mode = sample_state(cfg, 800, lambda x: np.cos(0.5 * np.pi * x).astype(complex))
    obs = sc.observability_ratio(cfg, mode, SimOptions(points_per_edge=800, T=4.0, cfl=0.5))
    far = sample_state(cfg, 800, lambda x: smooth_bump(x, 0.7, 0.95))
    tiny = sc.observability_ratio(cfg, far, SimOptions(points_per_edge=800, T=0.5, cfl=0.5))
    ok = np.isfinite(r800) and stable and obs > 0.1 and tiny < 1e-3
    _report(12, "admissibility/observability", ok,
            f"forced ratio {r800:.5f} (dt-stable: {stable}), mode ratio {obs:.3f} (> 0.1), "
            f"far-data ratio {tiny:.1e} (< 1e-3) ({time.perf_counter() - t0:.1f}s)")
