import numpy as np
import pytest

import stringchain as sc
from stringchain.chain_core import (
    h_norm,
    l2_norm,
    quadrature_weights,
    sample_function,
    uniform_grids,
    zeros_function,
)
from stringchain.errors import (
    GridMismatch,
    QuadratureTooCoarse,
    SingularDenominator,
    ZeroBeta,
)
from stringchain.resolvent import (
    random_probe,
    schrodinger_norm_scan,
    wave_resolvent_norm_scan,
)
from stringchain.transfer_matrix import propagate


def _const_vector_load(cfg, points, vec):
    grids = uniform_grids(cfg, points)
    return sc.ChainFunction(
        grids, [np.tile(np.asarray(vec, complex), (points, 1)) for _ in grids]
    )


def _vector_rel_diff(a, b):
    num = den = 0.0
    for j in range(a.n_edges):
        xa = a.grids[j]
        vb = np.stack([np.interp(xa, b.grids[j], b.values[j][:, c]) for c in range(2)], axis=1)
        num += np.trapezoid(np.sum(np.abs(a.values[j] - vb) ** 2, axis=1), xa).real
        den += np.trapezoid(np.sum(np.abs(a.values[j]) ** 2, axis=1), xa).real
    return np.sqrt(num / den)


def test_wave_resolvent_zero_load():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    g = _const_vector_load(cfg, 201, [0.0, 0.0])
    sol = sc.wave_resolvent(cfg, 3.0, g)
    assert max(np.max(np.abs(v)) for v in sol.W.values) <= 1e-14


def test_wave_resolvent_matches_box_oracle_single_edge():
    cfg = sc.ChainConfig(densities=(1.0,))
    sol = sc.wave_resolvent(cfg, 1.0, _const_vector_load(cfg, 1001, [1.0, 0.0]))
    ref = sc.fd_bvp_solve(cfg, 1.0j, _const_vector_load(cfg, 2001, [1.0, 0.0]), "wave", 2000)
    assert _vector_rel_diff(sol.W, ref) <= 0.01


def test_wave_resolvent_residual_three_edges():
    cfg = sc.ChainConfig(densities=(1.0, 4.0, 9.0))
    grids = uniform_grids(cfg, 2000)
    g = random_probe(cfg, grids, seed=17, arity=2)
    sol = sc.wave_resolvent(cfg, 10.0, g)
    assert sol.residual <= 1e-3


def test_wave_resolvent_boundary_rows_and_joints():
    cfg = sc.ChainConfig(densities=(1.0, 4.0, 9.0))
    g = random_probe(cfg, uniform_grids(cfg, 1001), seed=3, arity=2)
    sol = sc.wave_resolvent(cfg, 7.0, g)
    scale = max(np.max(np.abs(v)) for v in sol.W.values)
    # exact transmission by construction
    for j in range(1, 3):
        assert np.max(np.abs(sol.W.values[j - 1][-1] - sol.W.values[j][0])) <= 1e-12 * scale
    w0 = sol.W.values[0][0]
    assert abs(w0[0] - w0[1]) <= 1e-9 * scale  # damped row (1,-1) W(0) = 0
    assert abs(sol.W.values[-1][-1][0]) <= 1e-9 * scale  # clamped row


def test_wave_resolvent_affine_bookkeeping():
    # where the load vanishes, the joint values propagate by the edge exponential
    cfg = sc.ChainConfig(densities=(1.0, 2.0, 3.0, 4.0))
    g = random_probe(cfg, uniform_grids(cfg, 801), seed=11, arity=2)
    g = sc.ChainFunction(g.grids, [g.values[0]] + [np.zeros_like(v) for v in g.values[1:]])
    beta = 4.0
    sol = sc.wave_resolvent(cfg, beta, g)
    for j in range(2, cfg.n_edges):
        start, end = sol.W.values[j - 1][0], sol.W.values[j][0]  # W_{j-1}(j-1), W_j(j)
        expect = sc.exp_hyp(cfg.densities[j - 1], 1j * beta, 1.0) @ start
        assert np.max(np.abs(expect - end)) <= 1e-10 * max(1.0, np.max(np.abs(end)))


def test_wave_resolvent_residual_second_order():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    res = []
    for p in (501, 1001):
        g = sample_function(cfg, p, lambda x: np.sin(np.pi * x) + 0.3 * np.cos(2 * np.pi * x))
        gv = sc.ChainFunction(g.grids, [np.stack([v, 0.5 * v], axis=1) for v in g.values])
        res.append(sc.wave_resolvent(cfg, 6.0, gv).residual)
    assert res[0] / res[1] >= 3.0


def test_wave_resolvent_quadrature_guard():
    cfg = sc.ChainConfig(densities=(1.0,))
    g = _const_vector_load(cfg, 100, [1.0, 0.0])
    with pytest.raises(QuadratureTooCoarse):
        sc.wave_resolvent(cfg, 200.0, g)


def test_wave_norm_scan_monotone_in_probes():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    est = [
        wave_resolvent_norm_scan(cfg, [50.0], probes=k, seed=0)[0].norm_estimate
        for k in (1, 4, 16)
    ]
    assert est[0] <= est[1] <= est[2]


def test_wave_norm_scan_bounded():
    cfg = sc.ChainConfig(densities=(1.0,))
    betas = np.logspace(0, 3, 16)
    pts = wave_resolvent_norm_scan(cfg, betas, probes=4, seed=0)
    ests = np.array([p.norm_estimate for p in pts])
    assert np.all(np.isfinite(ests))
    assert ests.max() <= 10.0


def test_wave_norm_scan_within_factor_three_of_fd():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    op = sc.fd_wave_matrix(cfg, 600)
    for beta in (10.0, 100.0):
        fd = sc.fd_resolvent_norm(op, beta)
        est = wave_resolvent_norm_scan(cfg, [beta], probes=64, seed=0)[0].norm_estimate
        assert est <= fd * 1.05  # probe max is a lower bound (plus fd discretization slack)
        assert fd <= 3.0 * est


def test_schrodinger_resolvent_zero_load():
    cfg = sc.ChainConfig(densities=(1.0,))
    g = sample_function(cfg, 301, lambda x: np.zeros_like(x, dtype=complex))
    sol = sc.schrodinger_resolvent(cfg, 9.0, g)
    assert max(np.max(np.abs(v)) for v in sol.u.values) <= 1e-14


def test_schrodinger_resolvent_vs_oracle():
    cfg = sc.ChainConfig(densities=(1.0,))
    g = sample_function(cfg, 1601, lambda x: np.ones_like(x, dtype=complex))
    sol = sc.schrodinger_resolvent(cfg, 25.0, g)
    ref = sc.fd_bvp_solve(cfg, 25.0j, g, "schrodinger", 1600)
    num = den = 0.0
    for j in range(1):
        xa = sol.u.grids[j]
        vb = np.interp(xa, ref.grids[j], ref.values[j])
        num += np.trapezoid(np.abs(sol.u.values[j] - vb) ** 2, xa).real
        den += np.trapezoid(np.abs(sol.u.values[j]) ** 2, xa).real
    assert np.sqrt(num / den) <= 0.01
    assert sol.residual <= 1e-3


def test_schrodinger_coefficients_match_traces():
    # u and its flux rho u' are continuous across the joint on both branches
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    g = random_probe(cfg, uniform_grids(cfg, 1201), seed=29, arity=1)
    for beta in (30.0, -30.0):
        sol = sc.schrodinger_resolvent(cfg, beta, g)
        for trace in (sol.u.values, sol.flux):
            assert abs(trace[0][-1] - trace[1][0]) <= 1e-9 * max(1.0, np.max(np.abs(trace[0])))


def test_schrodinger_negative_beta_a_priori_bound():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    g = random_probe(cfg, uniform_grids(cfg, 801), seed=31, arity=1)
    sol = sc.schrodinger_resolvent(cfg, -100.0, g)
    assert l2_norm(sol.u) <= 1.1 * l2_norm(g) / 100.0
    assert sol.residual <= 1e-3


def test_schrodinger_rejects_zero_beta():
    cfg = sc.ChainConfig(densities=(1.0,))
    g = sample_function(cfg, 101, lambda x: np.ones_like(x, dtype=complex))
    with pytest.raises(ZeroBeta):
        sc.schrodinger_resolvent(cfg, 0.0, g)
    with pytest.raises(ZeroBeta, match="beta must be nonzero"):
        sc.schrodinger_norm_scan(cfg, [0.0], 1)


@pytest.mark.parametrize("solve, arity", [(sc.wave_resolvent, 2), (sc.schrodinger_resolvent, 1)])
def test_resolvent_load_on_wrong_number_of_edges(solve, arity):
    # the same exception as the energies, the stepper and the oracle raise
    load = zeros_function(sc.ChainConfig((1.0,)), 101, arity)
    with pytest.raises(GridMismatch):
        solve(sc.ChainConfig((1.0, 4.0)), 9.0, load)


def test_schrodinger_scan_bounded_both_signs():
    cfg = sc.ChainConfig(densities=(1.0,))
    pos = schrodinger_norm_scan(cfg, [1e2, 1e3, 1e4], probes=4, seed=0)
    assert all(np.isfinite(p.norm_estimate) for p in pos)
    assert max(p.norm_estimate for p in pos) <= 1.0
    neg = schrodinger_norm_scan(cfg, [-1e2, -1e3, -1e4], probes=4, seed=0)
    for p in neg:
        assert p.norm_estimate <= 1.2 / abs(p.beta)


def test_schrodinger_scan_monotone_in_probes():
    cfg = sc.ChainConfig(densities=(1.0,))
    est = [
        schrodinger_norm_scan(cfg, [300.0], probes=k, seed=0)[0].norm_estimate
        for k in (1, 4, 16)
    ]
    assert est[0] <= est[1] <= est[2]


# ----------------------------------------------------------------------------
# Reference copy of the per-probe algorithm the solve plans replaced: probes
# summed mode by mode, the load interpolated to 8 Gauss-Legendre nodes per
# cell and the 8-node sums taken per probe, norms by h_norm / l2_norm.

_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _ref_random_probe(cfg, grids, seed, arity, modes=8, center=0.0):
    rng = np.random.default_rng(seed)
    values = []
    for j, g in enumerate(grids):
        xt = g - float(j)
        v = np.zeros((g.size, arity), dtype=complex)
        if center == 0.0:
            mode_idx = np.arange(1, modes + 1)
        else:
            mc = max(1, int(np.rint(abs(center) / (np.pi * cfg.wave_speeds[j]))))
            lo = max(1, mc - modes // 2 + 1)
            mode_idx = np.arange(lo, lo + modes)
        coefs = rng.standard_normal((modes, arity, 2, 2))
        for i, m in enumerate(mode_idx):
            amp_c = coefs[i, :, 0, 0] + 1j * coefs[i, :, 0, 1]
            amp_s = coefs[i, :, 1, 0] + 1j * coefs[i, :, 1, 1]
            v += amp_c[None, :] * np.cos(m * np.pi * xt)[:, None]
            v += amp_s[None, :] * np.sin(m * np.pi * xt)[:, None]
        values.append(v[:, 0] if arity == 1 else v)
    return sc.ChainFunction(list(grids), values)


def _ref_gl(x, vals):
    """GL nodes per cell and the load linearly interpolated to them."""
    h = np.diff(x)
    tau = 0.5 * (_REF_NODES + 1.0)
    s = x[:-1, None] + tau[None, :] * h[:, None]
    lo, hi = vals[:-1], vals[1:]
    if vals.ndim == 1:
        return s, h, lo[:, None] * (1.0 - tau) + hi[:, None] * tau
    return s, h, lo[:, None, :] * (1.0 - tau)[None, :, None] + hi[:, None, :] * tau[None, :, None]


def _ref_cells(integrand, h):
    if integrand.ndim == 2:
        return (integrand * _REF_WEIGHTS).sum(axis=1) * (0.5 * h)
    return (integrand * _REF_WEIGHTS[None, :, None]).sum(axis=1) * (0.5 * h[:, None])


def _ref_wave(cfg, beta, G):
    """(W, residual) of the wave solve."""
    speeds = cfg.wave_speeds
    n_edges = cfg.n_edges
    anchors = [1.0] + [float(j) for j in range(1, n_edges)]
    p_parts = []
    for j in range(n_edges):
        rho, c, x = cfg.densities[j], speeds[j], G.grids[j]
        s, h, gv = _ref_gl(x, G.values[j])
        theta = beta * (anchors[j] - s) / c
        ct, st = np.cos(theta), np.sin(theta)
        b1, b2 = gv[:, :, 1] / rho, gv[:, :, 0]
        q = np.stack([ct * b1 + 1j * st / c * b2, 1j * c * st * b1 + ct * b2], axis=2)
        cells = _ref_cells(q, h)
        p = np.zeros((x.size, 2), dtype=complex)
        if j == 0:
            p[:-1] = -np.cumsum(cells[::-1], axis=0)[::-1]
        else:
            p[1:] = np.cumsum(cells, axis=0)
        p_parts.append(p)
    # the edge exponentials at a Python complex i beta, whose phases beta / c are rounded
    # once; H is the damped row moved to x = 1 over the first row of E_{N-1} ... E_1
    exps = [sc.exp_hyp(rho, 1j * beta, 1.0) for rho in cfg.densities]
    q = np.eye(2, dtype=complex)
    for e in exps[1:]:
        q = e @ q
    h_mat = np.array([np.array([1.0, -1.0]) @ sc.exp_hyp(cfg.densities[0], 1j * beta, -1.0), q[0]])
    gamma = []
    if n_edges >= 2:
        gamma.append(np.zeros(2, dtype=complex))
        for j in range(2, n_edges):
            gamma.append(exps[j - 1] @ (gamma[-1] + p_parts[j - 1][-1]))
    y2 = 0.0j if n_edges == 1 else (exps[-1] @ (gamma[-1] + p_parts[-1][-1]))[0]
    y = np.array([h_mat[0, :] @ p_parts[0][0], y2], dtype=complex)
    f_list = [np.linalg.solve(h_mat, y)]
    if n_edges >= 2:
        f_list.append(f_list[0].copy())
        for j in range(2, n_edges):
            f_list.append(exps[j - 1] @ (f_list[j - 1] - p_parts[j - 1][-1]))
    values, num = [], 0.0
    for j in range(n_edges):
        rho, c, x = cfg.densities[j], speeds[j], G.grids[j]
        phi = beta * (x - anchors[j]) / c
        ct, st = np.cos(phi), np.sin(phi)
        d = f_list[j][None, :] - p_parts[j]
        w = np.stack([ct * d[:, 0] + 1j * st / c * d[:, 1], 1j * c * st * d[:, 0] + ct * d[:, 1]],
                     axis=1)
        values.append(w)
        r1 = 1j * beta * w[:, 0] - np.gradient(w[:, 1], x, edge_order=2) - G.values[j][:, 0]
        r2 = 1j * beta * w[:, 1] - rho * np.gradient(w[:, 0], x, edge_order=2) - G.values[j][:, 1]
        num += np.trapezoid(rho * np.abs(r1) ** 2 + np.abs(r2) ** 2, x).real
    W = sc.ChainFunction(G.grids, values)
    return W, float(np.sqrt(num) / h_norm(G, cfg))


def _ref_schrodinger(cfg, beta, g):
    """(u, flux, residual) of the Schrodinger solve on either branch."""
    speeds = cfg.wave_speeds
    n_edges = cfg.n_edges
    values, flux = [], []
    if beta > 0:
        sb = np.sqrt(beta)
        gp, dgp, wv = [], [], []
        for j in range(n_edges):
            rho, c, x = cfg.densities[j], speeds[j], g.grids[j]
            a = sb / c
            s, h, gv = _ref_gl(x, g.values[j])
            ic = np.concatenate([[0.0], np.cumsum(_ref_cells(np.cos(a * (s - j)) * gv, h))])
            is_ = np.concatenate([[0.0], np.cumsum(_ref_cells(np.sin(a * (s - j)) * gv, h))])
            ct, st = np.cos(a * (x - j)), np.sin(a * (x - j))
            gp.append((st * ic - ct * is_) / (1j * sb * c))
            dgp.append((ct * ic + st * is_) / (1j * rho))
            wv.append(np.array([gp[j][-1], rho * dgp[j][-1]], dtype=complex))
        steps = [np.array([[np.cos(sb / c), np.sin(sb / c) / (sb * c)],
                           [-sb * c * np.sin(sb / c), np.cos(sb / c)]], dtype=complex)
                 for c in speeds]
        prod, acc = np.eye(2, dtype=complex), np.zeros(2, dtype=complex)
        for j in range(n_edges):
            acc = steps[j] @ acc + wv[j]
            prod = steps[j] @ prod
        c01 = -acc[0] / (prod[0, 0] + 1j * prod[0, 1])
        f = np.array([c01, 1j * c01], dtype=complex)
        for j in range(n_edges):
            rho, c, x = cfg.densities[j], speeds[j], g.grids[j]
            a = sb / c
            ct, st = np.cos(a * (x - j)), np.sin(a * (x - j))
            values.append(gp[j] + f[0] * ct + f[1] * st / (sb * c))
            flux.append(rho * (dgp[j] - a * f[0] * st + (f[1] / rho) * ct))
            f = steps[j] @ f + wv[j]
    else:
        ms = [np.sqrt(-beta) / c for c in speeds]
        up, dup = [], []
        for j in range(n_edges):
            m, x = ms[j], g.grids[j]
            s, h, fv = _ref_gl(x, g.values[j] / (1j * cfg.densities[j]))
            fwd = _ref_cells(np.exp(-m * (x[1:, None] - s)) * fv, h)
            bwd = _ref_cells(np.exp(-m * (s - x[:-1, None])) * fv, h)
            decay = np.exp(-m * h)
            a_cum = np.zeros(x.size, dtype=complex)
            b_cum = np.zeros(x.size, dtype=complex)
            for k in range(x.size - 1):
                a_cum[k + 1] = decay[k] * a_cum[k] + fwd[k]
            for k in range(x.size - 2, -1, -1):
                b_cum[k] = decay[k] * b_cum[k + 1] + bwd[k]
            up.append(-(a_cum + b_cum) / (2.0 * m))
            dup.append((a_cum - b_cum) / 2.0)
        size = 2 * n_edges
        mat = np.zeros((size, size), dtype=complex)
        rhs = np.zeros(size, dtype=complex)
        e = [np.exp(-m) for m in ms]
        rho0 = cfg.densities[0]
        mat[0, :2] = [-rho0 * ms[0] - 1j, (rho0 * ms[0] - 1j) * e[0]]
        rhs[0] = 1j * up[0][0] - rho0 * dup[0][0]
        for j in range(1, n_edges):
            rl, rr = cfg.densities[j - 1], cfg.densities[j]
            mat[2 * j - 1, 2 * j - 2:2 * j + 2] = [e[j - 1], 1.0, -1.0, -e[j]]
            rhs[2 * j - 1] = up[j][0] - up[j - 1][-1]
            mat[2 * j, 2 * j - 2:2 * j + 2] = [-rl * ms[j - 1] * e[j - 1], rl * ms[j - 1],
                                               rr * ms[j], -rr * ms[j] * e[j]]
            rhs[2 * j] = rr * dup[j][0] - rl * dup[j - 1][-1]
        mat[-1, -2:] = [e[-1], 1.0]
        rhs[-1] = -up[-1][-1]
        ab = np.linalg.solve(mat, rhs)
        for j in range(n_edges):
            m, xt = ms[j], g.grids[j] - j
            ea, eb = np.exp(-m * xt), np.exp(-m * (1.0 - xt))
            values.append(up[j] + ab[2 * j] * ea + ab[2 * j + 1] * eb)
            flux.append(cfg.densities[j] * (dup[j] - m * ab[2 * j] * ea + m * ab[2 * j + 1] * eb))
    num = 0.0
    for j in range(n_edges):
        x = g.grids[j]
        dflux = np.gradient(flux[j], x, edge_order=2)
        num += np.trapezoid(np.abs(dflux + 1j * g.values[j] + beta * values[j]) ** 2, x).real
    return sc.ChainFunction(g.grids, values), flux, float(np.sqrt(num) / l2_norm(g))


def _beta_key(beta):
    return int(np.float64(beta).view(np.uint64))


def _ref_wave_scan(cfg, beta, probes, seed):
    grids = uniform_grids(cfg, max(257, int(np.ceil(1.75 * beta / np.min(cfg.wave_speeds))) + 2))
    best = worst = 0.0
    for k in range(probes):
        g = _ref_random_probe(cfg, grids, [seed, _beta_key(beta), k], 2, center=beta)
        W, residual = _ref_wave(cfg, beta, g)
        best = max(best, h_norm(W, cfg) / h_norm(g, cfg))
        worst = max(worst, residual)
    return best, worst


def _ref_schrodinger_scan(cfg, beta, probes, seed):
    c_min = float(np.min(cfg.wave_speeds))
    if beta > 0:
        pts = max(257, int(np.ceil(1.75 * np.sqrt(beta) / c_min)) + 2)
    else:
        pts = max(257, int(np.ceil(np.sqrt(-beta) / (2.0 * c_min))) + 2)
    grids = uniform_grids(cfg, pts)
    best = worst = 0.0
    for k in range(probes):
        g = _ref_random_probe(cfg, grids, [seed, _beta_key(beta), k], 1,
                              center=np.sqrt(beta) if beta > 0 else 0.0)
        u, _, residual = _ref_schrodinger(cfg, beta, g)
        best = max(best, l2_norm(u) / l2_norm(g))
        worst = max(worst, residual)
    return best, worst


_REF_CHAINS = [(1.0,), (1.0, 4.0), (2.0, 1.0, 3.0, 1.5)]


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("densities", _REF_CHAINS)
def test_wave_scan_matches_reference(densities):
    cfg = sc.ChainConfig(densities)
    betas = [10.0, 316.0, 1e4]
    for pt in wave_resolvent_norm_scan(cfg, betas, probes=8, seed=4):
        est, residual = _ref_wave_scan(cfg, pt.beta, 8, 4)
        assert pt.norm_estimate == pytest.approx(est, rel=1e-12, abs=0)
        assert pt.residual_max == pytest.approx(residual, rel=1e-12, abs=0)


@pytest.mark.parametrize("densities", _REF_CHAINS)
def test_schrodinger_scan_matches_reference(densities):
    cfg = sc.ChainConfig(densities)
    betas = [100.0, -100.0, 1e4, -1e4]
    for pt in schrodinger_norm_scan(cfg, betas, probes=8, seed=4):
        est, residual = _ref_schrodinger_scan(cfg, pt.beta, 8, 4)
        assert pt.norm_estimate == pytest.approx(est, rel=1e-12, abs=0)
        assert pt.residual_max == pytest.approx(residual, rel=1e-12, abs=0)


@pytest.mark.parametrize("arity, center", [(1, 0.0), (2, 0.0), (1, 300.0), (2, 1e4)])
def test_random_probe_matches_mode_loop(arity, center):
    cfg = sc.ChainConfig((1.0, 4.0, 2.0))
    rng = np.random.default_rng(1)
    grids = [uniform_grids(cfg, 601)[0], uniform_grids(cfg, 257)[1],
             np.sort(np.concatenate([[2.0, 3.0], rng.uniform(2.0, 3.0, 400)]))]
    got = random_probe(cfg, grids, seed=[7, 3], arity=arity, center=center)
    ref = _ref_random_probe(cfg, grids, [7, 3], arity, center=center)
    assert got.arity == arity
    for a, b in zip(got.values, ref.values):
        assert a.shape == b.shape
        assert _rel(a, b) <= 1e-13


_WAVE_REF_BETAS = (40.0, -40.0, 0.0)


@pytest.mark.parametrize(
    "densities, beta", [(d, b) for b in _WAVE_REF_BETAS for d in _REF_CHAINS],
    ids=[f"densities{i}" + ("" if b == 40.0 else f"-beta{b:g}")
         for b in _WAVE_REF_BETAS for i in range(len(_REF_CHAINS))])
def test_wave_resolvent_matches_reference(densities, beta):
    cfg = sc.ChainConfig(densities)
    g = random_probe(cfg, uniform_grids(cfg, 1201), seed=21, arity=2, center=40.0)
    sol = sc.wave_resolvent(cfg, beta, g)
    W, residual = _ref_wave(cfg, beta, g)
    assert _rel(np.concatenate(sol.W.values), np.concatenate(W.values)) <= 1e-12
    assert sol.residual == pytest.approx(residual, rel=1e-9)


@pytest.mark.parametrize("beta, uneven", [(30.0, False), (-30.0, False), (-30.0, True),
                                          (-1e4, True)],
                         ids=["30.0", "-30.0", "-30.0-uneven", "-1e4-uneven"])
def test_schrodinger_resolvent_matches_reference(beta, uneven):
    # uneven: random interior nodes per edge, so no two cells share a decay factor
    cfg = sc.ChainConfig((2.0, 1.0, 3.0, 1.5))
    rng = np.random.default_rng(5)
    grids = ([np.sort(np.concatenate([[j, j + 1.0], rng.uniform(j, j + 1.0, 600)]))
              for j in range(cfg.n_edges)] if uneven else uniform_grids(cfg, 801))
    g = random_probe(cfg, grids, seed=22, arity=1)
    sol = sc.schrodinger_resolvent(cfg, beta, g)
    u, flux, residual = _ref_schrodinger(cfg, beta, g)
    assert _rel(np.concatenate(sol.u.values), np.concatenate(u.values)) <= 1e-12
    assert _rel(np.concatenate(sol.flux), np.concatenate(flux)) <= 1e-12
    assert sol.residual == pytest.approx(residual, rel=1e-9)


def test_scan_probes_are_evaluated_one_at_a_time():
    # the k-probe estimate is the running max over probes evaluated on their own,
    # so the 1-probe scan is the first probe of the 8-probe scan, bit for bit
    from stringchain import resolvent

    cfg = sc.ChainConfig((1.0, 4.0))
    beta, seed = 316.0, 9
    grids = uniform_grids(cfg, resolvent._scan_grid(cfg, beta, "wave")[0])
    plan = resolvent._OscillatoryPlan(cfg, beta, grids, "wave")
    bases = resolvent._probe_bases(cfg, grids, beta)
    weights = [quadrature_weights(x) for x in grids]
    ratios, residuals = [], []
    for k in range(8):
        g = resolvent._probe_values(bases, [[seed, _beta_key(beta), k]], 2)
        w = plan.apply(g)
        g_norm = resolvent._norm("wave", cfg, weights, g)
        ratios.append(float(resolvent._norm("wave", cfg, weights, w)[0] / g_norm[0]))
        residuals.append(float(resolvent._residual("wave", cfg, beta, grids, g, w, g_norm)[0]))
    one = wave_resolvent_norm_scan(cfg, [beta], probes=1, seed=seed)[0]
    eight = wave_resolvent_norm_scan(cfg, [beta], probes=8, seed=seed)[0]
    assert (one.norm_estimate, one.residual_max) == (ratios[0], residuals[0])
    assert (eight.norm_estimate, eight.residual_max) == (max(ratios), max(residuals))


@pytest.mark.parametrize("kind", ["wave", "schrodinger"])
def test_plan_denominator_is_the_kernel_closure(kind):
    # den comes from the plan's own edge matrices; the kernel gives the first component of
    # P * start too, for the Schrodinger chain through P_S = diag(1, mu) P(mu) diag(1, 1/mu)
    # at mu = sqrt(i * i beta) = i sqrt(beta)
    from stringchain import resolvent

    rng = np.random.default_rng(43)
    for _ in range(24):
        cfg = sc.ChainConfig(tuple(rng.uniform(0.25, 4.0, int(rng.integers(1, 5)))))
        beta = float(10.0 ** rng.uniform(-1.0, 3.0))
        if kind == "wave" and rng.uniform() < 0.5:
            beta = -beta
        grids = uniform_grids(cfg, resolvent._scan_grid(cfg, beta, kind)[0])
        plan = resolvent._OscillatoryPlan(cfg, beta, grids, kind)
        mu, scale = (1j * beta, 1.0) if kind == "wave" else (1j * np.sqrt(beta), 1j * np.sqrt(beta))
        (p00, p01), _ = propagate(cfg, mu, np.eye(2))
        den = p00 * plan.start[0] + p01 / scale * plan.start[1]
        assert abs(plan.den - den) <= 1e-12 * abs(den)


@pytest.mark.parametrize("kind, beta", [("wave", 10.0), ("wave", 1e3),
                                        ("schrodinger", 100.0), ("schrodinger", -100.0)])
def test_stacked_apply_is_stacks_of_one(kind, beta):
    # a plan solves a stack of loads as it solves each load alone, bit for bit, and the
    # stacked loads are those drawn one seed at a time
    from stringchain import resolvent

    rng = np.random.default_rng(61)
    arity = 2 if kind == "wave" else 1
    for trial in range(4):
        cfg = sc.ChainConfig(tuple(rng.uniform(0.25, 4.0, int(rng.integers(1, 5)))))
        points, center = resolvent._scan_grid(cfg, beta, kind)
        grids = uniform_grids(cfg, points)
        plan = resolvent._plan(cfg, beta, grids, kind)
        bases = resolvent._probe_bases(cfg, grids, center)
        seeds = [[trial, k] for k in range(8)]
        loads = resolvent._probe_values(bases, seeds, arity)
        stacked = plan.apply(loads)
        for k, seed in enumerate(seeds):
            alone = resolvent._probe_values(bases, [seed], arity)
            single = plan.apply(alone)
            for j in range(cfg.n_edges):
                assert np.array_equal(loads[j][k], alone[j][0])
                assert np.array_equal(stacked[j][k], single[j][0])


@pytest.mark.parametrize("kind, beta", [("wave", 40.0), ("wave", 1e3),
                                        ("schrodinger", 100.0), ("schrodinger", -100.0)])
def test_stacked_norms_are_the_chain_core_norms(kind, beta):
    # the scans' norm of each load in a stack is h_norm (wave) or l2_norm (Schrodinger)
    # of that load alone, bit for bit: both are chain_core's one weighted sum
    from stringchain import resolvent

    rng = np.random.default_rng(63)
    arity = 2 if kind == "wave" else 1
    for trial in range(4):
        cfg = sc.ChainConfig(tuple(rng.uniform(0.25, 4.0, int(rng.integers(1, 5)))))
        points, center = resolvent._scan_grid(cfg, beta, kind)
        grids = uniform_grids(cfg, points)
        weights = [quadrature_weights(x) for x in grids]
        loads = resolvent._probe_values(resolvent._probe_bases(cfg, grids, center),
                                        [[trial, k] for k in range(8)], arity)
        norms = resolvent._norm(kind, cfg, weights, loads)
        for k in range(8):
            alone = sc.ChainFunction(grids, [v[k].T for v in loads])
            assert norms[k] == (h_norm(alone, cfg) if kind == "wave" else l2_norm(alone))


@pytest.mark.parametrize("kind, beta, uneven", [
    ("wave", 10.0, False), ("wave", 316.0, False), ("wave", 1e4, False), ("wave", -1e4, False),
    ("schrodinger", 100.0, False), ("schrodinger", 1e4, False), ("wave", 316.0, True),
    ("schrodinger", -100.0, False), ("schrodinger", -1e4, False),
    ("schrodinger", -100.0, True), ("schrodinger", -1e4, True)])
def test_oscillatory_plan_weights_are_the_node_sums(kind, beta, uneven):
    # both plans' per-cell weights, built once per distinct cell width, are the 8-node
    # Gauss-Legendre sums of their kernels against the two hat functions.  At a real
    # frequency the kernels are cos and sin of omega (s - j), which the plan builds by angle
    # addition from the grid-point phases, so up to the rounding of the phase itself.  At
    # beta < 0 (Schrodinger) they are e^{-m (x_{i+1} - s)} and e^{-m (s - x_i)}, and the
    # doubling factors, taken from the grid, are the products of the per-cell decays
    from stringchain import resolvent

    cfg = sc.ChainConfig((2.09, 1.0, 1.67))
    if uneven:  # random interior nodes per edge, so nearly every cell has its own width
        rng = np.random.default_rng(71)
        grids = [np.sort(np.concatenate([[j, j + 1.0], rng.uniform(j, j + 1.0, 8000)]))
                 for j in range(cfg.n_edges)]
    else:
        grids = uniform_grids(cfg, resolvent._scan_grid(cfg, beta, kind)[0])
    decaying = kind == "schrodinger" and beta < 0
    plan = resolvent._plan(cfg, beta, grids, kind)
    if decaying:
        rate = np.sqrt(-beta) / cfg.wave_speeds  # m_j
    else:
        rate = (beta if kind == "wave" else np.sqrt(beta)) / cfg.wave_speeds  # omega_j
    eps = np.finfo(float).eps
    for j, x in enumerate(grids):
        h = np.diff(x)
        s = x[:-1, None] + resolvent._GL_TAU[None, :] * h[:, None]
        if decaying:
            kernels = (np.exp(-rate[j] * (x[1:, None] - s)), np.exp(-rate[j] * (s - x[:-1, None])))
        else:
            phase = rate[j] * (s - float(j))
            kernels = (np.cos(phase), np.sin(phase))
        direct = []
        for kernel in kernels:
            direct += [(kernel @ resolvent._GL_LEFT) * (0.5 * h),
                       (kernel @ resolvent._GL_RIGHT) * (0.5 * h)]
        bound = 8 * eps * (1 + abs(rate[j]))
        for w, ref in zip(plan.cells[j], direct):
            assert np.max(np.abs(w - ref)) <= bound * np.max(np.abs(ref))
        if decaying:
            # the pass of width step scales point i by the decays of the step cells that end
            # there, forward and on the reversed cells: products formed by recursive doubling
            # in extended precision, whose own rounding, one per decay, the bound adds
            steps = [step for step, _ in plan.scans[j]]
            assert steps == [2**k for k in range(int(np.ceil(np.log2(h.size))))]
            prod = np.exp(-rate[j] * np.stack([h, h[::-1]]).astype(np.longdouble))
            for step, factor in plan.scans[j]:
                ref = prod[:, step:].astype(float)
                extended = step * float(np.finfo(np.longdouble).eps)
                assert np.max(np.abs(factor - ref)) <= (bound + extended) * np.max(ref)
                prod[:, step:] = prod[:, step:] * prod[:, :-step]


@pytest.mark.parametrize("kind, beta", [("wave", 40.0), ("wave", 1e3),
                                        ("schrodinger", 100.0), ("schrodinger", -100.0)])
def test_solves_are_the_scan_stack_transposed(kind, beta):
    # wave_resolvent and schrodinger_resolvent hold their values points first, (n, 2); the
    # scans hold a stack components first, (K, 2, n).  For the same random_probe load the
    # public values are the .T of the scan's stack of one, bit for bit, whatever the
    # memory layout of the load's values
    from stringchain import resolvent

    cfg = sc.ChainConfig((2.09, 1.0, 1.67))
    arity = 2 if kind == "wave" else 1
    points, center = resolvent._scan_grid(cfg, beta, kind)
    grids = uniform_grids(cfg, points)
    seed = [7, resolvent._beta_key(beta), 0]
    g = random_probe(cfg, grids, seed, arity=arity, center=center)
    plan = resolvent._plan(cfg, beta, grids, kind)
    stack = resolvent._probe_values(resolvent._probe_bases(cfg, grids, center), [seed], arity)
    values = plan.apply(stack)
    weights = [quadrature_weights(x) for x in grids]
    residual = resolvent._residual(kind, cfg, beta, grids, stack, values,
                                   resolvent._norm(kind, cfg, weights, stack))
    loads = [list(g.values), [np.ascontiguousarray(v) for v in g.values]]
    if arity == 2:
        strided = []
        for v in g.values:  # every other column of a wider array: neither C nor F order
            wide = np.zeros((v.shape[0], 4), dtype=complex)
            wide[:, ::2] = v
            strided.append(wide[:, ::2])
        assert not (strided[0].flags.c_contiguous or strided[0].flags.f_contiguous)
        loads.append(strided)
    for load in loads:
        load = sc.ChainFunction(grids, load)
        for j in range(cfg.n_edges):
            assert np.array_equal(load.values[j].T, stack[j][0])
        if kind == "wave":
            sol = sc.wave_resolvent(cfg, beta, load)
            for j in range(cfg.n_edges):
                assert np.array_equal(sol.W.values[j], values[j][0].T)
        else:
            sol = sc.schrodinger_resolvent(cfg, beta, load)
            for j in range(cfg.n_edges):
                assert np.array_equal(sol.u.values[j], values[j][0, 0])
                assert np.array_equal(sol.flux[j], values[j][0, 1])
        assert sol.residual == float(residual[0])


def test_negative_beta_singular_system_raises_singular_denominator(monkeypatch):
    # the beta < 0 coefficient system is solved per stack; a singular one is reported
    # as the closed form's SingularDenominator, naming beta
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    cfg = sc.ChainConfig((1.0, 4.0))
    g = random_probe(cfg, uniform_grids(cfg, 101), seed=3, arity=1)
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularDenominator, match="beta = -40.0"):
        sc.schrodinger_resolvent(cfg, -40.0, g)


def test_both_closed_forms_read_the_one_denominator_floor(monkeypatch):
    # the floor is SingularDenominator.FLOOR alone: raising it reaches the resolvent plan
    # and the transfer value, each naming its point as before
    from stringchain.transfer_function import transfer_values

    cfg = sc.ChainConfig((1.0, 4.0))
    g = random_probe(cfg, uniform_grids(cfg, 101), seed=3, arity=2)
    monkeypatch.setattr(SingularDenominator, "FLOOR", np.inf)
    with pytest.raises(SingularDenominator, match="beta = 3.0"):
        sc.wave_resolvent(cfg, 3.0, g)
    with pytest.raises(SingularDenominator, match="lam = 1"):
        transfer_values(cfg, np.array([1.0 + 2.0j]))


def test_scan_points_do_not_depend_on_the_stack_size(monkeypatch):
    from stringchain import resolvent

    rng = np.random.default_rng(62)
    chains = [sc.ChainConfig(tuple(rng.uniform(0.25, 4.0, n))) for n in (1, 2, 4)]
    scans = [(wave_resolvent_norm_scan, [10.0, -40.0, 316.0]),
             (schrodinger_norm_scan, [100.0, -100.0, 1e4, -1e4])]

    def run():
        return [scan(cfg, betas, probes=8, seed=5) for cfg in chains for scan, betas in scans]

    stacked = run()
    monkeypatch.setattr(resolvent, "_STACK_POINTS", 1)  # every probe a stack of one
    assert run() == stacked


def test_norm_scan_memory_peak():
    # beta = 1e4 on four edges (70,008 grid points) is the benchmark's largest scan
    # frequency and a stack of one probe.  Before probes were stacked this scan peaked at
    # 22.6 MB of traced memory (22.98 MB measured as below); building the stack from
    # copies of the loads took it to 29.1 MB.
    import tracemalloc

    cfg = sc.ChainConfig((2.09, 1, 1.67, 3.42))
    wave_resolvent_norm_scan(cfg, [10.0], 8)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        wave_resolvent_norm_scan(cfg, [1e4], 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 22.6e6


def test_resolvent_input_checks():
    from stringchain.errors import ArityMismatch
    cfg = sc.ChainConfig((1.0, 4.0))
    grids = uniform_grids(cfg, 801)
    with pytest.raises(ArityMismatch, match="2-vector load"):
        sc.wave_resolvent(cfg, 3.0, random_probe(cfg, grids, seed=1, arity=1))
    with pytest.raises(ArityMismatch, match="scalar load"):
        sc.schrodinger_resolvent(cfg, 17.0, random_probe(cfg, grids, seed=1, arity=2))
    for scan in (wave_resolvent_norm_scan, schrodinger_norm_scan):
        with pytest.raises(ValueError, match="probes must be >= 1"):
            scan(cfg, [10.0], 0)
