import numpy as np
import pytest
import scipy.linalg as sla

import stringchain as sc
from stringchain.chain_core import EnergyTrace, sample_function, sample_state, smooth_bump
from stringchain.errors import (
    ArityMismatch,
    CflViolation,
    GridMismatch,
    InsufficientDecay,
    LinearSolveFailure,
)
from stringchain.oracle import fd_wave_matrix
from stringchain.timesim import _Layout, _schrodinger_tridiag


def _bump_state(cfg, points):
    def u0(x):
        return np.where(x <= 1.0, smooth_bump(np.clip(x, 0.0, 1.0)), 0.0).astype(complex)

    return sample_state(cfg, points, u0)


def test_sim_options_validation():
    with pytest.raises(CflViolation):
        sc.SimOptions(points_per_edge=100, T=1.0, cfl=1.5)
    with pytest.raises(GridMismatch):
        sc.SimOptions(points_per_edge=4, T=1.0)
    with pytest.raises(ValueError):
        sc.SimOptions(points_per_edge=100, T=-1.0)
    for T, dt in [(np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.inf), (1.0, np.nan)]:
        with pytest.raises(ValueError):
            sc.SimOptions(points_per_edge=8, T=T, dt=dt)


def test_matched_damper_extinguishes_in_one_round_trip():
    cfg = sc.ChainConfig(densities=(1.0,))
    trace, final = sc.simulate_wave(
        cfg, _bump_state(cfg, 1200), sc.SimOptions(points_per_edge=1200, T=4.0, cfl=0.5)
    )
    e0 = trace.energies[0]
    late = trace.energies[trace.times >= 2.2]
    assert np.max(late) <= 1e-6 * e0


def test_damped_energy_monotone_and_balanced():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    trace, _ = sc.simulate_wave(
        cfg, _bump_state(cfg, 800), sc.SimOptions(points_per_edge=800, T=8.0, cfl=0.5)
    )
    e0 = trace.energies[0]
    assert np.max(np.diff(trace.energies)) <= 1e-6 * e0
    assert abs(e0 - trace.energies[-1] - trace.boundary_flux[-1]) <= 0.01 * e0


def test_conservative_mode_conserves():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    trace, _ = sc.simulate_wave(
        cfg, _bump_state(cfg, 2000), sc.SimOptions(points_per_edge=2000, T=10.0, cfl=0.5,
                                                   record_stride=50),
        mode="conservative",
    )
    drift = abs(trace.energies[-1] - trace.energies[0]) / trace.energies[0]
    assert drift <= 1e-4


def test_conservative_mode_conserves_across_three_edges():
    cfg = sc.ChainConfig(densities=(2.0, 0.5, 3.0))
    trace, _ = sc.simulate_wave(
        cfg, _bump_state(cfg, 500), sc.SimOptions(points_per_edge=500, T=10.0, cfl=0.5,
                                                  record_stride=50),
        mode="conservative",
    )
    e0 = trace.energies[0]
    assert np.max(np.abs(trace.energies - e0)) <= 5e-5 * e0


def test_damped_energy_halves_by_the_first_joint():
    # the bump splits into two halves of equal energy; by t = 1 the left-going
    # half has left through the matched damper, and what the joint at x = 1
    # reflects has not yet come back to x = 0 (Dager & Zuazua 2006)
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    trace, _ = sc.simulate_wave(
        cfg, _bump_state(cfg, 500), sc.SimOptions(points_per_edge=500, T=1.0, cfl=0.5)
    )
    assert abs(trace.energies[-1] / trace.energies[0] - 0.5) <= 1e-5


def test_leapfrog_discretises_the_oracle_operator():
    # two steps: the Taylor start and one leapfrog step of u'' = A u
    cfg = sc.ChainConfig(densities=(1.0, 4.0, 2.0))
    p = 40
    dt_max = 0.5 / (p - 1) / float(np.max(cfg.wave_speeds))
    T = 1.5 * dt_max
    state = sample_state(
        cfg, p, lambda x: (x * (3.0 - x) / 9.0).astype(complex), lambda x: smooth_bump(x, 1.2, 1.8)
    )
    _, final = sc.simulate_wave(
        cfg, state, sc.SimOptions(points_per_edge=p, T=T, cfl=0.5), mode="conservative"
    )
    n = cfg.n_edges * (p - 1)
    a = fd_wave_matrix(cfg, p - 1).matrix.tocsr()[n:, :n]  # velocity block: K / w
    dt = T / 2
    u0, v0 = _global(state.u).real[:-1], _global(state.v).real[:-1]
    u1 = u0 + dt * v0 + 0.5 * dt * dt * (a @ u0)
    u2 = 2.0 * u1 - u0 + dt * dt * (a @ u1)
    u_final = _global(final.u).real
    assert u_final[-1] == 0.0
    assert np.max(np.abs(u_final[:-1] - u2)) <= 1e-12 * np.max(np.abs(u2))


def test_clamped_node_velocity_carries_no_energy():
    # v0 = 1 reaches the clamped end, where the scheme holds u at 0; E(0) must
    # not count the h/2-weighted velocity there (0.5% of E(0) at p = 100)
    cfg = sc.ChainConfig(densities=(1.0,))
    st = sample_state(cfg, 100, lambda x: np.zeros_like(x, dtype=complex), np.ones_like)
    trace, _ = sc.simulate_wave(
        cfg, st, sc.SimOptions(points_per_edge=100, T=0.05), mode="conservative"
    )
    assert abs(trace.energies[1] - trace.energies[0]) <= 1e-3 * trace.energies[0]


def test_forced_zero_input_stays_zero():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    zero = sample_state(cfg, 200, lambda x: np.zeros_like(x, dtype=complex))
    trace, final = sc.simulate_wave(
        cfg, zero, sc.SimOptions(points_per_edge=200, T=2.0, cfl=0.5),
        mode="forced", forcing=lambda t: 0.0,
    )
    assert np.max(trace.energies) == 0.0
    assert max(np.max(np.abs(v)) for v in final.u.values) == 0.0


def test_forced_mode_requires_callable():
    cfg = sc.ChainConfig(densities=(1.0,))
    zero = sample_state(cfg, 100, lambda x: np.zeros_like(x, dtype=complex))
    with pytest.raises(ValueError):
        sc.simulate_wave(cfg, zero, sc.SimOptions(points_per_edge=100, T=1.0), mode="forced")


def test_grid_mismatch_rejected():
    cfg = sc.ChainConfig(densities=(1.0,))
    st = _bump_state(cfg, 150)
    with pytest.raises(GridMismatch):
        sc.simulate_wave(cfg, st, sc.SimOptions(points_per_edge=100, T=1.0))


@pytest.mark.parametrize("data_edges", [1, 3])
@pytest.mark.parametrize("stepper", ["wave", "schrodinger"])
def test_initial_data_edge_count_mismatch_rejected(stepper, data_edges):
    # the data vanish at x = 2, so a run that dropped the third edge would not fail later
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    st = _bump_state(sc.ChainConfig(densities=(1.0,) * data_edges), 50)
    opts = sc.SimOptions(points_per_edge=50, T=0.1, dt=1e-2)
    with pytest.raises(GridMismatch, match="edges"):
        if stepper == "wave":
            sc.simulate_wave(cfg, st, opts)
        else:
            sc.simulate_schrodinger(cfg, st.u, opts)


def test_decay_rate_tracks_spectral_abscissa():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    eig = sc.find_eigenvalues(cfg, (-2, 0, 0, 30), "wave", grid=(48, 160))
    target = 2.0 * abs(eig.abscissa)
    trace, _ = sc.simulate_wave(
        cfg, _bump_state(cfg, 1000),
        sc.SimOptions(points_per_edge=1000, T=20.0, cfl=0.5, record_stride=5),
    )
    omega = sc.fit_decay_rate(trace)
    assert abs(omega - target) / target <= 0.15


def test_decay_rate_stable_under_refinement():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    rates = []
    for p in (600, 1200):
        trace, _ = sc.simulate_wave(
            cfg, _bump_state(cfg, p),
            sc.SimOptions(points_per_edge=p, T=14.0, cfl=0.5, record_stride=5),
        )
        rates.append(sc.fit_decay_rate(trace))
    assert abs(rates[1] - rates[0]) / rates[0] < 0.03


def test_schrodinger_zero_state():
    cfg = sc.ChainConfig(densities=(1.0,))
    zero = sample_function(cfg, 200, lambda x: np.zeros_like(x, dtype=complex))
    trace, final = sc.simulate_schrodinger(
        cfg, zero, sc.SimOptions(points_per_edge=200, T=1.0, dt=1e-3)
    )
    assert np.max(trace.energies) == 0.0


def test_schrodinger_strictly_decreasing_with_exact_flux_balance():
    cfg = sc.ChainConfig(densities=(1.0,))
    u0 = sample_function(cfg, 600, smooth_bump)
    trace, _ = sc.simulate_schrodinger(
        cfg, u0, sc.SimOptions(points_per_edge=600, T=5.0, dt=1e-3)
    )
    assert np.all(np.diff(trace.energies) < 0)
    e0 = trace.energies[0]
    assert abs(e0 - trace.energies[-1] - trace.boundary_flux[-1]) <= 1e-10 * e0


def test_schrodinger_rate_tracks_char_det_roots():
    cfg = sc.ChainConfig(densities=(1.0,))
    eig = sc.find_eigenvalues(cfg, (-3, 0, 0.5, 30), "schrodinger", grid=(48, 128))
    target = 2.0 * abs(eig.abscissa)
    u0 = sample_function(cfg, 600, smooth_bump)
    trace, _ = sc.simulate_schrodinger(
        cfg, u0, sc.SimOptions(points_per_edge=600, T=6.0, dt=5e-4, record_stride=10)
    )
    omega = sc.fit_decay_rate(trace)
    assert abs(omega - target) / target <= 0.25


def test_schrodinger_rejects_vector_state():
    cfg = sc.ChainConfig(densities=(1.0,))
    u0 = sample_function(cfg, 100, smooth_bump)
    pair = sc.ChainFunction(u0.grids, [np.stack([u0.values[0], u0.values[0]], axis=1)])
    with pytest.raises(ArityMismatch):
        sc.simulate_schrodinger(cfg, pair, sc.SimOptions(points_per_edge=100, T=0.1, dt=1e-2))


def test_schrodinger_needs_dt():
    cfg = sc.ChainConfig(densities=(1.0,))
    u0 = sample_function(cfg, 100, smooth_bump)
    with pytest.raises(ValueError):
        sc.simulate_schrodinger(cfg, u0, sc.SimOptions(points_per_edge=100, T=1.0))


def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0, 5, 400)
    trace = EnergyTrace(times=t, energies=7.0 * np.exp(-3.0 * t), boundary_flux=np.zeros_like(t))
    assert sc.fit_decay_rate(trace) == pytest.approx(3.0, abs=1e-9)


def test_fit_decay_rate_oscillatory():
    t = np.linspace(0, 10, 2000)
    trace = EnergyTrace(
        times=t, energies=np.exp(-t) * (2.0 + np.cos(10 * t)), boundary_flux=np.zeros_like(t)
    )
    assert sc.fit_decay_rate(trace) == pytest.approx(1.0, abs=0.05)


def test_fit_decay_rate_flat_trace_rejected():
    t = np.linspace(0, 5, 100)
    trace = EnergyTrace(times=t, energies=np.full_like(t, 2.0), boundary_flux=np.zeros_like(t))
    with pytest.raises(InsufficientDecay):
        sc.fit_decay_rate(trace)


def test_fit_decay_rate_short_trace_rejected():
    t = np.linspace(0, 1, 5)
    trace = EnergyTrace(times=t, energies=np.exp(-t), boundary_flux=np.zeros_like(t))
    with pytest.raises(InsufficientDecay):
        sc.fit_decay_rate(trace)


def test_energy_trace_csv(tmp_path):
    t = np.linspace(0, 1, 11)
    trace = EnergyTrace(times=t, energies=np.exp(-t), boundary_flux=np.cumsum(np.ones_like(t)))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,E,boundary_flux_cum"
    assert len(rows) == 12


# ---------------------------------------------------------------- reference loops
# Straightforward versions of both schemes: per-step temporaries, fancy-indexed
# joints, list records and a banded solve per step.  The production steppers
# must reproduce them.

def _reference_layout(densities, p):
    n = len(densities) * (p - 1) + 1
    cell_rho = np.empty(n - 1)
    for j, rho in enumerate(densities):
        cell_rho[j * (p - 1) : (j + 1) * (p - 1)] = rho
    return n, 1.0 / (p - 1), cell_rho


def _reference_leapfrog(densities, p, T, cfl, stride, mode, forcing, u_prev, v0):
    n, h, cell_rho = _reference_layout(densities, p)

    def lumped(u):
        # (rho u_x)_x on the inner nodes as a difference of cell fluxes, joints included
        flux = cell_rho * np.diff(u) / h
        return (flux[1:] - flux[:-1]) / h

    w_kin = np.full(n, h)
    w_kin[0] = w_kin[-1] = 0.5 * h

    def energy(v, u):
        du = np.diff(u)
        return 0.5 * float(np.dot(w_kin * v, v)) + 0.5 * float(np.dot(cell_rho * du, du)) / h

    dt = cfl * h / float(np.max(np.sqrt(densities)))
    steps = max(2, int(np.ceil(T / dt)))
    dt = T / steps
    rho0 = densities[0]
    r0 = rho0 * dt * dt / (h * h)
    damp = dt / h
    u_prev = u_prev.copy()
    u_prev[-1] = 0.0
    u_cur = u_prev.copy()
    u_cur[1:-1] += dt * v0[1:-1] + 0.5 * dt * dt * lumped(u_prev)
    if mode == "damped":
        ghost = u_prev[1] - 2.0 * h * v0[0] / rho0
    elif mode == "conservative":
        ghost = u_prev[1]
    else:
        ghost = u_prev[1] - 2.0 * h * float(forcing(0.0)) / rho0
    u_cur[0] = u_prev[0] + dt * v0[0] + 0.5 * r0 * (u_prev[1] - 2.0 * u_prev[0] + ghost)
    u_cur[-1] = 0.0
    times, energies, flux = [0.0], [energy(v0, u_prev)], [0.0]
    flux_cum, bv_prev = 0.0, v0[0]
    u_next = np.empty(n)
    for k in range(1, steps + 1):
        u_next[1:-1] = 2.0 * u_cur[1:-1] - u_prev[1:-1] + dt * dt * lumped(u_cur)
        if mode == "damped":
            u_next[0] = (
                2.0 * u_cur[0] - (1.0 - damp) * u_prev[0] + 2.0 * r0 * (u_cur[1] - u_cur[0])
            ) / (1.0 + damp)
        elif mode == "conservative":
            u_next[0] = 2.0 * u_cur[0] - u_prev[0] + 2.0 * r0 * (u_cur[1] - u_cur[0])
        else:
            vn = float(forcing(k * dt))
            u_next[0] = 2.0 * u_cur[0] - u_prev[0] + r0 * (
                2.0 * u_cur[1] - 2.0 * u_cur[0] - 2.0 * h * vn / rho0
            )
        u_next[-1] = 0.0
        bv = (u_next[0] - u_prev[0]) / (2.0 * dt)
        flux_cum += 0.5 * (bv_prev**2 + bv**2) * dt
        bv_prev = bv
        if k % stride == 0 or k == steps:
            times.append(k * dt)
            energies.append(energy((u_next - u_prev) / (2.0 * dt), u_cur))
            flux.append(flux_cum)
        u_prev, u_cur, u_next = u_cur, u_next, u_prev
    # u_prev = u^M, u_cur = u^{M+1}, u_next = u^{M-1}
    v_final = (u_cur - u_next) / (2.0 * dt)
    return steps, np.array(times), np.array(energies), np.array(flux), u_prev, v_final


def _reference_tridiag(densities, p):
    n, h, cell_rho = _reference_layout(densities, p)
    na = n - 1
    w = np.full(na, h)
    w[0] = 0.5 * h
    lower, diag, upper = (np.zeros(na, dtype=complex) for _ in range(3))
    for k in range(n - 1):
        g = cell_rho[k] / h
        diag[k] -= g
        if k + 1 < na:
            upper[k] += g
            diag[k + 1] -= g
            lower[k + 1] += g
    diag[0] += -1j
    return w, -1j * lower / w, -1j * diag / w, -1j * upper / w


def _reference_crank_nicolson(densities, p, T, dt, stride, u):
    w, lower, diag, upper = _reference_tridiag(densities, p)
    steps = max(1, int(np.ceil(T / dt)))
    dt = T / steps
    ab = np.zeros((3, u.size), dtype=complex)
    ab[0, 1:] = -0.5 * dt * upper[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * diag
    ab[2, :-1] = -0.5 * dt * lower[1:]

    def energy(x):
        return 0.5 * float(np.real(np.dot(w * x, np.conj(x))))

    times, energies, flux, flux_cum = [0.0], [energy(u)], [0.0], 0.0
    for k in range(1, steps + 1):
        rhs = (1.0 + 0.5 * dt * diag) * u
        rhs[:-1] += 0.5 * dt * upper[:-1] * u[1:]
        rhs[1:] += 0.5 * dt * lower[1:] * u[:-1]
        u_new = sla.solve_banded((1, 1), ab, rhs)
        flux_cum += dt * float(np.abs(0.5 * (u[0] + u_new[0])) ** 2)
        u = u_new
        if k % stride == 0 or k == steps:
            times.append(k * dt)
            energies.append(energy(u))
            flux.append(flux_cum)
    return steps, np.array(times), np.array(energies), np.array(flux), u


_CHAIN3 = (1.0, 4.0, 2.0)


def _global(fn):
    return np.concatenate([fn.values[0]] + [v[1:] for v in fn.values[1:]])


@pytest.mark.parametrize("mode", ["damped", "conservative", "forced"])
@pytest.mark.parametrize("stride", [1, 7])
def test_leapfrog_matches_reference_loop(mode, stride):
    cfg = sc.ChainConfig(densities=_CHAIN3)
    p, T = 40, 2.0
    n_edges = cfg.n_edges
    state = sample_state(
        cfg, p,
        lambda x: (x * (n_edges - x) / n_edges**2).astype(complex),
        lambda x: smooth_bump(x, 1.2, 1.8),
    )
    forcing = (lambda t: np.sin(3.0 * t)) if mode == "forced" else None
    opts = sc.SimOptions(points_per_edge=p, T=T, cfl=0.5, record_stride=stride)
    trace, final = sc.simulate_wave(cfg, state, opts, mode=mode, forcing=forcing)
    steps, times, energies, flux, u_end, v_end = _reference_leapfrog(
        _CHAIN3, p, T, 0.5, stride, mode, forcing,
        _global(state.u).real, _global(state.v).real,
    )
    assert stride == 1 or steps % stride != 0  # the last record falls off the stride
    e0 = energies[0]
    assert trace.times.shape == times.shape
    assert np.max(np.abs(trace.times - times)) <= 1e-12 * T
    assert np.max(np.abs(trace.energies - energies)) <= 1e-12 * e0
    assert np.max(np.abs(trace.boundary_flux - flux)) <= 1e-12 * e0
    assert np.max(np.abs(_global(final.u) - u_end)) <= 1e-12 * np.max(np.abs(u_end))
    assert np.max(np.abs(_global(final.v) - v_end)) <= 1e-12 * np.max(np.abs(v_end))


@pytest.mark.parametrize("stride", [1, 7])
def test_crank_nicolson_matches_reference_loop(stride):
    cfg = sc.ChainConfig(densities=_CHAIN3)
    p, T, dt = 60, 1.0, 4e-3
    u0 = sample_function(
        cfg, p, lambda x: smooth_bump(x, 0.1, 0.9) + 0.5j * smooth_bump(x, 1.3, 2.6)
    )
    trace, final = sc.simulate_schrodinger(
        cfg, u0, sc.SimOptions(points_per_edge=p, T=T, dt=dt, record_stride=stride)
    )
    steps, times, energies, flux, u_end = _reference_crank_nicolson(
        _CHAIN3, p, T, dt, stride, _global(u0)[:-1].copy()
    )
    assert stride == 1 or steps % stride != 0
    e0 = energies[0]
    assert trace.times.shape == times.shape
    assert np.max(np.abs(trace.times - times)) <= 1e-12 * T
    assert np.max(np.abs(trace.energies - energies)) <= 1e-12 * e0
    assert np.max(np.abs(trace.boundary_flux - flux)) <= 1e-12 * e0
    u_final = _global(final)
    assert u_final[-1] == 0.0
    assert np.max(np.abs(u_final[:-1] - u_end)) <= 1e-12 * np.max(np.abs(u_end))


def test_crank_nicolson_flux_balance_at_every_record():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    u0 = sample_function(cfg, 300, smooth_bump)
    trace, _ = sc.simulate_schrodinger(
        cfg, u0, sc.SimOptions(points_per_edge=300, T=3.0, dt=2e-3, record_stride=3)
    )
    e0 = trace.energies[0]
    defect = np.abs(e0 - trace.energies - trace.boundary_flux)
    assert np.max(defect) <= 1e-10 * e0
    assert np.all(np.diff(trace.energies) < 0)


@pytest.mark.parametrize("densities", [(1.0,), (1.0, 4.0), (0.3, 2.0, 1.1, 5.0)])
def test_crank_nicolson_flux_balance_at_every_step(densities):
    # each step's energy drop is the dt |y_0|^2 it adds to the flux, to rounding
    cfg = sc.ChainConfig(densities=densities)
    n = cfg.n_edges
    u0 = sample_function(cfg, 200, lambda x: smooth_bump(x, 0.1, n - 0.1) + 0.5j * smooth_bump(x))
    trace, _ = sc.simulate_schrodinger(
        cfg, u0, sc.SimOptions(points_per_edge=200, T=1.0, dt=2e-3, record_stride=1)
    )
    assert trace.energies.size == 501
    step_defect = np.abs(np.diff(trace.energies) + np.diff(trace.boundary_flux))
    assert np.max(step_defect) <= 1e-14 * trace.energies[0]


@pytest.mark.parametrize("densities", [(1.0,), (1.0, 4.0), (0.3, 2.0, 1.1, 5.0)])
def test_schrodinger_operator_is_exactly_dissipative(densities):
    cfg = sc.ChainConfig(densities=densities)
    w, lower, diag, upper = _schrodinger_tridiag(_Layout(cfg, 50))
    w_ref, lower_ref, diag_ref, upper_ref = _reference_tridiag(densities, 50)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(lower, lower_ref)
    assert np.array_equal(diag, diag_ref)
    assert np.array_equal(upper, upper_ref)
    rng = np.random.default_rng(len(densities))
    for _ in range(20):
        u = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
        au = diag * u
        au[:-1] += upper[:-1] * u[1:]
        au[1:] += lower[1:] * u[:-1]
        terms = w * au * np.conj(u)
        defect = abs(np.sum(terms).real + abs(u[0]) ** 2)
        assert defect <= 1e-12 * np.sum(np.abs(terms))


def test_crank_nicolson_rejects_non_finite_state():
    cfg = sc.ChainConfig(densities=(1.0,))
    u0 = sample_function(cfg, 100, smooth_bump)
    values = u0.values[0].copy()
    values[10] = np.nan
    bad = sc.ChainFunction(u0.grids, [values])
    with pytest.raises(LinearSolveFailure):
        sc.simulate_schrodinger(cfg, bad, sc.SimOptions(points_per_edge=100, T=0.1, dt=1e-2))


def test_wave_rejects_complex_data():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    st = sample_state(cfg, 50, lambda x: 1j * (2.0 - x) * x)
    with pytest.raises(GridMismatch):
        sc.simulate_wave(cfg, st, sc.SimOptions(points_per_edge=50, T=0.5))


def test_schrodinger_rejects_nonzero_clamped_end():
    cfg = sc.ChainConfig(densities=(1.0,))
    u0 = sample_function(cfg, 50, lambda x: np.ones_like(x, dtype=complex))
    with pytest.raises(GridMismatch):
        sc.simulate_schrodinger(cfg, u0, sc.SimOptions(points_per_edge=50, T=0.5, dt=1e-2))
