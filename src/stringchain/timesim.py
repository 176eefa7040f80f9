"""Time-domain integrators for the damped chain and decay-rate fitting.

The wave chain runs leapfrog (central time, central space) on a single
uniform global grid with shared joint nodes.  The damped condition at
x = 0 couples the new boundary value linearly and is solved in closed
form each step; interior joints are algebraic nodes set from the
discrete flux balance with second-order one-sided derivatives.  The
Schrodinger chain runs Crank-Nicolson with the boundary feedback and
joint coupling folded into a tridiagonal system; in the lumped product
the discrete energy then decreases by exactly dt * |u(t+dt/2, 0)|^2 per
step, so the recorded flux balances the energy drop to machine
precision.

Neither step loop repeats set-up work: the leapfrog step updates three
preallocated buffers in place and closes the boundary and joint rows in
Python floats, the Crank-Nicolson matrix is factored once (LAPACK
zgttrf) and each step is one zgttrs solve, and both write their records
into arrays preallocated from the step count and record_stride.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .chain_core import (
    ChainConfig,
    ChainFunction,
    EnergyTrace,
    WaveState,
    validate_config,
)
from .errors import (
    CflViolation,
    GridMismatch,
    InsufficientDecay,
    LinearSolveFailure,
)

__all__ = ["SimOptions", "simulate_wave", "simulate_schrodinger", "fit_decay_rate"]

_DECAY_FLOOR = 1e-12


@dataclass
class SimOptions:
    """Grid, step, and horizon for a simulation run.

    cfl controls the wave step dt = cfl * min_j(h / c_j); dt is the
    implicit step for the Schrodinger scheme (unconditionally stable).
    """

    points_per_edge: int
    T: float
    cfl: float = 0.5
    dt: Optional[float] = None
    record_stride: int = 1

    def __post_init__(self):
        if self.points_per_edge < 8:
            raise GridMismatch("need at least 8 points per edge")
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if not (0.0 < self.cfl <= 1.0):
            raise CflViolation(f"cfl = {self.cfl} outside (0, 1]")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")


def _global_layout(cfg: ChainConfig, p: int):
    """Shared-node global grid: p points per edge, spacing h = 1/(p-1).

    Returns (n, h, rho_node, joints, cell_rho); a joint node carries the
    density of the edge to its right.
    """
    rho = np.asarray(cfg.densities, dtype=float)
    h = 1.0 / (p - 1)
    cell_rho = np.repeat(rho, p - 1)
    rho_node = np.append(cell_rho, rho[-1])
    joints = np.arange(1, cfg.n_edges) * (p - 1)
    return rho_node.size, h, rho_node, joints, cell_rho


def _gather_real(cfg: ChainConfig, fn: ChainFunction, p: int, n: int, what: str) -> np.ndarray:
    out = np.empty(n)
    for j in range(cfg.n_edges):
        g = fn.grids[j]
        if g.size != p:
            raise GridMismatch(f"edge {j}: {what} sampled on {g.size} points, expected {p}")
        if np.max(np.abs(g - np.linspace(j, j + 1, p))) > 1e-12:
            raise GridMismatch(f"edge {j}: {what} grid is not the uniform simulation grid")
        vals = fn.values[j]
        if np.max(np.abs(vals.imag)) > 1e-12 * (np.max(np.abs(vals)) + 1.0):
            raise GridMismatch("wave simulation needs real data")
        out[j * (p - 1) : (j + 1) * (p - 1) + 1] = vals.real
    return out


def _scatter(cfg: ChainConfig, p: int, arr: np.ndarray) -> list[np.ndarray]:
    return [arr[j * (p - 1) : (j + 1) * (p - 1) + 1].copy() for j in range(cfg.n_edges)]


def _joint_stencil(cfg: ChainConfig, joints: np.ndarray):
    """Per joint J: (J, rho_l, rho_r, 3 (rho_l + rho_r)) as Python scalars.

    The shared node closes the flux balance rho_l u_x(J-) = rho_r u_x(J+)
    with second-order one-sided derivatives:
    u_J = (rho_l (4 u_{J-1} - u_{J-2}) + rho_r (4 u_{J+1} - u_{J+2})) / (3 (rho_l + rho_r)).
    """
    rho = cfg.densities
    return [
        (int(J), rho[i], rho[i + 1], 3.0 * (rho[i] + rho[i + 1])) for i, J in enumerate(joints)
    ]


def _record_arrays(steps: int, stride: int):
    """(times, energies, flux) sized for t = 0, every stride-th step and the last step."""
    n_rec = 1 + -(-steps // stride)
    return np.zeros(n_rec), np.empty(n_rec), np.zeros(n_rec)


def simulate_wave(cfg: ChainConfig, init: WaveState, opts: SimOptions,
                  mode: str = "damped", forcing: Optional[Callable[[float], float]] = None):
    """Leapfrog run of the wave chain; returns (EnergyTrace, final WaveState).

    mode selects the x = 0 condition: "damped" (rho_0 u_x = u_t),
    "conservative" (rho_0 u_x = 0), or "forced" (rho_0 u_x = v(t), which
    requires the forcing callable).  The far end stays clamped.  The
    recorded energy uses the cell form of the elastic term and central
    time differences for the kinetic term; boundary flux accumulates
    int |u_t(t, 0)|^2 dt by the trapezoid rule.
    """
    validate_config(cfg)
    if mode not in ("damped", "conservative", "forced"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "forced" and forcing is None:
        raise ValueError("forced mode needs a forcing callable")
    p = opts.points_per_edge
    n, h, rho_node, joints, _ = _global_layout(cfg, p)
    stencil = _joint_stencil(cfg, joints)
    c_max = float(np.max(cfg.wave_speeds))
    dt = opts.cfl * h / c_max
    steps = max(2, int(np.ceil(opts.T / dt)))
    dt = opts.T / steps
    coef = (dt * dt / (h * h)) * rho_node
    rho0 = cfg.densities[0]
    r0 = rho0 * dt * dt / (h * h)
    damp = dt / h

    u_prev = _gather_real(cfg, init.u, p, n, "displacement")
    v0 = _gather_real(cfg, init.v, p, n, "velocity")
    u_prev[-1] = 0.0

    def close_joints(u):
        for J, rho_l, rho_r, den in stencil:
            u[J] = (
                rho_l * (4.0 * u.item(J - 1) - u.item(J - 2))
                + rho_r * (4.0 * u.item(J + 1) - u.item(J + 2))
            ) / den

    # elastic term: rho_j |du|^2 / h summed edge by edge over the cell differences
    du = np.empty(n - 1)
    du_edges = [(rho, du[j * (p - 1) : (j + 1) * (p - 1)]) for j, rho in enumerate(cfg.densities)]

    def energy(d, u, kin_scale):
        """kin_scale * sum_i (w_i / h) d_i^2, trapezoid weights w, plus u's elastic energy."""
        np.subtract(u[1:], u[:-1], out=du)
        elastic = 0.0
        for rho, seg in du_edges:
            elastic += rho * float(np.dot(seg, seg))
        d_ends = d.item(0) ** 2 + d.item(-1) ** 2
        return kin_scale * (float(np.dot(d, d)) - 0.5 * d_ends) + (0.5 / h) * elastic

    # Taylor start: u^1 = u^0 + dt v^0 + dt^2/2 rho u_xx, boundary via ghost
    u_cur = u_prev.copy()
    u_cur[1:-1] += dt * v0[1:-1] + 0.5 * coef[1:-1] * (
        u_prev[2:] - 2.0 * u_prev[1:-1] + u_prev[:-2]
    )
    if mode == "damped":
        ghost = u_prev[1] - 2.0 * h * v0[0] / rho0
    elif mode == "conservative":
        ghost = u_prev[1]
    else:
        ghost = u_prev[1] - 2.0 * h * float(forcing(0.0)) / rho0
    u_cur[0] = u_prev[0] + dt * v0[0] + 0.5 * r0 * (u_prev[1] - 2.0 * u_prev[0] + ghost)
    u_cur[-1] = 0.0
    close_joints(u_cur)

    stride = opts.record_stride
    times, energies, flux = _record_arrays(steps, stride)
    energies[0] = energy(v0, u_prev, 0.5 * h)
    rec = 1
    next_rec = min(stride, steps)
    kin_scale = 0.5 * h / (4.0 * dt * dt)  # for the central difference u^{k+1} - u^{k-1}

    damped = mode == "damped"
    forced = mode == "forced"
    keep = 1.0 - damp
    denom = 1.0 + damp
    two_r0 = 2.0 * r0
    two_h = 2.0 * h
    two_dt = 2.0 * dt
    b_prev, b_cur = u_prev.item(0), u_cur.item(0)
    bv_prev = v0.item(0)
    flux_cum = 0.0

    # interior in place, in the operation order of 2 u - u_prev + coef (u_{i+1} - 2 u + u_{i-1})
    # so it equals that expression bit for bit; the clamped node stays 0
    coef_in = coef[1:-1]
    tmp = np.empty(n - 2)
    d_rec = np.empty(n)

    def views(u):
        return u, u[1:-1], u[2:], u[:-2]

    prev, cur, nxt = views(u_prev), views(u_cur), views(np.zeros(n))
    for k in range(1, steps + 1):
        # nxt receives t_{k+1}; the record at t_k uses the central velocity
        u_p, p_in, _, _ = prev
        u_c, c_in, c_right, c_left = cur
        u_n, n_in, _, _ = nxt
        np.multiply(c_in, 2.0, out=tmp)
        np.subtract(c_right, tmp, out=n_in)
        n_in += c_left
        n_in *= coef_in
        tmp -= p_in
        n_in += tmp
        u1 = u_c.item(1)
        if damped:
            b_next = (2.0 * b_cur - keep * b_prev + two_r0 * (u1 - b_cur)) / denom
        elif forced:
            vn = float(forcing(k * dt))
            b_next = 2.0 * b_cur - b_prev + r0 * (2.0 * u1 - 2.0 * b_cur - two_h * vn / rho0)
        else:
            b_next = 2.0 * b_cur - b_prev + two_r0 * (u1 - b_cur)
        u_n[0] = b_next
        close_joints(u_n)

        bv = (b_next - b_prev) / two_dt
        flux_cum += 0.5 * (bv_prev * bv_prev + bv * bv) * dt
        bv_prev = bv
        if k == next_rec:
            np.subtract(u_n, u_p, out=d_rec)
            times[rec] = k * dt
            energies[rec] = energy(d_rec, u_c, kin_scale)
            flux[rec] = flux_cum
            rec += 1
            next_rec = min(next_rec + stride, steps)
        prev, cur, nxt = cur, nxt, prev
        b_prev, b_cur = b_cur, b_next

    # buffers after the rotation: prev = u^M, cur = u^{M+1}, nxt = u^{M-1}
    u_final = prev[0]
    v_final = (cur[0] - nxt[0]) / two_dt
    grids = [np.linspace(j, j + 1, p) for j in range(cfg.n_edges)]
    final = WaveState(
        u=ChainFunction(grids, [a.astype(complex) for a in _scatter(cfg, p, u_final)]),
        v=ChainFunction(grids, [a.astype(complex) for a in _scatter(cfg, p, v_final)]),
    )
    return EnergyTrace(times=times, energies=energies, boundary_flux=flux), final


def _schrodinger_tridiag(cfg: ChainConfig, p: int):
    """Tridiagonal generator -i rho d_xx with feedback and joints folded in.

    Returns (n_active, h, weights, lower, diag, upper) with the clamped
    node eliminated; weights are the lumped masses of the inner product
    in which the operator is exactly dissipative.  Cell k couples the
    nodes k and k+1 with conductance rho_k / h.
    """
    n, h, _, _, cell_rho = _global_layout(cfg, p)
    na = n - 1
    w = np.full(na, h)
    w[0] = 0.5 * h
    g = cell_rho / h
    diag = -(g + np.concatenate(([0.0], g[:-1]))).astype(complex)
    upper = np.zeros(na, dtype=complex)
    lower = np.zeros(na, dtype=complex)
    upper[:-1] = g[:-1]
    lower[1:] = g[:-1]
    diag[0] += -1j  # feedback rho_0 u'(0) = i u(0) folded into the flux
    lower = -1j * lower / w
    diag = -1j * diag / w
    upper = -1j * upper / w
    return na, h, w, lower, diag, upper


def simulate_schrodinger(cfg: ChainConfig, u0: ChainFunction, opts: SimOptions):
    """Crank-Nicolson run of the Schrodinger chain.

    Returns (EnergyTrace, final ChainFunction).  The boundary flux is
    recorded from midpoint values, so energy drop and accumulated flux
    agree to machine precision step by step.
    """
    validate_config(cfg)
    if u0.arity != 1:
        raise GridMismatch("Schrodinger simulation needs a scalar initial state")
    if opts.dt is None:
        raise ValueError("Schrodinger simulation needs opts.dt")
    p = opts.points_per_edge
    na, h, w, lower, diag, upper = _schrodinger_tridiag(cfg, p)
    u_full = np.empty(na + 1, dtype=complex)
    for j in range(cfg.n_edges):
        g = u0.grids[j]
        if g.size != p:
            raise GridMismatch(f"edge {j}: initial state on {g.size} points, expected {p}")
        if np.max(np.abs(g - np.linspace(j, j + 1, p))) > 1e-12:
            raise GridMismatch(f"edge {j}: initial grid is not the uniform simulation grid")
        u_full[j * (p - 1) : (j + 1) * (p - 1) + 1] = u0.values[j]
    if abs(u_full[-1]) > 1e-9 * (np.max(np.abs(u_full)) + 1.0):
        raise GridMismatch("initial state must vanish at the clamped end")
    if not np.all(np.isfinite(u_full)):
        raise LinearSolveFailure("initial state must not contain infs or NaNs")
    u = u_full[:-1].copy()

    dt = opts.dt
    steps = max(1, int(np.ceil(opts.T / dt)))
    dt = opts.T / steps
    half = 0.5 * dt
    # (I - dt/2 A) u^{n+1} = (I + dt/2 A) u^n; the left matrix is factored once
    dl, d, du, du2, ipiv, info = zgttrf(-half * lower[1:], 1.0 - half * diag, -half * upper[:-1])
    if info != 0:
        raise LinearSolveFailure(f"Crank-Nicolson matrix is singular (zgttrf info = {info})")
    plus_diag = 1.0 + half * diag
    plus_upper = half * upper[:-1]
    plus_lower = half * lower[1:]

    sqrt_w = np.sqrt(w)
    scaled = np.empty(na, dtype=complex)

    def energy(x):
        np.multiply(sqrt_w, x, out=scaled)
        return 0.5 * np.vdot(scaled, scaled).real

    stride = opts.record_stride
    times, energies, flux = _record_arrays(steps, stride)
    energies[0] = energy(u)
    rec = 1
    next_rec = min(stride, steps)
    flux_cum = 0.0
    b_old = u.item(0)
    rhs = np.empty(na, dtype=complex)
    off = np.empty(na - 1, dtype=complex)
    for k in range(1, steps + 1):
        np.multiply(plus_diag, u, out=rhs)
        np.multiply(plus_upper, u[1:], out=off)
        rhs[:-1] += off
        np.multiply(plus_lower, u[:-1], out=off)
        rhs[1:] += off
        u_new, info = zgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)
        if info != 0:
            raise LinearSolveFailure(f"Crank-Nicolson solve failed (zgttrs info = {info})")
        b_new = u_new.item(0)
        mid = 0.5 * (b_old + b_new)
        flux_cum += dt * (mid.real * mid.real + mid.imag * mid.imag)
        b_old = b_new
        u, rhs = u_new, u
        if k == next_rec:
            times[rec] = k * dt
            energies[rec] = energy(u)
            flux[rec] = flux_cum
            rec += 1
            next_rec = min(next_rec + stride, steps)
    full = np.concatenate([u, [0.0]])
    grids = [np.linspace(j, j + 1, p) for j in range(cfg.n_edges)]
    values = [full[j * (p - 1) : (j + 1) * (p - 1) + 1].copy() for j in range(cfg.n_edges)]
    trace = EnergyTrace(times=times, energies=energies, boundary_flux=flux)
    return trace, ChainFunction(grids, values)


def fit_decay_rate(trace: EnergyTrace) -> float:
    """Least-squares slope of log E over the window [0.2, 0.9] * T_eff.

    T_eff is the last time the energy still exceeds 1e-12 of its initial
    value.  Raises InsufficientDecay for flat traces (conservative runs)
    or when too few samples remain above the floor.
    """
    t = np.asarray(trace.times, dtype=float)
    e = np.asarray(trace.energies, dtype=float)
    if e.size < 10 or e[0] <= 0.0:
        raise InsufficientDecay("trace too short or empty")
    floor = _DECAY_FLOOR * e[0]
    alive = e > floor
    if int(np.count_nonzero(alive)) < 10:
        raise InsufficientDecay("fewer than 10 samples above the energy floor")
    t_eff = float(t[alive][-1])
    window = alive & (t >= 0.2 * t_eff) & (t <= 0.9 * t_eff)
    if int(np.count_nonzero(window)) < 10:
        raise InsufficientDecay("fewer than 10 samples in the fitting window")
    tw = t[window]
    ew = e[window]
    if ew[-1] <= 0.0 or ew[0] / ew[-1] < np.e:
        raise InsufficientDecay("energy decays by less than one e-fold over the window")
    slope, _ = np.polyfit(tw, np.log(ew), 1)
    return float(-slope)
