"""Time-domain integrators for the damped chain and decay-rate fitting.

Both steppers discretise one lumped operator, built once by `_Layout` and
equal to the oracle's: w_i u_i'' = (K u)_i on the free nodes, lumped
masses w and cell conductances rho / h, joints ordinary nodes.  The wave
chain runs leapfrog on it.  With the damped end's u_t(0) by central
differences, the discrete energy
E^{k+1/2} = sum_i w_i (u_i^{k+1} - u_i^k)^2 / (2 dt^2) + <D u^{k+1}, D u^k>_g / 2
falls by exactly dt |u_t(t_k, 0)|^2 per step (conservative end: stays
fixed), and it is positive for cfl < 1, so cfl <= 1 bounds the
scheme's stability.  The Schrodinger chain runs Crank-Nicolson, i.e. the
implicit midpoint rule, on A = -i (K + feedback) / w: the midpoint
y = (u^n + u^{n+1}) / 2 solves (I - dt/2 A) y = u^n, u^{n+1} = 2 y - u^n,
and in the lumped product the energy drops by exactly dt |y_0|^2, the
flux recorded per step, so the two balance to machine precision.

Neither step loop repeats set-up work: a leapfrog step, in increment
form, is five in-place ufuncs on preallocated buffers plus the x = 0 row
in Python floats, the Crank-Nicolson matrix is factored once (LAPACK
zgttrf) and each step is one zgttrs solve in a preallocated buffer, and
both write their records into arrays preallocated from the step count and stride.
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
    check_uniform_grid,
    too_large,
    uniform_grids,
)
from .errors import (
    ArityMismatch,
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
        if not 0 < self.T < np.inf:  # also false for nan
            raise ValueError(f"horizon T = {self.T} must be positive and finite")
        if not (0.0 < self.cfl <= 1.0):
            raise CflViolation(f"cfl = {self.cfl} outside (0, 1]")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ValueError(f"dt = {self.dt} must be positive and finite")


class _Layout:
    """Shared-node global grid and lumped operator of both steppers.

    p points per edge, spacing h = 1/(p-1); edge j holds the nodes
    spans[j] of the global arrays, and the last node is clamped.  Cell k
    joins the nodes k and k+1 with conductance g[k] = rho_k / h, and free
    node i carries the lumped mass w[i] = h (h/2 at the damped end).  The
    chain is then w_i u_i'' = (K u)_i with
    (K u)_i = g_{i-1} (u_{i-1} - u_i) + g_i (u_{i+1} - u_i), g_{-1} = 0,
    plus the boundary term -rho_0 u_x(0) in row 0; a joint is an ordinary
    node whose two cells carry the two densities.
    """

    def __init__(self, cfg: ChainConfig, p: int):
        self.cfg, self.p = cfg, p
        self.h = 1.0 / (p - 1)
        self.g = np.repeat(np.asarray(cfg.densities, dtype=float), p - 1) / self.h
        self.n = self.g.size + 1
        self.w = np.full(self.g.size, self.h)
        self.w[0] = 0.5 * self.h
        self.spans = [slice(j * (p - 1), (j + 1) * (p - 1) + 1) for j in range(cfg.n_edges)]

    def gather(self, fn: ChainFunction, real: bool) -> np.ndarray:
        """fn's values on the global grid; fn must be sampled on the edge grids."""
        check_uniform_grid(fn, self.cfg, self.p)
        out = np.empty(self.n, dtype=float if real else complex)
        for vals, span in zip(fn.values, self.spans):
            if real and np.max(np.abs(vals.imag)) > 1e-12 * (np.max(np.abs(vals)) + 1.0):
                raise GridMismatch("wave simulation needs real data")
            out[span] = vals.real if real else vals
        return out

    def chain(self, arr: np.ndarray) -> ChainFunction:
        """The global node values arr as a complex ChainFunction on the edge grids."""
        return ChainFunction(uniform_grids(self.cfg, self.p),
                             [arr[span].astype(complex) for span in self.spans])


def _steps_and_records(T: float, dt: float, least: int, stride: int):
    """(steps, times, energies, flux): max(least, ceil(T / dt)) steps, and records sized
    for t = 0, every stride-th step and the last step.  MemoryError if either is too large."""
    with too_large(f"T / dt = {T:g} / {dt:g} steps at record stride {stride}"):
        steps = max(least, int(np.ceil(T / dt)))
        n_rec = 1 + -(-steps // stride)
        return steps, np.zeros(n_rec), np.empty(n_rec), np.zeros(n_rec)


def simulate_wave(cfg: ChainConfig, init: WaveState, opts: SimOptions,
                  mode: str = "damped", forcing: Optional[Callable[[float], float]] = None):
    """Leapfrog run of the wave chain; returns (EnergyTrace, final WaveState).

    mode selects the x = 0 condition: "damped" (rho_0 u_x = u_t),
    "conservative" (rho_0 u_x = 0), or "forced" (rho_0 u_x = v(t), which
    requires the forcing callable).  The far end stays clamped.  Every
    free node, joints included, steps w (u+ - 2 u + u-) = dt^2 (K u - s)
    with `_Layout`'s lumped operator, the one Crank-Nicolson uses and the
    oracle's `fd_wave_matrix` builds; s is u_t(0) by central differences,
    v(t) or 0 in row 0.  Hence the energy identity of the module
    docstring: E^{k+1/2} - E^{k-1/2} = -dt s u_t(t_k, 0), and cfl <= 1
    is the stability bound.  The loop runs in increment form.  The
    recorded energy uses the cell form of the elastic term and central
    time differences for the kinetic term; boundary flux accumulates
    int |u_t(t, 0)|^2 dt by the trapezoid rule.
    """
    if mode not in ("damped", "conservative", "forced"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "forced" and forcing is None:
        raise ValueError("forced mode needs a forcing callable")
    layout = _Layout(cfg, opts.points_per_edge)
    n, h, w = layout.n, layout.h, layout.w
    c_max = float(np.max(cfg.wave_speeds))
    dt = opts.cfl * h / c_max
    stride = opts.record_stride
    steps, times, energies, flux = _steps_and_records(opts.T, dt, 2, stride)
    dt = opts.T / steps
    # increment form: d = u^{k+1} - u^k, d += dt^2 K u / w, u += d.  Off node 0
    # w = h, so dt^2 (K u)_i / w_i = f_i - f_{i-1} with the scaled cell fluxes
    # f_c = (dt^2 / h) g_c (u_{c+1} - u_c); node 0 adds (h / w_0) f_0 and its boundary term
    g_scaled = (dt * dt / h) * layout.g
    lift = h / w[0]
    src = dt * dt / w[0]
    damp = 0.5 * dt / w[0] if mode == "damped" else 0.0
    keep, denom = 1.0 - damp, 1.0 + damp
    forced = mode == "forced"

    u = layout.gather(init.u, real=True)
    v0 = layout.gather(init.v, real=True)
    u[-1] = v0[-1] = 0.0  # the clamped node neither moves nor carries energy

    # elastic term: rho_j |du|^2 / h summed edge by edge over the cell differences
    du = np.empty(n - 1)
    du_edges = [(rho, du[s.start : s.stop - 1]) for rho, s in zip(cfg.densities, layout.spans)]

    def energy(vel, u, kin_scale):
        """kin_scale * sum_i (w_i / h) vel_i^2, trapezoid weights w, plus u's elastic energy."""
        np.subtract(u[1:], u[:-1], out=du)
        elastic = 0.0
        for rho, seg in du_edges:
            elastic += rho * float(np.dot(seg, seg))
        ends = vel.item(0) ** 2 + vel.item(-1) ** 2
        return kin_scale * (float(np.dot(vel, vel)) - 0.5 * ends) + (0.5 / h) * elastic

    f = np.empty(n - 1)
    f_right, f_left, u_right, u_left = f[1:], f[:-1], u[1:], u[:-1]
    d = np.zeros(n)  # the clamped node's increment stays 0
    d_in = d[1:-1]

    def fluxes():
        np.subtract(u_right, u_left, out=f)
        np.multiply(f, g_scaled, out=f)

    # Taylor start: u^1 - u^0 = dt v^0 + dt^2/2 A u^0
    fluxes()
    np.subtract(f_right, f_left, out=d_in)
    d_in *= 0.5
    d_in += dt * v0[1:-1]
    s0 = v0[0] if mode == "damped" else float(forcing(0.0)) if forced else 0.0
    d[0] = dt * v0[0] + 0.5 * (lift * f[0] - src * s0)

    energies[0] = energy(v0, u, 0.5 * h)
    rec = 1
    next_rec = min(stride, steps)
    kin_scale = 0.5 * h / (4.0 * dt * dt)  # for the central difference u^{k+1} - u^{k-1}

    two_dt = 2.0 * dt
    bv_prev = v0.item(0)
    flux_cum = 0.0
    d_rec = np.empty(n)
    for k in range(1, steps + 1):
        u += d  # now u^k; d^{k+1/2} replaces d^{k-1/2} below
        record = k == next_rec
        if record:
            np.copyto(d_rec, d)
        d_old = d.item(0)
        fluxes()
        d_in += f_right
        d_in -= f_left
        vn = float(forcing(k * dt)) if forced else 0.0
        d_new = (keep * d_old + lift * f.item(0)) / denom - src * vn
        d[0] = d_new

        bv = (d_old + d_new) / two_dt
        flux_cum += 0.5 * (bv_prev * bv_prev + bv * bv) * dt
        bv_prev = bv
        if record:
            d_rec += d
            times[rec] = k * dt
            energies[rec] = energy(d_rec, u, kin_scale)
            flux[rec] = flux_cum
            rec += 1
            next_rec = min(next_rec + stride, steps)

    # the last step is a record: d_rec = u^{M+1} - u^{M-1}
    final = WaveState(u=layout.chain(u), v=layout.chain(d_rec / two_dt))
    return EnergyTrace(times=times, energies=energies, boundary_flux=flux), final


def _schrodinger_tridiag(layout: _Layout):
    """Tridiagonal generator -i (K + feedback) / w of `_Layout`'s lumped operator.

    Returns (weights, lower, diag, upper) on the layout's free nodes;
    weights are the lumped masses of the inner product in which the
    operator is exactly dissipative.
    """
    w, g = layout.w, layout.g
    g_left = np.concatenate(([0.0], g[:-1]))
    diag = -(g + g_left).astype(complex)
    diag[0] += -1j  # feedback rho_0 u'(0) = i u(0) folded into the flux
    upper = np.append(g[:-1], 0.0).astype(complex)
    return w, -1j * g_left.astype(complex) / w, -1j * diag / w, -1j * upper / w


def simulate_schrodinger(cfg: ChainConfig, u0: ChainFunction, opts: SimOptions):
    """Crank-Nicolson run of the Schrodinger chain.

    Returns (EnergyTrace, final ChainFunction).  A step is one solve
    (I - dt/2 A) y = u^n for the midpoint state y, u^{n+1} = 2 y - u^n, and
    the flux adds dt |y_0|^2, the step's energy drop to machine precision.
    """
    if u0.arity != 1:
        raise ArityMismatch("Schrodinger simulation needs a scalar initial state")
    if opts.dt is None:
        raise ValueError("Schrodinger simulation needs opts.dt")
    layout = _Layout(cfg, opts.points_per_edge)
    w, lower, diag, upper = _schrodinger_tridiag(layout)
    na = w.size
    u_full = layout.gather(u0, real=False)
    if abs(u_full[-1]) > 1e-9 * (np.max(np.abs(u_full)) + 1.0):
        raise GridMismatch("initial state must vanish at the clamped end")
    if not np.all(np.isfinite(u_full)):
        raise LinearSolveFailure("initial state must not contain infs or NaNs")
    u = u_full[:-1].copy()

    dt = opts.dt
    stride = opts.record_stride
    steps, times, energies, flux = _steps_and_records(opts.T, dt, 1, stride)
    dt = opts.T / steps
    half = 0.5 * dt
    # the midpoint y = (u^n + u^{n+1}) / 2 solves (I - dt/2 A) y = u^n; factored once
    dl, d, du, du2, ipiv, info = zgttrf(-half * lower[1:], 1.0 - half * diag, -half * upper[:-1])
    if info != 0:
        raise LinearSolveFailure(f"Crank-Nicolson matrix is singular (zgttrf info = {info})")

    sqrt_w = np.sqrt(w)
    scaled = np.empty(na, dtype=complex)

    def energy(x):
        np.multiply(sqrt_w, x, out=scaled)
        return 0.5 * np.vdot(scaled, scaled).real

    energies[0] = energy(u)
    rec = 1
    next_rec = min(stride, steps)
    flux_cum = 0.0
    y = np.empty(na, dtype=complex)
    for k in range(1, steps + 1):
        np.copyto(y, u)
        y, info = zgttrs(dl, d, du, du2, ipiv, y, overwrite_b=1)
        if info != 0:
            raise LinearSolveFailure(f"Crank-Nicolson solve failed (zgttrs info = {info})")
        mid = y.item(0)
        flux_cum += dt * (mid.real * mid.real + mid.imag * mid.imag)
        # u^{n+1} = 2 y - u^n, written over y; u's buffer takes the next step's y
        y += y
        y -= u
        u, y = y, u
        if k == next_rec:
            times[rec] = k * dt
            energies[rec] = energy(u)
            flux[rec] = flux_cum
            rec += 1
            next_rec = min(next_rec + stride, steps)
    trace = EnergyTrace(times=times, energies=energies, boundary_flux=flux)
    return trace, layout.chain(np.append(u, 0.0))


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
