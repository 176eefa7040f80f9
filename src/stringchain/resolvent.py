"""Closed-form resolvent solves on the chain, plus norm scans.

The wave solve integrates (i*beta - B d/dx) W = G edge by edge with
matrix exponentials: edge 0 is anchored at its right end (F_0 = W_0(1)),
the other edges at their left ends, and the two boundary rows close a
2x2 system for F_0.  The Schrodinger solve propagates (u, rho u') with
the unimodular trigonometric step for beta > 0; for beta < 0 no
oscillatory representation exists, so the solution is rebuilt from
decaying exponentials on each edge, which keeps every matrix entry
below 1 regardless of |beta|.

Every solve is a plan plus an apply step.  The plan is built once per
(chain, beta, grids): it runs the oscillation guard and the
singularity checks and holds all that does not depend on the load,
namely per-cell product-integration weights (the 8-node Gauss-Legendre
sums of the kernel against the cell's two hat functions 1 - tau and
tau, so that the linearly interpolated load integrates to a weighted
sum of its grid values), the kernel at the grid points, and the
boundary and propagation matrices.  Applying a plan to one load is
O(n) arithmetic per edge.

The norm scans build one plan, one probe mode basis and the
integrate_edge weights of the norms once per beta.  Per probe they
draw the seeded coefficients, form the load with one matrix product
per edge, apply the plan, and take the residual and the norms of that
probe alone, so an estimate over k probes is the running max over the
first k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import zgetrf, zgetrs

from .chain_core import (
    ChainConfig,
    ChainFunction,
    edge_derivative,
    h_norm,
    l2_norm,
    quadrature_weights,
    uniform_grids,
    validate_config,
)
from .errors import (
    ArityMismatch,
    QuadratureTooCoarse,
    SignConventionMismatch,
    SingularBoundaryMatrix,
    SingularDenominator,
    ZeroBeta,
)
from .transfer_matrix import boundary_matrices, exp_osc, propagate, schrodinger_step

__all__ = [
    "WaveResolventSolution",
    "SchrodingerResolventSolution",
    "ScanPoint",
    "wave_resolvent",
    "wave_residual",
    "wave_resolvent_norm_scan",
    "schrodinger_resolvent",
    "schrodinger_residual",
    "schrodinger_norm_scan",
    "random_probe",
    "scan_grid_points",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_TAU = 0.5 * (_GL_NODES + 1.0)
_GL_LEFT = _GL_WEIGHTS * (1.0 - _GL_TAU)  # GL weights times the left hat function
_GL_RIGHT = _GL_WEIGHTS * _GL_TAU
_MIN_CELLS_PER_PERIOD = 10


@dataclass
class WaveResolventSolution:
    """Solution record of one wave resolvent solve."""

    W: ChainFunction
    F: list[np.ndarray]
    Y: np.ndarray
    Gamma: list[np.ndarray]
    beta: float
    residual: Optional[float] = None


@dataclass
class SchrodingerResolventSolution:
    """Solution record of one Schrodinger resolvent solve.

    omega and alpha_gamma only exist on the oscillatory branch beta > 0;
    the decaying-exponential branch has no propagated product to report.
    coeffs stores (u_j(j), rho_j u_j'(j)) per edge on both branches.
    """

    u: ChainFunction
    coeffs: list[tuple[complex, complex]]
    omega: Optional[np.ndarray]
    alpha_gamma: Optional[tuple[complex, complex, complex, complex]]
    beta: float
    residual: Optional[float] = None
    flux: list[np.ndarray] = field(default_factory=list, repr=False)


@dataclass
class ScanPoint:
    beta: float
    norm_estimate: float
    probes: int
    residual_max: float


def _check_oscillation(grids, periods) -> None:
    """Require at least _MIN_CELLS_PER_PERIOD grid cells per oscillation period."""
    for j, g in enumerate(grids):
        h_max = float(np.max(np.diff(g)))
        if h_max > periods[j] / _MIN_CELLS_PER_PERIOD:
            raise QuadratureTooCoarse(
                f"edge {j}: cell width {h_max:.3g} exceeds {periods[j] / _MIN_CELLS_PER_PERIOD:.3g} "
                f"(need {_MIN_CELLS_PER_PERIOD} cells per oscillation period)"
            )


def _gl_nodes(x: np.ndarray):
    """Gauss-Legendre nodes per grid cell, shape (n-1, 8), plus the cell widths."""
    h = np.diff(x)
    return x[:-1, None] + _GL_TAU[None, :] * h[:, None], h


def _hat_weights(kernel: np.ndarray, h: np.ndarray):
    """Per-cell weights (a, b) of the load's end values lo, hi.

    kernel holds the kernel at the GL nodes of each cell; a*lo + b*hi is
    the 8-node GL integral of kernel times the linear interpolant of
    the load on that cell.
    """
    half = 0.5 * h
    return (kernel @ _GL_LEFT) * half, (kernel @ _GL_RIGHT) * half


def _abs2(v: np.ndarray) -> np.ndarray:
    return v.real * v.real + v.imag * v.imag


def _relative(num: float, den: float) -> float:
    if den == 0.0:
        return float(np.sqrt(num))
    return float(np.sqrt(num) / den)


class _WavePlan:
    """The load-independent part of the wave solve at one beta on fixed grids."""

    def __init__(self, cfg: ChainConfig, beta: float, grids: Sequence[np.ndarray]):
        speeds = cfg.wave_speeds
        if beta != 0.0:
            _check_oscillation(grids, [2.0 * np.pi * c / abs(beta) for c in speeds])
        self.densities = cfg.densities
        self.speeds = speeds
        # P_j(x) = int_{anchor}^x exp(i*beta*(anchor - s)*B^{-1}) B^{-1} G ds
        anchors = [1.0] + [float(j) for j in range(1, cfg.n_edges)]
        self.cells, self.phase = [], []
        for j, x in enumerate(grids):
            c = speeds[j]
            s, h = _gl_nodes(x)
            theta = beta * (anchors[j] - s) / c
            self.cells.append(_hat_weights(np.cos(theta), h) + _hat_weights(np.sin(theta), h))
            phi = beta * (x - anchors[j]) / c
            ct, st = np.cos(phi), np.sin(phi)
            self.phase.append((ct, 1j * st / c, 1j * c * st))

        h_mat, _ = boundary_matrices(cfg, 1j * beta)
        det = h_mat[0, 0] * h_mat[1, 1] - h_mat[0, 1] * h_mat[1, 0]
        if abs(det) < 1e-14:
            raise SingularBoundaryMatrix(f"|det H| = {abs(det):.3g} at beta = {beta}")
        self.h_mat = h_mat
        self.edge_exps = [exp_osc(rho, beta, 1.0) for rho in cfg.densities]

    def apply(self, g_values):
        """(W values, F, Y, Gamma) for one 2-vector load on the plan's grids."""
        n_edges = len(self.cells)
        p_parts = []
        for j, g in enumerate(g_values):
            rho, c = self.densities[j], self.speeds[j]
            cos_lo, cos_hi, sin_lo, sin_hi = self.cells[j]
            lo, hi = g[:-1], g[1:]
            cg = cos_lo[:, None] * lo + cos_hi[:, None] * hi  # int cos(theta) G per cell
            sg = sin_lo[:, None] * lo + sin_hi[:, None] * hi
            # B^{-1} G = (G2 / rho, G1) carried by the exponential
            cells = np.stack([cg[:, 1] / rho + (1j / c) * sg[:, 0],
                              (1j * c / rho) * sg[:, 1] + cg[:, 0]], axis=1)
            p = np.zeros((g.shape[0], 2), dtype=complex)
            if j == 0:
                p[:-1] = -np.cumsum(cells[::-1], axis=0)[::-1]
            else:
                p[1:] = np.cumsum(cells, axis=0)
            p_parts.append(p)

        exps = self.edge_exps
        gamma: list[np.ndarray] = []
        if n_edges >= 2:
            gamma.append(np.zeros(2, dtype=complex))  # at the first joint
            for j in range(2, n_edges):
                gamma.append(exps[j - 1] @ (gamma[-1] + p_parts[j - 1][-1]))

        y1 = self.h_mat[0, :] @ p_parts[0][0]
        if n_edges == 1:
            y2 = 0.0 + 0.0j
        else:
            y2 = (exps[-1] @ (gamma[-1] + p_parts[-1][-1]))[0]
        y = np.array([y1, y2], dtype=complex)
        f0 = np.linalg.solve(self.h_mat, y)

        f_list = [f0]
        if n_edges >= 2:
            f_list.append(f0.copy())  # continuity at the first joint
            for j in range(2, n_edges):
                f_list.append(exps[j - 1] @ (f_list[j - 1] - p_parts[j - 1][-1]))

        values = []
        for j, p in enumerate(p_parts):
            ct, ist_c, icst = self.phase[j]
            delta = f_list[j][None, :] - p
            values.append(np.stack([ct * delta[:, 0] + ist_c * delta[:, 1],
                                    icst * delta[:, 0] + ct * delta[:, 1]], axis=1))
        return values, f_list, y, gamma


def _h_norm(weights, densities, values) -> float:
    """h_norm of 2-vector values, with the integrate_edge weights of their grids."""
    total = sum(w @ (rho * _abs2(v[:, 0]) + _abs2(v[:, 1]))
                for w, rho, v in zip(weights, densities, values))
    return float(np.sqrt(total))


def _wave_defect(densities, beta: float, grids, g_values, w_values) -> float:
    """sum_j int rho |r1|^2 + |r2|^2 dx for r = i*beta*W - B dW/dx - G."""
    num = 0.0
    for x, rho, g, w in zip(grids, densities, g_values, w_values):
        dw1 = edge_derivative(x, w[:, 0])
        dw2 = edge_derivative(x, w[:, 1])
        r1 = 1j * beta * w[:, 0] - dw2 - g[:, 0]
        r2 = 1j * beta * w[:, 1] - rho * dw1 - g[:, 1]
        num += np.trapezoid(rho * np.abs(r1) ** 2 + np.abs(r2) ** 2, x).real
    return num


def wave_resolvent(cfg: ChainConfig, beta: float, G: ChainFunction,
                   residual_tol: Optional[float] = None) -> WaveResolventSolution:
    """Solve (i*beta - B d/dx) W = G on the chain in closed form.

    The particular part is the 8-node Gauss-Legendre quadrature per grid
    cell of the load linearly interpolated inside each cell; the grid
    must resolve the oscillation of the exponential or
    QuadratureTooCoarse is raised.
    """
    validate_config(cfg)
    if G.n_edges != cfg.n_edges:
        raise ArityMismatch("load has wrong number of edges")
    if G.arity != 2:
        raise ArityMismatch("wave resolvent needs a 2-vector load")
    values, f_list, y, gamma = _WavePlan(cfg, beta, G.grids).apply(G.values)
    w_fn = ChainFunction(G.grids, values)
    sol = WaveResolventSolution(W=w_fn, F=f_list, Y=y, Gamma=gamma, beta=beta)
    sol.residual = wave_residual(cfg, beta, G, w_fn)
    if residual_tol is not None and sol.residual > residual_tol:
        raise SignConventionMismatch(
            f"wave resolvent residual {sol.residual:.3g} exceeds {residual_tol:.3g}"
        )
    return sol


def wave_residual(cfg: ChainConfig, beta: float, G: ChainFunction, W: ChainFunction) -> float:
    """Relative defect of i*beta*W - B dW/dx - G, differentiated numerically."""
    num = _wave_defect(cfg.densities, beta, G.grids, G.values, W.values)
    return _relative(num, h_norm(G, cfg))


def _probe_bases(cfg: ChainConfig, grids: Sequence[np.ndarray], modes: int, center: float):
    """Per edge, the real (n, 2*modes) table cos(m pi x~), sin(m pi x~) of the probe band.

    With center = 0 the band is the lowest `modes` Fourier modes of the
    edge; otherwise it sits around the spatial frequency center / c_j.
    Columns run mode by mode, cosine before sine.
    """
    bases = []
    for j, g in enumerate(grids):
        if center == 0.0:
            mode_idx = np.arange(1, modes + 1)
        else:
            mc = max(1, int(np.rint(abs(center) / (np.pi * cfg.wave_speeds[j]))))
            lo = max(1, mc - modes // 2 + 1)
            mode_idx = np.arange(lo, lo + modes)
        arg = (g - float(j))[:, None] * (mode_idx * np.pi)[None, :]
        table = np.empty((g.size, modes, 2))
        table[:, :, 0] = np.cos(arg)
        table[:, :, 1] = np.sin(arg)
        bases.append(table.reshape(g.size, 2 * modes))
    return bases


def _probe_values(bases, seed, arity: int):
    """One seeded probe on prepared bases: random_probe's draws, one product per edge.

    Edge by edge the generator yields coefficients (mode, component,
    cos/sin, re/im); regrouped as rows (mode, cos/sin) and columns
    (component, re/im), the real product with the basis holds the real
    and imaginary parts of each component side by side.
    """
    rng = np.random.default_rng(seed)
    values = []
    for basis in bases:
        modes = basis.shape[1] // 2
        coefs = rng.standard_normal((modes, arity, 2, 2))
        mix = coefs.transpose(0, 2, 1, 3).reshape(2 * modes, 2 * arity)
        v = (basis @ mix).view(complex)
        values.append(v[:, 0] if arity == 1 else v)
    return values


def random_probe(cfg: ChainConfig, grids: Sequence[np.ndarray], seed, arity: int = 2,
                 modes: int = 8, center: float = 0.0) -> ChainFunction:
    """Band-limited random load: seeded Fourier modes in a narrow band.

    With center = 0 the band is the lowest `modes` Fourier modes of each
    edge.  A nonzero center places the band around the spatial frequency
    center / c_j, which is where the resolvent at that temporal
    frequency actually responds; low-frequency probes would underreport
    the norm by a factor ~ center.
    """
    values = _probe_values(_probe_bases(cfg, grids, modes, center), seed, arity)
    return ChainFunction(list(grids), values)


def scan_grid_points(cfg: ChainConfig, freq: float, base: int = 257) -> int:
    """Points per edge that satisfy the oscillation guard at this frequency."""
    c_min = float(np.min(cfg.wave_speeds))
    osc = int(np.ceil(1.75 * abs(freq) / c_min)) + 2
    return max(base, osc)


def _beta_key(beta: float) -> int:
    """Stable seed component from the bit pattern; chunk-order independent."""
    return int(np.float64(beta).view(np.uint64))


def wave_resolvent_norm_scan(cfg: ChainConfig, betas: Sequence[float], probes: int,
                             points_per_edge: Optional[int] = None, seed: int = 0) -> list[ScanPoint]:
    """Probe-based lower estimates of the wave resolvent norm at each beta.

    For each frequency the estimate is the max of |W|_H / |G|_H over
    seeded band-limited random loads centered at the responding spatial
    frequency; it is nondecreasing in the number of probes because the
    probe sequence is nested.  One plan and one probe basis serve all
    probes of a frequency.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    validate_config(cfg)
    out = []
    for beta in betas:
        pts = points_per_edge or scan_grid_points(cfg, beta)
        grids = uniform_grids(cfg, pts)
        plan = _WavePlan(cfg, beta, grids)
        weights = [quadrature_weights(x) for x in grids]
        bases = _probe_bases(cfg, grids, 8, beta)
        key = _beta_key(beta)
        best = 0.0
        worst_residual = 0.0
        for k in range(probes):
            g = _probe_values(bases, [seed, key, k], 2)
            w = plan.apply(g)[0]
            g_norm = _h_norm(weights, cfg.densities, g)
            best = max(best, _h_norm(weights, cfg.densities, w) / g_norm)
            residual = _relative(_wave_defect(cfg.densities, beta, grids, g, w), g_norm)
            worst_residual = max(worst_residual, residual)
        out.append(ScanPoint(beta=float(beta), norm_estimate=best, probes=probes,
                             residual_max=worst_residual))
    return out


class _SchrodingerPositivePlan:
    """Oscillatory branch beta > 0: trigonometric particular parts plus the 2x2 march."""

    def __init__(self, cfg: ChainConfig, beta: float, grids: Sequence[np.ndarray]):
        speeds = cfg.wave_speeds
        sb = np.sqrt(beta)
        freqs = [sb / c for c in speeds]
        _check_oscillation(grids, [2.0 * np.pi / a for a in freqs])
        self.densities = cfg.densities
        self.speeds = speeds
        self.sb = sb
        self.freqs = freqs
        self.cells, self.trig = [], []
        for j, x in enumerate(grids):
            a = freqs[j]
            s, h = _gl_nodes(x)
            s_local = s - float(j)
            self.cells.append(_hat_weights(np.cos(a * s_local), h)
                              + _hat_weights(np.sin(a * s_local), h))
            xt = x - float(j)
            self.trig.append((np.cos(a * xt), np.sin(a * xt)))

        self.steps = [schrodinger_step(rho, beta) for rho in cfg.densities]
        # rows of the product P = E_{N-1} ... E_0, from both unit start vectors
        (p00, p01), (p10, p11) = propagate(cfg, 1j * beta, "schrodinger", np.eye(2))
        den = p00 + 1j * p01
        if abs(den) < 1e-14:
            raise SingularDenominator(f"closed-form denominator {abs(den):.3g} at beta = {beta}")
        self.den = den
        self.alpha_gamma = (complex(p00), complex(p01), complex(p10), complex(p11))

    def apply(self, g_values):
        """(u values, coeffs, omega, flux) for one scalar load."""
        sb = self.sb
        g_parts, dg_parts, w_vecs = [], [], []
        acc = np.zeros(2, dtype=complex)
        for j, g in enumerate(g_values):
            rho, c = self.densities[j], self.speeds[j]
            cos_lo, cos_hi, sin_lo, sin_hi = self.cells[j]
            lo, hi = g[:-1], g[1:]
            ic = np.concatenate([[0.0], np.cumsum(cos_lo * lo + cos_hi * hi)])
            is_ = np.concatenate([[0.0], np.cumsum(sin_lo * lo + sin_hi * hi)])
            ct, st = self.trig[j]
            g_parts.append((st * ic - ct * is_) / (1j * sb * c))
            dg_parts.append((ct * ic + st * is_) / (1j * rho))
            w_vecs.append(np.array([g_parts[j][-1], rho * dg_parts[j][-1]], dtype=complex))
            acc = self.steps[j] @ acc + w_vecs[j]
        omega = -acc
        c01 = omega[0] / self.den
        f = np.array([c01, 1j * c01], dtype=complex)
        coeffs, values, flux = [], [], []
        for j in range(len(g_parts)):
            rho, c, a = self.densities[j], self.speeds[j], self.freqs[j]
            ct, st = self.trig[j]
            coeffs.append((complex(f[0]), complex(f[1])))
            values.append(g_parts[j] + f[0] * ct + f[1] * st / (sb * c))
            flux.append(rho * (dg_parts[j] - a * f[0] * st + (f[1] / rho) * ct))
            f = self.steps[j] @ f + w_vecs[j]
        return values, coeffs, omega, flux


class _SchrodingerNegativePlan:
    """Decaying branch for beta < 0: edge-local exponentials, all entries <= 1.

    The particular part uses the bounded free-space kernel
    -exp(-m|x-t|)/(2m), accumulated by damped one-sided recurrences, so
    nothing overflows however large |beta| gets.  The 2N x 2N system
    for the homogeneous coefficients is factored here; only its
    right-hand side depends on the load.
    """

    alpha_gamma = None

    def __init__(self, cfg: ChainConfig, beta: float, grids: Sequence[np.ndarray]):
        kappa = np.sqrt(-beta)
        ms = [kappa / c for c in cfg.wave_speeds]
        self.densities = cfg.densities
        self.ms = ms
        self.cells, self.decay, self.exps = [], [], []
        for j, x in enumerate(grids):
            m = ms[j]
            s, h = _gl_nodes(x)
            self.cells.append(_hat_weights(np.exp(-m * (x[1:, None] - s)), h)
                              + _hat_weights(np.exp(-m * (s - x[:-1, None])), h))
            self.decay.append(np.exp(-m * h))
            xt = x - float(j)
            self.exps.append((np.exp(-m * xt), np.exp(-m * (1.0 - xt))))

        # unknowns (a_j, b_j): u_j = u_p + a_j e^{-m (x-j)} + b_j e^{-m (j+1-x)}
        n_edges = cfg.n_edges
        size = 2 * n_edges
        mat = np.zeros((size, size), dtype=complex)
        e = [np.exp(-m) for m in ms]
        rho0, m0, e0 = cfg.densities[0], ms[0], e[0]
        mat[0, 0] = -rho0 * m0 - 1j
        mat[0, 1] = (rho0 * m0 - 1j) * e0
        for j in range(1, n_edges):
            al, bl = 2 * (j - 1), 2 * (j - 1) + 1
            ar, br = 2 * j, 2 * j + 1
            mat[2 * j - 1, al] = e[j - 1]
            mat[2 * j - 1, bl] = 1.0
            mat[2 * j - 1, ar] = -1.0
            mat[2 * j - 1, br] = -e[j]
            rl, rr = cfg.densities[j - 1], cfg.densities[j]
            mat[2 * j, al] = -rl * ms[j - 1] * e[j - 1]
            mat[2 * j, bl] = rl * ms[j - 1]
            mat[2 * j, ar] = rr * ms[j]
            mat[2 * j, br] = -rr * ms[j] * e[j]
        mat[size - 1, size - 2] = e[-1]
        mat[size - 1, size - 1] = 1.0
        self.lu, self.piv, info = zgetrf(mat)
        if info != 0:
            raise SingularDenominator(f"singular coefficient system at beta = {beta}")

    def apply(self, g_values):
        """(u values, coeffs, None, flux) for one scalar load."""
        up_parts, dup_parts = [], []
        for j, g in enumerate(g_values):
            m = self.ms[j]
            fwd_lo, fwd_hi, bwd_lo, bwd_hi = self.cells[j]
            fv = g / (1j * self.densities[j])
            lo, hi = fv[:-1], fv[1:]
            local_fwd = fwd_lo * lo + fwd_hi * hi
            local_bwd = bwd_lo * lo + bwd_hi * hi
            decay = self.decay[j]
            n = g.shape[0]
            a_cum = np.zeros(n, dtype=complex)
            for k in range(n - 1):
                a_cum[k + 1] = decay[k] * a_cum[k] + local_fwd[k]
            b_cum = np.zeros(n, dtype=complex)
            for k in range(n - 2, -1, -1):
                b_cum[k] = decay[k] * b_cum[k + 1] + local_bwd[k]
            up_parts.append(-(a_cum + b_cum) / (2.0 * m))
            dup_parts.append((a_cum - b_cum) / 2.0)

        n_edges = len(up_parts)
        rhs = np.zeros(2 * n_edges, dtype=complex)
        rhs[0] = 1j * up_parts[0][0] - self.densities[0] * dup_parts[0][0]
        for j in range(1, n_edges):
            rl, rr = self.densities[j - 1], self.densities[j]
            rhs[2 * j - 1] = up_parts[j][0] - up_parts[j - 1][-1]
            rhs[2 * j] = rr * dup_parts[j][0] - rl * dup_parts[j - 1][-1]
        rhs[-1] = -up_parts[-1][-1]
        ab, _ = zgetrs(self.lu, self.piv, rhs)

        coeffs, values, flux = [], [], []
        for j in range(n_edges):
            m, rho = self.ms[j], self.densities[j]
            ea, eb = self.exps[j]
            aj, bj = ab[2 * j], ab[2 * j + 1]
            values.append(up_parts[j] + aj * ea + bj * eb)
            flux.append(rho * (dup_parts[j] - m * aj * ea + m * bj * eb))
            coeffs.append((complex(values[j][0]), complex(flux[j][0])))
        return values, coeffs, None, flux


def _schrodinger_plan(cfg: ChainConfig, beta: float, grids: Sequence[np.ndarray]):
    if beta > 0:
        return _SchrodingerPositivePlan(cfg, beta, grids)
    return _SchrodingerNegativePlan(cfg, beta, grids)


def _l2_norm(weights, values) -> float:
    """l2_norm of scalar values, with the integrate_edge weights of their grids."""
    return float(np.sqrt(sum(w @ _abs2(v) for w, v in zip(weights, values))))


def _schrodinger_defect(beta: float, grids, g_values, u_values, flux) -> float:
    """sum_j int |d/dx(rho u') + i g + beta u|^2 dx."""
    num = 0.0
    for x, g, u, fl in zip(grids, g_values, u_values, flux):
        dflux = edge_derivative(x, fl)
        target = -1j * g - beta * u
        num += np.trapezoid(np.abs(dflux - target) ** 2, x).real
    return num


def schrodinger_resolvent(cfg: ChainConfig, beta: float, g: ChainFunction,
                          residual_tol: Optional[float] = None) -> SchrodingerResolventSolution:
    """Solve (i*beta - A) u = g for the damped Schrodinger chain, beta != 0."""
    validate_config(cfg)
    if beta == 0.0:
        raise ZeroBeta("beta must be nonzero")
    if g.arity != 1:
        raise ArityMismatch("Schrodinger resolvent needs a scalar load")
    if g.n_edges != cfg.n_edges:
        raise ArityMismatch("load has wrong number of edges")
    plan = _schrodinger_plan(cfg, beta, g.grids)
    values, coeffs, omega, flux = plan.apply(g.values)
    sol = SchrodingerResolventSolution(
        u=ChainFunction(g.grids, values), coeffs=coeffs, omega=omega,
        alpha_gamma=plan.alpha_gamma, beta=beta, flux=flux,
    )
    sol.residual = schrodinger_residual(cfg, beta, g, sol)
    if residual_tol is not None and sol.residual > residual_tol:
        raise SignConventionMismatch(
            f"Schrodinger residual {sol.residual:.3g} exceeds {residual_tol:.3g} at beta = {beta}"
        )
    return sol


def schrodinger_residual(cfg: ChainConfig, beta: float, g: ChainFunction,
                         sol: SchrodingerResolventSolution) -> float:
    """Relative defect of d/dx(rho u') - (-i g - beta u).

    The flux rho u' comes from the closed form; only one numerical
    derivative enters, so the check does not merely re-run the
    construction.
    """
    num = _schrodinger_defect(beta, g.grids, g.values, sol.u.values, sol.flux)
    return _relative(num, l2_norm(g))


def schrodinger_norm_scan(cfg: ChainConfig, betas: Sequence[float], probes: int,
                          points_per_edge: Optional[int] = None, seed: int = 0) -> list[ScanPoint]:
    """Probe-based estimates of |u| / |g| for the Schrodinger resolvent.

    One plan and one probe basis serve all probes of a frequency.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    validate_config(cfg)
    out = []
    for beta in betas:
        if beta == 0.0:
            raise ZeroBeta("beta grid must avoid 0")
        if beta > 0:
            pts = points_per_edge or scan_grid_points(cfg, np.sqrt(beta))
        else:
            c_min = float(np.min(cfg.wave_speeds))
            pts = points_per_edge or max(257, int(np.ceil(np.sqrt(-beta) / (2.0 * c_min))) + 2)
        grids = uniform_grids(cfg, pts)
        plan = _schrodinger_plan(cfg, beta, grids)
        weights = [quadrature_weights(x) for x in grids]
        bases = _probe_bases(cfg, grids, 8, np.sqrt(beta) if beta > 0 else 0.0)
        key = _beta_key(beta)
        best = 0.0
        worst_residual = 0.0
        for k in range(probes):
            g = _probe_values(bases, [seed, key, k], 1)
            u, _, _, flux = plan.apply(g)
            g_norm = _l2_norm(weights, g)
            best = max(best, _l2_norm(weights, u) / g_norm)
            residual = _relative(_schrodinger_defect(beta, grids, g, u, flux), g_norm)
            worst_residual = max(worst_residual, residual)
        out.append(ScanPoint(beta=float(beta), norm_estimate=best, probes=probes,
                             residual_max=worst_residual))
    return out
