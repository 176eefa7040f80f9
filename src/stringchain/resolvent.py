"""Closed-form resolvent solves on the chain, plus norm scans.

At a real frequency both chains reduce on each edge to a 2x2 system
Y' = M_j Y + S, closed by the damped row at x = 0 and the clamped row at
x = N.  One plan, `_OscillatoryPlan`, solves it for the wave chain at
every beta and the Schrodinger chain at beta > 0 by marching from the
damped end, with no anchoring at x = 1 and no 2x2 boundary system.  At
beta < 0 the Schrodinger solution is rebuilt from decaying exponentials
on each edge, which keeps every matrix entry below 1 whatever |beta|;
the 2N x 2N system for their coefficients is solved per stack.

A plan is built once per (chain, beta, grids): it runs the oscillation
guard and the singularity checks and holds all that does not depend on
the load, namely the kernel at the grid points, the propagation matrices
and per-cell product-integration weights, in both plans from one rule,
`_hat_sums`: the 8-node Gauss-Legendre sums of a kernel against a cell's
hat functions 1 - tau and tau, once per distinct cell width, so that the
linearly interpolated load integrates to a weighted sum of its grid
values.  It applies to a stack of K loads at once, per edge an array of
shape (K, arity, n), or (K, n) for scalar loads, and gives per edge the
solution's (K, 2, n): components before points, so that every pass runs
along the grid.  That is O(K n) arithmetic per edge, and each load gets
the bits it would get alone.  Both solves run `_solve` on a stack of
one, the transpose of the load's (n, 2) values, and transpose the
solution back; it reports the residual: the relative defect of the
equation with the solution differentiated numerically once.

Both norm scans run one loop, keyed by the kind: per beta one plan, one
probe basis and the norm weights; then the probes in stacks of
max(1, min(probes, _STACK_POINTS // grid points)), each stack one array
of seeded loads per edge (probe k draws from its own generator), one
apply, one norm pass and one residual pass.  So an estimate over k
probes is still the running max over the first k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chain_core import (
    ChainConfig,
    ChainFunction,
    _check_cfg,
    _h_sum,
    _l2_sum,
    _wave_weight,
    edge_derivative,
    quadrature_weights,
    too_large,
    uniform_grids,
)
from .errors import (
    ArityMismatch,
    QuadratureTooCoarse,
    SingularDenominator,
    ZeroBeta,
)

__all__ = [
    "WaveResolventSolution",
    "SchrodingerResolventSolution",
    "ScanPoint",
    "wave_resolvent",
    "wave_resolvent_norm_scan",
    "schrodinger_resolvent",
    "schrodinger_norm_scan",
    "random_probe",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_TAU = 0.5 * (_GL_NODES + 1.0)
_GL_LEFT = _GL_WEIGHTS * (1.0 - _GL_TAU)  # GL weights times the left hat function
_GL_RIGHT = _GL_WEIGHTS * _GL_TAU
_MIN_CELLS_PER_PERIOD = 10
_PROBE_MODES = 8  # Fourier modes per edge in a probe band
_MIN_SCAN_POINTS = 257  # points per edge of a scan grid at low frequency
_STACK_POINTS = 2**14  # a scan solves max(1, _STACK_POINTS // grid points) probes at once


@dataclass
class WaveResolventSolution:
    """Solution record of one wave resolvent solve."""

    W: ChainFunction
    beta: float
    residual: float


@dataclass
class SchrodingerResolventSolution:
    """Solution record of one Schrodinger resolvent solve; flux holds rho u' per edge."""

    u: ChainFunction
    beta: float
    residual: float
    flux: list[np.ndarray] = field(repr=False)


@dataclass
class ScanPoint:
    beta: float
    norm_estimate: float
    probes: int
    residual_max: float


def _hat_sums(h: np.ndarray, kernel):
    """The 8-node Gauss-Legendre sums sum_k w_k (1 - tau_k) f(tau_k h), sum_k w_k tau_k f(tau_k h)
    of kernel f against each cell's hat functions, stacked (2, ..., cells).  They depend on a
    cell only through its width h, so kernel maps the offsets (widths, 8) of each distinct
    width (a few on a uniform grid) to values (..., widths, 8)."""
    widths = np.unique(h)
    f = kernel(widths[:, None] * _GL_TAU[None, :])
    return np.take(np.stack([f @ _GL_LEFT, f @ _GL_RIGHT]), np.searchsorted(widths, h), axis=-1)


def _oscillatory_weights(omega: float, h: np.ndarray, ca: np.ndarray, sa: np.ndarray):
    """Per cell, the weights of the load's end values in the 8-node Gauss-Legendre integrals
    of cos and of sin of omega (s - j) times the load's linear interpolant, from the cells'
    left-end values ca, sa of cos and sin of that phase.

    A node's phase is the left end's plus omega tau_k h, so by angle addition the weights
    are (ca A - sa B) h/2 for cos and (sa A + ca B) h/2 for sin, A and B being the
    `_hat_sums` of cos and sin of omega tau_k h.
    """
    (a_lo, b_lo), (a_hi, b_hi) = _hat_sums(
        h, lambda t: np.stack([np.cos(omega * t), np.sin(omega * t)]))
    half = 0.5 * h
    return ((ca * a_lo - sa * b_lo) * half, (ca * a_hi - sa * b_hi) * half,
            (sa * a_lo + ca * b_lo) * half, (sa * a_hi + ca * b_hi) * half)


class _OscillatoryPlan:
    """Real-frequency solve of Y' = M_j Y + S, marched from the damped end.

    The edge propagator is E_j(t) = [[cos w_j t, p_j sin w_j t],
    [q_j sin w_j t, cos w_j t]] and the source is S = L_j g:

    * kind "wave", any beta: Y = W, w_j = beta / c_j, p_j = i / c_j,
      q_j = i c_j, S = -B^{-1} G = -(G_2 / rho_j, G_1), start (1, 1);
    * kind "schrodinger", beta > 0: Y = (u, rho u'), w_j = sqrt(beta) / c_j,
      p_j = 1 / (sqrt(beta) c_j), q_j = -sqrt(beta) c_j, S = (0, -i g),
      start (1, i).

    The damped row holds for Y(0) = t * start, and the clamped row
    Y_0(N) = 0 fixes t through `den`, the first component of P * start,
    P = E_{N-1}(1) ... E_0(1) being the product of the edge matrices in
    `edges` that `apply` marches through.
    """

    def __init__(self, cfg: ChainConfig, beta: float, grids: Sequence[np.ndarray], kind: str):
        c = cfg.wave_speeds
        if kind == "wave":
            omega, p, q = beta / c, 1j / c, 1j * c
            sources = [np.array([[0.0, -1.0 / rho], [-1.0, 0.0]]) for rho in cfg.densities]
            self.start = (1.0, 1.0)
        else:
            sb = np.sqrt(beta)
            omega, p, q = sb / c, 1.0 / (sb * c), -sb * c
            sources = [np.array([[0.0], [-1j]])] * cfg.n_edges
            self.start = (1.0, 1j)
        self.cells, self.kernels, self.tables, self.edges = [], [], [], []
        for j, x in enumerate(grids):
            h = np.diff(x)
            h_max = float(np.max(h))
            if _MIN_CELLS_PER_PERIOD * h_max * abs(omega[j]) > 2.0 * np.pi:
                limit = 2.0 * np.pi / abs(omega[j]) / _MIN_CELLS_PER_PERIOD
                raise QuadratureTooCoarse(
                    f"edge {j}: cell width {h_max:.3g} exceeds {limit:.3g} "
                    f"(need {_MIN_CELLS_PER_PERIOD} cells per oscillation period)")
            phase = omega[j] * (x - float(j))
            ct, st = np.cos(phase), np.sin(phase)
            self.cells.append(_oscillatory_weights(omega[j], h, ct[:-1], st[:-1]))
            # E(-tau) S = cos(w tau) L g + sin(w tau) rot L g, applied from the left to loads
            rot = np.array([[0.0, -p[j]], [-q[j], 0.0]])
            self.kernels.append((sources[j], rot @ sources[j]))
            self.tables.append((ct, p[j] * st, q[j] * st))
            self.edges.append(np.array([[ct[-1], p[j] * st[-1]], [q[j] * st[-1], ct[-1]]]))  # E_j(1)
        y = np.array(self.start, dtype=complex)
        for edge in self.edges:
            y = edge @ y
        self.den = y[0]
        if abs(self.den) < SingularDenominator.FLOOR:
            raise SingularDenominator(self.den, f"beta = {beta}")

    def apply(self, g_values):
        """Per edge, the values of Y on its grid, shape (K, 2, n), for a stack of K loads
        of shape (K, arity, n), or (K, n) if scalar, per edge; each edge's parts go once
        its values are formed."""
        parts = []
        acc = np.zeros((g_values[0].shape[0], 2, 1), dtype=complex)  # one column per load
        for j, g in enumerate(g_values):
            cos_lo, cos_hi, sin_lo, sin_hi = self.cells[j]
            kc, ks = self.kernels[j]
            v = g.reshape(g.shape[0], -1, g.shape[-1])
            lo, hi = v[..., :-1], v[..., 1:]
            part = np.zeros((v.shape[0], 2, v.shape[2]), dtype=complex)
            # part(x) = int_j^x E(j - s) S(s) ds, cell by cell
            np.cumsum(kc @ (cos_lo * lo + cos_hi * hi) + ks @ (sin_lo * lo + sin_hi * hi),
                      axis=-1, out=part[..., 1:])
            parts.append(part)
            acc = self.edges[j] @ (acc + part[..., -1:])
        f = (-acc[:, :1] / self.den) * np.array(self.start)[:, None]
        values = []
        for j, (ct, pst, qst) in enumerate(self.tables):
            d = parts[j]
            d += f
            y = np.empty_like(d)
            np.add(ct * d[:, 0], pst * d[:, 1], out=y[:, 0])
            np.add(qst * d[:, 0], ct * d[:, 1], out=y[:, 1])
            values.append(y)
            f = self.edges[j] @ d[..., -1:]
            parts[j] = None
        return values


def wave_resolvent(cfg: ChainConfig, beta: float, G: ChainFunction) -> WaveResolventSolution:
    """Solve (i*beta - B d/dx) W = G on the chain in closed form.

    The particular part is the 8-node Gauss-Legendre quadrature per grid
    cell of the load linearly interpolated inside each cell; the grid
    must resolve the oscillation of the exponential or
    QuadratureTooCoarse is raised.
    """
    values, residual = _solve("wave", cfg, beta, G)
    return WaveResolventSolution(W=ChainFunction(G.grids, values), beta=beta, residual=residual)


def _probe_bases(cfg: ChainConfig, grids: Sequence[np.ndarray], center: float):
    """Per edge, the real (n, 2 _PROBE_MODES) table cos(m pi x~), sin(m pi x~) of the band.

    With center = 0 the band is the lowest _PROBE_MODES Fourier modes of
    the edge; otherwise it sits around the spatial frequency center / c_j.
    Columns run mode by mode, cosine before sine.
    """
    bases = []
    for j, g in enumerate(grids):
        lo = 1
        if center != 0.0:
            mc = max(1, int(np.rint(abs(center) / (np.pi * cfg.wave_speeds[j]))))
            lo = max(1, mc - _PROBE_MODES // 2 + 1)
        arg = (g - float(j))[:, None] * (np.arange(lo, lo + _PROBE_MODES) * np.pi)[None, :]
        bases.append(np.stack([np.cos(arg), np.sin(arg)], axis=2).reshape(g.size, -1))
    return bases


def _probe_values(bases, seeds, arity: int):
    """A stack of seeded probes on prepared bases, one per seed: random_probe's draws.

    Each probe has its own generator, which yields edge by edge the
    coefficients (mode, component, cos/sin, re/im); regrouped as rows
    (mode, cos/sin) and columns (component, re/im), the real product with
    the basis holds the real and imaginary parts of each component side
    by side.  Per edge one product writes the whole stack, and a 2-vector stack is copied
    components first: shape (K, arity, n), or (K, n) for scalar probes.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    values = []
    for basis in bases:
        coefs = np.stack([rng.standard_normal((_PROBE_MODES, arity, 2, 2)) for rng in rngs])
        mix = coefs.transpose(0, 1, 3, 2, 4).reshape(len(rngs), 2 * _PROBE_MODES, 2 * arity)
        v = (basis @ mix).view(complex)
        values.append(v[..., 0] if arity == 1 else np.ascontiguousarray(v.transpose(0, 2, 1)))
    return values


def random_probe(cfg: ChainConfig, grids: Sequence[np.ndarray], seed, arity: int = 2,
                 center: float = 0.0) -> ChainFunction:
    """Band-limited random load: seeded Fourier modes in a narrow band.

    With center = 0 the band is the lowest _PROBE_MODES Fourier modes of
    each edge.  A nonzero center places the band around the spatial frequency
    center / c_j, which is where the resolvent at that temporal
    frequency actually responds; low-frequency probes would underreport
    the norm by a factor ~ center.
    """
    values = _probe_values(_probe_bases(cfg, grids, center), [seed], arity)
    return ChainFunction(list(grids), [v[0].T for v in values])


def _beta_key(beta: float) -> int:
    """Stable seed component from the bit pattern of beta, so that a beta's
    probes do not depend on which other betas are scanned with it."""
    return int(np.float64(beta).view(np.uint64))


class _SchrodingerNegativePlan:
    """Decaying branch for beta < 0: edge-local exponentials, all entries <= 1.

    The particular part uses the bounded free-space kernel
    -exp(-m|x-t|)/(2m), accumulated by damped one-sided recurrences, so
    nothing overflows however large |beta| gets.  Both recurrences of an
    edge, the backward one reversed, run together by recursive doubling,
    with no loop over grid points.  The 2N x 2N system for the
    homogeneous coefficients is built here and solved per stack; only its
    right-hand side depends on the load.
    """

    def __init__(self, cfg: ChainConfig, beta: float, grids: Sequence[np.ndarray]):
        kappa = np.sqrt(-beta)
        ms = [kappa / c for c in cfg.wave_speeds]
        self.densities = cfg.densities
        self.ms = ms
        self.cells, self.scans, self.exps = [], [], []
        for j, x in enumerate(grids):
            m = ms[j]
            # with the Gauss nodes symmetric about 1/2, the forward kernel e^{-m (x_{i+1} - s)}
            # has the backward kernel e^{-m (s - x_i)}'s hat sums, swapped
            h = np.diff(x)
            lo, hi = _hat_sums(h, lambda t: np.exp(-m * t)) * (0.5 * h)
            self.cells.append((hi, lo, lo, hi))
            # apply's recurrences acc[i] = decay[i] acc[i - 1] + local[i] by recursive
            # doubling: the pass of width step adds to acc[i] the decay from point
            # i - step to point i, e^{-m (x_i - x_{i-step})} <= 1, times acc[i - step];
            # the backward recurrence runs on the mirrored grid
            both, step, scan = np.stack([x, -x[::-1]]), 1, []
            while step < x.size - 1:
                scan.append((step, np.exp(-m * (both[:, step + 1:] - both[:, 1:-step]))))
                step *= 2
            self.scans.append(scan)
            xt = x - float(j)
            self.exps.append((np.exp(-m * xt), np.exp(-m * (1.0 - xt))))

        # unknowns (a_j, b_j): u_j = u_p + a_j e^{-m (x-j)} + b_j e^{-m (j+1-x)}
        n_edges = cfg.n_edges
        mat = np.zeros((2 * n_edges, 2 * n_edges), dtype=complex)
        e = [np.exp(-m) for m in ms]
        f0 = cfg.densities[0] * ms[0]
        mat[0, :2] = [-f0 - 1j, (f0 - 1j) * e[0]]
        for j in range(1, n_edges):
            # joint j: continuity, then flux balance, over (a, b) of edges j-1 and j
            el, er = e[j - 1], e[j]
            fl, fr = cfg.densities[j - 1] * ms[j - 1], cfg.densities[j] * ms[j]
            mat[2 * j - 1 : 2 * j + 1, 2 * j - 2 : 2 * j + 2] = [[el, 1.0, -1.0, -er],
                                                                 [-fl * el, fl, fr, -fr * er]]
        mat[-1, -2:] = [e[-1], 1.0]
        self.mat, self.beta = mat, beta

    def apply(self, g_values):
        """Per edge, the values of Y = (u, rho u') on its grid, shape (K, 2, n), for a stack
        of K scalar loads of shape (K, n) per edge; one np.linalg.solve solves all K systems."""
        up_parts, dup_parts = [], []
        for j, g in enumerate(g_values):
            m = self.ms[j]
            fwd_lo, fwd_hi, bwd_lo, bwd_hi = self.cells[j]
            fv = g / (1j * self.densities[j])
            lo, hi = fv[:, :-1], fv[:, 1:]
            # rows: a_cum, forward from x_j, and b_cum, backward from x_{j+1}, reversed
            acc = np.zeros((g.shape[0], 2, g.shape[1]), dtype=complex)
            acc[:, 0, 1:] = fwd_lo * lo + fwd_hi * hi
            acc[:, 1, 1:] = (bwd_lo * lo + bwd_hi * hi)[:, ::-1]
            for s, factor in self.scans[j]:
                acc[..., s + 1:] += factor * acc[..., 1:-s]
            a_cum, b_cum = acc[:, 0], acc[:, 1, ::-1]
            up_parts.append(-(a_cum + b_cum) / (2.0 * m))
            dup_parts.append((a_cum - b_cum) / 2.0)

        n_edges = len(up_parts)
        rhs = np.zeros((2 * n_edges, g_values[0].shape[0]), dtype=complex)  # one column per load
        rhs[0] = 1j * up_parts[0][:, 0] - self.densities[0] * dup_parts[0][:, 0]
        for j in range(1, n_edges):
            rl, rr = self.densities[j - 1], self.densities[j]
            rhs[2 * j - 1] = up_parts[j][:, 0] - up_parts[j - 1][:, -1]
            rhs[2 * j] = rr * dup_parts[j][:, 0] - rl * dup_parts[j - 1][:, -1]
        rhs[-1] = -up_parts[-1][:, -1]
        try:
            ab = np.linalg.solve(self.mat, rhs)
        except np.linalg.LinAlgError:
            raise SingularDenominator(0.0, f"beta = {self.beta}") from None

        values = []
        for j in range(n_edges):
            m, rho = self.ms[j], self.densities[j]
            ea, eb = self.exps[j]
            aj, bj = ab[2 * j, :, None], ab[2 * j + 1, :, None]
            values.append(np.stack([up_parts[j] + aj * ea + bj * eb,
                                    rho * (dup_parts[j] - m * aj * ea + m * bj * eb)], axis=1))
        return values


def _plan(cfg: ChainConfig, beta: float, grids: Sequence[np.ndarray], kind: str):
    """The solve plan of the wave or Schrodinger resolvent at beta on these grids."""
    if kind == "schrodinger" and beta == 0.0:
        raise ZeroBeta("beta must be nonzero")
    if kind == "schrodinger" and beta < 0:
        return _SchrodingerNegativePlan(cfg, beta, grids)
    return _OscillatoryPlan(cfg, beta, grids, kind)


def _solve(kind: str, cfg: ChainConfig, beta: float, g: ChainFunction):
    """(values, residual) of one closed-form solve for the load g: per edge the
    values of W (wave) or of (u, rho u') (Schrodinger), and their residual."""
    _check_cfg(g, cfg)
    if g.arity != (2 if kind == "wave" else 1):
        raise ArityMismatch("wave resolvent needs a 2-vector load" if kind == "wave"
                            else "Schrodinger resolvent needs a scalar load")
    loads = [v.T[None] for v in g.values]  # a stack of one, components first
    values = _plan(cfg, beta, g.grids, kind).apply(loads)
    g_norm = _norm(kind, cfg, [quadrature_weights(x) for x in g.grids], loads)
    residual = _residual(kind, cfg, beta, g.grids, loads, values, g_norm)
    return [v[0].T for v in values], float(residual[0])


def schrodinger_resolvent(cfg: ChainConfig, beta: float,
                          g: ChainFunction) -> SchrodingerResolventSolution:
    """Solve (i*beta - A) u = g for the damped Schrodinger chain, beta != 0."""
    values, residual = _solve("schrodinger", cfg, beta, g)
    return SchrodingerResolventSolution(u=ChainFunction(g.grids, [y[:, 0] for y in values]),
                                        beta=beta, residual=residual,
                                        flux=[y[:, 1] for y in values])


def _scan_grid(cfg: ChainConfig, beta: float, kind: str):
    """(points per edge, probe centre) of the scan grid of this kind at beta: the oscillation
    guard's points at the frequency beta (wave) or sqrt(beta) (Schrodinger, beta > 0), and
    at beta < 0 sqrt(-beta) / (2 c_min) points, with the lowest modes as probes."""
    decaying = kind == "schrodinger" and beta < 0
    freq = beta if kind == "wave" else np.sqrt(abs(beta))
    c_min = float(np.min(cfg.wave_speeds))
    with too_large(f"scan grid at frequency {freq:g}"):  # Python floats overflow silently
        points = int(np.ceil((0.5 if decaying else 1.75) * abs(float(freq)) / c_min)) + 2
    return max(_MIN_SCAN_POINTS, points), 0.0 if decaying else freq


def _norm(kind: str, cfg: ChainConfig, weights, values) -> np.ndarray:
    """Per load of a stack, the h_norm of wave values (K, 2, n) or the L2 norm of
    Schrodinger ones (K, n)."""
    return np.sqrt(_h_sum(weights, cfg.densities, values) if kind == "wave"
                   else _l2_sum(weights, values))


def _residual(kind: str, cfg: ChainConfig, beta: float, grids, g, y, g_norm) -> np.ndarray:
    """Per load of a stack, the relative defect, over the load's norm g_norm (unless 0),
    of the solution values y of the load g: the h_norm defect of i*beta*W - B dW/dx - G,
    or for y = (u, rho u') the L2 defect of d/dx(rho u') + i g + beta u, whose flux comes
    from the closed form, so that one numerical derivative enters and the check does not
    re-run the solve."""
    num = 0.0
    for x, rho, gx, yx in zip(grids, cfg.densities, g, y):
        if kind == "wave":
            dw = edge_derivative(x, yx)  # both components at once
            r1 = 1j * beta * yx[:, 0] - dw[:, 1] - gx[:, 0]
            r2 = 1j * beta * yx[:, 1] - rho * dw[:, 0] - gx[:, 1]
            num = num + np.trapezoid(_wave_weight(rho, r1, r2), x)
        else:
            dflux = edge_derivative(x, yx[:, 1])
            num = num + np.trapezoid(np.abs(dflux - (-1j * gx - beta * yx[:, 0])) ** 2, x)
    return np.sqrt(num) / np.where(g_norm != 0.0, g_norm, 1.0)


def _norm_scan(kind: str, cfg: ChainConfig, betas: Sequence[float], probes: int,
               points_per_edge: Optional[int], seed: int) -> list[ScanPoint]:
    """The probe loop of both norm scans: one plan and one probe basis per beta, then the
    probes in stacks of up to _STACK_POINTS grid points, each probe k from its own seed."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    arity = 2 if kind == "wave" else 1
    out = []
    for beta in betas:
        points, center = _scan_grid(cfg, beta, kind)
        grids = uniform_grids(cfg, points_per_edge or points)
        plan = _plan(cfg, beta, grids, kind)
        weights = [quadrature_weights(x) for x in grids]
        bases = _probe_bases(cfg, grids, center)
        key = _beta_key(beta)
        stack = max(1, min(probes, _STACK_POINTS // sum(x.size for x in grids)))
        ratios, residuals = [0.0], [0.0]
        for first in range(0, probes, stack):
            seeds = [[seed, key, k] for k in range(first, min(first + stack, probes))]
            g = _probe_values(bases, seeds, arity)
            y = plan.apply(g)
            g_norm = _norm(kind, cfg, weights, g)
            u = y if kind == "wave" else [v[:, 0] for v in y]  # y = (u, rho u') gives u's ratio
            ratios += (_norm(kind, cfg, weights, u) / g_norm).tolist()
            residuals += _residual(kind, cfg, beta, grids, g, y, g_norm).tolist()
            del g, y, u  # so that no stack's arrays outlive it into the next one's solve
        out.append(ScanPoint(beta=float(beta), norm_estimate=max(ratios), probes=probes,
                             residual_max=max(residuals)))
    return out


def wave_resolvent_norm_scan(cfg: ChainConfig, betas: Sequence[float], probes: int,
                             points_per_edge: Optional[int] = None, seed: int = 0) -> list[ScanPoint]:
    """Probe-based lower estimates of the wave resolvent norm at each beta.

    For each frequency the estimate is the max of |W|_H / |G|_H over
    seeded band-limited random loads centered at the responding spatial
    frequency; it is nondecreasing in the number of probes because the
    probe sequence is nested.
    """
    return _norm_scan("wave", cfg, betas, probes, points_per_edge, seed)


def schrodinger_norm_scan(cfg: ChainConfig, betas: Sequence[float], probes: int,
                          points_per_edge: Optional[int] = None, seed: int = 0) -> list[ScanPoint]:
    """Probe-based estimates of |u| / |g| for the Schrodinger resolvent.

    For beta > 0 the probes are centered at the spatial frequency
    sqrt(beta) / c_j; for beta < 0 they are the lowest modes.
    """
    return _norm_scan("schrodinger", cfg, betas, probes, points_per_edge, seed)
