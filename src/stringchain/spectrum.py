"""Characteristic determinants, complex root location, and the axis gap.

Eigenvalues of the damped generators are exactly the zeros of the
characteristic determinants assembled from the transfer matrices: a
nontrivial homogeneous solution of the boundary-value problem exists iff
the 2x2 boundary closure is singular.  Roots are located by the argument
principle on a grid over a rectangle: every grid cell around which the
phase of the determinant winds starts a Newton refinement with a
central-difference derivative, and Newton steps all of a search's starts
together, one lam array per kernel call.  The grid is screened in blocks: a
block's inside is evaluated only if its boundary winds (Delves-Lyness)
or steps by more than pi / 2 (Ying-Katz).  An optional winding-number
count along the rectangle boundary audits for missed roots.

The axis gap min |D(i beta)| over a window is certified for the wave
chain, not sampled: `axis_bounds` bounds |D| and the curvature of
|D|^2 from the path expansion of the transfer product, and
`imaginary_axis_gap` splits only the grid cells that bound cannot close
(Piyavskii-Shubert branch and bound), so a few thousand frequencies pin
the minimum to 1e-12 relative, up to rounding.  The Schrodinger gap is
still sampled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chain_core import ChainConfig, too_large, uniform_betas
from .errors import EmptyScan
from .transfer_matrix import DetPair, _finite_values, det_pair, propagate

__all__ = [
    "AxisGap",
    "EigenSet",
    "char_det_schrodinger",
    "find_eigenvalues",
    "imaginary_axis_gap",
    "axis_bounds",
    "count_roots_contour",
]

_AXIS_MARGIN = 1e-6  # scan rectangles never touch the imaginary axis
_NEWTON_MAX_ITER = 80
_CONTOUR_SAMPLES = 4096  # per side of the counting contour
_GAP_RTOL = 1e-12  # the certified gap is the window minimum to this relative tolerance
_GAP_MAX_SPLITS = 400_000  # midpoints per search: the cost of the 1e-3 scan it replaced
_EPS = float(np.finfo(float).eps)
_SCREEN = 8  # cells per side of the blocks by which find_eigenvalues screens its grid


@dataclass
class EigenSet:
    """Located eigenvalues with their determinant residuals."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    search_rect: tuple[float, float, float, float]
    abscissa: Optional[float]
    failures: list[dict] = field(default_factory=list)
    audit_count: Optional[int] = None


def char_det_schrodinger(cfg: ChainConfig, lam) -> complex | np.ndarray:
    """Analytic function vanishing exactly at Schrodinger eigenvalues.

    The first component of the start vector (1, i), which encodes the
    damped condition rho_0 u'(0) = i u(0), propagated to x = N.
    Normalized to 1 at the reference point lam = 1, so values are
    comparable across runs; on the positive imaginary axis it matches
    the closed-form resolvent denominator up to that fixed constant.
    """
    out = _schrodinger_closure(cfg, np.asarray(lam, dtype=complex)) / _schrodinger_reference(cfg)
    return complex(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=64)
def _schrodinger_reference(cfg: ChainConfig):
    """char_det_schrodinger's normaliser, the closure at lam = 1, once per chain."""
    return _schrodinger_closure(cfg, 1.0)


def _schrodinger_closure(cfg: ChainConfig, lam):
    """[P_S(lam) (1, i)]_0 through the wave kernel at mu = sqrt(i lam).

    P_S(lam) = diag(1, mu) P(mu) diag(1, 1/mu) for the wave product P, so
    the value is [P(mu) (mu, i)]_0 / mu = P00 + i P01 / mu, even in mu
    (either root serves), and 1 + i sum_j 1 / rho_j, its limit, at mu = 0.
    """
    mu = np.sqrt(1j * lam)
    zero = mu == 0
    if not zero.any():
        return propagate(cfg, mu, (mu, 1j))[0] / mu
    mu = np.where(zero, 1.0, mu)  # any nonzero mu: its value is replaced below
    at_zero = 1.0 + 1j * sum(1.0 / rho for rho in cfg.densities)
    return np.where(zero, at_zero, propagate(cfg, mu, (mu, 1j))[0] / mu)


def _char_fn(cfg: ChainConfig, which: str):
    if which == "wave":
        return lambda lam: det_pair(cfg, lam).d
    if which == "schrodinger":
        return lambda lam: char_det_schrodinger(cfg, lam)
    raise ValueError(f"unknown system {which!r}")


@dataclass
class AxisGap:
    """The smallest |char det(i beta)| found on a beta window, and how it was found.

    `value` is attained: |D(i beta)| at an evaluated beta, so it bounds the
    window minimum from above.  `lower` is a certified lower bound on that
    minimum (wave chain, every cell closed), else None: the Schrodinger
    scan only samples, and `open_cells` counts the cells the wave search
    left open, too narrow to split in floating point or past its split
    budget.  `rows` are round one's betas on the uniform grid (every
    stride-th point), and `first` holds det_pair (wave) or D (Schrodinger)
    at them, so det_scan.csv needs no second evaluation.
    """

    value: float
    lower: Optional[float]
    lambdas: int
    rounds: int
    open_cells: int
    rows: np.ndarray
    first: DetPair | np.ndarray

    @property
    def certified(self) -> bool:
        return self.lower is not None


def axis_bounds(cfg: ChainConfig, beta_abs: float) -> tuple[float, float, float]:
    """(m0, M, e): |D(i beta)| <= m0 and |g''| <= M on the whole axis, for
    g = |D(i beta)|^2, and e bounds the rounding error of g for |beta| <= beta_abs.

    In characteristic coordinates (p, q) = (a + b/c, a - b/c) edge j is
    diag(e^{i beta/c_j}, e^{-i beta/c_j}) on the axis, joint j is
    [[1+r, 1-r], [1-r, 1+r]]/2 with r = c_j/c_{j+1}, the start (1, 1) is
    (1 + 1/c_0, 1 - 1/c_0) and D = (p + q)/2.  Expanding the product
    over paths gives D(i beta) = sum_m d_m e^{i beta tau_m} with travel
    times |tau_m| <= T = sum_j 1/c_j, so |D| <= m0 = sum |d_m|, and
    |g''| <= sum_{m,n} |d_m||d_n|(tau_m - tau_n)^2 = 2 m0 S with
    S = sum |d_m|(tau_m - mean)^2 the weighted spread of the travel
    times.  The weights, means and spreads of the paths ending in p and
    in q propagate in O(N); merging groups adds only nonnegative terms
    (the parallel-axis rule), so M has no cancellation and is exactly 0
    on matched chains, whose paths all share one travel time.

    Rounding: the propagation's arithmetic errs by a few eps per edge
    relative to m0, and the rounded phases beta/c_j move D by up to
    m0 eps |beta| T.  With Delta = eps m0 (8 (N + 2) + 2 beta_abs T),
    e = 2 m0 Delta + Delta^2.
    """
    c = cfg.wave_speeds
    # weight, mean travel time and spread of the paths in p and in q, before edge 0
    w, mean, spread = np.abs([1.0 + 1.0 / c[0], 1.0 - 1.0 / c[0]]), np.zeros(2), np.zeros(2)
    for j, cj in enumerate(c):
        if j:
            r = c[j - 1] / cj
            joint = 0.5 * np.array([[1 + r, abs(1 - r)], [abs(1 - r), 1 + r]])
            w, mean, spread = _merge_paths(joint, w, mean, spread)
        mean = mean + np.array([1.0, -1.0]) / cj
    w, _, spread = _merge_paths(np.array([[0.5, 0.5]]), w, mean, spread)
    m0 = float(w[0])
    delta = _EPS * m0 * (8.0 * (cfg.n_edges + 2) + 2.0 * beta_abs * float(np.sum(1.0 / c)))
    return m0, 2.0 * m0 * float(spread[0]), 2.0 * m0 * delta + delta * delta


def _merge_paths(a: np.ndarray, w: np.ndarray, mean: np.ndarray, spread: np.ndarray):
    """Group i of the result takes a[i, k] times the paths of group k: its weight,
    its weighted mean travel time, and its spread by the parallel-axis rule."""
    wn = a @ w
    mn = np.divide(a @ (w * mean), wn, out=np.zeros_like(wn), where=wn > 0)
    return wn, mn, (a * (spread + w * (mean - mn[:, None]) ** 2)).sum(axis=1)


def imaginary_axis_gap(cfg: ChainConfig, which: str, beta_range: tuple[float, float],
                       step: float, stride: int = 1) -> AxisGap:
    """Smallest |char det(i beta)| on the window beta_range.

    The Schrodinger chain is sampled on uniform_betas(beta_range, step);
    a value there that is not finite raises DeterminantOverflow.
    The wave chain's window minimum is certified by branch and bound
    (Piyavskii-Shubert with the second-order bound of `axis_bounds`).
    Round one evaluates g = |D|^2 at the rows alone, uniform_betas(beta_range,
    step, stride), and at the window's upper end if the rows stop short
    of it.  Each later round splits, with one det_pair call for all the
    midpoints, every cell whose lower bound min(g(a), g(b)) - M w^2/8 - e
    lies below best (1 - 1e-12) - e, where e bounds the rounding of g
    (with e on one side only, the cells at the minimum would never
    close).  When no cell is left, no beta in the window has g below
    best (1 - 1e-12) - e, which is `lower` squared.

    A cell too narrow to split in floating point stays open.  The search
    also stops, leaving its open cells as they are, once the next round
    would take it past _GAP_MAX_SPLITS midpoints: a curvature bound far
    above the true one, as on long or strongly mismatched chains, opens
    too many cells.  The open cells are counted in `open_cells`, and the
    result is then uncertified.
    """
    fn = _char_fn(cfg, which)
    rows = uniform_betas(beta_range, step, stride)
    if which == "schrodinger":
        betas = uniform_betas(beta_range, step)
        vals = _finite_values(fn, 1j * betas)
        return AxisGap(float(np.min(np.abs(vals))), None, betas.size, 1, 0, rows,
                       vals[::stride].copy())
    hi = float(beta_range[1])
    pts = rows if rows[-1] >= hi else np.append(rows, hi)
    pair = det_pair(cfg, 1j * pts)
    first = DetPair(pair.d[:rows.size], pair.d_tilde[:rows.size])
    d = np.abs(pair.d)
    _, curv, allowance = axis_bounds(cfg, float(np.max(np.abs(pts))))
    best = float(np.min(d))
    lambdas, rounds = pts.size, 1
    a, b, da, db = pts[:-1], pts[1:], d[:-1], d[1:]  # the cells; pts ascend
    while True:
        w = b - a
        keep = np.minimum(da, db) ** 2 - 0.125 * curv * w * w - allowance \
            < best * best * (1.0 - _GAP_RTOL) - allowance
        a, b, da, db = a[keep], b[keep], da[keep], db[keep]
        mid = 0.5 * a + 0.5 * b
        split = (a < mid) & (mid < b)
        if not split.any() or lambdas - pts.size + np.count_nonzero(split) > _GAP_MAX_SPLITS:
            break
        stuck = ~split
        mid = mid[split]
        dm = np.abs(det_pair(cfg, 1j * mid).d)
        lambdas, rounds = lambdas + mid.size, rounds + 1
        best = min(best, float(np.min(dm)))
        a = np.concatenate((a[split], mid, a[stuck]))
        b = np.concatenate((mid, b[split], b[stuck]))
        da = np.concatenate((da[split], dm, da[stuck]))
        db = np.concatenate((dm, db[split], db[stuck]))
    lower = None if a.size else math.sqrt(max(best * best * (1.0 - _GAP_RTOL) - allowance, 0.0))
    return AxisGap(best, lower, lambdas, rounds, a.size, rows, first)


def _refine_newton(fn, starts: np.ndarray, tol: float, max_travel: float):
    """Newton with a central-difference derivative from all starts together;
    returns the arrays (z, |f|, ok).  Each step calls fn once at z +- h and once
    at the new iterates, for the starts still moving.  A start stops after
    _NEWTON_MAX_ITER steps, on a zero or non-finite derivative, or once more
    than max_travel from where it began.  Once |f| <= tol it takes one more
    step, kept unless |f| grows: tol alone pins a root only to about tol / |f'|.
    Every operation is elementwise, so each start gets the bits it gets alone.
    """
    z0 = np.asarray(starts, dtype=complex)
    z, f = z0.copy(), fn(z0)
    moving = np.arange(z.size)
    for _ in range(_NEWTON_MAX_ITER):
        if not moving.size:
            break
        zm, fm = z[moving], f[moving]
        h = 1e-7 * (1.0 + np.abs(zm))
        both = fn(np.concatenate((zm + h, zm - h)))
        d = (both[:zm.size] - both[zm.size:]) / (2.0 * h)
        step = (d != 0.0) & np.isfinite(d)
        moving, zm, fm, d = moving[step], zm[step], fm[step], d[step]
        z_new = zm - fm / d
        f_new = fn(z_new)
        converged = np.abs(fm) <= tol
        take = ~converged | (np.abs(f_new) <= np.abs(fm))
        moving, z_new, f_new, converged = moving[take], z_new[take], f_new[take], converged[take]
        z[moving], f[moving] = z_new, f_new
        moving = moving[~converged & ~(np.abs(z_new - z0[moving]) > max_travel)]
    return z, np.abs(f), np.abs(f) <= tol


def _wrap_phase(d: np.ndarray) -> np.ndarray:
    """Phase steps d wrapped in place to their principal values in [-pi, pi]."""
    d -= 2.0 * np.pi * np.rint(d / (2.0 * np.pi))
    return d


def count_roots_contour(cfg: ChainConfig, rect: tuple[float, float, float, float],
                        which: str) -> int:
    """Winding number of the characteristic function around the rectangle.

    Sums the wrapped phase steps around it, its four sides evaluated as one
    array: no ratio of values, which could overflow near the float maximum.
    """
    re0, re1, im0, im1 = rect
    corners = np.array([re0 + 1j * im0, re1 + 1j * im0, re1 + 1j * im1, re0 + 1j * im1])
    ends = np.roll(corners, -1)
    t = np.linspace(0.0, 1.0, _CONTOUR_SAMPLES)
    vals = _finite_values(_char_fn(cfg, which), corners[:, None] + (ends - corners)[:, None] * t)
    total = float(np.sum(_wrap_phase(np.diff(np.angle(vals), axis=1))))
    return int(np.rint(total / (2.0 * np.pi)))


def _screened_phase(fn, res: np.ndarray, ims: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """np.angle(fn) on the grid res x ims into `phase` (NaN where left out): on the
    block lines, every _SCREEN-th row and column and the outer ones, then inside
    each block whose boundary winds (wrapped steps summing beyond pi) or has a
    wrapped step above pi / 2.  Returns the cells, (ims.size - 1, res.size - 1),
    whose four corners it filled: those of the filled blocks and of the blocks one
    cell wide or high, all of whose nodes lie on the lines.  Every other cell has a
    corner inside a block it left out.

    The outer lines hold each edge's largest |Re z_j| on the grid (Re lam / c_j;
    for the Schrodinger chain Re sqrt(i lam) / c_j, harmonic, so extreme on the
    boundary), which bounds the propagated values and past 710.48 overflows cosh:
    DeterminantOverflow is raised wherever the full grid raised it.
    """
    ys = np.append(np.arange(0, ims.size - 1, _SCREEN), ims.size - 1)
    xs = np.append(np.arange(0, res.size - 1, _SCREEN), res.size - 1)
    lines = np.zeros(phase.shape, dtype=bool)
    lines[ys] = lines[:, xs] = True
    lam = res + 1j * ims[:, None]

    def fill(mask):
        phase[mask] = np.angle(_finite_values(fn, lam[mask]))

    fill(lines)
    h = _wrap_phase(np.diff(phase[ys], axis=1))
    v = _wrap_phase(np.diff(phase[:, xs], axis=0))
    # per block side: the sum of its wrapped steps and the number above pi / 2
    h = np.add.reduceat(np.stack((h, np.abs(h) > 0.5 * np.pi)), xs[:-1], axis=2)
    v = np.add.reduceat(np.stack((v, np.abs(v) > 0.5 * np.pi)), ys[:-1], axis=1)
    turn = h[0, :-1] - h[0, 1:] + v[0, :, 1:] - v[0, :, :-1]
    steep = h[1, :-1] + h[1, 1:] + v[1, :, 1:] + v[1, :, :-1]
    wind = (np.abs(turn) > np.pi) | (steep > 0)
    # each node takes its block's verdict, rows then columns; the lines are filled already
    fill(wind[np.searchsorted(ys, np.arange(ims.size)) - 1]
         [:, np.searchsorted(xs, np.arange(res.size)) - 1] & ~lines)
    wind |= (np.diff(ys) == 1)[:, None] | (np.diff(xs) == 1)
    return wind[np.searchsorted(ys, np.arange(ims.size - 1), "right") - 1] \
        [:, np.searchsorted(xs, np.arange(res.size - 1), "right") - 1]


def find_eigenvalues(cfg: ChainConfig, rect: tuple[float, float, float, float], which: str,
                     grid: tuple[int, int] = (64, 64), tol: float = 1e-10,
                     audit: bool = False) -> EigenSet:
    """Locate zeros of the characteristic determinant inside a rectangle.

    The determinant's phase is sampled on the grid, and the wrapped phase
    steps around each cell add up to 2 pi times the number of roots in
    it (the argument principle).  Newton starts at the centre of every
    cell that winds and its result is kept if it lands inside the
    rectangle with |det| <= tol.  The scan grid is padded by one cell so
    roots sitting exactly on the rectangle boundary are still seen.  Only
    blocks of 8 x 8 cells whose boundary winds or has a wrapped step above
    pi / 2 are evaluated inside (`_screened_phase`).  Where the block lines
    resolve the phase, no cell of another block winds (D is entire), so
    the starts are those of the full grid.  A
    cell holding several roots starts one Newton run only, and a grid too
    coarse for the phase (steps beyond pi) can miss a root; `audit`
    counts the roots on the boundary to show either.  Starts that fail
    to refine are reported in `failures` (start, last iterate, |det|),
    not raised; the `spectrum` subcommand exits 2 on any.  MemoryError if
    the grid cannot be allocated.
    """
    re0, re1, im0, im1 = (float(v) for v in rect)
    re1 = min(re1, -_AXIS_MARGIN)  # keep the scan off the imaginary axis
    if re0 >= re1 or im0 >= im1:
        raise EmptyScan("empty search rectangle")
    nx, ny = grid
    if nx < 16 or ny < 16:
        raise ValueError("grid must be at least 16 x 16")
    fn = _char_fn(cfg, which)
    dx = (re1 - re0) / (nx - 1)
    dy = (im1 - im0) / (ny - 1)
    with too_large(f"grid {nx} x {ny}"):
        res = np.linspace(re0 - dx, re1 + dx, nx + 2)
        ims = np.linspace(im0 - dy, im1 + dy, ny + 2)
        phase = np.full((ny + 2, nx + 2), np.nan)
    res = np.minimum(res, -_AXIS_MARGIN)
    cells = np.zeros(phase.shape, dtype=bool)
    cells[:-1, :-1] = _screened_phase(fn, res, ims, phase)
    # counterclockwise phase change around each filled cell, from its lower left
    # corner at the flat index c: 2 pi times its root count
    c = np.flatnonzero(cells)
    row = phase.shape[1]
    c00, c01, c10, c11 = (np.take(phase, c + d) for d in (0, 1, row, row + 1))
    turn = _wrap_phase(c01 - c00) - _wrap_phase(c11 - c10) + _wrap_phase(c11 - c01) \
        - _wrap_phase(c10 - c00)
    del phase
    # row by row, as the dedupe below keeps the first of two starts' equal roots
    iy, ix = np.divmod(c[np.abs(turn) > np.pi], row)
    starts = 0.5 * (res[ix] + res[ix + 1]) + 1j * (0.5 * (ims[iy] + ims[iy + 1]))
    diag = abs(complex(re1 - re0, im1 - im0))
    zs, resids, oks = _refine_newton(fn, starts, tol, 2.0 * diag)
    roots: list[complex] = []
    residuals: list[float] = []
    failures: list[dict] = []
    for z0, z, resid, ok in zip(starts.tolist(), zs.tolist(), resids.tolist(), oks.tolist()):
        if ok:
            inside = (re0 - 1e-9 <= z.real <= re1 + 1e-9) and (im0 - 1e-9 <= z.imag <= im1 + 1e-9)
            if inside and all(abs(z - r) > 1e-8 for r in roots):
                roots.append(z)
                residuals.append(resid)
        else:
            failures.append({"start": z0, "last": z, "residual": resid})
    # by Im, then Re; an |Im| within the inside test's 1e-9 (a real root's rounding) is 0
    found = sorted(zip(roots, residuals), key=lambda p: (
        p[0].imag if abs(p[0].imag) > 1e-9 else 0.0, p[0].real))
    eig = np.array([z for z, _ in found], dtype=complex)
    resid = np.array([r for _, r in found], dtype=float)
    audit_count = None
    if audit:
        pad_rect = (re0 - 0.5 * dx, re1 + 0.5 * dx, im0 - 0.5 * dy, im1 + 0.5 * dy)
        audit_count = count_roots_contour(cfg, pad_rect, which)
    abscissa = float(np.max(eig.real)) if eig.size else None
    return EigenSet(
        eigenvalues=eig,
        residuals=resid,
        search_rect=(re0, re1, im0, im1),
        abscissa=abscissa,
        failures=failures,
        audit_count=audit_count,
    )
