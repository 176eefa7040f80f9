"""Characteristic determinants, complex root location, and the axis gap.

Eigenvalues of the damped generators are exactly the zeros of the
characteristic determinants assembled from the transfer matrices: a
nontrivial homogeneous solution of the boundary-value problem exists iff
the 2x2 boundary closure is singular.  Roots are located by the argument
principle on a grid over a rectangle: every grid cell around which the
phase of the determinant winds starts a Newton refinement with a
central-difference derivative.  An optional winding-number count along
the rectangle boundary audits for missed roots.

The axis gap min |D(i beta)| over a window is certified for the wave
chain, not sampled: `axis_bounds` bounds |D| and the curvature of
|D|^2 from the path expansion of the transfer product, and
`imaginary_axis_gap` splits only the grid cells that bound cannot close
(Piyavskii-Shubert branch and bound), so a few thousand frequencies pin
the minimum to 1e-12 relative, up to rounding.  The Schrodinger gap is
still sampled.
"""

from __future__ import annotations

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
    ref = complex(propagate(cfg, 1.0, "schrodinger", (1, 1j))[0])
    out = propagate(cfg, lam, "schrodinger", (1, 1j))[0] / ref
    if out.ndim == 0:
        return complex(out)
    return out


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

    The Schrodinger chain is sampled on uniform_betas(beta_range, step).
    The wave chain's window minimum is certified by branch and bound
    (Piyavskii-Shubert with the second-order bound of `axis_bounds`).
    Round one evaluates g = |D|^2 at the rows uniform_betas(beta_range,
    step)[::stride], and at the window's upper end if the rows stop short
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
    betas = uniform_betas(beta_range, step)
    if which == "schrodinger":
        vals = char_det_schrodinger(cfg, 1j * betas)
        return AxisGap(float(np.min(np.abs(vals))), None, betas.size, 1, 0,
                       betas[::stride].copy(), vals[::stride].copy())
    if which != "wave":
        raise ValueError(f"unknown system {which!r}")
    rows = betas[::stride].copy()
    del betas
    hi = float(beta_range[1])
    pts = rows if rows[-1] >= hi else np.append(rows, hi)
    pair = det_pair(cfg, 1j * pts)
    first = DetPair(pair.d[:rows.size], pair.d_tilde[:rows.size])
    d = _modulus(pair.d)
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
        dm = _modulus(det_pair(cfg, 1j * mid).d)
        lambdas, rounds = lambdas + mid.size, rounds + 1
        best = min(best, float(np.min(dm)))
        a = np.concatenate((a[split], mid, a[stuck]))
        b = np.concatenate((mid, b[split], b[stuck]))
        da = np.concatenate((da[split], dm, da[stuck]))
        db = np.concatenate((dm, db[split], db[stuck]))
    lower = None if a.size else math.sqrt(max(best * best * (1.0 - _GAP_RTOL) - allowance, 0.0))
    return AxisGap(best, lower, lambdas, rounds, a.size, rows, first)


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise as Python's abs computes it (hypot): the abs_D and abs_H
    columns of the CLI, so that a minimum is the det_scan.csv entry of its row.
    np.abs may differ in the last bit."""
    return np.hypot(z.real, z.imag)


def _refine_newton(fn, z0: complex, tol: float, max_travel: float = np.inf):
    """Newton with a central-difference derivative; returns (z, |f|, ok).

    Once |f| <= tol it takes one more step, kept unless |f| grows: tol
    alone pins a root only to about tol / |f'|.
    """
    z = complex(z0)
    f = complex(fn(z))
    for _ in range(_NEWTON_MAX_ITER):
        converged = abs(f) <= tol
        h = 1e-7 * (1.0 + abs(z))
        d = (complex(fn(z + h)) - complex(fn(z - h))) / (2.0 * h)
        if d == 0.0 or not np.isfinite(d):
            break
        z_new = z - f / d
        f_new = complex(fn(z_new))
        if converged and not abs(f_new) <= abs(f):
            break
        z, f = z_new, f_new
        if converged or abs(z - z0) > max_travel:
            break
    return z, abs(f), abs(f) <= tol


def _wrap_phase(d: np.ndarray) -> np.ndarray:
    """Phase steps d wrapped in place to their principal values in [-pi, pi]."""
    d -= 2.0 * np.pi * np.rint(d / (2.0 * np.pi))
    return d


def count_roots_contour(cfg: ChainConfig, rect: tuple[float, float, float, float],
                        which: str) -> int:
    """Winding number of the characteristic function around the rectangle.

    Sums the wrapped phase steps along each side: no ratio of values,
    which could overflow near the float maximum.
    """
    re0, re1, im0, im1 = rect
    fn = _char_fn(cfg, which)
    corners = [re0 + 1j * im0, re1 + 1j * im0, re1 + 1j * im1, re0 + 1j * im1, re0 + 1j * im0]
    total = 0.0
    for a, b in zip(corners[:-1], corners[1:]):
        t = np.linspace(0.0, 1.0, _CONTOUR_SAMPLES)
        vals = _finite_values(fn, a + (b - a) * t)
        total += float(np.sum(_wrap_phase(np.diff(np.angle(vals)))))
    return int(np.rint(total / (2.0 * np.pi)))


def find_eigenvalues(cfg: ChainConfig, rect: tuple[float, float, float, float], which: str,
                     grid: tuple[int, int] = (64, 64), tol: float = 1e-10,
                     audit: bool = False) -> EigenSet:
    """Locate zeros of the characteristic determinant inside a rectangle.

    The determinant's phase is sampled on the grid, and the wrapped phase
    steps around each cell add up to 2 pi times the number of roots in
    it (the argument principle).  Newton starts at the centre of every
    cell that winds and its result is kept if it lands inside the
    rectangle with |det| <= tol.  The scan grid is padded by one cell so
    roots sitting exactly on the rectangle boundary are still seen.  A
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
    res = np.minimum(res, -_AXIS_MARGIN)
    phase = np.angle(_finite_values(fn, res[None, :] + 1j * ims[:, None]))
    dh = np.diff(phase, axis=1)
    dv = np.diff(phase, axis=0)
    del phase
    for d in (dh, dv):
        _wrap_phase(d)
    # counterclockwise phase change around each cell: 2 pi times its root count
    turn = dh[:-1] - dh[1:] + dv[:, 1:] - dv[:, :-1]
    cand_idx = np.argwhere(np.abs(turn) > np.pi)
    diag = abs(complex(re1 - re0, im1 - im0))
    roots: list[complex] = []
    residuals: list[float] = []
    failures: list[dict] = []
    for iy, ix in cand_idx:
        z0 = complex(0.5 * (res[ix] + res[ix + 1]), 0.5 * (ims[iy] + ims[iy + 1]))
        z, resid, ok = _refine_newton(fn, z0, tol, max_travel=2.0 * diag)
        if ok:
            inside = (re0 - 1e-9 <= z.real <= re1 + 1e-9) and (im0 - 1e-9 <= z.imag <= im1 + 1e-9)
            if inside and all(abs(z - r) > 1e-8 for r in roots):
                roots.append(z)
                residuals.append(resid)
        else:
            failures.append({"start": z0, "last": z, "residual": resid})
    order = np.lexsort((np.array([r.real for r in roots]), np.array([r.imag for r in roots]))) \
        if roots else np.array([], dtype=int)
    eig = np.array([roots[i] for i in order], dtype=complex)
    resid = np.array([residuals[i] for i in order], dtype=float)
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
