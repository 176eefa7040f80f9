"""Characteristic determinants, complex root location, and axis gap scans.

Eigenvalues of the damped generators are exactly the zeros of the
characteristic determinants assembled from the transfer matrices: a
nontrivial homogeneous solution of the boundary-value problem exists iff
the 2x2 boundary closure is singular.  Roots are located by the argument
principle on a grid over a rectangle: every grid cell around which the
phase of the determinant winds starts a Newton refinement with a
central-difference derivative.  An optional winding-number count along
the rectangle boundary audits for missed roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chain_core import ChainConfig, too_large, uniform_betas
from .errors import EmptyScan
from .transfer_matrix import _finite_values, det_pair, propagate

__all__ = [
    "EigenSet",
    "char_det_wave",
    "char_det_schrodinger",
    "find_eigenvalues",
    "imaginary_axis_gap",
    "count_roots_contour",
]

_AXIS_MARGIN = 1e-6  # scan rectangles never touch the imaginary axis
_NEWTON_MAX_ITER = 80
_CONTOUR_SAMPLES = 4096  # per side of the counting contour


@dataclass
class EigenSet:
    """Located eigenvalues with their determinant residuals."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    search_rect: tuple[float, float, float, float]
    abscissa: Optional[float]
    failures: list[dict] = field(default_factory=list)
    audit_count: Optional[int] = None


def char_det_wave(cfg: ChainConfig, lam) -> complex | np.ndarray:
    """Determinant of the damped-chain boundary closure at lam.

    Zeros are the eigenvalues of the damped wave generator.  Accepts a
    scalar or an array of frequencies.
    """
    return det_pair(cfg, lam).d


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
        return lambda lam: char_det_wave(cfg, lam)
    if which == "schrodinger":
        return lambda lam: char_det_schrodinger(cfg, lam)
    raise ValueError(f"unknown system {which!r}")


def imaginary_axis_gap(cfg: ChainConfig, which: str, beta_range: tuple[float, float],
                       step: float) -> float:
    """Minimum of |char det(i beta)| over a uniform beta grid."""
    betas = uniform_betas(beta_range, step)
    vals = _char_fn(cfg, which)(1j * betas)
    return float(np.min(np.abs(vals)))


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
