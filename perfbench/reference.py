"""Reference formulas the benchmark checks the program against.

Nothing here imports stringchain: the determinants, the transfer
function and the root counts are rebuilt from the 2x2 edge matrices
so that a fault in the library's own kernels cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np


def _speeds(densities):
    return np.sqrt(np.asarray(densities, dtype=float))


def wave_det(densities, lam) -> np.ndarray:
    """D(lam) = det of the damped-row / clamped-row closure, by explicit products.

    Row 1 is (1, -1) times the backward edge-0 exponential, row 2 is the
    first row of E_{N-1} ... E_1 with E_k = exp(lam B_k^{-1}).
    """
    lam = np.asarray(lam, dtype=complex)
    c = _speeds(densities)
    z0 = lam / c[0]
    ch, sh = np.cosh(z0), np.sinh(z0)
    r1a = ch + c[0] * sh  # (1, -1) @ [[ch, -sh/c], [-c sh, ch]]
    r1b = -sh / c[0] - ch
    q00 = np.ones_like(lam)
    q01 = np.zeros_like(lam)
    for k in range(len(c) - 1, 0, -1):
        zk = lam / c[k]
        chk, shk = np.cosh(zk), np.sinh(zk)
        q00, q01 = q00 * chk + q01 * c[k] * shk, q00 * shk / c[k] + q01 * chk
    return r1a * q01 - r1b * q00


def schrodinger_det(densities, lam) -> np.ndarray:
    """First component of (1, i) carried across the edges, normalized at lam = 1.

    Each edge solves rho u'' = i lam u on (u, rho u'); the normalization
    matches the library's convention so |D| <= tol is comparable.
    """

    def closure(lv):
        lv = np.asarray(lv, dtype=complex)
        a = np.ones_like(lv)
        b = 1j * np.ones_like(lv)
        for rho in densities:
            m = np.sqrt(1j * lv / rho)
            ch = np.cosh(m)
            tiny = np.abs(m) < 1e-8
            shc = np.where(tiny, 1.0, np.sinh(np.where(tiny, 1.0, m)) / np.where(tiny, 1.0, m))
            a, b = ch * a + shc / rho * b, rho * m * m * shc * a + ch * b
        return a

    return closure(lam) / closure(np.asarray(1.0 + 0.0j))


def transfer(densities, lam) -> np.ndarray:
    """H(lam) = -P01 / P00 for P = E_{N-1} ... E_0: clamped end, unit Neumann input."""
    lam = np.asarray(lam, dtype=complex)
    c = _speeds(densities)
    p00 = np.ones_like(lam)
    p01 = np.zeros_like(lam)
    p10 = np.zeros_like(lam)
    p11 = np.ones_like(lam)
    for k in range(len(c)):
        zk = lam / c[k]
        ch, sh = np.cosh(zk), np.sinh(zk)
        p00, p01, p10, p11 = (
            ch * p00 + sh / c[k] * p10,
            ch * p01 + sh / c[k] * p11,
            c[k] * sh * p00 + ch * p10,
            c[k] * sh * p01 + ch * p11,
        )
    return -p01 / p00


def winding_count(fn, rect, samples_per_side: int = 1024) -> int:
    """Argument-principle count of the zeros of fn inside rect.

    Every boundary step that turns the phase by more than pi/4 is split
    at its midpoint until none is left, so a root close to the contour
    cannot make the count skip a revolution.
    """
    re0, re1, im0, im1 = rect
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    t = np.linspace(0.0, 1.0, samples_per_side + 1)[:-1]
    z = np.concatenate([a + (b - a) * t for a, b in zip(corners, corners[1:] + corners[:1])])
    z = np.append(z, z[0])
    vals = fn(z)
    for _ in range(48):
        if not np.all(np.isfinite(vals)) or np.any(vals == 0):
            raise ArithmeticError("characteristic function vanishes or overflows on the contour")
        steps = np.angle(vals[1:] / vals[:-1])
        coarse = np.nonzero(np.abs(steps) > math.pi / 4)[0]
        if coarse.size == 0:
            return int(round(float(np.sum(steps)) / (2.0 * math.pi)))
        mid = 0.5 * (z[coarse] + z[coarse + 1])
        z = np.insert(z, coarse + 1, mid)
        vals = np.insert(vals, coarse + 1, fn(mid))
    raise ArithmeticError("contour refinement did not settle")


def single_string_roots(rho: float, rect) -> list[complex]:
    """Closed-form zeros of cosh(z) + sinh(z)/c, z = lam/c, inside rect."""
    c = math.sqrt(rho)
    if rho == 1.0:
        return []
    if rho < 1.0:
        re, offset = -c * math.atanh(c), 0.0
    else:
        re, offset = -c * math.atanh(1.0 / c), 0.5
    re0, re1, im0, im1 = rect
    if not re0 < re < re1:
        return []
    k_lo = math.ceil(im0 / (c * math.pi) - offset)
    k_hi = math.floor(im1 / (c * math.pi) - offset)
    return [complex(re, c * (k + offset) * math.pi) for k in range(k_lo, k_hi + 1)]
