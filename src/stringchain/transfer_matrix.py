"""The edge-propagator kernel of the damped chain.

Edge j carries boundary data (a, b) across its unit length by the
unimodular matrix [[ch, s12], [s21, ch]] of `edge_entries`,
exp(lam B^{-1}) with B = [[0, 1], [rho, 0]] acting on (value, flux).
`propagate` pushes a start vector through edges 0..N-1, so the product
P = E_{N-1} ... E_0 gives every characteristic function; the start
vector picks which:

* (1, 1): the damped/clamped determinant pair (D, D~) of `det_pair`,
  with Re(D conj(D~)) = 1 on the imaginary axis;
* (1, 0) with (0, 1) stacked: the transfer value -P01 / P00
  (`transfer_function`);
* (mu, i) at mu = sqrt(i lam): mu times the Schrodinger closure
  (`spectrum.char_det_schrodinger`).

The Schrodinger chain needs no kernel of its own.  Its edge, the
fundamental system of rho u'' = i lam u acting on (u, rho u'), has the
entries cosh m, sinh(m) / (rho m) and rho m sinh m with
m = sqrt(i lam / rho) = mu / c: it is the wave edge at mu with its flux
scaled by mu, so over the chain P_S(lam) = diag(1, mu) P(mu) diag(1, 1/mu),
which is even in mu, and one square root per lam serves every edge.

`exp_hyp` and `boundary_matrices` use the same entries, broadcast over lam,
their matrices in the last two axes, (..., 2, 2), as `@` and expm take them.
At lam = i beta, cosh and sinh are cos and i sin: real-frequency propagators.

One edge costs one cosh and sinh of its argument z = lam / c.
`_cosh_sinh` evaluates cos and sin of Im z and cosh and sinh of Re z
once each and forms cosh z = cosh x cos y + i sinh x sin y and
sinh z = sinh x cos y + i cosh x sin y from them; on the imaginary axis
this gives numpy's own complex cosh and sinh, bit for bit.  Every lam
takes this one path, a scalar as a one-element array; every operation
being elementwise, a lam gets the same bits alone or in an array of any
size.  The products overflow once |Re z| passes about 710.48, where
cosh(Re z) does.

A lam array larger than one block (_BLOCK points) is pushed through the
chain a block at a time: the temporaries stay in cache, peak memory is
the two outputs plus one block's temporaries, and, every operation being
elementwise, the values are the whole-array ones bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .chain_core import ChainConfig
from .errors import DeterminantOverflow

__all__ = [
    "DetPair",
    "edge_entries",
    "propagate",
    "exp_hyp",
    "boundary_matrices",
    "det_pair",
    "analytic_gap_bound",
]


# lam points per block of `propagate`: the ten or so complex temporaries
# of one block (16 bytes a point each) stay in cache.  8192 was the
# fastest of 2048 to 16384 for 400,001-point scans of an 8-edge chain
# on a 2-core Xeon with 2 MiB of L2 per core.
_BLOCK = 8192


def exp_hyp(rho: float, lam, x) -> np.ndarray:
    """exp(lam*x*B^{-1}), broadcast over lam and x, in the last two axes: (..., 2, 2).

    Unimodular.  At lam = i beta it is [[cos t, i sin(t) / c], [i c sin t, cos t]]
    with c = sqrt(rho) and t = beta x / c; rho is checked as a chain's density.
    For scalars lam x / c is Python's complex division, not numpy's (Im z rounds once);
    any other lam or x, such as a list, is taken as an array.
    """
    lam, x = (v if np.isscalar(v) else np.asarray(v) for v in (lam, x))
    ch, s12, s21 = edge_entries(ChainConfig((rho,)).densities[0], lam * x)
    return np.stack([ch, s12, s21, ch], axis=-1).reshape(np.shape(ch) + (2, 2))


def _cosh_sinh(z):
    """(cosh z, sinh z) of a complex z, from cos/sin of Im z and cosh/sinh of Re z.

    np.cosh and np.sinh of a complex array each evaluate all four real
    functions; here each is evaluated once, into the real and imaginary
    parts of the two outputs, and the products are formed there with one
    real temporary, so peak memory stays at two complex arrays of z's
    size, which `propagate` keeps to one block.  A scalar z gives 0-d arrays.
    """
    ch, sh = np.empty(np.shape(z), dtype=complex), np.empty(np.shape(z), dtype=complex)
    cx, cy, sx, sy = ch.real, ch.imag, sh.real, sh.imag  # views into the outputs
    np.cosh(z.real, out=cx)
    np.cos(z.imag, out=cy)
    np.sinh(z.real, out=sx)
    np.sin(z.imag, out=sy)
    cx_sy = cx * sy
    cx *= cy          # ch.real = cx cy
    sy *= sx          # sh.imag = sx sy
    sx *= cy          # sh.real = sx cy
    cy[...] = sy      # ch.imag = sx sy
    sy[...] = cx_sy   # sh.imag = cx sy
    return ch, sh


def edge_entries(rho: float, lam):
    """(ch, s12, s21) of one unit edge's propagator [[ch, s12], [s21, ch]] at lam.

    It propagates (value, flux) of the first-order wave system: with
    c = sqrt(rho) and z = lam / c the entries are cosh z, sinh(z) / c and
    c sinh z.  The matrix is unimodular and entire in lam; `_cosh_sinh`
    gives cosh and sinh of z.
    """
    c = math.sqrt(rho)  # np.sqrt's value, without a scalar ufunc call per edge
    z = lam / c
    ch, sh = _cosh_sinh(z)
    del z  # s12 below reuses its buffer: one lam-sized array less at peak
    s12 = sh / c
    sh *= c  # s21 = c sinh z in place
    return ch, s12, sh


def propagate(cfg: ChainConfig, lam, start):
    """Push the start vector (a, b) through edges 0..N-1 at lam.

    Returns (a, b) at x = N, broadcast over lam; a scalar lam is a one-element
    array reshaped back (numpy's scalar arithmetic would round otherwise).  The
    components of start may be arrays that broadcast against lam, so several
    start vectors share one cosh/sinh evaluation per edge.  A lam array of more
    than _BLOCK points is evaluated _BLOCK points at a time along its flattened
    axes, into preallocated outputs, with the whole-array values bit for bit; a
    broadcast shape that does not end in lam's shape is evaluated whole.
    """
    lam = np.asarray(lam, dtype=complex)
    a, b = start
    if lam.ndim == 0:
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        return tuple(v.reshape(shape) for v in propagate(cfg, lam.reshape(1), start))
    if lam.size > _BLOCK:
        shape = np.broadcast_shapes(np.shape(a), np.shape(b), lam.shape)
        lead = shape[:len(shape) - lam.ndim]
        if lead + lam.shape == shape:
            flat = lead + (lam.size,)
            lam = lam.reshape(-1)
            a, b = (np.broadcast_to(v, shape).reshape(flat) for v in (a, b))  # constants: no copy
            out_a, out_b = np.empty(flat, dtype=complex), np.empty(flat, dtype=complex)
            for i in range(0, lam.size, _BLOCK):
                blk = (..., slice(i, i + _BLOCK))
                out_a[blk], out_b[blk] = propagate(cfg, lam[blk], (a[blk], b[blk]))
            return out_a.reshape(shape), out_b.reshape(shape)
    for rho in cfg.densities:
        ch, s12, s21 = edge_entries(rho, lam)
        a, b = ch * a + s12 * b, s21 * a + ch * b
    return a, b


def _finite_values(fn, lam: np.ndarray) -> np.ndarray:
    """fn(lam), raising DeterminantOverflow unless every value is finite
    (`propagate` overflows once the edges' |Re z| add up to about 710)."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = fn(lam)
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        worst = float(np.max(np.abs(lam)))
        raise DeterminantOverflow(
            f"propagated values are not finite at {bad} of {vals.size} points "
            f"(|lam| up to {worst:.4g})")
    return vals


def boundary_matrices(cfg: ChainConfig, lam) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic matrices (H, H_tilde) of the damped chain at lam, each lam.shape + (2, 2).

    Row 1 applies (1, -1) to the backward exponential on edge 0 (the
    damped condition v(0) = rho_0 u_x(0) transported to the anchor at
    x = 1).  Row 2 is the first row, for H_tilde the second row, of the
    product Q of forward exponentials over edges 1..N-1, closing the
    clamped condition at x = N.  For a single edge Q is the identity:
    the anchor already sits at the clamped end.
    """
    row1 = np.array([1.0, -1.0], dtype=complex) @ exp_hyp(cfg.densities[0], lam, -1.0)
    q = np.eye(2).reshape((2, 2) + (1,) * np.ndim(lam))
    if cfg.n_edges > 1:
        # propagating both unit vectors gives Q's rows as the stacked components
        q = propagate(ChainConfig(cfg.densities[1:]), lam, q)
    return tuple(np.stack(np.broadcast_arrays(row1, np.moveaxis(r, 0, -1)), axis=-2) for r in q)


@dataclass
class DetPair:
    """Determinants (D, D_tilde) of the two boundary-row closures.

    On the imaginary axis Re(D * conj(D_tilde)) = 1 identically.
    Entries are scalars or arrays, matching the lam argument.
    """

    d: Union[complex, np.ndarray]
    d_tilde: Union[complex, np.ndarray]

    @property
    def identity_value(self) -> Union[float, np.ndarray]:
        """Re(D * conj(D_tilde)); equals 1 on the imaginary axis."""
        return (self.d * np.conj(self.d_tilde)).real

    def __post_init__(self):
        if np.ndim(self.d) == 0:
            self.d, self.d_tilde = complex(self.d), complex(self.d_tilde)


def det_pair(cfg: ChainConfig, lam) -> DetPair:
    """(D_{N-1}, D~_{N-1}): the start vector (1, 1) propagated over the chain.

    lam may be a scalar or an ndarray of complex frequencies.  Agrees
    with the determinants of boundary_matrices for every lam.
    """
    return DetPair(*propagate(cfg, lam, (1, 1)))


def analytic_gap_bound(cfg: ChainConfig) -> float:
    """Lower bound for |D_{N-1}| on the imaginary axis, in closed form.

    In characteristic coordinates p = a + b/c, q = a - b/c the ratio
    R = q/p starts at (c_0 - 1)/(c_0 + 1), each edge rotates it, and each
    joint moves it by a disk automorphism with g = (c_{j+1} - c_j) /
    (c_{j+1} + c_j).  On the axis |D|^2 = |1 + R|^2 / (c_{N-1} (1 - |R|^2)),
    and the hyperbolic distances add, so
    inf |D(i beta)|^2 >= 1 / (c_{N-1} max(c_0, 1/c_0)
    prod_j max(c_{j+1}/c_j, c_j/c_{j+1})).
    The bound is the infimum when the travel times 1/c_j are rationally
    independent (Kronecker), and may lie below it otherwise.
    """
    c = cfg.wave_speeds
    ratios = c[1:] / c[:-1]
    spread = c[-1] * max(c[0], 1.0 / c[0]) * float(np.prod(np.maximum(ratios, 1.0 / ratios)))
    return float(1.0 / np.sqrt(spread))
