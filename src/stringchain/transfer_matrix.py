"""The edge-propagator kernel of the damped chain.

Edge j carries boundary data (a, b) across its unit length by the
unimodular matrix [[ch, s12], [s21, ch]] of `edge_entries`: for the wave
chain exp(lam B^{-1}) with B = [[0, 1], [rho, 0]] acting on (value,
flux), for the Schrodinger chain the fundamental system of
rho u'' = i lam u acting on (u, rho u').  `propagate` pushes a start
vector through edges 0..N-1, so the product P = E_{N-1} ... E_0 gives
every characteristic function; the start vector picks which:

* (1, 1), wave: the damped/clamped determinant pair (D, D~) of
  `det_pair`, with Re(D conj(D~)) = 1 on the imaginary axis;
* (1, i), Schrodinger: the closure whose first component vanishes at the
  Schrodinger eigenvalues (`spectrum.char_det_schrodinger`);
* (-1, 0), wave: the transfer-closure pair (-P00, -P10), and (1, 0) with
  (0, 1) stacked: the transfer value -z P01 / P00 (`transfer_function`).

`exp_hyp` and `boundary_matrices` use the same entries, and so do the
real-frequency forms of the resolvents, `exp_osc` and `schrodinger_step`:
at lam = i beta, cosh and sinh are cos and i sin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .chain_core import ChainConfig, validate_config
from .errors import DeterminantOverflow, EmptyScan, NonPositiveBeta, NonPositiveDensity

__all__ = [
    "Mat2C",
    "DetPair",
    "edge_entries",
    "propagate",
    "exp_osc",
    "exp_hyp",
    "boundary_matrices",
    "det_pair",
    "det_lower_bound",
    "analytic_gap_bound",
    "schrodinger_step",
]

Mat2C = np.ndarray  # 2x2 complex array


def _check_rho(rho: float) -> float:
    if not np.isfinite(rho) or rho <= 0.0:
        raise NonPositiveDensity(f"density {rho} must be positive and finite")
    return float(rho)


def _edge_matrix(rho: float, lam, kind: str) -> Mat2C:
    ch, s12, s21 = edge_entries(rho, lam, kind)
    return np.array([[ch, s12], [s21, ch]], dtype=complex)


def exp_osc(rho: float, beta: float, x: float) -> Mat2C:
    """exp(i*beta*x*B^{-1}) for real beta: `exp_hyp` at lam = i*beta.

    Unimodular for every argument: the determinant is cos^2 + sin^2 = 1.
    """
    return exp_hyp(rho, 1j * beta, x)


def exp_hyp(rho: float, lam: complex, x: float) -> Mat2C:
    """exp(lam*x*B^{-1}) for general complex lam, written with cosh and sinh."""
    return _edge_matrix(_check_rho(rho), lam * x, "wave")


def _sinhc(z: np.ndarray) -> np.ndarray:
    """sinh(z)/z, stable through z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    out = np.sinh(safe) / safe
    return np.where(small, 1.0 + z * z / 6.0, out)


def edge_entries(rho: float, lam, kind: str):
    """(ch, s12, s21) of one unit edge's propagator [[ch, s12], [s21, ch]] at lam.

    kind "wave" propagates (value, flux) of the first-order wave system,
    kind "schrodinger" propagates (u, rho u') of rho u'' = i lam u.  Both
    matrices are unimodular and entire in lam.
    """
    if kind == "wave":
        c = np.sqrt(rho)
        z = lam / c
        ch, sh = np.cosh(z), np.sinh(z)
        del z  # the products below reuse its buffer: one lam-sized array less at peak
        return ch, sh / c, c * sh
    if kind == "schrodinger":
        m = np.sqrt(1j * lam / rho)
        shc = _sinhc(m)
        return np.cosh(m), shc / rho, rho * m * m * shc
    raise ValueError(f"unknown kind {kind!r}")


def propagate(cfg: ChainConfig, lam, kind: str, start):
    """Push the start vector (a, b) through edges 0..N-1 at lam.

    Returns (a, b) at x = N, broadcast over lam.  The components of
    start may be arrays that broadcast against lam, so several start
    vectors share one cosh/sinh evaluation per edge.  The caller
    validates cfg.
    """
    lam = np.asarray(lam, dtype=complex)[()]  # a 0-d lam becomes a cheaper scalar
    a, b = start
    for rho in cfg.densities:
        ch, s12, s21 = edge_entries(rho, lam, kind)
        a, b = ch * a + s12 * b, s21 * a + ch * b
    return a, b


def _finite_values(fn, lam: np.ndarray) -> np.ndarray:
    """fn(lam), raising DeterminantOverflow unless every value is finite
    (`propagate` overflows once |Re lam| / c exceeds about 710)."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = fn(lam)
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        worst = float(np.max(np.abs(lam.real)))
        raise DeterminantOverflow(
            f"propagated values are not finite at {bad} of {vals.size} points "
            f"(|Re lam| up to {worst:.4g})")
    return vals


def boundary_matrices(cfg: ChainConfig, lam: complex) -> tuple[Mat2C, Mat2C]:
    """Characteristic matrices (H, H_tilde) of the damped chain at lam.

    Row 1 applies (1, -1) to the backward exponential on edge 0 (the
    damped condition v(0) = rho_0 u_x(0) transported to the anchor at
    x = 1).  Row 2 is the first row, for H_tilde the second row, of the
    product Q of forward exponentials over edges 1..N-1, closing the
    clamped condition at x = N.  For a single edge Q is the identity:
    the anchor already sits at the clamped end.
    """
    validate_config(cfg)
    row1 = np.array([1.0, -1.0], dtype=complex) @ exp_hyp(cfg.densities[0], lam, -1.0)
    # propagating both unit vectors gives Q's rows as the stacked components
    q0, q1 = propagate(ChainConfig(cfg.densities[1:]), lam, "wave", np.eye(2))
    return np.array([row1, q0]), np.array([row1, q1])


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
    validate_config(cfg)
    return DetPair(*propagate(cfg, lam, "wave", (1, 1)))


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
    validate_config(cfg)
    c = cfg.wave_speeds
    ratios = c[1:] / c[:-1]
    spread = c[-1] * max(c[0], 1.0 / c[0]) * float(np.prod(np.maximum(ratios, 1.0 / ratios)))
    return float(1.0 / np.sqrt(spread))


def det_lower_bound(cfg: ChainConfig, beta_scan: np.ndarray) -> tuple[float, float]:
    """(gamma_analytic, gamma_numeric) for |D_{N-1}| on the imaginary axis.

    gamma_numeric is the minimum of |D| over the supplied beta grid and
    always sits above gamma_analytic (up to roundoff).
    """
    betas = np.asarray(beta_scan, dtype=float)
    if betas.size == 0:
        raise EmptyScan("empty beta scan")
    gamma_analytic = analytic_gap_bound(cfg)
    pair = det_pair(cfg, 1j * betas)
    gamma_numeric = float(np.min(np.abs(pair.d)))
    return gamma_analytic, gamma_numeric


def schrodinger_step(rho: float, beta: float) -> Mat2C:
    """One-edge propagation of (u, rho*u') for the Schrodinger chain at i*beta.

    Unimodular: det = cos^2 + sin^2 = 1.
    """
    rho = _check_rho(rho)
    if not np.isfinite(beta) or beta <= 0.0:
        raise NonPositiveBeta(f"beta = {beta} must be positive")
    return _edge_matrix(rho, 1j * beta, "schrodinger")
