"""Boundary transfer function of the chain and the input/output ratios.

The transfer value at lam (Re lam > 0) maps a unit Neumann input at
the damped end (H is linear in it) to the first component of the
homogeneous propagated state at x = 0: solve (lam - B d/dx) W = 0 with
(0,1) W(0) = 1 and the clamped condition at x = N, then read off
(1,0) W(0).  The companion determinant pair of this closure stays away
from zero on every vertical line Re lam = gamma > 0, with the certified bound
(c_0/2) sinh(2 gamma / c_0) * prod_n cosh(2 gamma / c_n).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .chain_core import ChainConfig, WaveState, sample_state, uniform_betas
from .errors import DegenerateData, SingularBoundaryMatrix
from .timesim import SimOptions, simulate_wave
from .transfer_matrix import DetPair, _finite_values, propagate

__all__ = [
    "transfer_value",
    "transfer_values",
    "transfer_det_pair",
    "transfer_gap_bound",
    "transfer_sup_scan",
    "round_trip_time",
    "admissibility_ratio",
    "observability_ratio",
]


def transfer_values(cfg: ChainConfig, lam):
    """Vectorized transfer values over an array of lam with Re lam > 0.

    The value is -P01 / P00 for the full wave product P; (1, 0) and
    (0, 1) are propagated together for the two entries of its first row.
    Raises DeterminantOverflow where P overflows (Re lam / c beyond ~710).
    """
    lam = np.asarray(lam, dtype=complex)
    if np.any(lam.real <= 0.0):
        raise ValueError("transfer function is evaluated on Re lam > 0")
    starts = np.eye(2).reshape((2, 2) + (1,) * lam.ndim)

    def closure(lam):
        (p00, p01), _ = propagate(cfg, lam, "wave", starts)
        if np.any(np.abs(p00) < 1e-14):
            raise SingularBoundaryMatrix("transfer closure numerically singular")
        return -p01 / p00

    return _finite_values(closure, lam)


def transfer_value(cfg: ChainConfig, lam: complex) -> complex:
    """Boundary output (1,0) W(0) for the unit input at one lam, Re lam > 0."""
    return complex(transfer_values(cfg, lam))


def transfer_det_pair(cfg: ChainConfig, lam) -> DetPair:
    """Determinants of the transfer closure and its companion row swap.

    They are (-P00, -P10) for the full wave product P: the start vector
    (-1, 0) propagated over the chain.
    """
    return DetPair(*propagate(cfg, lam, "wave", (-1, 0)))


def transfer_gap_bound(cfg: ChainConfig, gamma: float) -> float:
    """Certified lower bound for Re(D conj(D~)) on the line Re lam = gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    c = cfg.wave_speeds
    bound = 0.5 * c[0] * np.sinh(2.0 * gamma / c[0])
    for n in range(1, cfg.n_edges):
        bound *= np.cosh(2.0 * gamma / c[n])
    return float(bound)


def transfer_sup_scan(cfg: ChainConfig, gamma: float, beta_range: tuple[float, float],
                      step: float) -> tuple[float, float]:
    """(sup |H|, argmax beta) over the grid on the line Re lam = gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    betas = uniform_betas(beta_range, step)
    vals = np.abs(transfer_values(cfg, gamma + 1j * betas))
    k = int(np.argmax(vals))
    return float(vals[k]), float(betas[k])


def round_trip_time(cfg: ChainConfig) -> float:
    """Time 2 * sum_j 1/c_j for a signal to traverse the chain and return."""
    return float(2.0 * np.sum(1.0 / cfg.wave_speeds))


def admissibility_ratio(cfg: ChainConfig, v: Callable[[float], float],
                        opts: SimOptions) -> float:
    """Boundary output energy over input energy for the forced chain.

    Runs the forced simulation from rest with Neumann input v(t) at the
    damped end and returns int |d/dt psi(t, 0)|^2 dt / |v|^2_{L2(0,T)}, T = opts.T.
    """
    init = sample_state(cfg, opts.points_per_edge, lambda x: np.zeros_like(x))
    trace, _ = simulate_wave(cfg, init, opts, mode="forced", forcing=v)
    times = trace.times
    vin = np.array([v(t) for t in times], dtype=float)
    denom = float(np.trapezoid(vin**2, times))
    if denom == 0.0:
        return 0.0
    return float(trace.boundary_flux[-1] / denom)


def observability_ratio(cfg: ChainConfig, state: WaveState, opts: SimOptions) -> float:
    """Boundary output energy over initial energy for the conservative chain.

    Strictly positive for observation horizons opts.T beyond the
    round-trip time on nondegenerate data; data supported away from the
    observed end produce (numerically) zero output until the first arrival.
    """
    trace, _ = simulate_wave(cfg, state, opts, mode="conservative")
    denom = 2.0 * trace.energies[0]
    if denom <= 0.0:
        raise DegenerateData("initial data has zero energy")
    return float(trace.boundary_flux[-1] / denom)
