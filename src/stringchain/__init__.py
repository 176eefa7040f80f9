"""Spectral and time-domain analysis of a damped chain of serially connected strings."""

__version__ = "0.1.0"

from .chain_core import (
    ChainConfig,
    ChainFunction,
    EnergyTrace,
    WaveState,
    energy_first_order,
    energy_schrodinger,
    energy_wave,
    first_order_state,
    sample_function,
    sample_state,
)
from .resolvent import (
    schrodinger_norm_scan,
    schrodinger_resolvent,
    wave_resolvent,
    wave_resolvent_norm_scan,
)
from .spectrum import (
    AxisGap,
    EigenSet,
    char_det_schrodinger,
    find_eigenvalues,
    imaginary_axis_gap,
)
from .timesim import SimOptions, fit_decay_rate, simulate_schrodinger, simulate_wave
from .transfer_function import (
    admissibility_ratio,
    observability_ratio,
    round_trip_time,
    transfer_sup_scan,
    transfer_value,
)
from .transfer_matrix import DetPair, boundary_matrices, det_pair, exp_hyp

__all__ = [
    "ChainConfig",
    "ChainFunction",
    "EnergyTrace",
    "WaveState",
    "DetPair",
    "EigenSet",
    "AxisGap",
    "SparseOperator",
    "SimOptions",
    "sample_function",
    "sample_state",
    "energy_wave",
    "energy_first_order",
    "energy_schrodinger",
    "first_order_state",
    "exp_hyp",
    "boundary_matrices",
    "det_pair",
    "wave_resolvent",
    "wave_resolvent_norm_scan",
    "schrodinger_resolvent",
    "schrodinger_norm_scan",
    "char_det_schrodinger",
    "find_eigenvalues",
    "imaginary_axis_gap",
    "transfer_value",
    "transfer_sup_scan",
    "admissibility_ratio",
    "observability_ratio",
    "round_trip_time",
    "simulate_wave",
    "simulate_schrodinger",
    "fit_decay_rate",
    "fd_wave_matrix",
    "fd_schrodinger_matrix",
    "fd_resolvent_norm",
    "fd_bvp_solve",
]

# the oracle is the one module that imports scipy at load time (0.3 s); its
# names resolve on first use, so a command that never reaches it never loads it
_ORACLE_NAMES = ("SparseOperator", "fd_wave_matrix", "fd_schrodinger_matrix",
                 "fd_resolvent_norm", "fd_bvp_solve")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
