"""Chain geometry, sampled functions on the edges, and energy functionals.

A chain of N unit strings occupies the intervals [j, j+1], j = 0..N-1.
Edge j carries a density rho_j > 0; the local wave speed is sqrt(rho_j).
The left end x = 0 is the damped end, the right end x = N is clamped.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    EmptyChain,
    GridMismatch,
    NonPositiveDensity,
)

__all__ = [
    "ChainConfig",
    "ChainFunction",
    "WaveState",
    "EnergyTrace",
    "validate_config",
    "uniform_grids",
    "sample_function",
    "zeros_function",
    "sample_state",
    "integrate_edge",
    "edge_derivative",
    "energy_wave",
    "energy_first_order",
    "energy_schrodinger",
    "first_order_state",
    "h_norm",
    "l2_norm",
]

_CSV_CHUNK = 8192  # EnergyTrace rows formatted per write


@dataclass(frozen=True)
class ChainConfig:
    """Number of edges and their densities; the whole model parameterization."""

    densities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "densities", tuple(float(r) for r in self.densities))

    @property
    def n_edges(self) -> int:
        return len(self.densities)

    @property
    def wave_speeds(self) -> np.ndarray:
        """Per-edge speeds c_j = sqrt(rho_j)."""
        return np.sqrt(np.asarray(self.densities))

    def to_json(self) -> str:
        return json.dumps({"densities": list(self.densities)})

    @classmethod
    def from_json(cls, text: str) -> "ChainConfig":
        data = json.loads(text)
        densities = data["densities"]
        if not isinstance(densities, list) or not all(
            isinstance(r, (int, float)) and not isinstance(r, bool) for r in densities
        ):
            raise ValueError(f"densities must be a JSON list of numbers, got {densities!r}")
        return cls(densities=tuple(densities))


def validate_config(cfg: ChainConfig) -> ChainConfig:
    """Return cfg unchanged if it is a valid chain, raise otherwise."""
    if cfg.n_edges < 1:
        raise EmptyChain("chain needs at least one edge")
    for j, rho in enumerate(cfg.densities):
        if not np.isfinite(rho) or rho <= 0.0:
            raise NonPositiveDensity(f"density rho_{j} = {rho} must be positive and finite")
    return cfg


class ChainFunction:
    """A complex function sampled on per-edge grids.

    Edge j is sampled on a strictly increasing grid spanning [j, j+1]
    (both endpoints included).  Values are complex scalars (shape (n,))
    or complex 2-vectors (shape (n, 2)); the arity is uniform across edges.
    Grids of different edges may have different resolutions.
    """

    def __init__(self, grids: Sequence[np.ndarray], values: Sequence[np.ndarray]):
        if len(grids) != len(values):
            raise GridMismatch("grids and values must have one entry per edge")
        if len(grids) == 0:
            raise EmptyChain("a chain function needs at least one edge")
        self.grids = tuple(np.asarray(g, dtype=float) for g in grids)
        self.values = tuple(np.asarray(v, dtype=complex) for v in values)
        arities = set()
        for j, (g, v) in enumerate(zip(self.grids, self.values)):
            if g.ndim != 1 or g.size < 2:
                raise GridMismatch(f"edge {j}: grid must be 1d with at least 2 points")
            if abs(g[0] - j) > 1e-9 or abs(g[-1] - (j + 1)) > 1e-9:
                raise GridMismatch(f"edge {j}: grid must span [{j}, {j + 1}]")
            if np.any(np.diff(g) <= 0):
                raise GridMismatch(f"edge {j}: grid must be strictly increasing")
            if v.shape[0] != g.size:
                raise GridMismatch(f"edge {j}: {v.shape[0]} values on {g.size} grid points")
            if v.ndim == 1:
                arities.add(1)
            elif v.ndim == 2 and v.shape[1] == 2:
                arities.add(2)
            else:
                raise ArityMismatch(f"edge {j}: values must have shape (n,) or (n, 2)")
        if len(arities) != 1:
            raise ArityMismatch("scalar/vector arity must be uniform across edges")
        self.arity = arities.pop()

    @property
    def n_edges(self) -> int:
        return len(self.grids)

    def scaled(self, c: complex) -> "ChainFunction":
        return ChainFunction(self.grids, tuple(c * v for v in self.values))

    def map_values(self, fn: Callable[[int, np.ndarray], np.ndarray]) -> "ChainFunction":
        return ChainFunction(self.grids, tuple(fn(j, v) for j, v in enumerate(self.values)))

    def to_csv(self, path) -> None:
        """Write as rows edge, x, re, im (and re2, im2 for 2-vectors)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["edge", "x", "re", "im"]
            if self.arity == 2:
                header += ["re2", "im2"]
            writer.writerow(header)
            for j, (g, v) in enumerate(zip(self.grids, self.values)):
                for k in range(g.size):
                    if self.arity == 1:
                        row = [j, f"{g[k]:.17g}", f"{v[k].real:.17g}", f"{v[k].imag:.17g}"]
                    else:
                        row = [
                            j,
                            f"{g[k]:.17g}",
                            f"{v[k, 0].real:.17g}",
                            f"{v[k, 0].imag:.17g}",
                            f"{v[k, 1].real:.17g}",
                            f"{v[k, 1].imag:.17g}",
                        ]
                    writer.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "ChainFunction":
        by_edge: dict[int, list] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            vector = len(header) == 6
            for row in reader:
                j = int(row[0])
                x = float(row[1])
                if vector:
                    val = [complex(float(row[2]), float(row[3])), complex(float(row[4]), float(row[5]))]
                else:
                    val = complex(float(row[2]), float(row[3]))
                by_edge.setdefault(j, []).append((x, val))
        grids, values = [], []
        for j in sorted(by_edge):
            pts = by_edge[j]
            grids.append(np.array([p[0] for p in pts]))
            values.append(np.array([p[1] for p in pts]))
        return cls(grids, values)


def uniform_grids(cfg: ChainConfig, points_per_edge: int) -> list[np.ndarray]:
    """Uniform per-edge grids with the given number of points (endpoints included)."""
    if points_per_edge < 2:
        raise GridMismatch("need at least 2 points per edge")
    return [np.linspace(j, j + 1, points_per_edge) for j in range(cfg.n_edges)]


def sample_function(cfg: ChainConfig, points_per_edge: int, fn, arity: int = 1) -> ChainFunction:
    """Sample a callable fn(x) (vectorized, global coordinate) on uniform grids."""
    grids = uniform_grids(cfg, points_per_edge)
    values = []
    for g in grids:
        v = np.asarray(fn(g), dtype=complex)
        if arity == 2 and v.shape != (g.size, 2):
            raise ArityMismatch("fn must return an (n, 2) array for 2-vector sampling")
        values.append(v)
    return ChainFunction(grids, values)


def zeros_function(cfg: ChainConfig, points_per_edge: int, arity: int = 1) -> ChainFunction:
    grids = uniform_grids(cfg, points_per_edge)
    shape = (points_per_edge,) if arity == 1 else (points_per_edge, 2)
    return ChainFunction(grids, [np.zeros(shape, dtype=complex) for _ in grids])


@dataclass
class WaveState:
    """Displacement u and velocity v of the wave chain, on matching grids."""

    u: ChainFunction
    v: ChainFunction

    def __post_init__(self):
        if self.u.n_edges != self.v.n_edges:
            raise GridMismatch("u and v must have the same number of edges")
        if self.u.arity != 1 or self.v.arity != 1:
            raise ArityMismatch("wave states are built from scalar functions")
        for gu, gv in zip(self.u.grids, self.v.grids):
            if gu.size != gv.size or np.max(np.abs(gu - gv)) > 1e-12:
                raise GridMismatch("u and v must share their grids")
        scale = max(float(np.max(np.abs(v))) for v in self.u.values) + 1e-300
        for j in range(1, self.u.n_edges):
            jump = abs(self.u.values[j - 1][-1] - self.u.values[j][0])
            if jump > 1e-6 * max(scale, 1.0):
                raise GridMismatch(f"u is discontinuous at joint x = {j}")
        if abs(self.u.values[-1][-1]) > 1e-6 * max(scale, 1.0):
            raise GridMismatch("u must vanish at the clamped end")


def sample_state(cfg: ChainConfig, points_per_edge: int, u_fn, v_fn=None) -> WaveState:
    """Build a WaveState from callables; v_fn defaults to zero velocity."""
    u = sample_function(cfg, points_per_edge, u_fn)
    if v_fn is None:
        v = zeros_function(cfg, points_per_edge)
    else:
        v = sample_function(cfg, points_per_edge, v_fn)
    return WaveState(u=u, v=v)


@dataclass
class EnergyTrace:
    """Time series of the energy plus the cumulative boundary flux."""

    times: np.ndarray
    energies: np.ndarray
    boundary_flux: np.ndarray
    fitted_rate: Optional[float] = None

    def to_csv(self, path) -> None:
        """Rows t, E, boundary_flux_cum with .17g fields and csv's \\r\\n line ends.

        Rows are formatted in chunks, so no Python list of the whole
        trace is ever built.
        """
        cols = [np.asarray(c) for c in (self.times, self.energies, self.boundary_flux)]
        rows = min(c.shape[0] for c in cols)
        with open(path, "w", newline="") as fh:
            fh.write("t,E,boundary_flux_cum\r\n")
            for lo in range(0, rows, _CSV_CHUNK):
                t, e, f = (c[lo : lo + _CSV_CHUNK].tolist() for c in cols)
                fh.writelines(f"{ti:.17g},{ei:.17g},{fi:.17g}\r\n" for ti, ei, fi in zip(t, e, f))


def _simpson_odd(x: np.ndarray, y: np.ndarray):
    """Composite Simpson on an odd number of points, any spacing.

    Per panel [x_{2i}, x_{2i+2}] with widths h0, h1 it is the quadratic
    interpolant's integral, in the form scipy.integrate.simpson uses:
    (h0 + h1)/6 * (y0 (2 - h1/h0) + y1 (h0 + h1)^2 / (h0 h1) + y2 (2 - h0/h1)).
    """
    h = np.diff(x)
    h0 = h[0::2]
    h1 = h[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    panels = hsum / 6.0 * (
        y[:-2:2] * (2.0 - 1.0 / ratio)
        + y[1::2] * (hsum * (hsum / (h0 * h1)))
        + y[2::2] * (2.0 - ratio)
    )
    return np.sum(panels)


def integrate_edge(x: np.ndarray, y: np.ndarray) -> complex:
    """Composite Simpson for an odd number of points, trapezoid otherwise."""
    if x.size % 2 == 1:
        return _simpson_odd(x, y)
    return np.trapezoid(y, x)


def edge_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second-order derivative: centered interior, one-sided at the endpoints."""
    return np.gradient(y, x, edge_order=2)


def _check_cfg(fn: ChainFunction, cfg: ChainConfig) -> None:
    if fn.n_edges != cfg.n_edges:
        raise GridMismatch(f"function has {fn.n_edges} edges, config has {cfg.n_edges}")


def energy_wave(state: WaveState, cfg: ChainConfig) -> float:
    """E = 1/2 sum_j int_j^{j+1} |v_j|^2 + rho_j |u_j'|^2 dx."""
    _check_cfg(state.u, cfg)
    total = 0.0
    for j, rho in enumerate(cfg.densities):
        g = state.u.grids[j]
        du = edge_derivative(g, state.u.values[j])
        v = state.v.values[j]
        total += integrate_edge(g, np.abs(v) ** 2 + rho * np.abs(du) ** 2).real
    return 0.5 * total


def energy_first_order(V: ChainFunction, cfg: ChainConfig) -> float:
    """e = 1/2 sum_j (rho_j-weighted first component plus plain second component)."""
    _check_cfg(V, cfg)
    if V.arity != 2:
        raise ArityMismatch("first-order energy needs a 2-vector function")
    total = 0.0
    for j, rho in enumerate(cfg.densities):
        g = V.grids[j]
        v = V.values[j]
        total += integrate_edge(g, rho * np.abs(v[:, 0]) ** 2 + np.abs(v[:, 1]) ** 2).real
    return 0.5 * total


def energy_schrodinger(u: ChainFunction, cfg: ChainConfig) -> float:
    """E = 1/2 sum_j int |u_j|^2 dx."""
    _check_cfg(u, cfg)
    if u.arity != 1:
        raise ArityMismatch("expected a scalar function")
    total = 0.0
    for j in range(cfg.n_edges):
        total += integrate_edge(u.grids[j], np.abs(u.values[j]) ** 2).real
    return 0.5 * total


def first_order_state(state: WaveState, cfg: ChainConfig) -> ChainFunction:
    """V_j = (v_j, rho_j u_j'), the first-order unknown built from a wave state."""
    _check_cfg(state.u, cfg)
    values = []
    for j, rho in enumerate(cfg.densities):
        g = state.u.grids[j]
        du = edge_derivative(g, state.u.values[j])
        values.append(np.stack([state.v.values[j], rho * du], axis=1))
    return ChainFunction(state.u.grids, values)


def h_norm(V: ChainFunction, cfg: ChainConfig) -> float:
    """Norm of the first-order state space (rho-weighted first component)."""
    return float(np.sqrt(2.0 * energy_first_order(V, cfg)))


def l2_norm(u: ChainFunction) -> float:
    total = 0.0
    for g, v in zip(u.grids, u.values):
        if u.arity == 1:
            total += integrate_edge(g, np.abs(v) ** 2).real
        else:
            total += integrate_edge(g, np.sum(np.abs(v) ** 2, axis=1)).real
    return float(np.sqrt(total))


def smooth_bump(x, lo: float = 0.1, hi: float = 0.9) -> np.ndarray:
    """Infinitely smooth bump supported on [lo, hi], peak value 1.

    Spectrally clean initial data: leaves no slowly decaying
    high-frequency residue behind in time-domain runs.
    """
    x = np.asarray(x, dtype=float)
    xi = np.clip((x - lo) / (hi - lo), 1e-12, 1.0 - 1e-12)
    out = np.exp(4.0 - 1.0 / (xi * (1.0 - xi)))
    return np.where((x > lo) & (x < hi), out, 0.0).astype(complex)
