"""Chain geometry, sampled functions on the edges, and energy functionals.

A chain of N unit strings occupies the intervals [j, j+1], j = 0..N-1.
Edge j carries a density rho_j > 0; the local wave speed is sqrt(rho_j).
The left end x = 0 is the damped end, the right end x = N is clamped.
A `ChainConfig` is valid by construction: it checks its densities once,
when it is built, so no routine that takes one checks it again.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    EmptyChain,
    EmptyScan,
    GridMismatch,
    NonPositiveDensity,
)

__all__ = [
    "ChainConfig",
    "ChainFunction",
    "WaveState",
    "EnergyTrace",
    "uniform_grids",
    "uniform_betas",
    "sample_function",
    "zeros_function",
    "sample_state",
    "quadrature_weights",
    "edge_derivative",
    "energy_wave",
    "energy_first_order",
    "energy_schrodinger",
    "first_order_state",
    "h_norm",
    "l2_norm",
    "write_table",
]

_CSV_CELLS = 4096  # table cells formatted per write (whole rows), about 250 bytes each


@dataclass(frozen=True)
class ChainConfig:
    """Number of edges and their densities; the whole model parameterization.

    Valid by construction: building one converts the densities to floats
    and checks them, so an invalid chain raises right there: EmptyChain for
    no edges, NonPositiveDensity for a density that is not positive and finite.
    """

    densities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "densities", tuple(float(r) for r in self.densities))
        if not self.densities:
            raise EmptyChain("chain needs at least one edge")
        for j, rho in enumerate(self.densities):
            if not math.isfinite(rho) or rho <= 0.0:
                raise NonPositiveDensity(f"density rho_{j} = {rho} must be positive and finite")

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


@contextmanager
def too_large(what: str):
    """numpy's refusals of a size as one MemoryError naming `what`: its ValueError
    ("Maximum allowed size exceeded", "array is too big"), the IndexError of linspace
    and logspace near 2**63 points, and int()'s OverflowError of an infinite count."""
    try:
        yield
    except (ValueError, IndexError, OverflowError) as exc:
        raise MemoryError(f"{what}: {exc}") from exc


def uniform_grids(cfg: ChainConfig, points_per_edge: int) -> list[np.ndarray]:
    """Uniform per-edge grids with the given number of points (endpoints included).

    MemoryError if that many points cannot be allocated."""
    if points_per_edge < 2:
        raise GridMismatch("need at least 2 points per edge")
    with too_large(f"{points_per_edge} points per edge"):
        return [np.linspace(j, j + 1, points_per_edge) for j in range(cfg.n_edges)]


def check_uniform_grid(fn: ChainFunction, cfg: ChainConfig, points_per_edge: int) -> None:
    """GridMismatch unless fn has cfg's edges, each on uniform_grids(cfg, points_per_edge)."""
    _check_cfg(fn, cfg)
    for j, (x, grid) in enumerate(zip(fn.grids, uniform_grids(cfg, points_per_edge))):
        if x.size != grid.size or np.max(np.abs(x - grid)) > 1e-12:
            raise GridMismatch(f"edge {j}: not sampled on the {grid.size}-point uniform grid")


def uniform_betas(beta_range: tuple[float, float], step: float) -> np.ndarray:
    """lo to hi in step increments, hi included up to half a step; never empty.

    MemoryError if the range holds more steps than can be allocated."""
    lo, hi = beta_range
    if not (0 < step < math.inf and math.isfinite(lo) and math.isfinite(hi)):
        raise EmptyScan(f"need finite ends and a positive finite step, got {beta_range}, {step}")
    with too_large(f"{(hi - lo) / step:.3g} betas"):
        betas = np.arange(lo, hi + 0.5 * step, step)
    if betas.size == 0:
        raise EmptyScan("empty beta range")
    return betas


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

    def to_csv(self, path) -> None:
        """Rows t, E, boundary_flux_cum."""
        write_table(path, ["t", "E", "boundary_flux_cum"],
                    self.times, self.energies, self.boundary_flux)


def write_table(path, header, *columns):
    """Write the columns side by side as CSV, each number as %.17g; returns path.

    The bytes are csv.writer's of `"%.17g" % v` (v as float), \\r\\n line ends
    included.  numpy makes the digits in double-double arithmetic under an error
    bound (`_g17_digits`); the cells it cannot decide (a fraction within 1e-9 of
    1/2, a wrong decade estimate, zeros, infinities, NaNs) go to Python's `%`.
    _CSV_CELLS cells are formatted per write: no list of the whole table.
    """
    cols = [np.asarray(c) for c in columns]
    if any(c.dtype.kind not in "biufO" for c in cols):
        raise TypeError("write_table writes real numbers only")
    rows = min(c.shape[0] for c in cols)
    step = max(1, _CSV_CELLS // len(cols))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, rows, step):
            fh.write(_g17_csv(np.column_stack([c[lo : min(lo + step, rows)] for c in cols])))
    return path


# 10**p = (hi + lo) 2**e, hi + lo in [0.5, 1), for the p = 16 - k in [-292, 340] of
# every finite nonzero double: rows hi, its Dekker halves hh + hl, lo, e; NaN till used
_P_MIN = -292
_POW = np.full((5, 633), np.nan)
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for doubles
_TEN = 10 ** np.arange(17, dtype=np.int64)


def _pow10(i: np.ndarray) -> np.ndarray:
    """Rows hi, hh, hl, lo, e of _POW at the indices i = p - _P_MIN.  A missing entry
    is computed once from exact integers: hi is 10**p 2**-e correctly rounded and
    lo the rest correctly rounded, so hi + lo is within 2**-106 relative of it."""
    rows = np.take(_POW, i, axis=1)
    if np.isnan(rows[0]).any():
        for j in set(i[np.isnan(rows[0])].tolist()):
            p = j + _P_MIN
            num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
            e = num.bit_length() - den.bit_length()
            e += (num << max(-e, 0)) >= (den << max(e, 0))
            a, b = num << max(-e, 0), den << max(e, 0)  # 10**p 2**-e = a / b
            hi = a / b  # int / int rounds correctly; hi 2**53 is an integer
            hh = _SPLIT * hi - (_SPLIT * hi - hi)
            _POW[:, j] = hi, hh, hi - hh, ((a << 53) - int(hi * 2**53) * b) / (b << 53), e
        rows = np.take(_POW, i, axis=1)
    return rows


def _g17_digits(x: np.ndarray):
    """(n, k, decided): "%.17g" % v's 17 digits n = round(|v| 10**(16 - k)) and
    exponent k for every v of x the bound below decides; 10**16 and 0 elsewhere.
    With k = floor(log10 |v|), |v| = f 2**E and 10**(16 - k) = (hi + lo) 2**e from
    `_pow10`, n = (p + err + f lo) 2**(E + e): Dekker's two-product gives f hi as
    p + err exactly, hi + lo is off by under 2**-106, |f lo| < 2**-54 rounds by
    2**-108 at most and err + f lo by 2**-107.  As 2**(E + e) < 2**57 / 0.25, n is
    off by under 1.75 2**-106 2**59 < 2**-46.  That decides the rounding of every
    cell whose fraction is more than 1e-9 from 1/2, and whether k was the decade:
    floor(n) in [1e16, 1e17) (a carry to 1e17 gives 1e16 and k + 1; a true n just
    under 1e16 rounds up to it and prints the same).
    Ties and near-ties (Python rounds exact ties half to even), cells whose decade
    estimate was off, zeros, infinities and NaNs are left undecided.
    """
    decided = np.isfinite(x) & (x != 0.0)
    ax = np.where(decided, np.abs(x), 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64)
    i = 16 - _P_MIN - k
    hi, hh, hl, lo, e = _pow10(i)
    f, E = np.frexp(ax)
    fh = _SPLIT * f - (_SPLIT * f - f)
    fl = f - fh
    p = f * hi
    err = ((((fh * hh - p) + fh * hl) + fl * hh) + fl * hl) + f * lo
    scale = np.ldexp(1.0, E + e.astype(np.int32))
    low = err * scale
    whole = np.floor(low)
    low -= whole
    n = (p * scale).astype(np.int64) + whole.astype(np.int64)
    decided &= (np.abs(low - 0.5) >= 1e-9) & (n >= _TEN[16]) & (n < 10 * _TEN[16])
    n += low > 0.5
    carry = n == 10 * _TEN[16]
    return np.where(decided & ~carry, n, _TEN[16]), np.where(decided, k + carry, 0), decided


@cache
def _word_tables() -> dict:
    """NUL-padded 4-byte words: 0..9999 in full, without leading and without trailing
    zeros; and per exponent k (index k + 324) the divisors that split the digits at
    the point, the point, sign and "0.000" prefix, exponent and each separator."""
    v, ten = np.arange(10000, dtype=np.int16)[:, None], _TEN[:5].astype(np.int16)
    ch = (v // ten[3::-1] % 10 + 48).astype(np.uint8)
    lead, trail = np.where(v < ten[3::-1], 0, ch), np.where(v % ten[4:0:-1] == 0, 0, ch)
    k = np.arange(-324, 309)
    split = np.where((k > 0) & (k < 17), k, 0)  # digits after the first before the point
    words = {"digits": np.concatenate([ch, lead, trail]).view(np.uint32).ravel(),
             "int": _TEN[16 - split], "frac": _TEN[split],
             "dot": np.where((k < 0) & (k > -5), 0, np.frombuffer(b".\0\0\0", np.uint32))}
    pre = [sign + ("0." + "0" * (-j - 1) if -5 < j < 0 else "")
           for sign in ("", "-") for j in k.tolist()]
    tail = [("" if -5 < j < 17 else "e%+03d" % j) + sep
            for sep in (",", "\r\n") for j in k.tolist()]
    for name, text in (("prefix", pre), ("tail", tail)):
        words[name] = np.array(text, "S8").view(np.uint32).reshape(-1, 2).T.copy()
    return words


def _g17_csv(block: np.ndarray) -> bytes:
    """"%.17g" % v of every cell of a (rows, cols) real block, row by row, each
    followed by "," or, after a row's last cell, "\\r\\n".  A cell is 14 NUL-padded
    4-byte words: sign and "0.000" prefix (2), integer digits (5), point, fraction
    digits (4), exponent and separator (2); words no cell uses are dropped, then
    the NULs.  Cells `_g17_digits` leaves undecided go to Python's `%`."""
    t = _word_tables()
    x = block.astype(float, copy=False).ravel()
    n, k, decided = _g17_digits(x)
    k += 324
    ip, rest = np.divmod(n, t["int"][k])
    g = np.empty((9, x.size), dtype=np.int32)  # word indices: integer part, fraction
    g[0] = ip // _TEN[16]
    v = np.stack([ip - g[0] * _TEN[16], rest * t["frac"][k]])
    half = np.empty((2, 2, x.size), dtype=np.int32)  # part, upper and lower 8 digits
    np.floor_divide(v, _TEN[8], out=half[:, 0])
    np.subtract(v, half[:, 0] * _TEN[8], out=half[:, 1])
    words = g[1:].reshape(2, 4, -1)
    np.floor_divide(half, 10000, out=words[:, 0::2])
    np.subtract(half, words[:, 0::2] * 10000, out=words[:, 1::2])
    # integer words drop leading zeros up to the first nonzero one (table offset
    # 10000), fraction words trailing zeros after the last one (offset 20000)
    g[0] += 10000
    np.add(g[1:5], 10000, out=g[1:5], where=ip < _TEN[:3:-4, None])
    g[5] += 20000 * ((half[1, 1] == 0) & (g[6] == 0))
    g[6] += 20000 * (half[1, 1] == 0)
    g[7] += 20000 * (g[8] == 0)
    g[8] += 20000
    w = np.empty((14, x.size), dtype=np.uint32)
    np.take(t["prefix"], k + 633 * (x < 0), axis=1, out=w[0:2], mode="clip")
    np.take(t["digits"], g[:5], out=w[2:7], mode="clip")
    np.multiply(t["dot"][k], v[1] != 0, out=w[7])
    np.take(t["digits"], g[5:], out=w[8:12], mode="clip")
    k.reshape(block.shape)[:, -1] += 633
    np.take(t["tail"], k, axis=1, out=w[12:14], mode="clip")
    slow = np.flatnonzero(~decided)
    text = ["%.17g" % y for y in x[slow].tolist()]
    w[:12, slow] = np.array(text, "S48").view(np.uint32).reshape(-1, 12).T
    return w[w.any(axis=1)].T.tobytes().translate(None, b"\0")


def quadrature_weights(x: np.ndarray) -> np.ndarray:
    """Quadrature weights w on the grid x: the integral of y over the edge is w @ y.

    Odd point counts use composite Simpson, any spacing: per panel
    [x_{2i}, x_{2i+2}] with widths h0, h1 the quadratic interpolant's
    integral, in the form scipy.integrate.simpson uses,
    (h0 + h1)/6 * (y0 (2 - h1/h0) + y1 (h0 + h1)^2 / (h0 h1) + y2 (2 - h0/h1)).
    Even counts use the trapezoid rule.  Repeated integrals over one grid
    can reuse the weights.
    """
    h = np.diff(x)
    w = np.zeros(x.size)
    if x.size % 2 == 1:
        h0 = h[0::2]
        h1 = h[1::2]
        hsum = h0 + h1
        ratio = h0 / h1
        w[:-2:2] += hsum / 6.0 * (2.0 - 1.0 / ratio)
        w[1::2] += hsum / 6.0 * (hsum * (hsum / (h0 * h1)))
        w[2::2] += hsum / 6.0 * (2.0 - ratio)
    else:
        w[:-1] += 0.5 * h
        w[1:] += 0.5 * h
    return w


def edge_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second-order derivative along y's last axis: centered interior, one-sided at the
    endpoints."""
    return np.gradient(y, x, axis=-1, edge_order=2)


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
        total += (quadrature_weights(g) @ (np.abs(v) ** 2 + rho * np.abs(du) ** 2)).real
    return 0.5 * total


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|^2 elementwise, as re^2 + im^2."""
    return v.real * v.real + v.imag * v.imag


def _wave_weight(rho: float, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """rho |first|^2 + |second|^2: the integrand of h_norm on an edge of density rho."""
    return rho * _abs2(first) + _abs2(second)


def _h_sum(weights, densities, values) -> np.ndarray:
    """Per load, sum_j int rho_j |V_1|^2 + |V_2|^2 dx of per-edge 2-vector values
    (..., n, 2); w @ y per edge is one dot product per load."""
    return sum((w @ _wave_weight(rho, v[..., 0], v[..., 1])[..., None])[..., 0]
               for w, rho, v in zip(weights, densities, values))


def _l2_sum(weights, values) -> np.ndarray:
    """Per load, sum_j int |v_j|^2 dx of per-edge scalar values (..., n)."""
    return sum((w @ _abs2(v)[..., None])[..., 0] for w, v in zip(weights, values))


def energy_first_order(V: ChainFunction, cfg: ChainConfig) -> float:
    """e = 1/2 sum_j (rho_j-weighted first component plus plain second component)."""
    _check_cfg(V, cfg)
    if V.arity != 2:
        raise ArityMismatch("first-order energy needs a 2-vector function")
    return 0.5 * _h_sum([quadrature_weights(x) for x in V.grids], cfg.densities, V.values)


def energy_schrodinger(u: ChainFunction, cfg: ChainConfig) -> float:
    """E = 1/2 sum_j int |u_j|^2 dx."""
    _check_cfg(u, cfg)
    if u.arity != 1:
        raise ArityMismatch("expected a scalar function")
    return 0.5 * _l2_sum([quadrature_weights(x) for x in u.grids], u.values)


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
    """sqrt(sum_j int |u_j|^2 dx), over both components of a 2-vector function."""
    values = u.values if u.arity == 1 else [np.moveaxis(v, -1, 0) for v in u.values]
    return float(np.sqrt(np.sum(_l2_sum([quadrature_weights(x) for x in u.grids], values))))


def smooth_bump(x, lo: float = 0.1, hi: float = 0.9) -> np.ndarray:
    """Infinitely smooth bump supported on [lo, hi], peak value 1.

    Spectrally clean initial data: leaves no slowly decaying
    high-frequency residue behind in time-domain runs.
    """
    x = np.asarray(x, dtype=float)
    xi = np.clip((x - lo) / (hi - lo), 1e-12, 1.0 - 1e-12)
    out = np.exp(4.0 - 1.0 / (xi * (1.0 - xi)))
    return np.where((x > lo) & (x < hi), out, 0.0).astype(complex)
