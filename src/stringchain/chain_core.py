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
    "GridStencil",
    "energy_wave",
    "energy_first_order",
    "energy_schrodinger",
    "first_order_state",
    "h_norm",
    "l2_norm",
    "write_table",
]

_CSV_CELLS = 8192  # table cells formatted per numpy pass (whole rows), about 150 bytes each
_CSV_SMALL = 300  # tables of fewer cells are formatted by Python's % alone (measured crossover)


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


def uniform_betas(beta_range: tuple[float, float], step: float, stride: int = 1) -> np.ndarray:
    """lo + k step, rounded once, for every stride-th k < max(1, ceil((hi + step / 2 - lo) /
    step)): hi is included up to half a step, and lo always, though half a step may vanish
    in hi + step / 2.  The bits are lo + step * np.arange(n)'s, so 0 is a point of a
    symmetric grid, where np.arange(lo, hi, step) would step by (lo + step) - lo as rounded
    and drift.  EmptyScan if hi < lo, MemoryError if it cannot be allocated."""
    lo, hi = beta_range
    if not (0 < step < math.inf and math.isfinite(lo) and math.isfinite(hi)):
        raise EmptyScan(f"need finite ends and a positive finite step, got {beta_range}, {step}")
    if not (isinstance(stride, (int, np.integer)) and stride > 0):
        raise EmptyScan(f"need a positive integer stride, got {stride!r}")
    if hi < lo:
        raise EmptyScan("empty beta range")
    with too_large(f"{(hi - lo) / step:.3g} betas"):
        betas = np.arange(0, max(math.ceil((hi + 0.5 * step - lo) / step), 1), stride, dtype=float)
    betas *= step
    betas += lo
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
    included.  A table of fewer than _CSV_SMALL cells is formatted by Python's
    `%` alone, one format string per row.  A larger one goes through `_g17_csv`,
    _CSV_CELLS cells (whole rows) at a time: no list of the whole table.
    """
    cols = [np.asarray(c) for c in columns]
    if any(c.dtype.kind not in "biufO" for c in cols):
        raise TypeError("write_table writes real numbers only")
    rows = min(c.shape[0] for c in cols)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if rows * len(cols) < _CSV_SMALL:
            fmt = ",".join(["%.17g"] * len(cols)) + "\r\n"
            lists = [c[:rows].astype(float).tolist() for c in cols]
            fh.write("".join([fmt % row for row in zip(*lists)]).encode())
            return path
        step = max(1, _CSV_CELLS // len(cols))
        block = np.empty((min(step, rows), len(cols)))
        for lo in range(0, rows, step):
            part = block[: min(step, rows - lo)]
            for j, c in enumerate(cols):
                part[:, j] = c[lo : lo + part.shape[0]]
            fh.write(_g17_csv(part))
    return path


# 10**p = (hi + lo) 2**e, hi + lo in [0.5, 1), for the p = 16 - k in [-292, 340] of
# every finite nonzero double: rows hi, its Dekker halves hh + hl, lo, e; NaN till used
_P_MIN = -292
_POW = np.full((5, 633), np.nan)
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for doubles
_TEN = 10 ** np.arange(18, dtype=np.int64)


def _pow10(i: np.ndarray) -> np.ndarray:
    """Rows hi, hh, hl, lo, e of _POW at the indices i = p - _P_MIN, clipped to the
    table.  A missing entry is computed once from exact integers: hi is 10**p 2**-e
    correctly rounded and lo the rest correctly rounded, so hi + lo is within
    2**-106 relative of it."""
    rows = _POW.take(i, axis=1, mode="clip")
    if np.isnan(rows[0].min()):
        for j in set(np.clip(i[np.isnan(rows[0])], 0, _POW.shape[1] - 1).tolist()):
            p = j + _P_MIN
            num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
            e = num.bit_length() - den.bit_length()
            e += (num << max(-e, 0)) >= (den << max(e, 0))
            a, b = num << max(-e, 0), den << max(e, 0)  # 10**p 2**-e = a / b
            hi = a / b  # int / int rounds correctly; hi 2**53 is an integer
            hh = _SPLIT * hi - (_SPLIT * hi - hi)
            _POW[:, j] = hi, hh, hi - hh, ((a << 53) - int(hi * 2**53) * b) / (b << 53), e
        rows = _POW.take(i, axis=1, mode="clip")
    return rows


def _g17_digits(x: np.ndarray):
    """(n, k, decided): "%.17g" % v's 17 digits n = round(|v| 10**(16 - k)) and
    exponent k for every v of x the bound below decides; n and k are unspecified
    elsewhere.
    With k = floor(log10 |v|), |v| = f 2**E and 10**(16 - k) = (hi + lo) 2**e from
    `_pow10`, n = (p + err + f lo) 2**(E + e): Dekker's two-product gives f hi as
    p + err exactly, hi + lo is off by under 2**-106, |f lo| < 2**-54 rounds by
    2**-108 at most and err + f lo by 2**-107.  As 2**(E + e) < 2**57 / 0.25, n is
    off by under 1.75 2**-106 2**59 < 2**-46.  That decides the rounding of every
    cell whose fraction is more than 1e-9 from 1/2, and whether k was the decade:
    floor(n) in [1e16, 1e17) (a true n just under 1e16 rounds up to it and prints
    the same).
    Ties and near-ties (Python rounds exact ties half to even), cells whose decade
    estimate was off or whose n rounds up to 1e17, zeros, infinities and NaNs are
    left undecided.
    """
    with np.errstate(all="ignore"):  # zeros, infinities and NaNs fail the checks
        ax = np.abs(x)
        k = np.floor(np.log10(ax)).astype(np.int64)
        hi, hh, hl, lo, e = _pow10(16 - _P_MIN - k)
        f, E = np.frexp(ax)
        fh = _SPLIT * f
        fh -= fh - f
        fl = f - fh
        p = f * hi
        err = fh * hh  # then ((((fh hh - p) + fh hl) + fl hh) + fl hl) + f lo
        err -= p
        err += fh * hl
        err += fl * hh
        err += fl * hl
        err += f * lo
        # 2**(E + e) from its exponent bits: as k is off by one at most, n = p 2**(E + e)
        # with p in [0.25, 1) lies in [1e15, 1e18), so E + e is in [50, 61]
        scale = ((E + e).astype(np.int64) + 1023 << 52).view(float)
        err *= scale
        whole = np.floor(err)
        err -= whole
        err -= 0.5  # the fraction of n less 1/2
        p *= scale
        n = p.astype(np.int64)
        n += whole.astype(np.int64)
        # False where err is NaN (v infinite or NaN) and where n is 0 (v zero)
        decided = (np.abs(err) >= 1e-9) & ((n - _TEN[16]).view(np.uint64) < _TEN[16] * 9)
        n += err > 0.0
    decided &= n < _TEN[17]
    return n, k, decided


@cache
def _layout_tables() -> dict:
    """The int64 tables of `_g17_records`, each word 8 little-endian bytes.
    "digits": per 0..9999 its four ASCII digits plus 2**32 times twice its trailing
    zeros (32 for 0).  "L", "H", "C" (3 words each): per row q = 34 c + 2 t + (v < 0),
    t the trailing zeros of the 17 digits and c the layout class of the exponent k
    ("class" holds 34 c per k + 324), the record's first 24 bytes: L and H mask the
    digits before and after the point, C holds the sign, "0.000" prefix and point.
    "tail": per k + 324 (+ 633 after a row's last cell) the exponent and separator."""
    v = np.arange(10000, dtype=np.int16)[:, None]
    ascii4 = (v // _TEN[3::-1].astype(np.int16) % 10 + 48).astype(np.uint8)
    zeros = np.where(v[:, 0] == 0, 32, 2 * (v % _TEN[1:5].astype(np.int16) == 0).sum(axis=1))
    k = np.arange(-324, 309)
    # classes 0..16: s = c + 1 digits before the point (the exponent form is class 0);
    # 17..20: k = c - 21 in [-4, -1], "0." and -k - 1 zeros before all 17 digits
    cls = np.where((k >= 0) & (k < 17), k, np.where((k < 0) & (k > -5), k + 21, 0))
    c = np.arange(21)[:, None, None, None]
    s = np.where(c < 17, c + 1, 0)
    last = 16 - np.arange(17)[:, None, None]  # the last digit written, per t
    # digit i < s at byte 6 + i, the point at 6 + s, digit i >= s at 7 + i
    pos = np.arange(24)
    shape = (21, 17, 2, 24)
    L = np.broadcast_to((pos >= 6) & (pos < 6 + s), shape)
    H = np.broadcast_to((pos >= 7 + s) & (pos <= 7 + last), shape)
    prefix = np.array([[sign + ("0." + "0" * (20 - j) if j >= 17 else "") for sign in ("", "-")]
                       for j in range(21)], "S24").view(np.uint8).reshape(21, 1, 2, 24)
    C = prefix | np.where((pos == 6 + s) & (0 < s) & (s <= last), ord("."), 0).astype(np.uint8)
    words = [(m * np.uint8(255) if m.dtype == bool else m).astype(np.uint8).view(np.int64)
             .reshape(-1, 3).T.copy() for m in (L, H, C)]
    tail = [("" if -5 < j < 17 else "e%+03d" % j) + sep
            for sep in (",", "\r\n") for j in k.tolist()]
    return {"digits": ascii4.view(np.uint32).ravel().astype(np.int64) | zeros << 32,
            "L": words[0], "H": words[1], "C": words[2],
            "class": 34 * cls, "tail": np.array(tail, "S8").view(np.int64)}


def _digit_words(n: np.ndarray, digits: np.ndarray):
    """(F, 2 t): the 17 digits of each n as ASCII at bytes 7..23 of three int64 words
    F (3, n.size), and twice the number of trailing zeros t of each n."""
    top = n // _TEN[8]
    d0 = top // _TEN[8]
    # n = d0 10**16 + a 10**8 + b; quads[0] holds a // 10**4 and b // 10**4, the
    # low halves of F[1] and F[2], quads[1] a % 10**4 and b % 10**4
    ab = np.empty((2, n.size), np.int64)
    np.subtract(top, np.multiply(d0, _TEN[8], out=ab[0]), out=ab[0])
    np.subtract(n, np.multiply(top, _TEN[8], out=ab[1]), out=ab[1])
    ab = ab.astype(np.int32)
    quads = np.empty((2, 2, n.size), np.int32)
    np.floor_divide(ab, 10000, out=quads[0])
    np.subtract(ab, quads[0] * 10000, out=quads[1])
    words = digits.take(quads, mode="clip")
    del top, ab, quads
    F = np.empty((3, n.size), np.int64)
    np.left_shift(d0 + 48, 56, out=F[0])
    np.bitwise_or(words[0] & 0xFFFFFFFF, words[1] << 32, out=F[1:])
    # trailing zeros of a and b, then of n, doubled: a zero group counts 32, so the
    # minimum takes the lower group's count unless that group is zero
    words >>= 32
    zeros = np.minimum(words[1], words[0] + 8)
    return F, np.minimum(zeros[1], zeros[0] + 16)


def _g17_csv(block: np.ndarray) -> bytes:
    """"%.17g" % v of every cell of a (rows, cols) real block, row by row, each
    followed by "," or, after a row's last cell, "\\r\\n": `_g17_records`' records
    with their NULs dropped by one `bytes.translate`.  The records come from their
    own function so that its temporaries are freed before the copy to bytes."""
    x = block.astype(float, copy=False).ravel()
    return _g17_records(x, block.shape[1]).tobytes().translate(None, b"\0")


def _g17_records(x: np.ndarray, cols: int) -> np.ndarray:
    """(x.size, 4) int64: per cell of x, read as rows of `cols` cells, a record of 32
    NUL-padded bytes: sign and "0.000" prefix (bytes 0-5), the digits and point
    (6-23), exponent and separator (24-31).
    Digit i of the 17 sits at byte 7 + i in F and at 6 + i in I, F shifted down a
    byte; the layout row's masks take the digits before the point from I and those
    after it, up to the last nonzero one, from F.  Cells `_g17_digits` leaves
    undecided go to Python's `%`."""
    t = _layout_tables()
    n, k, decided = _g17_digits(x)
    F, q = _digit_words(n, t["digits"])
    del n
    k += 324
    q += t["class"].take(k, mode="clip")
    q += x < 0
    I = F >> 8
    I[:2] |= F[1:] << 56
    I &= t["L"].take(q, axis=1, mode="clip")
    F &= t["H"].take(q, axis=1, mode="clip")
    I |= F
    rec = np.empty((x.size, 4), np.int64)
    np.bitwise_or(I, t["C"].take(q, axis=1, mode="clip"), out=rec[:, :3].T)
    if not decided.all():
        slow = np.flatnonzero(~decided)
        k[slow] = 324  # no exponent
        text = ["%.17g" % y for y in x[slow].tolist()]
        rec[slow, :3] = np.array(text, "S24").view(np.int64).reshape(-1, 3)
    k.reshape(-1, cols)[:, -1] += 633
    rec[:, 3] = t["tail"].take(k, mode="clip")
    return rec


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


class GridStencil:
    """np.gradient(y, x, axis=-1, edge_order=2) and np.trapezoid(y, x) along y's last axis, bit
    for bit: np.gradient's coefficients built once, its uniform rule where all widths equal."""

    def __init__(self, x: np.ndarray):
        if x.size < 3:  # np.gradient's refusal
            raise ValueError(f"a second-order derivative needs 3 or more points, not {x.size}")
        h = self.widths = np.diff(x)
        self.dx = dx = h[0] if (h == h[0]).all() else None
        if dx is not None:
            self.ends = (-1.5 / dx, 2. / dx, -0.5 / dx), (0.5 / dx, -2. / dx, 1.5 / dx)
            return
        (p, q), (r, s), h1, h2 = h[:2], h[-2:], h[:-1], h[1:]
        self.inner = -h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2), h1 / (h2 * (h1 + h2))
        self.ends = ((-(2. * p + q) / (p * (p + q)), (p + q) / (p * q), -p / (q * (p + q))),
                     (s / (r * (r + s)), -(s + r) / (r * s), (2. * s + r) / (s * (r + s))))

    def derivative(self, y: np.ndarray) -> np.ndarray:
        out = np.empty(y.shape, np.result_type(y.dtype, 1.0))
        if self.dx is not None:
            np.divide(y[..., 2:] - y[..., :-2], 2. * self.dx, out=out[..., 1:-1])
        else:  # the real coefficients unrepeated, summed in np.gradient's order
            mid = np.multiply(self.inner[0], y[..., :-2], out=out[..., 1:-1])
            mid += self.inner[1] * y[..., 1:-1]
            mid += self.inner[2] * y[..., 2:]
        for i, (a, b, c), k in zip((0, -1), self.ends, (0, -3)):  # the first and last points
            out[..., i] = a * y[..., k] + b * y[..., k + 1] + c * y[..., k + 2]
        return out

    def trapezoid(self, y: np.ndarray) -> np.ndarray:
        return (self.widths * (y[..., 1:] + y[..., :-1]) / 2.0).sum(-1)


def _check_cfg(fn: ChainFunction, cfg: ChainConfig) -> None:
    if fn.n_edges != cfg.n_edges:
        raise GridMismatch(f"function has {fn.n_edges} edges, config has {cfg.n_edges}")


def energy_wave(state: WaveState, cfg: ChainConfig) -> float:
    """E = 1/2 sum_j int_j^{j+1} |v_j|^2 + rho_j |u_j'|^2 dx."""
    _check_cfg(state.u, cfg)
    total = 0.0
    for g, u, v, rho in zip(state.u.grids, state.u.values, state.v.values, cfg.densities):
        du = GridStencil(g).derivative(u)
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
    (..., 2, n), components first; w @ y per edge is one dot product per load."""
    return sum((w @ _wave_weight(rho, v[..., 0, :], v[..., 1, :])[..., None])[..., 0]
               for w, rho, v in zip(weights, densities, values))


def _l2_sum(weights, values) -> np.ndarray:
    """Per load, sum_j int |v_j|^2 dx of per-edge scalar values (..., n)."""
    return sum((w @ _abs2(v)[..., None])[..., 0] for w, v in zip(weights, values))


def energy_first_order(V: ChainFunction, cfg: ChainConfig) -> float:
    """e = 1/2 sum_j (rho_j-weighted first component plus plain second component)."""
    _check_cfg(V, cfg)
    if V.arity != 2:
        raise ArityMismatch("first-order energy needs a 2-vector function")
    return 0.5 * _h_sum([quadrature_weights(x) for x in V.grids], cfg.densities,
                        [v.T for v in V.values])


def energy_schrodinger(u: ChainFunction, cfg: ChainConfig) -> float:
    """E = 1/2 sum_j int |u_j|^2 dx."""
    _check_cfg(u, cfg)
    if u.arity != 1:
        raise ArityMismatch("expected a scalar function")
    return 0.5 * _l2_sum([quadrature_weights(x) for x in u.grids], u.values)


def first_order_state(state: WaveState, cfg: ChainConfig) -> ChainFunction:
    """V_j = (v_j, rho_j u_j'), the first-order unknown built from a wave state."""
    _check_cfg(state.u, cfg)
    values = [np.stack([v, rho * GridStencil(g).derivative(u)], axis=1) for g, u, v, rho
              in zip(state.u.grids, state.u.values, state.v.values, cfg.densities)]
    return ChainFunction(state.u.grids, values)


def h_norm(V: ChainFunction, cfg: ChainConfig) -> float:
    """Norm of the first-order state space (rho-weighted first component)."""
    return float(np.sqrt(2.0 * energy_first_order(V, cfg)))


def l2_norm(u: ChainFunction) -> float:
    """sqrt(sum_j int |u_j|^2 dx), over both components of a 2-vector function."""
    values = u.values if u.arity == 1 else [v.T for v in u.values]
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
