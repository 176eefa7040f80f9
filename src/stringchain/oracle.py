"""Brute-force finite-difference ground truth for both generators.

Everything here is deliberately boring: lumped second-order stencils,
dense generator matrices for eigensolves, direct (banded or sparse LU)
eliminations, and ARPACK for the largest singular value of a resolvent.
These discretizations share no code with the closed-form solvers they
cross-check, and neither do `resample_load` and `rel_l2_diff`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain_core import ChainConfig, ChainFunction, uniform_grids, validate_config
from .errors import SingularShift, SingularSystem, TooCoarse

__all__ = [
    "DenseOperator",
    "fd_wave_matrix",
    "fd_schrodinger_matrix",
    "fd_resolvent_norm",
    "fd_bvp_solve",
    "oracle_transfer_value",
    "resample_load",
    "rel_l2_diff",
]


@dataclass
class DenseOperator:
    """Dense discretization of a generator plus its energy inner product.

    dof_map lists (edge, local grid index, component) per matrix row;
    gram is the SPD matrix of the discrete energy inner product, so
    operator norms computed from this object live in the right space.
    """

    matrix: np.ndarray
    dof_map: list[tuple[int, int, str]]
    gram: np.ndarray
    kind: str
    cells_per_edge: int

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def index_of(self, edge: int, k: int, comp: str) -> int:
        return self.dof_map.index((edge, k, comp))


def _stencil(cfg: ChainConfig, m: int):
    """Lumped flux-difference stencil on the chain, clamped node removed.

    Returns (n, h, w, lower, diag, upper): tridiagonal rows of the
    stiffness-style operator sum_cells rho * (difference flux), plus the
    lumped weights w (half cell at the damped end, full cell at joints).
    """
    if m < 8:
        raise TooCoarse("need at least 8 cells per edge")
    n = cfg.n_edges * m  # nodes 0 .. N*m, last one clamped and removed
    h = 1.0 / m
    w = np.full(n, h)
    w[0] = h / 2.0
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    for j in range(cfg.n_edges):
        rho = cfg.densities[j]
        for k in range(m):
            a, b = j * m + k, j * m + k + 1
            if a < n:
                diag[a] -= rho / h
                if b < n:
                    upper[a] += rho / h
            if b < n:
                diag[b] -= rho / h
                lower[b] += rho / h
    return n, h, w, lower, diag, upper


def _dof_map(cfg: ChainConfig, m: int, comps: tuple[str, ...]):
    out = []
    for comp in comps:
        for j in range(cfg.n_edges):
            lo = 0 if j == 0 else 1
            hi = m + 1 if j < cfg.n_edges - 1 else m
            for k in range(lo, hi):
                out.append((j, k, comp))
    return out


def _tridiag_to_dense(n, lower, diag, upper, dtype=float):
    a = np.zeros((n, n), dtype=dtype)
    idx = np.arange(n)
    a[idx, idx] = diag
    a[idx[1:], idx[:-1]] = lower[1:]
    a[idx[:-1], idx[1:]] = upper[:-1]
    return a


def fd_wave_matrix(cfg: ChainConfig, m: int) -> DenseOperator:
    """Dense first-order generator of the damped wave chain, m cells per edge.

    Block structure [[0, I], [K, D]] on stacked (u, v) unknowns, with the
    boundary damping folded into row 0 of the velocity block.  In the
    lumped energy product Re<A x, x> = -|v_0|^2 holds exactly.
    """
    validate_config(cfg)
    n, h, w, lower, diag, upper = _stencil(cfg, m)
    stiff = _tridiag_to_dense(n, lower, diag, upper)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = stiff / w[:, None]
    a[n + 0, n + 0] = -1.0 / w[0]  # damping: flux v_0 through the half cell
    gram = np.zeros((2 * n, 2 * n))
    gram[:n, :n] = -stiff  # SPD stiffness Gram for the displacement part
    gram[n:, n:] = np.diag(w)
    return DenseOperator(
        matrix=a,
        dof_map=_dof_map(cfg, m, ("u", "v")),
        gram=gram,
        kind="wave",
        cells_per_edge=m,
    )


def fd_schrodinger_matrix(cfg: ChainConfig, m: int) -> DenseOperator:
    """Dense generator of the damped Schrodinger chain, m cells per edge."""
    validate_config(cfg)
    n, h, w, lower, diag, upper = _stencil(cfg, m)
    s = _tridiag_to_dense(n, lower, diag, upper, dtype=complex)
    s[0, 0] += -1j  # boundary feedback rho_0 u'(0) = i u(0)
    a = -1j * (s / w[:, None])
    return DenseOperator(
        matrix=a,
        dof_map=_dof_map(cfg, m, ("u",)),
        gram=np.diag(w).astype(complex),
        kind="schrodinger",
        cells_per_edge=m,
    )


def _gram_factor(gram: np.ndarray) -> sp.csc_matrix:
    """Banded upper Cholesky factor F of the Gram matrix, F^H F = gram, as CSC."""
    upper = sp.triu(gram, format="coo")
    band = int(np.max(upper.col - upper.row))
    ab = np.zeros((band + 1, gram.shape[0]), dtype=gram.dtype)
    ab[band + upper.row - upper.col, upper.col] = upper.data
    f = sla.cholesky_banded(ab, lower=False)
    return sp.dia_matrix((f, np.arange(band, -1, -1)), shape=gram.shape).tocsc()


def fd_resolvent_norm(op: DenseOperator, beta: float) -> float:
    """Energy-space norm of (i*beta - A_h)^{-1}.

    With F^H F = gram the norm is the largest singular value of
    F r^{-1} F^{-1} = F (F r)^{-1}, r = i*beta - A_h.  F r is factored
    once by sparse LU; ARPACK (svds) then needs one LU solve and one
    banded product per apply, from a fixed start vector.
    """
    n = op.dimension
    f = _gram_factor(op.gram)
    shifted = f @ (1j * beta * sp.identity(n) - sp.csc_matrix(op.matrix))
    try:
        lu = spla.splu(shifted.tocsc())
    except RuntimeError as exc:
        raise SingularShift(f"i*{beta} is in the spectrum") from exc
    fh = f.conj().T
    resolvent = spla.LinearOperator((n, n), matvec=lambda x: f @ lu.solve(x),
                                    rmatvec=lambda x: lu.solve(fh @ x, trans="H"), dtype=complex)
    if n < 3:  # too small for ARPACK's complex Krylov space
        smax = float(np.linalg.norm(resolvent @ np.eye(n), 2))
    else:
        start = np.random.default_rng(0).standard_normal(n).astype(complex)
        smax = float(spla.svds(resolvent, k=1, tol=0, v0=start, return_singular_vectors=False)[0])
    if smax > 1e14:
        raise SingularShift(f"i*{beta} is numerically in the spectrum")
    return smax


def _box_scheme_wave(cfg: ChainConfig, beta: float, g: ChainFunction, m: int) -> ChainFunction:
    """Midpoint (box) collocation of (i*beta - B d/dx) W = G, sparse LU solve."""
    n_nodes = cfg.n_edges * m + 1
    h = 1.0 / m
    size = 2 * n_nodes
    rows, cols, vals = [], [], []
    rhs = np.zeros(size, dtype=complex)

    def put(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    put(0, 0, 1.0)  # damped condition (1, -1) W(0) = 0
    put(0, 1, -1.0)
    r = 1
    for j in range(cfg.n_edges):
        rho = cfg.densities[j]
        gj = g.values[j]
        for k in range(m):
            i0 = 2 * (j * m + k)
            i1 = i0 + 2
            put(r, i0, 0.5j * beta)
            put(r, i1, 0.5j * beta)
            put(r, i0 + 1, 1.0 / h)
            put(r, i1 + 1, -1.0 / h)
            rhs[r] = 0.5 * (gj[k, 0] + gj[k + 1, 0])
            r += 1
            put(r, i0 + 1, 0.5j * beta)
            put(r, i1 + 1, 0.5j * beta)
            put(r, i0, rho / h)
            put(r, i1, -rho / h)
            rhs[r] = 0.5 * (gj[k, 1] + gj[k + 1, 1])
            r += 1
    put(r, 2 * (n_nodes - 1), 1.0)  # clamped condition (1, 0) W(N) = 0
    mat = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
    try:
        sol = spla.splu(mat).solve(rhs)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    grids = [np.linspace(j, j + 1, m + 1) for j in range(cfg.n_edges)]
    values = []
    for j in range(cfg.n_edges):
        idx = np.arange(j * m, (j + 1) * m + 1)
        values.append(np.stack([sol[2 * idx], sol[2 * idx + 1]], axis=1))
    return ChainFunction(grids, values)


def _banded_solve(n, lower, diag, upper, rhs):
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    try:
        return sla.solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc


def _nodes_to_chain(cfg: ChainConfig, m: int, full: np.ndarray) -> ChainFunction:
    grids = [np.linspace(j, j + 1, m + 1) for j in range(cfg.n_edges)]
    values = [full[j * m : (j + 1) * m + 1] for j in range(cfg.n_edges)]
    return ChainFunction(grids, values)


def _gather_rhs(cfg: ChainConfig, m: int, g: ChainFunction, n: int) -> np.ndarray:
    rhs = np.zeros(n, dtype=complex)
    for j in range(cfg.n_edges):
        vals = g.values[j]
        lo = 0 if j == 0 else 1
        for k in range(lo, m + 1):
            node = j * m + k
            if node < n:
                rhs[node] = vals[k]
    return rhs


def fd_bvp_solve(cfg: ChainConfig, lam: complex, data, which: str, m: int) -> ChainFunction:
    """Direct discretized solve of a two-point boundary-value problem.

    which = "wave":        data is a 2-vector ChainFunction G on the m-cell
                           grid; solves (i*beta - B d/dx) W = G with the box
                           scheme (lam = i*beta).
    which = "schrodinger": data is a scalar ChainFunction g; solves
                           (i*beta - A) u = g with the lumped stencil.
    which = "transfer":    data is the scalar input gain z; solves the
                           time-harmonic chain rho y'' = lam^2 y with
                           rho_0 y'(0) = z and clamped far end, returning y.
    """
    validate_config(cfg)
    if m < 8:
        raise TooCoarse("need at least 8 cells per edge")
    if which == "wave":
        return _box_scheme_wave(cfg, complex(lam).imag, data, m)
    if which == "schrodinger":
        beta = complex(lam).imag
        n, h, w, lower, diag, upper = _stencil(cfg, m)
        dc = diag.astype(complex)
        dc[0] += -1j  # feedback rho_0 u'(0) = i u(0)
        # i*beta - A_h with A_h = -i * stencil / w
        dd = 1j * beta + 1j * dc / w
        uu = 1j * upper.astype(complex) / w
        ll = 1j * lower.astype(complex) / w
        rhs = _gather_rhs(cfg, m, data, n)
        sol = _banded_solve(n, ll, dd, uu, rhs)
        return _nodes_to_chain(cfg, m, np.concatenate([sol, [0.0]]))
    if which == "transfer":
        z = complex(data)
        n, h, w, lower, diag, upper = _stencil(cfg, m)
        # rho y'' - lam^2 y = 0 with Neumann input folded into node 0
        dd = diag.astype(complex) / w - complex(lam) ** 2
        uu = upper.astype(complex) / w
        ll = lower.astype(complex) / w
        rhs = np.zeros(n, dtype=complex)
        rhs[0] = z / w[0]
        sol = _banded_solve(n, ll, dd, uu, rhs)
        return _nodes_to_chain(cfg, m, np.concatenate([sol, [0.0]]))
    raise ValueError(f"unknown problem kind {which!r}")


def oracle_transfer_value(cfg: ChainConfig, lam: complex, z: complex, m: int) -> complex:
    """Boundary output lam * y(0) of the discretized time-harmonic solve."""
    y = fd_bvp_solve(cfg, lam, z, "transfer", m)
    return complex(lam * y.values[0][0])


def _interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Linear interpolation at x of scalar (n,) or vector (n, k) samples fp on xp."""
    if fp.ndim == 1:
        return np.interp(x, xp, fp)
    return np.stack([np.interp(x, xp, fp[:, c]) for c in range(fp.shape[1])], axis=1)


def resample_load(cfg: ChainConfig, g: ChainFunction, m: int) -> ChainFunction:
    """g linearly interpolated onto the m-cell grid that `fd_bvp_solve` expects."""
    grids = uniform_grids(cfg, m + 1)
    return ChainFunction(grids, [_interp(x, xp, v) for x, xp, v in zip(grids, g.grids, g.values)])


def rel_l2_diff(a: ChainFunction, b: ChainFunction) -> float:
    """Relative L2 distance |a - b| / |a| of two chain functions of one arity.

    b is interpolated linearly onto a's grids and each edge integrated by
    the trapezoid rule; the pointwise |.|^2 sums over the components.
    """
    num = den = 0.0
    for xa, va, xb, vb in zip(a.grids, a.values, b.grids, b.values):
        diff = (va - _interp(xa, xb, vb)).reshape(xa.size, -1)
        num += float(np.trapezoid(np.sum(np.abs(diff) ** 2, axis=1), xa))
        den += float(np.trapezoid(np.sum(np.abs(va.reshape(xa.size, -1)) ** 2, axis=1), xa))
    return float(np.sqrt(num / den))
