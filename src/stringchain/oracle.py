"""Brute-force finite-difference ground truth for both generators.

Everything here is deliberately boring: lumped second-order stencils,
sparse operators (`.toarray()` for a dense eigensolve), sparse LU
eliminations, and ARPACK for the largest singular value of a resolvent.
These discretizations share no code with the closed-form solvers they
cross-check, and neither do `resample_load` and `rel_l2_diff`; they share
`chain_core`'s input checks and uniform grids, not its numerics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain_core import ChainConfig, ChainFunction, check_uniform_grid, uniform_grids
from .errors import SingularShift, SingularSystem, TooCoarse

__all__ = [
    "SparseOperator",
    "fd_wave_matrix",
    "fd_schrodinger_matrix",
    "fd_resolvent_norm",
    "fd_bvp_solve",
    "oracle_transfer_value",
    "resample_load",
    "rel_l2_diff",
]


@dataclass
class SparseOperator:
    """Discretization of a generator plus its energy inner product.

    matrix and gram are scipy sparse matrices (call `.toarray()` for a
    dense eigensolve).  dof_map lists (edge, local grid index, component)
    per matrix row; gram is the SPD matrix of the discrete energy inner
    product, so operator norms computed from this object live in the
    right space.
    """

    matrix: sp.spmatrix
    dof_map: list[tuple[int, int, str]]
    gram: sp.spmatrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def index_of(self, edge: int, k: int, comp: str) -> int:
        return self.dof_map.index((edge, k, comp))


def _stencil(cfg: ChainConfig, m: int):
    """Lumped flux-difference stencil on the chain, clamped node removed.

    Returns (stiff, w): the sparse tridiagonal operator sum over cells of
    rho * (difference flux), with conductance rho / h on each cell, and
    the lumped weights w (half cell at the damped end, full cell at joints).
    """
    if m < 8:
        raise TooCoarse("need at least 8 cells per edge")
    h = 1.0 / m
    c = np.repeat(cfg.densities, m) / h  # cell k joins nodes k and k + 1; node N*m is clamped
    w = np.full(c.size, h)
    w[0] = h / 2.0
    diag = -c - np.concatenate([[0.0], c[:-1]])
    return sp.diags([c[:-1], diag, c[:-1]], [-1, 0, 1], format="csr"), w


def _rows_over(a, w: np.ndarray) -> sp.csr_matrix:
    """a with row i divided by w[i], entry for entry as the dense a / w[:, None]."""
    a = sp.csr_matrix(a)
    return sp.csr_matrix((a.data / np.repeat(w, np.diff(a.indptr)), a.indices, a.indptr),
                         shape=a.shape)


def _dof_map(cfg: ChainConfig, m: int, comps: tuple[str, ...]):
    node = np.arange(cfg.n_edges * m)
    edge = np.maximum(node - 1, 0) // m  # a joint belongs to the edge on its left
    pairs = list(zip(edge.tolist(), (node - m * edge).tolist()))
    return [(j, k, comp) for comp in comps for j, k in pairs]


def fd_wave_matrix(cfg: ChainConfig, m: int) -> SparseOperator:
    """First-order generator of the damped wave chain, m cells per edge.

    Block structure [[0, I], [K, D]] on stacked (u, v) unknowns, with the
    boundary damping folded into row 0 of the velocity block.  In the
    lumped energy product Re<A x, x> = -|v_0|^2 holds exactly.
    """
    stiff, w = _stencil(cfg, m)
    n = w.size
    # damping: flux v_0 through the half cell
    damping = sp.csr_matrix(([-1.0 / w[0]], ([0], [0])), shape=(n, n))
    a = sp.bmat([[None, sp.identity(n)], [_rows_over(stiff, w), damping]], format="csr")
    gram = sp.block_diag([-stiff, sp.diags(w)], format="csr")  # SPD stiffness Gram for u
    return SparseOperator(matrix=a, dof_map=_dof_map(cfg, m, ("u", "v")), gram=gram)


def fd_schrodinger_matrix(cfg: ChainConfig, m: int) -> SparseOperator:
    """Generator of the damped Schrodinger chain, m cells per edge."""
    stiff, w = _stencil(cfg, m)
    n = w.size
    feedback = sp.csr_matrix(([-1j], ([0], [0])), shape=(n, n))  # rho_0 u'(0) = i u(0)
    a = -1j * _rows_over(stiff + feedback, w)
    return SparseOperator(matrix=a, dof_map=_dof_map(cfg, m, ("u",)),
                          gram=sp.diags(w.astype(complex), format="csr"))


def _splu(mat, error=SingularSystem, message=None):
    """Sparse LU factor of mat; a singular matrix raises error(message)."""
    try:
        return spla.splu(sp.csc_matrix(mat))
    except RuntimeError as exc:
        raise error(message or str(exc)) from exc


def _gram_factor(gram) -> sp.csc_matrix:
    """Banded upper Cholesky factor F of the Gram matrix, F^H F = gram, as CSC."""
    upper = sp.triu(gram, format="coo")
    band = int(np.max(upper.col - upper.row))
    ab = np.zeros((band + 1, gram.shape[0]), dtype=gram.dtype)
    ab[band + upper.row - upper.col, upper.col] = upper.data
    f = sla.cholesky_banded(ab, lower=False)
    return sp.dia_matrix((f, np.arange(band, -1, -1)), shape=gram.shape).tocsc()


def fd_resolvent_norm(op: SparseOperator, beta: float) -> float:
    """Energy-space norm of (i*beta - A_h)^{-1}.

    With F^H F = gram the norm is the largest singular value of
    F r^{-1} F^{-1} = F (F r)^{-1}, r = i*beta - A_h.  F r is factored
    once by sparse LU; ARPACK (svds) then needs one LU solve and one
    banded product per apply, from a fixed start vector.
    """
    n = op.dimension
    f = _gram_factor(op.gram)
    lu = _splu(f @ (1j * beta * sp.identity(n) - op.matrix), SingularShift,
               f"i*{beta} is in the spectrum")
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
    """Midpoint (box) collocation of (i*beta - B d/dx) W = G, sparse LU solve.

    Unknowns W(node p) sit at 2p, 2p + 1.  Row 0 is the damped condition
    (1, -1) W(0) = 0, rows 1 + 2q and 2 + 2q the two components on cell q,
    and the last row the clamped condition (1, 0) W(N) = 0.
    """
    cells = cfg.n_edges * m
    h = 1.0 / m
    size = 2 * cells + 2
    i0 = 2 * np.arange(cells)  # W_0 at the left node of each cell
    r = i0 + 1  # first of the two rows of each cell
    half = np.full(cells, 0.5j * beta)
    flux = np.full(cells, 1.0 / h)
    rho_h = np.repeat(cfg.densities, m) / h
    # row r:     i*beta*mean(W_0) + (W_1(left) - W_1(right)) / h = mean(G_0)
    # row r + 1: i*beta*mean(W_1) + rho (W_0(left) - W_0(right)) / h = mean(G_1)
    rows = np.concatenate([[0, 0], np.tile(r, 4), np.tile(r + 1, 4), [size - 1]])
    cols = np.concatenate([[0, 1], i0, i0 + 2, i0 + 1, i0 + 3, i0 + 1, i0 + 3, i0, i0 + 2,
                           [size - 2]])
    vals = np.concatenate([[1.0, -1.0], half, half, flux, -flux, half, half, rho_h, -rho_h, [1.0]])
    rhs = np.zeros(size, dtype=complex)
    rhs[1:-1] = np.concatenate([0.5 * (v[:-1] + v[1:]) for v in g.values]).ravel()
    sol = _splu(sp.coo_matrix((vals, (rows, cols)), shape=(size, size))).solve(rhs)
    return _nodes_to_chain(cfg, m, sol.reshape(-1, 2))


def _nodes_to_chain(cfg: ChainConfig, m: int, full: np.ndarray) -> ChainFunction:
    values = [full[j * m : (j + 1) * m + 1] for j in range(cfg.n_edges)]
    return ChainFunction(uniform_grids(cfg, m + 1), values)


def fd_bvp_solve(cfg: ChainConfig, lam: complex, data, which: str, m: int) -> ChainFunction:
    """Direct discretized solve of a two-point boundary-value problem.

    which = "wave":        data is a 2-vector ChainFunction G on the m-cell
                           grid; solves (i*beta - B d/dx) W = G with the box
                           scheme (lam = i*beta).
    which = "schrodinger": data is a scalar ChainFunction g on the m-cell
                           grid; solves (i*beta - A_h) u = g with the
                           generator of `fd_schrodinger_matrix`.
    which = "transfer":    data is the scalar input gain z; solves the
                           time-harmonic chain rho y'' = lam^2 y with
                           rho_0 y'(0) = z and clamped far end, returning y.
    A load off the m-cell grid raises GridMismatch.
    """
    if m < 8:
        raise TooCoarse("need at least 8 cells per edge")
    if which in ("wave", "schrodinger"):
        check_uniform_grid(data, cfg, m + 1)
    if which == "wave":
        return _box_scheme_wave(cfg, complex(lam).imag, data, m)
    if which == "schrodinger":
        op = fd_schrodinger_matrix(cfg, m)
        # node values; a joint takes its left edge's last sample, the clamped node is dropped
        rhs = np.concatenate([data.values[0]] + [v[1:] for v in data.values[1:]])[:-1]
        shifted = 1j * complex(lam).imag * sp.identity(op.dimension) - op.matrix
        return _nodes_to_chain(cfg, m, np.append(_splu(shifted).solve(rhs), 0.0))
    if which == "transfer":
        stiff, w = _stencil(cfg, m)
        # rho y'' - lam^2 y = 0 with Neumann input folded into node 0
        rhs = np.zeros(w.size, dtype=complex)
        rhs[0] = complex(data) / w[0]
        shifted = _rows_over(stiff, w) - complex(lam) ** 2 * sp.identity(w.size)
        return _nodes_to_chain(cfg, m, np.append(_splu(shifted).solve(rhs), 0.0))
    raise ValueError(f"unknown problem kind {which!r}")


def oracle_transfer_value(cfg: ChainConfig, lam: complex, m: int) -> complex:
    """Boundary output lam * y(0) of the discretized time-harmonic solve, unit input."""
    y = fd_bvp_solve(cfg, lam, 1.0, "transfer", m)
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
