import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import stringchain as sc
from stringchain.chain_core import sample_function
from stringchain.errors import GridMismatch, SingularShift, TooCoarse
from stringchain.oracle import oracle_transfer_value, rel_l2_diff, resample_load
from stringchain.resolvent import random_probe


def test_fd_wave_matched_case_spectrum_stays_left():
    # unit density: the continuous damped generator has empty spectrum; the
    # discrete eigenvalues stay strictly in the left half plane at every m
    # (the least damped ones are grid-scale modes that approach the axis)
    cfg = sc.ChainConfig(densities=(1.0,))
    for m in (100, 200, 400):
        op = sc.fd_wave_matrix(cfg, m)
        ev = np.linalg.eigvals(op.matrix.toarray())
        assert ev.real.max() < 0


def test_fd_wave_eigenvalue_near_closed_form():
    # slow family tanh(lam / c) = -c: first mode -ln(3)/4 + i pi/2
    cfg = sc.ChainConfig(densities=(0.25,))
    target = -np.log(3.0) / 4.0 + 0.5j * np.pi
    op = sc.fd_wave_matrix(cfg, 400)
    ev = np.linalg.eigvals(op.matrix.toarray())
    assert np.min(np.abs(ev - target)) <= 1e-2


def test_fd_wave_spectrum_conjugation_symmetric():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    ev = np.linalg.eigvals(sc.fd_wave_matrix(cfg, 80).matrix.toarray())
    sel = ev[np.abs(ev.imag) > 1e-8]
    for z in sel[:50]:
        assert np.min(np.abs(ev - np.conj(z))) <= 1e-8 * max(1.0, abs(z))


def test_discrete_dissipativity_wave():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    op = sc.fd_wave_matrix(cfg, 60)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        val = np.real(np.vdot(x, op.gram @ (op.matrix @ x)))
        assert val <= 1e-10 * np.real(np.vdot(x, op.gram @ x))


def test_discrete_dissipativity_schrodinger():
    cfg = sc.ChainConfig(densities=(0.5, 2.0))
    op = sc.fd_schrodinger_matrix(cfg, 60)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        val = np.real(np.vdot(x, op.gram @ (op.matrix @ x)))
        assert val <= 1e-10 * np.real(np.vdot(x, op.gram @ x))


def test_fd_schrodinger_left_half_plane_and_convergence():
    cfg = sc.ChainConfig(densities=(1.0,))
    evs = {}
    for m in (100, 200, 400):
        ev = np.linalg.eigvals(sc.fd_schrodinger_matrix(cfg, m).matrix.toarray())
        assert ev.real.max() < 0
        evs[m] = ev
    # second-order convergence of the slowest mode
    target_sel = lambda ev: ev[np.argmin(np.abs(ev.imag - 2.87))]
    z1, z2, z4 = (target_sel(evs[m]) for m in (100, 200, 400))
    err1 = abs(z1 - z4)
    err2 = abs(z2 - z4)
    assert err1 / err2 >= 3.0


def test_dof_map_round_trip():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    op = sc.fd_wave_matrix(cfg, 16)
    assert len(op.dof_map) == op.dimension
    assert len(set(op.dof_map)) == op.dimension
    for row in (0, 7, op.dimension - 1):
        edge, k, comp = op.dof_map[row]
        assert op.index_of(edge, k, comp) == row


def test_fd_resolvent_norm_distance_band():
    # rough normal-operator heuristic: norm within x3 of 1/dist(i beta, spec)
    cfg = sc.ChainConfig(densities=(0.25,))
    op = sc.fd_wave_matrix(cfg, 300)
    ev = np.linalg.eigvals(op.matrix.toarray())
    for beta in (5.5, 20.0):
        dist = float(np.min(np.abs(1j * beta - ev)))
        nrm = sc.fd_resolvent_norm(op, beta)
        assert nrm <= 3.0 / dist
        assert nrm >= 1.0 / (3.0 * dist)


def _dense_resolvent_norm(op, beta):
    # reference: reciprocal smallest singular value of L^H r L^{-H}, L L^H = gram
    matrix, gram = (x.toarray() if sp.issparse(x) else x for x in (op.matrix, op.gram))
    r = 1j * beta * np.eye(op.dimension) - matrix
    chol = np.linalg.cholesky(gram)
    y = chol.conj().T @ r
    z = sla.solve_triangular(chol, y.conj().T, lower=True).conj().T
    return 1.0 / float(np.min(sla.svdvals(z)))


def test_fd_resolvent_norm_matches_dense_svd():
    # includes the smallest operator (1 edge, m = 8, dimension 16), where
    # ARPACK's Krylov space is clamped to the whole space
    cases = [
        (sc.fd_wave_matrix(sc.ChainConfig(densities=dens), m), beta)
        for dens in ((1.0,), (1.0, 4.0), (2.4871, 1.3332, 0.4111))
        for m in (8, 40, 100)
        for beta in (0.5, 10.0, 30.0, 100.0)
    ]
    schrodinger = sc.fd_schrodinger_matrix(sc.ChainConfig(densities=(1.0, 4.0)), 100)
    cases += [(schrodinger, beta) for beta in (-20.0, 5.0, 50.0)]
    assert min(op.dimension for op, _ in cases) == 16
    for op, beta in cases:
        ref = _dense_resolvent_norm(op, beta)
        assert abs(sc.fd_resolvent_norm(op, beta) - ref) <= 1e-10 * ref


def test_fd_resolvent_norm_small_operator_with_full_gram():
    # below ARPACK's minimum size, and a Gram matrix that is not tridiagonal
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 6):
        b = rng.standard_normal((n, n))
        op = sc.SparseOperator(
            matrix=-np.eye(n) + 0.3 * rng.standard_normal((n, n)),
            dof_map=[(0, k, "u") for k in range(n)],
            gram=b @ b.T + n * np.eye(n),
        )
        ref = _dense_resolvent_norm(op, 1.3)
        assert abs(sc.fd_resolvent_norm(op, 1.3) - ref) <= 1e-10 * ref


def test_fd_resolvent_norm_singular_shift():
    op = sc.SparseOperator(
        matrix=np.diag([2j, -1 + 3j]),
        dof_map=[(0, 0, "u"), (0, 1, "u")],
        gram=np.eye(2),
    )
    with pytest.raises(SingularShift):
        sc.fd_resolvent_norm(op, 2.0)


def test_fd_resolvent_norm_repeatable():
    op = sc.fd_wave_matrix(sc.ChainConfig(densities=(1.0, 4.0)), 40)
    for beta in (0.5, 30.0):
        assert sc.fd_resolvent_norm(op, beta) == sc.fd_resolvent_norm(op, beta)


def test_fd_bvp_zero_data():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    g = sc.ChainFunction(
        [np.linspace(0, 1, 101), np.linspace(1, 2, 101)],
        [np.zeros((101, 2), complex), np.zeros((101, 2), complex)],
    )
    w = sc.fd_bvp_solve(cfg, 2.0j, g, "wave", 100)
    assert max(np.max(np.abs(v)) for v in w.values) == 0.0


def test_fd_bvp_transfer_closed_form():
    cfg = sc.ChainConfig(densities=(1.0,))
    val = oracle_transfer_value(cfg, 1.0, 2000)
    assert abs(val - (-np.tanh(1.0))) <= 1e-3


def test_fd_bvp_schrodinger_matches_matrix_solve():
    # the sparse solve must gather the load onto the nodes and scatter the
    # solution back along dof_map as a dense solve of the same generator does
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    m = 100
    g = random_probe(cfg, [np.linspace(j, j + 1, m + 1) for j in range(2)], seed=5, arity=1)
    u = sc.fd_bvp_solve(cfg, 9.0j, g, "schrodinger", m)
    op = sc.fd_schrodinger_matrix(cfg, m)
    rhs = np.zeros(op.dimension, dtype=complex)
    for row, (edge, k, comp) in enumerate(op.dof_map):
        rhs[row] = g.values[edge][k]
    dense = np.linalg.solve(1j * 9.0 * np.eye(op.dimension) - op.matrix.toarray(), rhs)
    stacked = np.empty(op.dimension, dtype=complex)
    for row, (edge, k, comp) in enumerate(op.dof_map):
        stacked[row] = u.values[edge][k]
    assert np.max(np.abs(stacked - dense)) <= 1e-10 * np.max(np.abs(dense))


# a (1, 2) load at m = 8 needs the 9 points of linspace(j, j + 1, 9) on each edge
_EDGE0 = np.linspace(0, 1, 9)
_UNEVEN = np.linspace(1, 2, 9)
_UNEVEN[4] += 1e-6


@pytest.mark.parametrize("which", ["wave", "schrodinger"])
@pytest.mark.parametrize("grids", [
    pytest.param([_EDGE0, np.linspace(1, 2, 13)], id="edge1-13-points"),
    pytest.param([_EDGE0, np.linspace(1, 2, 5)], id="edge1-5-points"),
    pytest.param([_EDGE0, _UNEVEN], id="edge1-uneven"),
    pytest.param([_EDGE0], id="one-edge"),
])
def test_fd_bvp_rejects_load_off_the_grid(grids, which):
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    values = [np.ones((x.size, 2) if which == "wave" else x.size, complex) for x in grids]
    with pytest.raises(GridMismatch):
        sc.fd_bvp_solve(cfg, 3.0j, sc.ChainFunction(grids, values), which, 8)


def test_fd_resolvent_norm_converges_at_second_order():
    # successive differences of the norm shrink fourfold as m doubles; the
    # largest operator (4 edges, m = 3200) has 25,600 unknowns
    cases = [
        (sc.fd_wave_matrix, (1.0, 2.0), 10.0, (200, 400, 800, 1600, 3200)),
        (sc.fd_wave_matrix, (2.092, 1.0, 1.674, 3.416), 30.0, (200, 400, 800, 1600, 3200)),
        (sc.fd_schrodinger_matrix, (1.0, 4.0), 50.0, (100, 200, 400, 800, 1600)),
    ]
    for build, dens, beta, ms in cases:
        norms = []
        for m in ms:
            op = build(sc.ChainConfig(densities=dens), m)
            assert op.matrix.nnz <= 4 * op.dimension
            norms.append(sc.fd_resolvent_norm(op, beta))
        diffs = np.diff(norms)
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((ratios >= 3.5) & (ratios <= 4.5)), (dens, ratios)


def test_fd_too_coarse():
    cfg = sc.ChainConfig(densities=(1.0,))
    with pytest.raises(TooCoarse):
        sc.fd_wave_matrix(cfg, 4)
    with pytest.raises(TooCoarse):
        oracle_transfer_value(cfg, 1.0, 4)
    with pytest.raises(ValueError, match="unknown problem kind"):
        sc.fd_bvp_solve(cfg, 1.0j, None, "transfer", 4)


@pytest.mark.parametrize("arity", [1, 2])
def test_rel_l2_diff_and_resample_load_on_linear_data(arity):
    # linear interpolation is exact on linear data, so both helpers must be too
    cfg = sc.ChainConfig(densities=(1.0, 2.0))

    def fn(x):
        f = (1.0 + 2.0j) * x + 3.0
        return f if arity == 1 else np.stack([f, -2.0 * f], axis=1)

    a = sample_function(cfg, 101, fn, arity)
    b = sample_function(cfg, 37, lambda x: 1.1 * fn(x), arity)
    assert rel_l2_diff(a, b) == pytest.approx(0.1, rel=1e-12)
    assert rel_l2_diff(a, a) == 0.0
    r = resample_load(cfg, a, 16)
    assert r.arity == arity
    for x, v in zip(r.grids, r.values):
        assert np.array_equal(x, np.linspace(x[0], x[-1], 17))
        assert np.allclose(v, fn(x), rtol=0, atol=1e-13)


def test_a_shift_numerically_in_the_spectrum_is_refused():
    # A - i beta has a pivot of 1e-16: LU accepts it, the norm is 1e16
    beta = 2.0
    ident = sp.identity(4, dtype=complex, format="csc")
    matrix = sp.diags([1j * beta - 1e-16, -1.0, -2.0, -3.0]).tocsc()
    op = sc.SparseOperator(matrix, [(0, k, "u") for k in range(4)], ident)
    with pytest.raises(SingularShift, match="numerically in the spectrum"):
        sc.fd_resolvent_norm(op, beta)


def test_fd_bvp_solve_needs_eight_cells_per_edge():
    cfg = sc.ChainConfig((1.0, 4.0))
    g = sample_function(cfg, 8, lambda x: np.ones_like(x, dtype=complex))
    with pytest.raises(TooCoarse, match="at least 8 cells"):
        sc.fd_bvp_solve(cfg, 3.0j, g, "schrodinger", 7)
