import numpy as np
import pytest

import stringchain as sc
from stringchain.errors import DeterminantOverflow, EmptyScan
from stringchain.chain_core import uniform_betas, uniform_grids
from stringchain.resolvent import _OscillatoryPlan
from stringchain.spectrum import _modulus, axis_bounds, count_roots_contour
from stringchain.transfer_function import transfer_values
from stringchain.transfer_matrix import analytic_gap_bound, edge_entries


def test_char_det_wave_unit_density_never_vanishes():
    cfg = sc.ChainConfig(densities=(1.0,))
    betas = np.linspace(-100, 100, 2001)
    vals = sc.det_pair(cfg, 1j * betas).d
    assert np.allclose(np.abs(vals), 1.0, atol=1e-12)


def test_char_det_wave_conjugate_symmetry():
    cfg = sc.ChainConfig(densities=(1.0, 3.0, 0.5))
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-30, 30))
        a = sc.det_pair(cfg, lam).d
        b = sc.det_pair(cfg, np.conj(lam)).d
        assert abs(np.conj(a) - b) <= 1e-12 * max(1.0, abs(a))


def test_known_roots_quarter_density():
    # closed form tanh(lam / c) = -c with c = 1/2
    cfg = sc.ChainConfig(densities=(0.25,))
    eig = sc.find_eigenvalues(cfg, (-1, 0, 0, 10), "wave", grid=(48, 160))
    assert eig.eigenvalues.size == 7
    re_expect = -np.log(3.0) / 4.0
    assert np.max(np.abs(eig.eigenvalues.real - re_expect)) <= 1e-8
    spacings = np.diff(eig.eigenvalues.imag)
    assert np.max(np.abs(spacings - np.pi / 2)) <= 1e-8
    assert eig.abscissa == pytest.approx(re_expect, abs=1e-8)
    assert not eig.failures


def test_matched_chain_has_no_roots():
    cfg = sc.ChainConfig(densities=(1.0,))
    eig = sc.find_eigenvalues(cfg, (-3, 0, 0, 40), "wave", grid=(48, 160))
    assert eig.eigenvalues.size == 0
    assert eig.abscissa is None


def test_two_edge_roots_match_reflection_formula():
    # tanh(lam / 2) = -2: roots -ln 3 + (2k-1) pi i
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    eig = sc.find_eigenvalues(cfg, (-2, 0, 0, 30), "wave", grid=(48, 160))
    assert eig.eigenvalues.size == 5
    assert np.max(np.abs(eig.eigenvalues.real + np.log(3.0))) <= 1e-8
    expected_im = np.pi * np.arange(1, 10, 2)
    assert np.max(np.abs(eig.eigenvalues.imag - expected_im)) <= 1e-7


def test_root_residuals_reproducible():
    cfg = sc.ChainConfig(densities=(0.25,))
    eig = sc.find_eigenvalues(cfg, (-1, 0, 0, 5), "wave", grid=(32, 64))
    for z, r in zip(eig.eigenvalues, eig.residuals):
        assert abs(sc.det_pair(cfg, z).d) == pytest.approx(r, rel=0, abs=1e-15)
        assert r <= 1e-10


def test_imaginary_axis_gap_examples():
    assert sc.imaginary_axis_gap(
        sc.ChainConfig(densities=(1.0,)), "wave", (-200, 200), 1e-2
    ).value == pytest.approx(1.0, abs=1e-12)
    assert sc.imaginary_axis_gap(
        sc.ChainConfig(densities=(4.0,)), "wave", (-200, 200), 1e-2
    ).value == pytest.approx(0.5, abs=1e-6)


def test_imaginary_axis_gap_dominates_analytic_bound():
    rng = np.random.default_rng(4)
    for _ in range(5):
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.1, 10.0, 3)))
        gap = sc.imaginary_axis_gap(cfg, "wave", (-50, 50), 1e-3).value
        ga = analytic_gap_bound(cfg)
        assert gap >= ga - 1e-9
        assert gap > 0


def test_imaginary_axis_gap_empty_scan():
    cfg = sc.ChainConfig(densities=(1.0,))
    for beta_range, step in [((0, 1), -1.0), ((-1, 1), np.inf), ((-1, 1), np.nan),
                             ((0, np.nan), 0.1), ((-np.inf, 1), 0.1), ((0, np.inf), 0.1)]:
        with pytest.raises(EmptyScan):
            sc.imaginary_axis_gap(cfg, "wave", beta_range, step)


def _bound_chains():
    rng = np.random.default_rng(21)
    chains = [pytest.param((1.0,), id="matched-1"), pytest.param((1.0, 1.0, 1.0), id="matched-3"),
              pytest.param((1.0, 1.01), id="near-matched")]
    return chains + [pytest.param(tuple(rng.uniform(0.25, 4.0, n)), id=f"random-{n}")
                     for n in range(1, 9)]


@pytest.mark.parametrize("densities", _bound_chains())
def test_axis_bounds_hold_on_a_fine_scan(densities):
    # |D| <= m0, and the second difference of g = |D|^2 is g'' at some point of
    # [beta - h, beta + h], so it obeys |g''| <= M up to g's rounding (4 e / h^2)
    cfg = sc.ChainConfig(densities=densities)
    h = 1e-3
    betas = uniform_betas((-200.0, 200.0), h)
    d = np.abs(sc.det_pair(cfg, 1j * betas).d)
    m0, curv, allowance = axis_bounds(cfg, 200.0)
    assert np.max(d) <= m0 * (1 + 1e-12)
    g = d * d
    second = np.abs(g[2:] - 2.0 * g[1:-1] + g[:-2]) / (h * h)
    assert np.max(second) <= curv + 4.0 * allowance / (h * h)
    if densities in ((1.0,), (1.0, 1.0, 1.0)):
        assert curv == 0.0  # matched: every path has the same travel time


def _mp_g(densities, beta):
    """|D(i beta)|^2 at 50 digits: the start (1, 1) through the exact edge matrices."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = b = mpmath.mpc(1)
        for rho in densities:
            c = mpmath.sqrt(mpmath.mpf(rho))
            t = mpmath.mpf(beta) / c
            cs, sn = mpmath.cos(t), 1j * mpmath.sin(t)
            a, b = cs * a + sn / c * b, c * sn * a + cs * b
        return float(abs(a) ** 2)


def test_rounding_allowance_covers_the_error_of_g():
    rng = np.random.default_rng(22)
    for densities in [(4.0,), (0.5, 3.0, 1.5), tuple(rng.uniform(0.25, 4.0, 8))]:
        cfg = sc.ChainConfig(densities=densities)
        betas = np.concatenate([rng.uniform(-200.0, 200.0, 40), rng.uniform(-1e4, 1e4, 5)])
        g = np.abs(sc.det_pair(cfg, 1j * betas).d) ** 2
        for beta, value in zip(betas, g):
            assert abs(value - _mp_g(densities, beta)) <= axis_bounds(cfg, abs(beta))[2]


def _brute_force_min(cfg, h=1e-7):
    """min |D(i beta)| on [-200, 200]: a 1e-3 scan, then step h around each of its
    local minima within 1e-3 of its smallest."""
    betas = uniform_betas((-200.0, 200.0), 1e-3)
    d = np.abs(sc.det_pair(cfg, 1j * betas).d)
    dips = np.flatnonzero((d[1:-1] <= d[:-2]) & (d[1:-1] <= d[2:])) + 1
    best = np.inf
    for k in dips[d[dips] <= np.min(d) * (1 + 1e-3)]:
        fine = betas[k] + h * np.arange(-20_000, 20_001)
        best = min(best, float(np.min(np.abs(sc.det_pair(cfg, 1j * fine).d))))
    return best


@pytest.mark.parametrize("densities", [(0.5, 3.0, 1.5),
                                       tuple(np.random.default_rng(5).uniform(0.25, 4.0, 8))],
                         ids=["3-edge", "8-edge"])
def test_certified_gap_finds_the_minimum_between_grid_points(densities):
    cfg = sc.ChainConfig(densities=densities)
    found = sc.imaginary_axis_gap(cfg, "wave", (-200.0, 200.0), 1e-3, 100)
    assert found.certified and found.open_cells == 0
    rows = np.abs(found.first.d)
    assert found.value < np.min(rows)  # the minimum lies between the 0.1-spaced rows
    brute = _brute_force_min(cfg)
    _, curv, allowance = axis_bounds(cfg, 200.0)
    # the brute force itself lies up to M h^2 / 8 (in g) above the window minimum
    slack = (allowance + curv * 1e-14 / 8.0) / (2.0 * brute)
    assert abs(found.value - brute) <= 1e-12 * brute + slack
    assert found.lower <= brute <= np.min(rows)
    assert found.value >= analytic_gap_bound(cfg) - 1e-9


@pytest.mark.parametrize("densities", [(1.0,), (1.0, 1.0, 1.0)], ids=["matched-1", "matched-3"])
def test_certified_gap_of_matched_chains_ends_in_round_one(densities):
    # M = 0 closes every cell at once; the global curvature bound 4 T^2 L0^2
    # would never close a cell on which |D| is constant
    found = sc.imaginary_axis_gap(sc.ChainConfig(densities=densities), "wave",
                                  (-200.0, 200.0), 1e-3, 100)
    assert found.certified
    assert found.rounds == 1 and found.lambdas == found.rows.size == 4001
    assert found.value == pytest.approx(1.0, abs=1e-12)


def test_certified_gap_of_an_eight_edge_chain_is_cheap():
    # the rounding allowance sits in the split threshold as well as in the lower
    # bound; on one side only, the cells at the minimum would never close
    cfg = sc.ChainConfig(densities=tuple(np.random.default_rng(5).uniform(0.25, 4.0, 8)))
    found = sc.imaginary_axis_gap(cfg, "wave", (-200.0, 200.0), 1e-3, 100)
    assert found.certified and found.lambdas <= 50_000


def test_certified_gap_reports_cells_it_cannot_close():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    # at 1e15 the floats are 0.125 apart: no cell of the first grid can be split
    found = sc.imaginary_axis_gap(cfg, "wave", (1e15, 1e15 + 4.0), 0.125)
    assert not found.certified and found.lower is None
    assert found.open_cells >= 1 and found.rounds == 1 and found.lambdas == 33
    # a curvature bound far above the true one would open ever more cells: the
    # search stops at its split budget instead
    cfg = sc.ChainConfig(densities=(1e-4, 1e4, 1e-4))
    found = sc.imaginary_axis_gap(cfg, "wave", (-200.0, 200.0), 1e-3, 100)
    assert not found.certified and found.open_cells > 0
    assert found.lambdas <= found.rows.size + 400_000


def test_schrodinger_gap_is_sampled():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    found = sc.imaginary_axis_gap(cfg, "schrodinger", (-20.0, 20.0), 1e-2, 10)
    betas = uniform_betas((-20.0, 20.0), 1e-2)
    assert not found.certified
    assert np.array_equal(found.first, sc.char_det_schrodinger(cfg, 1j * found.rows))
    assert found.lambdas == betas.size and np.array_equal(found.rows, betas[::10])
    assert found.value == np.min(np.abs(sc.char_det_schrodinger(cfg, 1j * betas)))


def _random_chains(count, seed):
    """Chains of 1-8 edges with densities U[0.25, 4], as the benchmark draws them."""
    rng = np.random.default_rng(seed)
    return [sc.ChainConfig(tuple(rng.uniform(0.25, 4.0, rng.integers(1, 9))))
            for _ in range(count)]


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


def test_schrodinger_gap_rows_equal_a_fresh_evaluation():
    # det_scan.csv takes the rows from the 400,001-point scan instead of
    # evaluating them again: every 100th value of the scan, bit for bit
    for cfg in _random_chains(6, 2024):
        found = sc.imaginary_axis_gap(cfg, "schrodinger", (-200.0, 200.0), 1e-3, 100)
        assert found.rows.size == found.first.size == 4001
        fresh = sc.char_det_schrodinger(cfg, 1j * found.rows)
        assert np.array_equal(_bits(found.first), _bits(fresh))


def test_modulus_is_python_abs_bit_for_bit():
    # the abs_D and abs_H columns: the det_scan rows and the transfer-scan rows
    # at the CLI's defaults
    rows = uniform_betas((-200.0, 200.0), 1e-3)[::100]
    line = 1.0 + 1j * uniform_betas((-50.0, 50.0), 0.01)
    for cfg in _random_chains(40, 2024):
        for z in (sc.det_pair(cfg, 1j * rows).d, transfer_values(cfg, line)):
            assert np.array_equal(_bits(_modulus(z)), _bits(np.array([abs(v) for v in z])))


def test_schrodinger_det_normalization_and_axis():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    assert sc.char_det_schrodinger(cfg, 1.0 + 0.0j) == pytest.approx(1.0)
    betas = np.linspace(-200, 200, 40001)
    vals = sc.char_det_schrodinger(cfg, 1j * betas)
    assert np.min(np.abs(vals)) > 0


def test_schrodinger_det_matches_resolvent_denominator():
    # on the positive imaginary axis the closure reproduces the closed-form
    # denominator up to the fixed normalization constant
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    beta = 11.0
    den = _denominator(cfg, beta)
    plan = _OscillatoryPlan(cfg, beta, uniform_grids(cfg, 1201), "schrodinger")
    assert plan.den == pytest.approx(den, rel=1e-12)
    ratio1 = sc.char_det_schrodinger(cfg, 1j * beta) / den
    ratio2 = sc.char_det_schrodinger(cfg, 23.0j) / _denominator(cfg, 23.0)
    assert ratio1 == pytest.approx(ratio2, rel=1e-9)


def _denominator(cfg, beta):
    prod = np.eye(2, dtype=complex)
    for j in range(cfg.n_edges):
        ch, s12, s21 = edge_entries(cfg.densities[j], 1j * beta, "schrodinger")
        prod = np.array([[ch, s12], [s21, ch]], dtype=complex) @ prod
    return prod[0, 0] + 1j * prod[0, 1]


def test_schrodinger_roots_match_fd_spectrum():
    cfg = sc.ChainConfig(densities=(1.0,))
    eig = sc.find_eigenvalues(cfg, (-3, 0, 0.5, 30), "schrodinger", grid=(48, 128))
    assert eig.eigenvalues.size >= 2
    ev2 = np.linalg.eigvals(sc.fd_schrodinger_matrix(cfg, 200).matrix.toarray())
    ev4 = np.linalg.eigvals(sc.fd_schrodinger_matrix(cfg, 400).matrix.toarray())
    for z in eig.eigenvalues:
        m2 = ev2[np.argmin(np.abs(ev2 - z))]
        m4 = ev4[np.argmin(np.abs(ev4 - z))]
        rich = m4 + (m4 - m2) / 3.0
        assert abs(rich - z) <= 1e-2


def test_schrodinger_root_has_rank_deficient_closure():
    cfg = sc.ChainConfig(densities=(1.0,))
    eig = sc.find_eigenvalues(cfg, (-3, 0, 0.5, 10), "schrodinger", grid=(32, 64))
    z = eig.eigenvalues[0]
    assert abs(sc.char_det_schrodinger(cfg, z)) <= 1e-10


def test_winding_number_counts_roots():
    cfg = sc.ChainConfig(densities=(0.25,))
    assert count_roots_contour(cfg, (-0.5, -0.05, 0.3, 3.5), "wave") == 2
    eig = sc.find_eigenvalues(cfg, (-0.5, -0.05, 0.3, 3.5), "wave", grid=(32, 64), audit=True)
    assert eig.audit_count == len(eig.eigenvalues) == 2


@pytest.mark.parametrize("grid", [(64, 64), (128, 384)])
def test_near_matched_roots_are_found(grid):
    # a nearly matched damped end (rho_0 = 0.996) puts roots far left, where
    # |D| is large even close to them: only its phase shows where they are
    cfg = sc.ChainConfig(densities=(0.996, 2.996, 1.445, 2.361, 2.847, 3.837, 1.495))
    rect = (-3.0, 0.0, -0.158, 7.722)
    eig = sc.find_eigenvalues(cfg, rect, "wave", grid=grid)
    assert not eig.failures
    assert eig.eigenvalues.size == count_roots_contour(cfg, eig.search_rect, "wave") == 13


def test_far_left_overflow_is_flagged():
    # cosh(lam / c_0) overflows for Re lam below about -710 c_0
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    rect = (-820.0, -780.0, 0.0, 10.0)
    with pytest.raises(DeterminantOverflow):
        count_roots_contour(cfg, rect, "wave")
    with pytest.raises(DeterminantOverflow):
        sc.find_eigenvalues(cfg, rect, "wave")
    # just past |Re lam| / c = 710.48 cosh(Re z) overflows, so the edge kernel's
    # split products do, even where np.cosh of the complex z would still be finite
    with pytest.raises(DeterminantOverflow):
        sc.find_eigenvalues(sc.ChainConfig(densities=(100.0,)), (-7105.0, -7104.9, 7.6, 8.1), "wave")


def test_contour_count_near_float_max_is_finite():
    # the determinant is finite but near the float maximum on this contour;
    # a ratio of neighbouring values overflows there (a RuntimeWarning, which
    # the suite turns into an error), the wrapped phase steps do not
    cfg = sc.ChainConfig(densities=(100.0,))
    rect = (-7104.5, -7104.0, 7.6, 8.1)
    assert count_roots_contour(cfg, rect, "wave") == 0
    assert sc.find_eigenvalues(cfg, rect, "wave").eigenvalues.size == 0


def test_find_eigenvalues_grid_validation():
    cfg = sc.ChainConfig(densities=(1.0,))
    with pytest.raises(ValueError):
        sc.find_eigenvalues(cfg, (-1, 0, 0, 1), "wave", grid=(8, 8))


def test_unrefined_candidates_are_reported_in_failures():
    # no root refines to |det| <= 1e-30: every winding cell is a reported failure
    cfg = sc.ChainConfig(densities=(0.25,))
    eig = sc.find_eigenvalues(cfg, (-1, 0, 0, 5), "wave", grid=(32, 64), tol=1e-30)
    assert len(eig.failures) == 3
    for f in eig.failures:
        assert set(f) == {"start", "last", "residual"}
        assert f["residual"] > 1e-30


def test_sorted_output_and_determinism():
    cfg = sc.ChainConfig(densities=(0.25,))
    a = sc.find_eigenvalues(cfg, (-1, 0, 0, 10), "wave", grid=(40, 120))
    b = sc.find_eigenvalues(cfg, (-1, 0, 0, 10), "wave", grid=(40, 120))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.all(np.diff(a.eigenvalues.imag) > 0)


def test_returned_roots_are_polished():
    # |D'| ~ 2.5e-3 at some of these roots, so stopping at |D| <= tol = 1e-10
    # would leave them ~4e-8 off; one more Newton step pins them to rounding
    cfg = sc.ChainConfig(densities=(0.26089984506670477, 0.28204839091628886, 2.567994512784701,
                                    1.4871171423842806, 1.212499322468965, 1.9725201289819176,
                                    2.6142540536888212))
    eig = sc.find_eigenvalues(cfg, (-3.0, 0.0, -0.5, 4.8060374193031086), "schrodinger",
                              grid=(160, 768))
    assert eig.eigenvalues.size > 0 and not eig.failures
    f = sc.char_det_schrodinger
    for z0 in eig.eigenvalues:
        z = z0
        for _ in range(6):  # further central-difference Newton steps
            h = 1e-7 * (1.0 + abs(z))
            z = z - f(cfg, z) * (2 * h) / (f(cfg, z + h) - f(cfg, z - h))
        assert abs(z - z0) <= 1e-12
