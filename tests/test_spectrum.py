import numpy as np
import pytest

import stringchain as sc
from stringchain.errors import DeterminantOverflow, EmptyScan, NoConvergence
from stringchain.spectrum import count_roots_contour


def test_char_det_wave_unit_density_never_vanishes():
    cfg = sc.ChainConfig(densities=(1.0,))
    betas = np.linspace(-100, 100, 2001)
    vals = sc.char_det_wave(cfg, 1j * betas)
    assert np.allclose(np.abs(vals), 1.0, atol=1e-12)


def test_char_det_wave_conjugate_symmetry():
    cfg = sc.ChainConfig(densities=(1.0, 3.0, 0.5))
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-30, 30))
        a = sc.char_det_wave(cfg, lam)
        b = sc.char_det_wave(cfg, np.conj(lam))
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
        assert abs(sc.char_det_wave(cfg, z)) == pytest.approx(r, rel=0, abs=1e-15)
        assert r <= 1e-10


def test_imaginary_axis_gap_examples():
    assert sc.imaginary_axis_gap(
        sc.ChainConfig(densities=(1.0,)), "wave", (-200, 200), 1e-2
    ) == pytest.approx(1.0, abs=1e-12)
    assert sc.imaginary_axis_gap(
        sc.ChainConfig(densities=(4.0,)), "wave", (-200, 200), 1e-2
    ) == pytest.approx(0.5, abs=1e-6)


def test_imaginary_axis_gap_dominates_analytic_bound():
    rng = np.random.default_rng(4)
    for _ in range(5):
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.1, 10.0, 3)))
        gap = sc.imaginary_axis_gap(cfg, "wave", (-50, 50), 1e-3)
        ga, _ = sc.det_lower_bound(cfg, np.array([0.0]))
        assert gap >= ga - 1e-9
        assert gap > 0


def test_imaginary_axis_gap_empty_scan():
    with pytest.raises(EmptyScan):
        sc.imaginary_axis_gap(sc.ChainConfig(densities=(1.0,)), "wave", (0, 1), -1.0)


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
    from stringchain.chain_core import sample_function

    beta = 11.0
    g = sample_function(cfg, 1201, lambda x: np.ones_like(x, dtype=complex))
    sol = sc.schrodinger_resolvent(cfg, beta, g)
    a1, g1, _, _ = sol.alpha_gamma
    den = a1 + 1j * g1
    ratio1 = sc.char_det_schrodinger(cfg, 1j * beta) / den
    ratio2 = sc.char_det_schrodinger(cfg, 23.0j) / _denominator(cfg, 23.0)
    assert ratio1 == pytest.approx(ratio2, rel=1e-9)


def _denominator(cfg, beta):
    prod = np.eye(2, dtype=complex)
    for j in range(cfg.n_edges):
        prod = sc.schrodinger_step(cfg.densities[j], beta) @ prod
    return prod[0, 0] + 1j * prod[0, 1]


def test_schrodinger_roots_match_fd_spectrum():
    cfg = sc.ChainConfig(densities=(1.0,))
    eig = sc.find_eigenvalues(cfg, (-3, 0, 0.5, 30), "schrodinger", grid=(48, 128))
    assert eig.eigenvalues.size >= 2
    ev2 = np.linalg.eigvals(sc.fd_schrodinger_matrix(cfg, 200).matrix)
    ev4 = np.linalg.eigvals(sc.fd_schrodinger_matrix(cfg, 400).matrix)
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


def test_find_eigenvalues_grid_validation():
    cfg = sc.ChainConfig(densities=(1.0,))
    with pytest.raises(ValueError):
        sc.find_eigenvalues(cfg, (-1, 0, 0, 1), "wave", grid=(8, 8))


def test_strict_mode_reports_unrefined_candidates():
    cfg = sc.ChainConfig(densities=(0.25,))
    with pytest.raises(NoConvergence):
        sc.find_eigenvalues(cfg, (-1, 0, 0, 5), "wave", grid=(32, 64), tol=1e-30, strict=True)


def test_sorted_output_and_determinism():
    cfg = sc.ChainConfig(densities=(0.25,))
    a = sc.find_eigenvalues(cfg, (-1, 0, 0, 10), "wave", grid=(40, 120))
    b = sc.find_eigenvalues(cfg, (-1, 0, 0, 10), "wave", grid=(40, 120))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.all(np.diff(a.eigenvalues.imag) > 0)
