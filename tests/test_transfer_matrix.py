import numpy as np
import pytest
from scipy.linalg import expm

import stringchain as sc
from stringchain.errors import EmptyScan, NonPositiveBeta, NonPositiveDensity
from stringchain.transfer_function import transfer_det_pair, transfer_values
from stringchain.transfer_matrix import analytic_gap_bound, propagate


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def test_exp_osc_values():
    assert np.allclose(sc.exp_osc(1.0, 0.0, 1.0), np.eye(2), atol=1e-15)
    assert np.allclose(sc.exp_osc(1.0, np.pi, 1.0), -np.eye(2), atol=1e-12)
    expected = np.array([[0.0, 0.5j], [2.0j, 0.0]])
    assert np.allclose(sc.exp_osc(4.0, np.pi, 1.0), expected, atol=1e-12)


def test_exp_hyp_values():
    assert np.allclose(sc.exp_hyp(1.0, 0.0, 1.0), np.eye(2), atol=1e-15)
    m = sc.exp_hyp(1.0, 1.0, 1.0)
    expected = np.array([[np.cosh(1), np.sinh(1)], [np.sinh(1), np.cosh(1)]])
    assert np.allclose(m, expected, atol=1e-14)
    assert np.allclose(sc.exp_hyp(1.0, 1j * np.pi, 1.0), sc.exp_osc(1.0, np.pi, 1.0), atol=1e-13)


def test_exponentials_reject_bad_density():
    with pytest.raises(NonPositiveDensity):
        sc.exp_osc(0.0, 1.0, 1.0)
    with pytest.raises(NonPositiveDensity):
        sc.exp_hyp(-2.0, 1.0, 1.0)


def test_unimodularity_random():
    # operating envelope: |Re(lam) x / c| stays small enough for float dets
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rho = rng.uniform(0.25, 4.0)
        beta = rng.uniform(-50, 50)
        x = rng.uniform(-1, 1)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-50, 50))
        assert abs(_det2(sc.exp_osc(rho, beta, x)) - 1) <= 1e-12
        assert abs(_det2(sc.exp_hyp(rho, lam, x)) - 1) <= 1e-12


def test_continuation_identity_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        rho = rng.uniform(0.25, 4.0)
        beta = rng.uniform(-50, 50)
        x = rng.uniform(-1, 1)
        diff = np.max(np.abs(sc.exp_hyp(rho, 1j * beta, x) - sc.exp_osc(rho, beta, x)))
        worst = max(worst, diff)
    assert worst <= 1e-13


def test_group_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = rng.uniform(0.25, 4.0)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-10, 10))
        x, y = rng.uniform(-1, 1, 2)
        lhs = sc.exp_hyp(rho, lam, x + y)
        rhs = sc.exp_hyp(rho, lam, x) @ sc.exp_hyp(rho, lam, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_boundary_matrices_single_edge():
    cfg = sc.ChainConfig(densities=(1.0,))
    beta = 0.73
    h, ht = sc.boundary_matrices(cfg, 1j * beta)
    row1 = np.array([np.cos(beta) + 1j * np.sin(beta), -np.cos(beta) - 1j * np.sin(beta)])
    assert np.allclose(h[0], row1, atol=1e-14)
    # single edge: the anchor already sits at the clamped end
    assert np.allclose(h[1], [1.0, 0.0], atol=1e-15)
    assert np.allclose(ht[1], [0.0, 1.0], atol=1e-15)


def test_boundary_matrices_two_edges_lambda_zero():
    cfg = sc.ChainConfig(densities=(1.0, 1.0))
    h, _ = sc.boundary_matrices(cfg, 0.0)
    assert np.allclose(h, np.array([[1.0, -1.0], [1.0, 0.0]]), atol=1e-15)


def test_det_pair_single_edge_axis():
    # |D_0| = 1 for unit density; D_0 traces the unit circle
    cfg = sc.ChainConfig(densities=(1.0,))
    betas = np.linspace(-20, 20, 101)
    pair = sc.det_pair(cfg, 1j * betas)
    assert np.allclose(np.abs(pair.d), 1.0, atol=1e-13)
    assert np.allclose(pair.d, np.exp(1j * betas), atol=1e-13)


def test_det_pair_identity_on_axis():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.1, 10.0, n)))
        betas = rng.uniform(-100, 100, 64)
        ident = sc.det_pair(cfg, 1j * betas).identity_value
        assert np.max(np.abs(ident - 1.0)) <= 1e-10


def test_det_pair_matches_boundary_matrices():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 6):
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.2, 5.0, n)))
        for _ in range(8):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-40, 40))
            h, ht = sc.boundary_matrices(cfg, lam)
            pair = sc.det_pair(cfg, lam)
            scale = max(1.0, abs(pair.d))
            assert abs(_det2(h) - pair.d) <= 1e-10 * scale
            assert abs(_det2(ht) - pair.d_tilde) <= 1e-10 * max(1.0, abs(pair.d_tilde))


def test_det_pair_right_half_plane_lower_bound():
    # Re(D conj(D~)) >= prod cosh(2 gamma / c_n) * sinh(2 gamma / c_0) / 2
    rng = np.random.default_rng(13)
    for n in (1, 3, 5):
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.2, 5.0, n)))
        c = cfg.wave_speeds
        for gamma in (0.5, 1.0, 2.0):
            betas = rng.uniform(-50, 50, 128)
            ident = sc.det_pair(cfg, gamma + 1j * betas).identity_value
            bound = 0.5 * np.sinh(2 * gamma / c[0]) * np.prod(np.cosh(2 * gamma / c[1:]))
            assert np.all(ident >= bound - 1e-9 * abs(bound))


def test_det_pair_single_edge_off_axis():
    cfg = sc.ChainConfig(densities=(1.0,))
    pair = sc.det_pair(cfg, 1.0)
    assert pair.d == pytest.approx(np.e, rel=1e-14)
    # damped closure: identity value cosh 2 + sinh 2 = e^2, above sinh(2)/2
    assert pair.identity_value == pytest.approx(np.exp(2.0), rel=1e-14)
    assert pair.identity_value >= 0.5 * np.sinh(2.0)


def test_det_lower_bound_examples():
    betas = np.arange(-50.0, 50.0, 1e-3)
    ga, gn = sc.det_lower_bound(sc.ChainConfig(densities=(1.0,)), betas)
    assert ga == pytest.approx(1.0, abs=1e-12)
    assert gn == pytest.approx(1.0, abs=1e-9)
    ga4, gn4 = sc.det_lower_bound(sc.ChainConfig(densities=(4.0,)), betas)
    assert gn4 == pytest.approx(0.5, abs=1e-6)
    assert ga4 == pytest.approx(0.5, abs=1e-12)
    ga2, gn2 = sc.det_lower_bound(sc.ChainConfig(densities=(1.0, 2.0)), betas)
    assert gn2 > 0
    assert gn2 >= ga2 - 1e-9


def test_det_lower_bound_random_configs():
    rng = np.random.default_rng(23)
    betas = np.arange(-50.0, 50.0, 1e-3)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.1, 10.0, n)))
        ga, gn = sc.det_lower_bound(cfg, betas)
        assert gn > 0
        assert gn >= ga - 1e-9


def test_det_lower_bound_empty_scan():
    with pytest.raises(EmptyScan):
        sc.det_lower_bound(sc.ChainConfig(densities=(1.0,)), np.array([]))


def test_analytic_gap_bound_single_edge():
    assert analytic_gap_bound(sc.ChainConfig(densities=(1.0,))) == pytest.approx(1.0)
    assert analytic_gap_bound(sc.ChainConfig(densities=(4.0,))) == pytest.approx(0.5)


def test_schrodinger_step_values():
    m = sc.schrodinger_step(1.0, np.pi**2)
    assert np.allclose(m, -np.eye(2), atol=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(100):
        rho = rng.uniform(0.1, 10.0)
        beta = rng.uniform(1e-3, 1e4)
        assert abs(_det2(sc.schrodinger_step(rho, beta)) - 1.0) <= 1e-12


def test_schrodinger_step_small_beta_limit():
    m = sc.schrodinger_step(1.0, 1e-12)
    assert np.allclose(m, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-6)


def test_schrodinger_step_rejects_bad_beta():
    with pytest.raises(NonPositiveBeta):
        sc.schrodinger_step(1.0, 0.0)
    with pytest.raises(NonPositiveBeta):
        sc.schrodinger_step(1.0, -1.0)


def _expm_product(densities, generator):
    """E_{N-1} ... E_0 with each edge's propagator taken by scipy's expm."""
    prod = np.eye(2, dtype=complex)
    for rho in densities:
        prod = expm(generator(rho)) @ prod
    return prod


def test_kernel_matches_expm_products():
    # wave: exp(lam B^{-1}) with B = [[0, 1], [rho, 0]]; Schrodinger: the
    # first-order form (u, rho u')' = [[0, 1/rho], [i lam, 0]] (u, rho u')
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(300):
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.25, 4.0, int(rng.integers(1, 7)))))
        lam = complex(rng.uniform(-3, 3), rng.uniform(-40, 40))
        wave = _expm_product(cfg.densities, lambda r: lam * np.array([[0, 1 / r], [1, 0]]))
        schr = _expm_product(cfg.densities, lambda r: np.array([[0, 1 / r], [1j * lam, 0]]))
        pair = sc.det_pair(cfg, lam)
        checks = [
            (pair.d, wave[0, 0] + wave[0, 1]),
            (pair.d_tilde, wave[1, 0] + wave[1, 1]),
            (propagate(cfg, lam, "schrodinger", (1, 1j))[0], schr[0, 0] + 1j * schr[0, 1]),
        ]
        # the transfer closure lives on Re lam > 0
        lam_r = complex(abs(lam.real) + 1e-3, lam.imag)
        wave = _expm_product(cfg.densities, lambda r: lam_r * np.array([[0, 1 / r], [1, 0]]))
        tpair = transfer_det_pair(cfg, lam_r)
        checks += [
            (tpair.d, -wave[0, 0]),
            (tpair.d_tilde, -wave[1, 0]),
            (complex(transfer_values(cfg, np.array([lam_r]), 0.5 - 2j)[0]),
             -(0.5 - 2j) * wave[0, 1] / wave[0, 0]),
        ]
        # the real-frequency forms, one edge at lam = i beta
        beta = lam.imag
        for r in cfg.densities:
            checks += [
                (sc.exp_osc(r, beta, 1.0), expm(1j * beta * np.array([[0, 1 / r], [1, 0]]))),
                (sc.schrodinger_step(r, abs(beta)), expm(np.array([[0, 1 / r], [-abs(beta), 0]]))),
            ]
        for got, ref in checks:
            worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))))
    assert worst <= 1e-11
