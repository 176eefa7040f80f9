import numpy as np
import pytest

import stringchain as sc
from stringchain.chain_core import sample_state, smooth_bump
from stringchain.errors import DegenerateData, DeterminantOverflow, EmptyScan
from stringchain.oracle import oracle_transfer_value
from stringchain.timesim import SimOptions
from stringchain.transfer_matrix import propagate


def test_transfer_value_is_minus_tanh_for_unit_density():
    cfg = sc.ChainConfig(densities=(1.0,))
    for lam in (1.0 + 0j, 1 + 5j, 2 + 17.3j, 0.5 - 3j, 1 + 40j):
        assert sc.transfer_value(cfg, lam) == pytest.approx(-np.tanh(lam), abs=1e-12)


def test_transfer_value_requires_right_half_plane():
    cfg = sc.ChainConfig(densities=(1.0,))
    with pytest.raises(ValueError):
        sc.transfer_value(cfg, 1j * 2.0)
    with pytest.raises(ValueError):
        sc.transfer_value(cfg, -1.0 + 1j)


def test_transfer_sup_scan_unit_density():
    # sup |tanh(1 + i beta)| = coth(1), attained at beta = pi/2 mod pi
    cfg = sc.ChainConfig(densities=(1.0,))
    sup, argmax = sc.transfer_sup_scan(cfg, 1.0, (-50, 50), 0.01)
    assert sup <= 1.0 / np.tanh(1.0) + 1e-9
    assert sup == pytest.approx(1.0 / np.tanh(1.0), rel=1e-4)
    assert abs((argmax - np.pi / 2) % np.pi) < 0.02 or abs(((np.pi / 2) - argmax) % np.pi) < 0.02


def test_transfer_sup_scan_stability_and_gamma_damping():
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    sup1, _ = sc.transfer_sup_scan(cfg, 1.0, (-30, 30), 0.02)
    sup1b, _ = sc.transfer_sup_scan(cfg, 1.0, (-30, 30), 0.01)
    assert abs(sup1b - sup1) / sup1 < 0.01
    sup2, _ = sc.transfer_sup_scan(cfg, 2.0, (-30, 30), 0.02)
    assert sup2 <= sup1 * (1 + 1e-9)


def test_transfer_sup_scan_empty():
    cfg = sc.ChainConfig(densities=(1.0,))
    with pytest.raises(EmptyScan):
        sc.transfer_sup_scan(cfg, 1.0, (0, 1), -0.1)


def test_transfer_overflow_is_flagged():
    # cosh(lam / c) overflows for Re lam beyond about 710 c
    cfg = sc.ChainConfig(densities=(1.0, 4.0))
    with pytest.raises(DeterminantOverflow):
        sc.transfer_sup_scan(cfg, 800.0, (-50.0, 50.0), 0.01)
    with pytest.raises(DeterminantOverflow):
        sc.transfer_value(cfg, 800.0 + 3j)


def _transfer_pair(cfg, lam):
    """Determinants (-P00, -P10) of the transfer closure and its companion row swap:
    the start vector (-1, 0) propagated over the chain."""
    return sc.DetPair(*propagate(cfg, lam, (-1, 0)))


def _transfer_gap_bound(cfg, gamma):
    """Certified lower bound (c_0/2) sinh(2 gamma / c_0) prod_n cosh(2 gamma / c_n) for
    Re(D conj(D~)) of the transfer pair on the line Re lam = gamma > 0."""
    c = cfg.wave_speeds
    bound = 0.5 * c[0] * np.sinh(2.0 * gamma / c[0])
    for n in range(1, cfg.n_edges):
        bound *= np.cosh(2.0 * gamma / c[n])
    return float(bound)


def test_transfer_pair_certified_bound():
    rng = np.random.default_rng(8)
    for n in (1, 2, 4):
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.2, 5.0, n)))
        for gamma in (0.5, 1.0, 2.0):
            betas = rng.uniform(-40, 40, 100)
            ident = _transfer_pair(cfg, gamma + 1j * betas).identity_value
            bound = _transfer_gap_bound(cfg, gamma)
            assert np.all(ident >= bound - 1e-9 * abs(bound))


def test_transfer_pair_unit_density_value():
    # Re(D conj(D~)) = sinh(2 gamma) / 2 exactly, independent of beta
    cfg = sc.ChainConfig(densities=(1.0,))
    for beta in (0.0, 0.7, 13.0):
        pair = _transfer_pair(cfg, 1.0 + 1j * beta)
        assert pair.identity_value == pytest.approx(0.5 * np.sinh(2.0), rel=1e-12)


def test_transfer_value_agrees_with_fd_oracle():
    cfg = sc.ChainConfig(densities=(1.0, 4.0, 9.0))
    for lam in (1.0 + 2.0j, 0.5 + 11.0j, 2.0 + 25.0j):
        tv = sc.transfer_value(cfg, lam)
        ov = oracle_transfer_value(cfg, lam, 2000)
        assert abs(tv - ov) <= 0.005 * abs(ov)


def test_admissibility_zero_input():
    cfg = sc.ChainConfig(densities=(1.0,))
    opts = SimOptions(points_per_edge=200, T=2.0, cfl=0.5)
    assert sc.admissibility_ratio(cfg, lambda t: 0.0, opts) == 0.0


def test_admissibility_finite_and_scale_invariant():
    cfg = sc.ChainConfig(densities=(1.0,))
    opts = SimOptions(points_per_edge=400, T=4.0, cfl=0.5)
    r1 = sc.admissibility_ratio(cfg, lambda t: np.sin(2 * np.pi * t), opts)
    r3 = sc.admissibility_ratio(cfg, lambda t: 3.0 * np.sin(2 * np.pi * t), opts)
    assert np.isfinite(r1) and r1 > 0
    assert r3 == pytest.approx(r1, rel=1e-9)


def test_admissibility_stable_under_refinement():
    cfg = sc.ChainConfig(densities=(1.0,))
    r_coarse = sc.admissibility_ratio(
        cfg, lambda t: np.sin(2 * np.pi * t), SimOptions(points_per_edge=400, T=4.0, cfl=0.5)
    )
    r_fine = sc.admissibility_ratio(
        cfg, lambda t: np.sin(2 * np.pi * t), SimOptions(points_per_edge=800, T=4.0, cfl=0.5)
    )
    assert abs(r_fine - r_coarse) / r_coarse < 0.05


def test_observability_degenerate_data():
    cfg = sc.ChainConfig(densities=(1.0,))
    state = sample_state(cfg, 200, lambda x: np.zeros_like(x, dtype=complex))
    with pytest.raises(DegenerateData):
        sc.observability_ratio(cfg, state, SimOptions(points_per_edge=200, T=2.0, cfl=0.5))


def test_observability_mode_vs_far_support():
    cfg = sc.ChainConfig(densities=(1.0,))
    mode = sample_state(cfg, 800, lambda x: np.cos(0.5 * np.pi * x).astype(complex))
    ratio = sc.observability_ratio(cfg, mode, SimOptions(points_per_edge=800, T=4.0, cfl=0.5))
    assert ratio > 0.1
    far = sample_state(cfg, 800, lambda x: smooth_bump(x, 0.7, 0.95))
    tiny = sc.observability_ratio(cfg, far, SimOptions(points_per_edge=800, T=0.5, cfl=0.5))
    assert tiny < 1e-3


def test_round_trip_time():
    assert sc.round_trip_time(sc.ChainConfig(densities=(1.0,))) == pytest.approx(2.0)
    assert sc.round_trip_time(sc.ChainConfig(densities=(1.0, 4.0))) == pytest.approx(3.0)
