import json

import numpy as np
import pytest

import stringchain as sc
from stringchain.chain_core import (
    ChainFunction,
    first_order_state,
    integrate_edge,
    l2_norm,
    sample_function,
    sample_state,
    smooth_bump,
    uniform_grids,
    zeros_function,
)
from stringchain.errors import ArityMismatch, EmptyChain, GridMismatch, NonPositiveDensity


def test_validate_config_accepts_valid_chains():
    assert sc.validate_config(sc.ChainConfig(densities=(1.0,))).n_edges == 1
    cfg = sc.validate_config(sc.ChainConfig(densities=(1.0, 4.0, 0.25)))
    assert cfg.densities == (1.0, 4.0, 0.25)


def test_validate_config_rejects_bad_densities():
    with pytest.raises(NonPositiveDensity):
        sc.validate_config(sc.ChainConfig(densities=(1.0, -1.0)))
    with pytest.raises(NonPositiveDensity):
        sc.validate_config(sc.ChainConfig(densities=(0.0,)))
    with pytest.raises(NonPositiveDensity):
        sc.validate_config(sc.ChainConfig(densities=(np.inf,)))
    with pytest.raises(EmptyChain):
        sc.validate_config(sc.ChainConfig(densities=()))


def test_config_json_round_trip():
    cfg = sc.ChainConfig(densities=(1.0, 2.5))
    again = sc.ChainConfig.from_json(cfg.to_json())
    assert again == cfg
    assert json.loads(cfg.to_json()) == {"densities": [1.0, 2.5]}


def test_chain_function_rejects_bad_grids():
    with pytest.raises(GridMismatch):
        ChainFunction([np.array([0.0, 0.5])], [np.zeros(2, complex)])  # span
    with pytest.raises(GridMismatch):
        ChainFunction([np.array([0.0, 0.6, 0.5, 1.0])], [np.zeros(4, complex)])
    with pytest.raises(ArityMismatch):
        ChainFunction(
            [np.linspace(0, 1, 4), np.linspace(1, 2, 4)],
            [np.zeros(4, complex), np.zeros((4, 2), complex)],
        )


def test_energy_wave_zero_state():
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    st = sample_state(cfg, 64, lambda x: np.zeros_like(x, dtype=complex))
    assert sc.energy_wave(st, cfg) == 0.0


def test_energy_wave_sine_displacement():
    # E = 1/2 int_0^1 pi^2 cos^2(pi x) dx = pi^2 / 4
    cfg = sc.ChainConfig(densities=(1.0,))
    st = sample_state(cfg, 2001, lambda x: np.sin(np.pi * x).astype(complex))
    assert sc.energy_wave(st, cfg) == pytest.approx(np.pi**2 / 4, rel=1e-6)


def test_energy_wave_quadratic_scaling():
    cfg = sc.ChainConfig(densities=(1.0, 3.0))
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(4)

    def u(x):
        return (coef[0] * np.sin(np.pi * x) * np.sin(0.5 * np.pi * x)).astype(complex)

    def v(x):
        return (coef[1] * np.cos(x) + coef[2] * x).astype(complex)

    st = sample_state(cfg, 301, u, v)
    st2 = sc.WaveState(u=st.u.scaled(2.0), v=st.v.scaled(2.0))
    assert sc.energy_wave(st2, cfg) == pytest.approx(4.0 * sc.energy_wave(st, cfg), rel=1e-12)


def test_first_order_energy_matches_for_unit_density():
    cfg = sc.ChainConfig(densities=(1.0,))
    st = sample_state(cfg, 501, lambda x: np.sin(np.pi * x).astype(complex),
                      lambda x: np.cos(2 * x).astype(complex))
    V = first_order_state(st, cfg)
    assert sc.energy_first_order(V, cfg) == pytest.approx(sc.energy_wave(st, cfg), rel=1e-12)


def test_first_order_energy_density_bounds():
    # for a single edge e = rho * E exactly, inside the min/max envelope
    cfg = sc.ChainConfig(densities=(4.0,))
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(201)

    def u(x):
        return (np.sin(np.pi * x) * np.interp(x, np.linspace(0, 1, 201), vals)).astype(complex)

    st = sample_state(cfg, 801, u, lambda x: np.cos(3 * x).astype(complex))
    E = sc.energy_wave(st, cfg)
    e = sc.energy_first_order(first_order_state(st, cfg), cfg)
    assert min(4.0, 1.0) * E <= e <= max(4.0, 1.0) * E
    assert e == pytest.approx(4.0 * E, rel=1e-12)


def test_energy_schrodinger_examples():
    cfg = sc.ChainConfig(densities=(1.0, 1.0))
    u0 = zeros_function(cfg, 64)
    assert sc.energy_schrodinger(u0, cfg) == 0.0
    ones = sample_function(cfg, 257, lambda x: np.ones_like(x, dtype=complex))
    assert sc.energy_schrodinger(ones, cfg) == pytest.approx(1.0, rel=1e-12)
    rotated = ones.scaled(1j)
    assert sc.energy_schrodinger(rotated, cfg) == pytest.approx(1.0, rel=1e-12)


def test_energy_arity_checks():
    cfg = sc.ChainConfig(densities=(1.0,))
    scalar = sample_function(cfg, 64, lambda x: np.sin(x).astype(complex))
    with pytest.raises(ArityMismatch):
        sc.energy_first_order(scalar, cfg)
    vec = ChainFunction(scalar.grids, [np.zeros((64, 2), complex)])
    with pytest.raises(ArityMismatch):
        sc.energy_schrodinger(vec, cfg)


def test_quadrature_convergence_factor():
    cfg = sc.ChainConfig(densities=(1.0,))
    exact = np.pi**2 / 4
    errs = []
    for p in (101, 201):
        st = sample_state(cfg, p, lambda x: np.sin(np.pi * x).astype(complex))
        errs.append(abs(sc.energy_wave(st, cfg) - exact))
    assert errs[0] / errs[1] >= 3.5


def test_integrate_edge_simpson_vs_trapezoid():
    x_odd = np.linspace(0.0, 1.0, 101)
    x_even = np.linspace(0.0, 1.0, 100)
    # Simpson is much closer on the smooth integrand
    err_odd = abs(integrate_edge(x_odd, np.sin(np.pi * x_odd)) - 2 / np.pi)
    err_even = abs(integrate_edge(x_even, np.sin(np.pi * x_even)) - 2 / np.pi)
    assert err_odd < err_even / 50


def test_wave_state_invariants():
    cfg = sc.ChainConfig(densities=(1.0, 1.0))
    grids = uniform_grids(cfg, 32)
    good = [np.sin(np.pi * g).astype(complex) for g in grids]
    bad = [np.ones(32, complex), np.zeros(32, complex)]  # jump at the joint
    zeros = [np.zeros(32, complex) for _ in grids]
    sc.WaveState(u=ChainFunction(grids, good), v=ChainFunction(grids, zeros))
    with pytest.raises(GridMismatch):
        sc.WaveState(u=ChainFunction(grids, bad), v=ChainFunction(grids, zeros))


def test_chain_function_csv_round_trip(tmp_path):
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    fn = sample_function(cfg, 17, lambda x: (np.sin(x) + 1j * np.cos(x)))
    path = tmp_path / "fn.csv"
    fn.to_csv(path)
    back = ChainFunction.from_csv(path)
    for a, b in zip(fn.values, back.values):
        assert np.max(np.abs(a - b)) == 0.0

    vec = ChainFunction(fn.grids, [np.stack([v, 2 * v], axis=1) for v in fn.values])
    path2 = tmp_path / "vec.csv"
    vec.to_csv(path2)
    back2 = ChainFunction.from_csv(path2)
    assert back2.arity == 2
    for a, b in zip(vec.values, back2.values):
        assert np.max(np.abs(a - b)) == 0.0


def test_smooth_bump_support_and_peak():
    x = np.linspace(0, 2, 2001)
    b = smooth_bump(x)
    assert np.all(b[(x <= 0.1) | (x >= 0.9)] == 0)
    assert abs(b[np.argmin(abs(x - 0.5))] - 1.0) < 1e-6
    assert l2_norm(ChainFunction([np.linspace(0, 1, 101)], [smooth_bump(np.linspace(0, 1, 101))])) > 0


def test_config_json_rejects_non_list_densities():
    for text in ('{"densities": "14"}', '{"densities": 3}', '{"densities": [1.0, "4"]}',
                 '{"densities": [true]}'):
        with pytest.raises(ValueError):
            sc.ChainConfig.from_json(text)


@pytest.mark.parametrize("n", [3, 5, 17, 801])
def test_integrate_edge_matches_scipy_simpson(n):
    from scipy.integrate import simpson

    rng = np.random.default_rng(n)
    uniform = np.linspace(0.0, 1.0, n)
    nonuniform = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)]))
    for x in (uniform, nonuniform):
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = simpson(y, x=x)
        assert abs(integrate_edge(x, y) - ref) <= 1e-13 * abs(ref)
        assert integrate_edge(x, y.real) == pytest.approx(simpson(y.real, x=x), rel=1e-13)


def test_energy_trace_csv_bytes_match_csv_writer(tmp_path):
    import csv

    rng = np.random.default_rng(5)
    rows = 20001  # spans several write chunks
    times = np.linspace(0.0, 20.0, rows)
    energies = np.exp(-times) * rng.uniform(0.5, 2.0, rows)
    energies[:4] = [0.0, -0.0, 1e-300, 123456789.0]
    flux = np.cumsum(rng.uniform(0.0, 1e-3, rows))
    trace = sc.EnergyTrace(times=times, energies=energies, boundary_flux=flux)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "E", "boundary_flux_cum"])
        for t, e, f in zip(times, energies, flux):
            writer.writerow([f"{t:.17g}", f"{e:.17g}", f"{f:.17g}"])
    assert path.read_bytes() == ref.read_bytes()
