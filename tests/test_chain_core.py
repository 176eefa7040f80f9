import json

import numpy as np
import pytest

import stringchain as sc
from stringchain.chain_core import (
    ChainFunction,
    first_order_state,
    l2_norm,
    quadrature_weights,
    sample_function,
    sample_state,
    smooth_bump,
    too_large,
    uniform_grids,
    zeros_function,
)
from stringchain.errors import ArityMismatch, EmptyChain, GridMismatch, NonPositiveDensity


@pytest.mark.parametrize("densities, error", [
    ((), EmptyChain),
    ((1.0, -1.0), NonPositiveDensity),
    ((0.0,), NonPositiveDensity),
    ((np.inf,), NonPositiveDensity),
    ((np.nan,), NonPositiveDensity),
])
def test_invalid_chain_is_rejected_when_built(densities, error):
    with pytest.raises(error):
        sc.ChainConfig(densities=densities)


def test_invalid_chain_is_rejected_when_loaded():
    with pytest.raises(NonPositiveDensity):
        sc.ChainConfig.from_json('{"densities": [1, 0]}')


def test_config_json_round_trip():
    cfg = sc.ChainConfig(densities=(1, 2.5))  # building converts the densities to floats
    assert cfg.densities == (1.0, 2.5) and all(type(r) is float for r in cfg.densities)
    assert cfg.n_edges == 2 and sc.ChainConfig(densities=(1.0,)).n_edges == 1
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
    st2 = sc.WaveState(u=ChainFunction(st.u.grids, [2.0 * v for v in st.u.values]),
                       v=ChainFunction(st.v.grids, [2.0 * v for v in st.v.values]))
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
    rotated = ChainFunction(ones.grids, [1j * v for v in ones.values])
    assert sc.energy_schrodinger(rotated, cfg) == pytest.approx(1.0, rel=1e-12)


def test_l2_norm_of_a_2_vector_function_sums_its_components():
    # both components of a 2-vector function enter its L2 norm, each as a scalar function
    rng = np.random.default_rng(17)
    grids = [np.linspace(j, j + 1, n) for j, n in enumerate((101, 64, 257))]
    values = [rng.standard_normal((g.size, 2)) + 1j * rng.standard_normal((g.size, 2))
              for g in grids]
    first, second = (l2_norm(ChainFunction(grids, [v[:, c] for v in values])) for c in (0, 1))
    expected = np.sqrt(first**2 + second**2)
    assert abs(l2_norm(ChainFunction(grids, values)) - expected) <= 1e-15 * expected


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
    err_odd = abs(quadrature_weights(x_odd) @ np.sin(np.pi * x_odd) - 2 / np.pi)
    err_even = abs(quadrature_weights(x_even) @ np.sin(np.pi * x_even) - 2 / np.pi)
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
        assert abs(quadrature_weights(x) @ y - ref) <= 1e-13 * abs(ref)
        assert quadrature_weights(x) @ y.real == pytest.approx(simpson(y.real, x=x), rel=1e-13)


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


@pytest.mark.parametrize("n", [2, 4, 800])
def test_integrate_edge_even_counts_use_trapezoid(n):
    rng = np.random.default_rng(100 + n)
    uniform = np.linspace(1.0, 2.0, n)
    nonuniform = np.sort(np.concatenate([[1.0, 2.0], rng.uniform(1.0, 2.0, n - 2)]))
    for x in (uniform, nonuniform):
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = np.trapezoid(y, x)
        assert abs(quadrature_weights(x) @ y - ref) <= 1e-13 * abs(ref)


# 20,001 rows span several write chunks; 0, 1 and 13 rows lie below the small-table
# crossover; the last count fills two whole chunks of the test's four columns
@pytest.mark.parametrize("rows", [20001, 0, 1, 13, 2 * (sc.chain_core._CSV_CELLS // 4)])
def test_write_table_bytes_match_csv_writer(tmp_path, rows):
    import csv

    from stringchain.chain_core import write_table

    rng = np.random.default_rng(8)
    ints = np.arange(rows) % 7
    floats = rng.standard_normal(rows).tolist()  # a list of Python floats
    arr = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    arr[:6] = [-0.0, 1e-300, np.nan, np.inf, -np.inf, 0.0][:rows]
    floats[:3] = [-0.0, float("nan"), 1e-300][:rows]
    columns = (ints, floats, arr, [7] * rows)
    path = write_table(tmp_path / "t.csv", ["i", "f", "a", "k"], *columns)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "f", "a", "k"])
        writer.writerows(["%.17g" % v for v in row] for row in zip(*columns))
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("make, error", [
    (lambda: np.arange(0.0, 1e300, 1.0), ValueError),  # "Maximum allowed size exceeded"
    (lambda: np.zeros(2**62), ValueError),  # "array is too big"
    (lambda: np.linspace(0.0, 1.0, 2**63 - 1), IndexError),  # its arange comes back empty
    (lambda: np.logspace(0.0, 1.0, 2**63 - 1), IndexError),
    (lambda: int(np.ceil(1e300 / 1e-300)), OverflowError),  # an infinite count
], ids=["arange", "zeros", "linspace", "logspace", "int-of-inf"])
def test_too_large_turns_size_errors_into_one_memory_error(make, error):
    with pytest.raises(MemoryError, match=r"^2\*\*70 points: ") as info:
        with too_large("2**70 points"):
            make()
    assert type(info.value.__cause__) is error


@pytest.mark.parametrize("exc", [GridMismatch("off the grid"), TypeError("not a size")],
                         ids=["ChainError", "TypeError"])
def test_too_large_passes_other_errors_through(exc):
    with pytest.raises(type(exc)) as info:
        with too_large("2**70 points"):
            raise exc
    assert info.value is exc


@pytest.mark.parametrize("consumer", ["simulate_wave", "simulate_schrodinger", "fd_bvp_solve"])
def test_right_point_count_on_an_uneven_grid_is_rejected(consumer):
    # every point count matches; only the interior points of the second edge
    # sit a quarter cell off the uniform grid
    cfg = sc.ChainConfig(densities=(1.0, 2.0))
    p = 17

    def run(grids):
        zero = ChainFunction(grids, [np.zeros(x.size, complex) for x in grids])
        if consumer == "simulate_wave":
            sc.simulate_wave(cfg, sc.WaveState(u=zero, v=zero),
                             sc.SimOptions(points_per_edge=p, T=0.1))
        elif consumer == "simulate_schrodinger":
            sc.simulate_schrodinger(cfg, zero, sc.SimOptions(points_per_edge=p, T=0.1, dt=1e-2))
        else:
            sc.fd_bvp_solve(cfg, 3.0j, zero, "schrodinger", p - 1)

    run(uniform_grids(cfg, p))  # the same data on the uniform grid are accepted
    uneven = uniform_grids(cfg, p)
    uneven[1][1:-1] += 0.25 / (p - 1)
    with pytest.raises(GridMismatch, match="edge 1"):
        run(uneven)


def _float_neighbours(values, ulps):
    """Every double within `ulps` steps of each of values (finite, positive), both signs."""
    bits = np.asarray(values, dtype=float).view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    near = bits.ravel().view(np.float64)
    return np.concatenate([near, -near])


def _g17_cases() -> np.ndarray:
    """Over 10**6 doubles for the %.17g kernel, each family at its hard cases."""
    from stringchain.chain_core import uniform_betas

    rng = np.random.default_rng(17)
    # every biased exponent, subnormals included, with random mantissas and signs
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), 200) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, exponent.size, dtype=np.uint64)
    sign = rng.integers(0, 2, exponent.size, dtype=np.uint64) << np.uint64(63)
    every_exponent = (exponent | mantissa | sign).view(np.float64)
    random_bits = rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
                         5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    payload_nans = np.array([0x7FF0000000000001, 0xFFF8000000000001, 0x7FFFFFFFFFFFFFFF],
                            dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    switches = _float_neighbours([1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0], 64)
    integers = np.concatenate([
        np.arange(-100_000, 100_001, dtype=float),
        rng.integers(0, 2**53, 100_000).astype(float),
        rng.integers(2**53, 2**63, 100_000).astype(float),
        2.0 ** np.arange(1024),
        2.0**53 + np.arange(-64, 65),
    ])
    grids = np.concatenate([
        uniform_betas((-50.0, 50.0), 0.01),  # transfer-scan's default grid
        uniform_betas((-200.0, 200.0), 1e-3)[::100],  # gap's det_scan.csv rows
        uniform_betas((0.1, 1e4), 0.1),
        np.linspace(0.0, 20.0, 160_001),  # an energy trace's times
    ])
    # exact 17th-digit ties, which Python rounds half to even: m + 1/4 and m + 3/4
    # just above 1e15, and the odd multiples of 2**-18 in [0.1, 1)
    m = rng.integers(10**15, 2**50, 20_000).astype(float)
    ties = np.concatenate([m + 0.25, m + 0.75, np.arange(26215, 2**18, 2) / 2**18])
    cases = np.concatenate([every_exponent, random_bits, specials, payload_nans,
                            _float_neighbours(powers, 1), switches, integers, grids,
                            ties, -ties])
    assert cases.size >= 10**6
    return cases


def test_write_table_matches_percent_g17_on_a_million_hard_cases(tmp_path):
    from stringchain.chain_core import write_table

    cases = _g17_cases()
    got = write_table(tmp_path / "g17.csv", ["v"], cases).read_bytes()
    want = ("v\r\n" + "".join("%.17g\r\n" % v for v in cases.tolist())).encode()
    if got != want:
        pairs = zip(cases.tolist(), got.split(b"\r\n")[1:], want.split(b"\r\n")[1:])
        bad = [(v, a, b) for v, a, b in pairs if a != b]
        pytest.fail(f"{len(bad)} cells differ from %.17g, the first: {bad[:3]}")


def test_g17_form_switches_and_ties():
    from stringchain.chain_core import _g17_csv

    cells = np.array([[99999999999999999.0, 1e16, 1e-5, 1e-4, 1e15 + 0.25, 1e15 + 0.75]])
    assert _g17_csv(cells) == (b"1e+17,10000000000000000,1.0000000000000001e-05,0.0001,"
                               b"1000000000000000.2,1000000000000000.8\r\n")


def test_g17_kernel_decides_all_but_a_few_cells_of_a_transfer_scan():
    # byte identity alone would pass a kernel that sent every cell to Python's %
    from stringchain.chain_core import _g17_digits, uniform_betas
    from stringchain.transfer_function import transfer_values

    betas = uniform_betas((-50.0, 50.0), 0.01)
    vals = transfer_values(sc.ChainConfig((1.0, 4.0)), 1.0 + 1j * betas)
    table = np.column_stack([np.full(betas.size, 1.0), betas, vals.real, vals.imag,
                             np.abs(vals)])
    _, _, decided = _g17_digits(table.ravel())
    assert np.count_nonzero(~decided) <= 1e-3 * table.size


def test_pow10_table_is_within_2_pow_minus_105_of_the_power():
    from fractions import Fraction

    from stringchain import chain_core

    smallest, largest = 5e-324, np.finfo(float).max
    ks = np.arange(np.floor(np.log10(smallest)), np.floor(np.log10(largest)) + 1).astype(int)
    i = 16 - ks - chain_core._P_MIN  # every index the kernel can request
    assert i.min() == 0 and i.max() == chain_core._POW.shape[1] - 1
    hi, hh, hl, lo, e = chain_core._pow10(i)
    for k, h, a, b, low, ee in zip(ks.tolist(), hi.tolist(), hh.tolist(), hl.tolist(),
                                   lo.tolist(), e.tolist()):
        exact = Fraction(10) ** (16 - k) / Fraction(2) ** int(ee)
        assert Fraction(1, 2) <= exact < 1
        assert Fraction(a) + Fraction(b) == Fraction(h)  # Dekker's halves, 26 bits each
        for half in (a, b):
            n = abs(Fraction(half).numerator)
            assert n == 0 or (n // (n & -n)).bit_length() <= 26
        assert abs(Fraction(h) + Fraction(low) - exact) <= exact / 2**105


def test_write_table_peak_memory_stays_below_the_per_row_writer(tmp_path):
    # tracemalloc peaks of the writer that formatted 8192 rows at a time with Python's %,
    # measured on these two tables: 1,616,929 and 1,594,270 bytes
    import tracemalloc

    from stringchain.chain_core import uniform_betas, write_table
    from stringchain.transfer_function import transfer_values

    betas = uniform_betas((-50.0, 50.0), 0.01)
    vals = transfer_values(sc.ChainConfig((1.0, 4.0)), 1.0 + 1j * betas)
    scan = (np.full(betas.size, 1.0), betas, vals.real, vals.imag, np.abs(vals))
    times = np.linspace(0.0, 20.0, 160_000)
    energies = np.exp(-times) * (1.0 + 0.1 * np.cos(7.0 * times))
    trace = (times, energies, energies[0] - energies)
    for columns, bound in ((scan, 1_616_000), (trace, 1_594_000)):
        tracemalloc.start()
        try:
            write_table(tmp_path / "t.csv", ["c"] * len(columns), *columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (len(columns[0]), peak)


def test_uniform_betas_hit_their_grid_points():
    # lo + k step, rounded once: no drift over 400,001 points, 0 on a symmetric grid
    from stringchain.chain_core import uniform_betas
    betas = uniform_betas((-200.0, 200.0), 1e-3)  # the gap and det-bound default
    assert betas.size == 400_001
    assert betas[200_000] == 0.0 and betas[-1] == 200.0
    assert np.array_equal(betas, -200.0 + 1e-3 * np.arange(400_001))
    assert uniform_betas((-50.0, 50.0), 0.01)[-1] == 50.0  # transfer-scan's default


@pytest.mark.parametrize("beta_range, step", [
    ((-200.0, 200.0), 1e-3), ((-20.0, 20.0), 0.01), ((0.1, 1e4), 0.1), ((-3.3, 7.1), 0.07),
    ((5.0, 5.0), 1.0), ((-1.0, 2.0), 0.3),
    ((1e16, 1e16), 1e-3)])  # half a step is lost in 1e16 + 5e-4, yet lo is a point
@pytest.mark.parametrize("stride", [1, 2, 3, 7, 100, 10**6])
def test_strided_uniform_betas_are_the_full_grid_sliced(beta_range, step, stride):
    from stringchain.chain_core import uniform_betas
    full = uniform_betas(beta_range, step)
    strided = uniform_betas(beta_range, step, stride)
    assert np.array_equal(strided, full[::stride])
    assert strided.dtype == full.dtype and strided.flags.c_contiguous


def test_uniform_betas_reject_an_empty_range():
    from stringchain.chain_core import uniform_betas
    from stringchain.errors import EmptyScan
    with pytest.raises(EmptyScan, match="empty beta range"):
        uniform_betas((1.0, -1.0), 0.1)
    with pytest.raises(EmptyScan, match="empty beta range"):  # hi < lo by less than a step
        uniform_betas((1.0, 0.99), 0.1)


@pytest.mark.parametrize("stride", [0, -1, 2.5, 2.0])
def test_uniform_betas_reject_a_stride_that_is_not_a_positive_integer(stride):
    from stringchain.chain_core import uniform_betas
    from stringchain.errors import EmptyScan
    with pytest.raises(EmptyScan, match="positive integer stride"):
        uniform_betas((-1.0, 1.0), 0.1, stride)
    # both gap searches take their rows from it, the sampled Schrodinger search too
    for which in ("wave", "schrodinger"):
        with pytest.raises(EmptyScan, match="positive integer stride"):
            sc.imaginary_axis_gap(sc.ChainConfig((1.0, 4.0)), which, (-1.0, 1.0), 0.1, stride)


def test_chain_function_rejects_malformed_input():
    x = np.linspace(0.0, 1.0, 4)
    with pytest.raises(GridMismatch, match="one entry per edge"):
        ChainFunction([x], [np.zeros(4, complex)] * 2)
    with pytest.raises(EmptyChain):
        ChainFunction([], [])
    with pytest.raises(GridMismatch, match="1d with at least 2 points"):
        ChainFunction([np.array([0.0])], [np.zeros(1, complex)])
    with pytest.raises(GridMismatch, match="1d with at least 2 points"):
        ChainFunction([np.zeros((2, 2))], [np.zeros(2, complex)])
    with pytest.raises(GridMismatch, match="3 values on 4 grid points"):
        ChainFunction([x], [np.zeros(3, complex)])
    with pytest.raises(ArityMismatch, match=r"shape \(n,\) or \(n, 2\)"):
        ChainFunction([x], [np.zeros((4, 3), complex)])


def test_grid_and_sampling_input_checks():
    cfg = sc.ChainConfig((1.0, 2.0))
    with pytest.raises(GridMismatch, match="at least 2 points"):
        uniform_grids(cfg, 1)
    with pytest.raises(ArityMismatch, match=r"\(n, 2\) array"):
        sample_function(cfg, 8, lambda x: x, arity=2)


def test_wave_state_input_checks():
    one, two = sc.ChainConfig((1.0,)), sc.ChainConfig((1.0, 1.0))
    clamped = lambda x: np.sin(np.pi * x).astype(complex)  # noqa: E731
    with pytest.raises(GridMismatch, match="same number of edges"):
        sc.WaveState(u=sample_function(two, 16, clamped), v=zeros_function(one, 16))
    with pytest.raises(ArityMismatch, match="scalar functions"):
        sc.WaveState(u=sample_function(one, 16, clamped), v=zeros_function(one, 16, arity=2))
    with pytest.raises(GridMismatch, match="share their grids"):
        sc.WaveState(u=sample_function(one, 16, clamped), v=zeros_function(one, 17))
    with pytest.raises(GridMismatch, match="vanish at the clamped end"):
        sc.WaveState(u=sample_function(one, 16, lambda x: np.ones_like(x, dtype=complex)),
                     v=zeros_function(one, 16))


def test_write_table_rejects_a_complex_column(tmp_path):
    from stringchain.chain_core import write_table
    with pytest.raises(TypeError, match="real numbers only"):
        write_table(tmp_path / "t.csv", ["a", "b"], np.arange(3.0), np.full(3, 1j))
