import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import stringchain as sc
from stringchain import transfer_matrix
from stringchain.errors import DeterminantOverflow, NonPositiveDensity
from stringchain.transfer_function import transfer_values
from stringchain.transfer_matrix import (_BLOCK, _cosh_sinh, _finite_values, analytic_gap_bound,
                                         edge_entries, propagate)


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _osc(rho, beta, x):
    """The explicit real-frequency propagator [[cos t, i sin(t) / c], [i c sin t, cos t]],
    t = beta x / c, c = sqrt(rho): exp(i beta x B^{-1}) written out by hand."""
    c = np.sqrt(rho)
    t = beta * x / c
    return np.array([[np.cos(t), 1j * np.sin(t) / c], [1j * c * np.sin(t), np.cos(t)]])


def _schrodinger_step(rho, beta):
    """One edge's Schrodinger propagator at lam = i beta, beta > 0, from the kernel: the
    wave edge at mu = sqrt(i lam) = i sqrt(beta) with its flux scaled by mu."""
    mu = 1j * np.sqrt(beta)
    ch, s12, s21 = edge_entries(rho, mu)
    return np.array([[ch, s12 / mu], [mu * s21, ch]], dtype=complex)


def _schrodinger_entries(rho, lam):
    """(ch, s12, s21) of one Schrodinger edge on (u, rho u') of rho u'' = i lam u, written
    directly: with m = sqrt(i lam / rho) they are cosh m, sinh(m) / (rho m) and rho m sinh m,
    sinh(m) / m taken as 1 + m^2 / 6 for |m| < 1e-8."""
    m = np.sqrt(1j * np.asarray(lam, dtype=complex) / rho)
    small = np.abs(m) < 1e-8
    s12 = np.where(small, 1.0 + m * m / 6.0, np.sinh(m) / np.where(small, 1.0, m))
    return np.cosh(m), s12 / rho, rho * m * np.sinh(m)


def _schrodinger_closure(densities, lam):
    """[P_S(lam) (1, i)]_0 from the directly written Schrodinger edges, elementwise over lam."""
    a, b = 1.0, 1j
    for rho in densities:
        ch, s12, s21 = _schrodinger_entries(rho, lam)
        a, b = ch * a + s12 * b, s21 * a + ch * b
    return a


def test_exp_osc_values():
    assert np.allclose(sc.exp_hyp(1.0, 1j * 0.0, 1.0), np.eye(2), atol=1e-15)
    assert np.allclose(sc.exp_hyp(1.0, 1j * np.pi, 1.0), -np.eye(2), atol=1e-12)
    expected = np.array([[0.0, 0.5j], [2.0j, 0.0]])
    assert np.allclose(sc.exp_hyp(4.0, 1j * np.pi, 1.0), expected, atol=1e-12)


def test_exp_hyp_values():
    assert np.allclose(sc.exp_hyp(1.0, 0.0, 1.0), np.eye(2), atol=1e-15)
    m = sc.exp_hyp(1.0, 1.0, 1.0)
    expected = np.array([[np.cosh(1), np.sinh(1)], [np.sinh(1), np.cosh(1)]])
    assert np.allclose(m, expected, atol=1e-14)
    assert np.allclose(sc.exp_hyp(1.0, 1j * np.pi, 1.0), _osc(1.0, np.pi, 1.0), atol=1e-13)


def test_exponentials_reject_bad_density():
    with pytest.raises(NonPositiveDensity):
        sc.exp_hyp(0.0, 1j * 1.0, 1.0)
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
        assert abs(_det2(sc.exp_hyp(rho, 1j * beta, x)) - 1) <= 1e-12
        assert abs(_det2(sc.exp_hyp(rho, lam, x)) - 1) <= 1e-12


def test_continuation_identity_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        rho = rng.uniform(0.25, 4.0)
        beta = rng.uniform(-50, 50)
        x = rng.uniform(-1, 1)
        diff = np.max(np.abs(sc.exp_hyp(rho, 1j * beta, x) - _osc(rho, beta, x)))
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


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("shape", [(9,), (3, 5)])
def test_boundary_matrices_and_exp_hyp_stack_their_matrices_over_lam(n, shape):
    # each (..., 2, 2) matrix of an array call is the one-element-array call's, bit for bit,
    # and det H is det_pair's D
    rng = np.random.default_rng(n)
    cfg = sc.ChainConfig(tuple(rng.uniform(0.25, 4.0, n)))
    lam = rng.uniform(-2, 2, shape) + 1j * rng.uniform(-40, 40, shape)
    x = rng.uniform(-1, 1, shape)
    h, ht = sc.boundary_matrices(cfg, lam)
    e = sc.exp_hyp(cfg.densities[-1], lam, x)
    assert h.shape == ht.shape == e.shape == shape + (2, 2)
    for k in np.ndindex(shape):
        h1, ht1 = sc.boundary_matrices(cfg, lam[k].reshape(1))
        assert np.array_equal(h[k], h1[0]) and np.array_equal(ht[k], ht1[0])
        assert np.array_equal(e[k], sc.exp_hyp(cfg.densities[-1], lam[k].reshape(1), x[k])[0])
    pair = sc.det_pair(cfg, lam)
    assert np.all(np.abs(np.linalg.det(h) - pair.d) <= 1e-10 * np.maximum(1.0, np.abs(pair.d)))
    assert np.all(np.abs(np.linalg.det(ht) - pair.d_tilde)
                  <= 1e-10 * np.maximum(1.0, np.abs(pair.d_tilde)))
    # x broadcasts against lam too
    assert sc.exp_hyp(1.0, lam[..., None], np.array([0.5, 1.0])).shape == shape + (2, 2, 2)


def test_boundary_matrices_and_exp_hyp_take_lists_as_arrays():
    # a Python list of lam (or of x) gives the array call's matrices, bit for bit, as it
    # does for det_pair, propagate and transfer_values
    cfg = sc.ChainConfig((1.0, 4.0, 0.5))
    lam = [1j, 2j, -0.3 + 7.5j]
    x = [0.25, -1.0, 0.8]
    for lam_in, x_in in ((lam, x), (lam, np.array(x)), (np.array(lam), x)):
        assert np.array_equal(sc.exp_hyp(2.0, lam_in, x_in),
                              sc.exp_hyp(2.0, np.array(lam), np.array(x)))
    for got, want in zip(sc.boundary_matrices(cfg, lam), sc.boundary_matrices(cfg, np.array(lam))):
        assert got.shape == (3, 2, 2) and np.array_equal(got, want)


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


def _axis_min(cfg, betas):
    """min |D(i beta)| over the given betas."""
    return float(np.min(np.abs(sc.det_pair(cfg, 1j * betas).d)))


def test_det_lower_bound_examples():
    betas = np.arange(-50.0, 50.0, 1e-3)
    cfg1, cfg4, cfg2 = (sc.ChainConfig(densities=d) for d in ((1.0,), (4.0,), (1.0, 2.0)))
    ga, gn = analytic_gap_bound(cfg1), _axis_min(cfg1, betas)
    assert ga == pytest.approx(1.0, abs=1e-12)
    assert gn == pytest.approx(1.0, abs=1e-9)
    ga4, gn4 = analytic_gap_bound(cfg4), _axis_min(cfg4, betas)
    assert gn4 == pytest.approx(0.5, abs=1e-6)
    assert ga4 == pytest.approx(0.5, abs=1e-12)
    ga2, gn2 = analytic_gap_bound(cfg2), _axis_min(cfg2, betas)
    assert gn2 > 0
    assert gn2 >= ga2 - 1e-9


def test_det_lower_bound_random_configs():
    rng = np.random.default_rng(23)
    betas = np.arange(-50.0, 50.0, 1e-3)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.1, 10.0, n)))
        ga, gn = analytic_gap_bound(cfg), _axis_min(cfg, betas)
        assert gn > 0
        assert gn >= ga - 1e-9


def test_analytic_gap_bound_single_edge():
    assert analytic_gap_bound(sc.ChainConfig(densities=(1.0,))) == pytest.approx(1.0)
    assert analytic_gap_bound(sc.ChainConfig(densities=(4.0,))) == pytest.approx(0.5)


def test_schrodinger_step_values():
    m = _schrodinger_step(1.0, np.pi**2)
    assert np.allclose(m, -np.eye(2), atol=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(100):
        rho = rng.uniform(0.1, 10.0)
        beta = rng.uniform(1e-3, 1e4)
        assert abs(_det2(_schrodinger_step(rho, beta)) - 1.0) <= 1e-12


def test_schrodinger_step_small_beta_limit():
    m = _schrodinger_step(1.0, 1e-12)
    assert np.allclose(m, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-6)


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
        schr, schr_1 = (_expm_product(cfg.densities, lambda r: np.array([[0, 1 / r], [1j * z, 0]]))
                        for z in (lam, 1.0))
        pair = sc.det_pair(cfg, lam)
        checks = [
            (pair.d, wave[0, 0] + wave[0, 1]),
            (pair.d_tilde, wave[1, 0] + wave[1, 1]),
            # char_det_schrodinger is normalised to 1 at lam = 1
            (sc.char_det_schrodinger(cfg, lam) * (schr_1[0, 0] + 1j * schr_1[0, 1]),
             schr[0, 0] + 1j * schr[0, 1]),
        ]
        # the transfer closure lives on Re lam > 0; (-1, 0) gives its pair (-P00, -P10)
        lam_r = complex(abs(lam.real) + 1e-3, lam.imag)
        wave = _expm_product(cfg.densities, lambda r: lam_r * np.array([[0, 1 / r], [1, 0]]))
        tpair = sc.DetPair(*propagate(cfg, lam_r, (-1, 0)))
        checks += [
            (tpair.d, -wave[0, 0]),
            (tpair.d_tilde, -wave[1, 0]),
            (complex(transfer_values(cfg, np.array([lam_r]))[0]), -wave[0, 1] / wave[0, 0]),
        ]
        # the real-frequency forms, one edge at lam = i beta
        beta = lam.imag
        for r in cfg.densities:
            checks += [
                (sc.exp_hyp(r, 1j * beta, 1.0), expm(1j * beta * np.array([[0, 1 / r], [1, 0]]))),
                (_schrodinger_step(r, abs(beta)), expm(np.array([[0, 1 / r], [-abs(beta), 0]]))),
            ]
        for got, ref in checks:
            worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))))
    assert worst <= 1e-11


def test_cosh_sinh_kernel_matches_numpy():
    rng = np.random.default_rng(12)
    beta = rng.uniform(-1e4, 1e4, 4000)
    # on the imaginary axis, and for 0-d arguments, the values are numpy's own
    for z in (1j * beta, -1j * beta / 1.7, 1j * beta.reshape(40, 100)):
        ch, sh = _cosh_sinh(z)
        assert np.array_equal(ch, np.cosh(z)) and np.array_equal(sh, np.sinh(z))
    for z in (np.complex128(0.3 - 2j), np.array(-650.0 + 4e3j), np.complex128(1e4j)):
        ch, sh = _cosh_sinh(z)
        assert np.array_equal(ch, np.cosh(z)) and np.array_equal(sh, np.sinh(z))
    # off the axis: agreement to a few ulps of max(1, |cosh z|)
    z = rng.uniform(-700.0, 700.0, 20000) + 1j * rng.uniform(-1e4, 1e4, 20000)
    z[:4000].real /= 1e3  # also near the axis
    ch, sh = _cosh_sinh(z)
    scale = np.maximum(1.0, np.abs(np.cosh(z)))
    assert np.max(np.abs(ch - np.cosh(z)) / scale) <= 4e-15
    assert np.max(np.abs(sh - np.sinh(z)) / scale) <= 4e-15


def test_det_pair_array_equals_scalar_calls_on_axis():
    # a scalar lam runs the array kernel as a one-element array: the same bits either way
    cfg = sc.ChainConfig(densities=(0.7, 2.3, 1.1, 4.0))
    lam = 1j * np.linspace(-300.0, 300.0, 257)
    pair = sc.det_pair(cfg, lam)
    singles = [sc.det_pair(cfg, v) for v in lam]
    assert np.array_equal(pair.d, [p.d for p in singles])
    assert np.array_equal(pair.d_tilde, [p.d_tilde for p in singles])


def test_schrodinger_closure_is_the_wave_kernel_at_mu():
    # P_S(lam) = diag(1, mu) P(mu) diag(1, 1/mu) with mu = sqrt(i lam): the library's
    # closure through the wave kernel against the Schrodinger edges written directly
    rng = np.random.default_rng(29)
    for n in (1, 2, 4, 8):
        cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.25, 4.0, n)))
        lam = rng.uniform(-3.0, 1.0, 2000) + 1j * rng.uniform(-300.0, 300.0, 2000)
        ref = _schrodinger_closure(cfg.densities, lam)
        norm = _schrodinger_closure(cfg.densities, 1.0)
        for got in (sc.char_det_schrodinger(cfg, lam),
                    np.array([sc.char_det_schrodinger(cfg, v) for v in lam[:100]])):
            d = ref[:got.size]
            assert np.max(np.abs(got * norm - d) / np.maximum(1.0, np.abs(d))) <= 1e-13


def test_schrodinger_entries_finite_at_and_near_zero():
    # P00 + i P01 / mu -> 1 + i sum_j 1 / rho_j as mu = sqrt(i lam) -> 0, and lam = 0
    # takes that limit
    for densities in ((2.5,), (0.7, 2.3, 1.1, 4.0)):
        cfg = sc.ChainConfig(densities=densities)
        at_zero = 1.0 + 1j * sum(1.0 / rho for rho in densities)
        norm = _schrodinger_closure(densities, 1.0)
        lam = np.array([0.0, 1e-20, -1e-20, 1e-20j, 1e-20 * (1 - 1j), 3.0 + 1j])
        near = 1e-20 * (1 - 1j) * np.logspace(-10, 10, 41)
        for z in (0.0, np.complex128(0.0), np.array(0.0), np.complex128(1e-20j)):
            assert sc.char_det_schrodinger(cfg, z) * norm == pytest.approx(at_zero, rel=1e-15)
        for got in (sc.char_det_schrodinger(cfg, lam),
                    np.array([sc.char_det_schrodinger(cfg, v) for v in lam])):
            assert np.all(np.isfinite(got))
            assert np.all(np.abs(got[:5] * norm - at_zero) <= 1e-15 * abs(at_zero))
            assert got[5] * norm == pytest.approx(_schrodinger_closure(densities, lam[5]),
                                                  rel=1e-13)
        # continuous through lam = 0: within rounding of the value there, up to O(|lam|)
        step = np.abs(sc.char_det_schrodinger(cfg, near) * norm - at_zero)
        assert np.all(step <= 1e-15 * abs(at_zero) + 10.0 * np.abs(near))


EIGHT = sc.ChainConfig(densities=(0.7, 2.3, 1.1, 4.0, 0.3, 1.9, 0.5, 3.2))


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _schrodinger_lams():
    # lam = 0 and points next to it only in the second block
    lam = 1j * np.linspace(-80.0, 80.0, 2 * _BLOCK + 501)
    lam[_BLOCK + 10:_BLOCK + 20] = 1e-20 * (1 - 1j)
    lam[_BLOCK + 20:_BLOCK + 25] = 0.0
    return lam


def _propagated(start):
    return lambda lam: propagate(EIGHT, lam, start)


@pytest.mark.parametrize("evaluate, lam", [
    (_propagated((1, 1)), 1j * np.linspace(-300.0, 300.0, 3 * _BLOCK + 123)),  # axis scan
    (_propagated((1, 1)), np.linspace(-3.0, -1e-3, 131)[None, :]
     + 1j * np.linspace(0.0, 40.0, 130)[:, None]),  # find_eigenvalues' phase grid
    (_propagated(np.eye(2).reshape(2, 2, 1)),
     0.2 + 1j * np.linspace(-100.0, 100.0, 2 * _BLOCK + 7)),  # transfer_values' stacked starts
    (lambda lam: (sc.char_det_schrodinger(EIGHT, lam),), _schrodinger_lams()),
], ids=["axis", "grid", "stacked", "schrodinger"])
def test_blocked_propagate_is_bitwise_the_whole_array(evaluate, lam, monkeypatch):
    assert lam.size > _BLOCK and lam.size % _BLOCK
    got = evaluate(lam)
    monkeypatch.setattr(transfer_matrix, "_BLOCK", lam.size)
    ref = evaluate(lam)
    assert all(_same_bits(g, r) for g, r in zip(got, ref))


def test_blocked_scan_reports_overflow_of_some_blocks(monkeypatch):
    # |Re lam| / c passes 710.48, where cosh overflows, in the first three of four blocks only
    lam = np.linspace(-1500.0, 0.0, 4 * _BLOCK) + 3j
    fn = lambda lam: sc.det_pair(sc.ChainConfig(densities=(1.0,)), lam).d
    with pytest.raises(DeterminantOverflow) as blocked:
        _finite_values(fn, lam)
    monkeypatch.setattr(transfer_matrix, "_BLOCK", lam.size)
    with pytest.raises(DeterminantOverflow) as whole:
        _finite_values(fn, lam)
    assert str(blocked.value) == str(whole.value)


def test_det_pair_axis_scan_peak_memory_is_outputs_plus_one_block():
    # the gap scan's size: 400,001 axis points through an 8-edge chain
    lam = 1j * np.linspace(-200.0, 200.0, 400_001)
    tracemalloc.start()
    try:
        pair = sc.det_pair(EIGHT, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pair.d.nbytes + pair.d_tilde.nbytes + 4 * 2**20


def test_a_scalar_lambda_gets_the_bits_of_the_array_evaluation():
    # each scalar call against the one array call, bit for bit, on a 6-edge chain
    from stringchain.transfer_function import transfer_value
    rng = np.random.default_rng(6)
    cfg = sc.ChainConfig(tuple(rng.uniform(0.25, 4.0, 6)))
    lams = rng.uniform(-3.0, -0.1, 300) + 1j * rng.uniform(-40.0, 40.0, 300)
    pair, schr = sc.det_pair(cfg, lams), sc.char_det_schrodinger(cfg, lams)
    right = -lams.conj()  # the transfer function lives on Re lam > 0
    h = transfer_values(cfg, right)
    q0, q1 = propagate(sc.ChainConfig(cfg.densities[1:]), lams, np.eye(2)[:, :, None])
    for k, lam in enumerate(lams.tolist()):
        one = sc.det_pair(cfg, lam)
        assert (one.d, one.d_tilde) == (pair.d[k], pair.d_tilde[k])
        assert sc.char_det_schrodinger(cfg, lam) == schr[k]
        assert transfer_value(cfg, right[k].item()) == h[k]
        hm, hm_tilde = sc.boundary_matrices(cfg, lam)  # row 2: the unit vectors propagated
        assert np.array_equal(hm[1], q0[:, k]) and np.array_equal(hm_tilde[1], q1[:, k])


def test_a_scalar_lambda_keeps_the_shape_of_its_start():
    cfg = sc.ChainConfig((1.0, 4.0))
    assert [np.shape(v) for v in propagate(cfg, 0.5 + 2.0j, (1, 1))] == [(), ()]
    a, b = propagate(cfg, 0.5 + 2.0j, np.eye(2)[:, :, None])
    assert a.shape == b.shape == (2, 1)
