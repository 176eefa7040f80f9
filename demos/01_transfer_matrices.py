"""Transfer-matrix determinants of the damped chain.

Each edge of the chain propagates boundary data (value, flux) by a
unimodular 2x2 exponential.  Closing the product with the damped row at
x = 0 and the clamped row at x = N gives a pair of determinants
(D, D~).  Two facts drive everything else in this package:

  * on the imaginary axis Re(D * conj(D~)) = 1 identically, and
  * |D| stays above an explicit positive constant there,

which together rule out spectrum on the axis and bound the resolvent.
"""

import numpy as np

import stringchain as sc
from stringchain.transfer_matrix import analytic_gap_bound

rng = np.random.default_rng(0)

print("identity Re(D conj(D~)) = 1 on the imaginary axis")
for n in (1, 2, 4, 6):
    cfg = sc.ChainConfig(densities=tuple(rng.uniform(0.1, 10.0, n)))
    betas = rng.uniform(-100, 100, 200)
    err = np.max(np.abs(sc.det_pair(cfg, 1j * betas).identity_value - 1.0))
    print(f"  N={n}: max deviation {err:.2e}")

print()
print("lower bound for |D| on the axis (analytic vs certified minimum on [-100, 100])")
for dens in [(1.0,), (4.0,), (1.0, 2.0), (0.5, 3.0, 1.5)]:
    cfg = sc.ChainConfig(densities=dens)
    ga = analytic_gap_bound(cfg)
    gn = sc.imaginary_axis_gap(cfg, "wave", (-100.0, 100.0), 0.1)
    print(f"  rho = {dens}: analytic {ga:.4f} <= certified {gn.value:.4f} "
          f"({gn.lambdas} frequencies)")

print()
print("the single matched string: |D| = 1 exactly, so no axis spectrum at all")
gap = sc.imaginary_axis_gap(sc.ChainConfig(densities=(1.0,)), "wave", (-200, 200), 0.1)
print(f"  certified min |D| over [-200, 200] = {gap.value:.12f}")
