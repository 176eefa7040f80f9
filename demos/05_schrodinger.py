"""The dissipative Schrodinger chain: decay, flux balance, resolvent.

The Crank-Nicolson step is contractive in the same weighted product in
which the generator is dissipative, so the recorded energy decreases
strictly and the accumulated boundary flux balances the energy drop to
machine precision.  The resolvent has closed forms on both sides of the
axis: oscillatory propagation for beta > 0 and, for beta < 0, bounded
decaying exponentials (there the a priori bound |u| <= |g| / |beta|
holds and the scan confirms it).
"""

import numpy as np

import stringchain as sc
from stringchain.chain_core import sample_function, smooth_bump, uniform_grids
from stringchain.oracle import rel_l2_diff
from stringchain.resolvent import random_probe, schrodinger_norm_scan
from stringchain.timesim import SimOptions

cfg = sc.ChainConfig(densities=(1.0,))
u0 = sample_function(cfg, 600, smooth_bump)
trace, _ = sc.simulate_schrodinger(cfg, u0, SimOptions(points_per_edge=600, T=6.0, dt=5e-4,
                                                       record_stride=20))
e0 = trace.energies[0]
print("Crank-Nicolson run, one string")
for t in (1.0, 2.0, 3.0, 4.0, 5.0):
    i = np.argmin(np.abs(trace.times - t))
    print(f"  t = {trace.times[i]:4.2f}: E/E0 = {trace.energies[i] / e0:.3e}")
print(f"  strictly decreasing: {bool(np.all(np.diff(trace.energies) < 0))}")
balance = abs(e0 - trace.energies[-1] - trace.boundary_flux[-1]) / e0
print(f"  energy/flux balance defect: {balance:.1e}")

eig = sc.find_eigenvalues(cfg, (-3, 0, 0.5, 30), "schrodinger", grid=(48, 128))
print(f"  slowest mode {eig.eigenvalues[0]:.4f}; fitted rate {sc.fit_decay_rate(trace):.3f} "
      f"vs 2|abscissa| = {2 * abs(eig.abscissa):.3f}")

print()
print("resolvent scan, both signs of beta")
pos = schrodinger_norm_scan(cfg, np.logspace(2, 4, 7), probes=4, seed=0)
for p in pos:
    print(f"  beta = {p.beta:10.1f}: |u|/|g| <= {p.norm_estimate:.4e}")
neg = schrodinger_norm_scan(cfg, [-1e2, -1e3, -1e4], probes=4, seed=0)
for p in neg:
    print(f"  beta = {p.beta:10.1f}: estimate {p.norm_estimate:.3e} "
          f"(a priori 1/|beta| = {1.0 / abs(p.beta):.3e})")

print()
print("closed form vs finite differences at beta = 100, two strings")
cfg2 = sc.ChainConfig(densities=(1.0, 4.0))
g = random_probe(cfg2, uniform_grids(cfg2, 1601), seed=2, arity=1)
sol = sc.schrodinger_resolvent(cfg2, 100.0, g)
ref = sc.fd_bvp_solve(cfg2, 100.0j, g, "schrodinger", 1600)
print(f"  relative L2 difference: {rel_l2_diff(sol.u, ref):.2e}")
