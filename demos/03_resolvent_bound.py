"""Uniform boundedness of the resolvent along the imaginary axis.

The closed-form solve marches the edge propagators once from the damped
end, starting from the damped row's null vector, fixes that start's
multiple by the clamped row at the far end, and marches again to write
the values, so its cost is a few quadratures per edge at any frequency.  A finite-difference box-scheme discretization
provides an independent cross-check, and random near-resonant probes
estimate the operator norm, which stays bounded as beta grows; that
boundedness is exactly what exponential energy decay requires.
"""

import numpy as np

import stringchain as sc
from stringchain.chain_core import uniform_grids
from stringchain.oracle import rel_l2_diff
from stringchain.resolvent import random_probe, wave_resolvent_norm_scan

cfg = sc.ChainConfig(densities=(1.0, 4.0, 9.0))
beta = 10.0
g = random_probe(cfg, uniform_grids(cfg, 1500), seed=1, arity=2)
sol = sc.wave_resolvent(cfg, beta, g)
print(f"closed-form solve at beta = {beta}: residual {sol.residual:.2e}")

ref = sc.fd_bvp_solve(cfg, 1j * beta,
                      random_probe(cfg, uniform_grids(cfg, 3001), seed=1, arity=2),
                      "wave", 3000)
print(f"relative L2 distance to the box-scheme oracle: {rel_l2_diff(sol.W, ref):.2e}")

print()
print("norm estimates across three decades (probe lower bounds)")
cfg1 = sc.ChainConfig(densities=(1.0,))
betas = np.logspace(1, 4, 16)
points = wave_resolvent_norm_scan(cfg1, betas, probes=6, seed=0)
for p in points[::3]:
    print(f"  beta = {p.beta:9.1f}: estimate {p.norm_estimate:.4f}")
ests = [p.norm_estimate for p in points]
print(f"  spread max/min = {max(ests) / min(ests):.2f} (no blow-up)")

op = sc.fd_wave_matrix(cfg1, 400)
print()
print("smallest-singular-value cross-check (finite-difference oracle)")
for beta in (10.0, 100.0):
    print(f"  beta = {beta:6.1f}: oracle norm {sc.fd_resolvent_norm(op, beta):.4f}")
