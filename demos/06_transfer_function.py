"""The boundary transfer function and the input/output energy ratios.

Feeding a Neumann input at the damped end and reading the velocity
there defines a scalar transfer function on the right half plane.  For
the single matched string it is -tanh(lam) in closed form, and its
supremum on a vertical line Re = gamma is coth(gamma), attained halfway
between the resonances.  The time-domain counterparts are the
admissibility ratio (output energy per input energy, forced from rest)
and the observability ratio (output energy per initial energy of the
undamped chain), which is what exponential stabilizability rests on.
"""

import numpy as np

import stringchain as sc
from stringchain.chain_core import sample_state, smooth_bump
from stringchain.timesim import SimOptions

cfg = sc.ChainConfig(densities=(1.0,))
print("closed form for the matched string: H(lam) = -tanh(lam)")
for lam in (1.0 + 0j, 1.0 + 5j, 2.0 + 17.3j):
    print(f"  H({lam}) = {sc.transfer_value(cfg, lam):.9f}   -tanh = {-np.tanh(lam):.9f}")

sup, argmax = sc.transfer_sup_scan(cfg, 1.0, (-50, 50), 0.01)
print(f"sup on Re = 1: {sup:.6f} at beta = {argmax:.4f} (coth(1) = {1 / np.tanh(1):.6f})")
sup2, _ = sc.transfer_sup_scan(cfg, 2.0, (-50, 50), 0.01)
print(f"sup on Re = 2: {sup2:.6f} (deeper line, smaller reflections)")

print()
print("admissibility: boundary output energy per unit input energy")
opts = SimOptions(points_per_edge=800, T=4.0, cfl=0.5)
ratio = sc.admissibility_ratio(cfg, lambda t: np.sin(2 * np.pi * t), opts)
print(f"  forced run ratio = {ratio:.6f} (finite, as the sup bound demands)")

print()
print("observability: the conservative chain reveals its energy at x = 0")
mode = sample_state(cfg, 800, lambda x: np.cos(0.5 * np.pi * x).astype(complex))
obs = sc.observability_ratio(cfg, mode, opts)
print(f"  slowest conservative mode, T = 4 >= round trip {sc.round_trip_time(cfg):.1f}: "
      f"ratio = {obs:.4f}")
far = sample_state(cfg, 800, lambda x: smooth_bump(x, 0.7, 0.95))
tiny = sc.observability_ratio(cfg, far, SimOptions(points_per_edge=800, T=0.5, cfl=0.5))
print(f"  data near the far end, T = 0.5 below first arrival: ratio = {tiny:.1e}")
