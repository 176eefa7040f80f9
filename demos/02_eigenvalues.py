"""Eigenvalues of the damped chain as zeros of the characteristic determinant.

For one string of density rho the zeros solve tanh(lam / c) = -c with
c = sqrt(rho): a single vertical line of roots.  The matched string
(rho = 1) is special: the damper absorbs outgoing waves exactly and the
determinant never vanishes, so there is no spectrum anywhere.

For two strings the slow modes live on the far edge and leak through
the joint; the decay rate -ln(r) per unit time comes from the joint
reflection coefficient r = (c1 - c0) / (c1 + c0).
"""

import numpy as np

import stringchain as sc

print("one string, rho = 1/4: roots on Re = -ln(3)/4, spaced pi/2")
cfg = sc.ChainConfig(densities=(0.25,))
eig = sc.find_eigenvalues(cfg, (-1, 0, 0, 10), "wave", grid=(48, 160))
for z, r in zip(eig.eigenvalues, eig.residuals):
    print(f"  {z.real:+.9f} {z.imag:+.9f}i   |det| = {r:.1e}")
print(f"  closed form Re = {-np.log(3) / 4:.9f}")

print()
print("one matched string: empty spectrum")
empty = sc.find_eigenvalues(sc.ChainConfig(densities=(1.0,)), (-3, 0, 0, 40), "wave")
print(f"  roots found in [-3,0]x[0,40]: {empty.eigenvalues.size}")

print()
print("two strings, rho = [1, 4]: trapped modes behind the joint")
cfg2 = sc.ChainConfig(densities=(1.0, 4.0))
eig2 = sc.find_eigenvalues(cfg2, (-2, 0, 0, 30), "wave", grid=(48, 160), audit=True)
for z in eig2.eigenvalues:
    print(f"  {z.real:+.9f} {z.imag:+.9f}i")
r = (2.0 - 1.0) / (2.0 + 1.0)
print(f"  joint reflection r = 1/3, predicted abscissa ln(r) = {np.log(r):.9f}")
print(f"  winding-number audit over the rectangle: {eig2.audit_count} roots")

print()
print("cross-check against a dense finite-difference discretization")
ev = np.linalg.eigvals(sc.fd_wave_matrix(cfg2, 300).matrix.toarray())
for z in eig2.eigenvalues[:3]:
    d = np.min(np.abs(ev - z))
    print(f"  root {z:.6f}: nearest discrete eigenvalue within {d:.2e}")
