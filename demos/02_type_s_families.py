"""The three type-s families and the classical measures they interpolate.

Phi_s generalizes relative information, Omega_s unifies the relative
Jensen-Shannon and arithmetic-geometric divergences, and Zeta_s generalizes
the relative J-divergence.  Sweeping s shows the classical measures sitting
at special parameter values; the kernels are exact for every real s, the
removable singularities s = 0, 1 included.
"""

from divbound import validate
from divbound.families import omega_s, phi_s, zeta_s
from divbound.measures import chi_square, hellinger, kl, rel_ag, rel_j, rel_js, triangular

P = validate([0.4, 0.35, 0.25])
Q = validate([0.2, 0.5, 0.3])
p, q = P.masses, Q.masses

print("Phi_s sweep (relative information of type s):")
for s in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
    print(f"  s = {s:>4}:  {phi_s(s, p, q):.12f}")
print("special values:")
print(f"  Phi_-1  = chi2(Q||P)/2 : {phi_s(-1, p, q):.12f} = {chi_square(q, p)/2:.12f}")
print(f"  Phi_0   = K(Q||P)      : {phi_s(0, p, q):.12f} = {kl(q, p):.12f}")
print(f"  Phi_1/2 = 4h           : {phi_s(0.5, p, q):.12f} = {4*hellinger(p, q):.12f}")
print(f"  Phi_1   = K(P||Q)      : {phi_s(1, p, q):.12f} = {kl(p, q):.12f}")
print(f"  Phi_2   = chi2(P||Q)/2 : {phi_s(2, p, q):.12f} = {chi_square(p, q)/2:.12f}")

print()
print("Omega_s and its adjoint:")
print(f"  Omega_-1 = Delta/4     : {omega_s(-1, p, q):.12f} = {triangular(p, q)/4:.12f}")
print(f"  Omega_0  = F(P||Q)     : {omega_s(0, p, q):.12f} = {rel_js(p, q):.12f}")
print(f"  Omega_1  = G(P||Q)     : {omega_s(1, p, q):.12f} = {rel_ag(p, q):.12f}")
print(f"  Omega_2  = chi2(Q||P)/8: {omega_s(2, p, q):.12f} = {chi_square(q, p)/8:.12f}")
print(f"  adjoint at s=2         : {omega_s(2, p, q, adjoint=True):.12f}"
      f" = {chi_square(p, q)/8:.12f}")

print()
print("Zeta_s and its adjoint (convex generator for 0 <= s <= 4):")
print(f"  Zeta_0 = Delta         : {zeta_s(0, p, q):.12f} = {triangular(p, q):.12f}")
print(f"  Zeta_1 = D(P||Q)       : {zeta_s(1, p, q):.12f} = {rel_j(p, q):.12f}")
print(f"  Zeta_2 = chi2(P||Q)/2  : {zeta_s(2, p, q):.12f} = {chi_square(p, q)/2:.12f}")

print()
print("swap duality Phi_s(P||Q) = Phi_(1-s)(Q||P), for any real s:")
for s in (-1.0, 0.3, 0.5, 2.7):
    print(f"  s = {s:>4}: {phi_s(s, p, q):.15f}  vs  {phi_s(1 - s, q, p):.15f}")
