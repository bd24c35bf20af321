"""Certified two-sided bounds between divergences.

For a pair with mass ratios inside [r, R], the ratio of two divergences is
sandwiched by the extrema of the curvature ratio of their generators over
[r, R].  The catalog covers ten family pairs with closed-form endpoint
constants; a certificate ships them only where the curvature ratio is
proven monotone on [r, R], and a numeric enclosure of the extrema
elsewhere.  Corners where the cataloged text is misprinted ship
corrected values with an erratum flag.
"""

from divbound import (
    InequalityFamily,
    closed_form_mM,
    corollary_table,
    numeric_mM,
    ratio_bounds,
    sandwich_check,
    validate,
)
from divbound.bounds import family_generators

P = validate([0.5, 0.5])
Q = validate([0.25, 0.75])
rb = ratio_bounds(P, Q)
print(f"mass-ratio interval of the pair: [{rb.r:.6f}, {rb.R:.6f}]")

print()
print("certificate for family II (Omega_s(Q||P) vs Phi_t(P||Q)) at s=2, t=1:")
cert = closed_form_mM(InequalityFamily.II, 2.0, 1.0, rb.r, rb.R)
print(" ", cert.to_json())
rep = sandwich_check(InequalityFamily.II, 2.0, 1.0, P, Q)
print(f"  sandwich: {rep.lhs:.9f} <= {rep.mid:.9f} <= {rep.rhs:.9f}"
      f"  ({'pass' if rep.passed else 'FAIL'})")
print("  here the middle is chi2(P||Q)/8 and the outer terms are m*K, M*K")

print()
print("the numeric enclosure handles parameters outside every cataloged region:")
cert = closed_form_mM(InequalityFamily.I, 0.0, 0.0, rb.r, rb.R)
print(f"  family I at s=t=0: m = {cert.m:.9f}, M = {cert.M:.9f}, "
      f"source = {cert.source.value}, region_ok = {cert.region_ok}")
num, den = family_generators(InequalityFamily.I, 0.0, 0.0)
print(f"  (the ratio x/(x+1)^2 peaks inside the interval: "
      f"sup = {numeric_mM(num, den, rb.r, rb.R)[1]:.9f} at x = 1)")

print()
print("a corrected misprint: family IX's cataloged upper constant repeats R")
cert = closed_form_mM(InequalityFamily.IX, 1.0, 0.0, rb.r, rb.R)
print(f"  shipped m = {cert.m:.9f}, M = {cert.M:.9f}")
print(f"  erratum: {cert.erratum}")

print()
table = corollary_table()
print(f"ratio-form corollaries in the catalog: {len(table)}; a few examples:")
for name in ("chi2-over-2KL", "F-ratio", "delta-vs-chi2", "F-vs-D-qp"):
    c = next(c for c in table if c.name == name)
    rep = sandwich_check(c.family, c.s, c.t, P, Q)
    print(f"  {c.name:<16} {c.display}")
    print(f"    -> family {c.family.value} at (s={c.s:g}, t={c.t:g}): "
          f"{'pass' if rep.passed else 'FAIL'}")
    if c.note:
        print(f"    note: {c.note}")
