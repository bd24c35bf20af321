"""Certified two-sided bounds between f-divergences.

For two generators with f1(1) = f2(1) = 0, both twice differentiable and
f2'' > 0 on the likelihood-ratio interval (r, R), any constants

    m <= g(x) = f1''(x) / f2''(x) <= M        for all x in (r, R)

give the sandwich  m C_f2(P||Q) <= C_f1(P||Q) <= M C_f2(P||Q)  for every
pair whose mass ratios lie in [r, R] (convexity of f1 - m f2 and of
M f2 - f1 plus nonnegativity of normalized convex f-divergences).

The best constants this argument gives are m = inf g and M = sup g over
[r, R].  They are sound for every such pair but not the sharp sandwich
constants: the extrema of C_f1 / C_f2 over those pairs can lie strictly
inside [m, M].  They are enclosed from outside, m <= inf g and M >= sup g,
in two ways:

* :func:`numeric_mM` - an outward enclosure of ln|g| at r, R and the
  roots where g' changes sign, which are the roots of a cubic decided
  exactly (:class:`_Ratio`); works for any generator pair with positive
  denominator curvature, monotone or not, and returns m <= inf g and
  M >= sup g.

* :func:`closed_form_mM` - the cataloged endpoint formulas for the ten
  inequality families below, whose regions make g monotone so that the
  extrema sit at the interval endpoints.  Where g is proven monotone on
  [r, R] in the cataloged direction, the certificate is the same
  :class:`_Ratio`'s values at r and R, padded outward by their rounding
  allowance; elsewhere that ratio's numeric enclosure is shipped with an
  ``erratum``.  The printed catalog text only adds an erratum where it
  disagrees (its misprinted corners).

The ten families, numbered by their catalog tags:

    id    numerator          denominator        tags
    ----  -----------------  -----------------  ---------
    I     Omega_s(P||Q)      Phi_t(P||Q)        (32)/(33)
    II    Omega_s(Q||P)      Phi_t(P||Q)        (34)/(35)
    III   Zeta_s(P||Q)       Phi_t(P||Q)        (36)/(37)
    IV    Zeta_s(Q||P)       Phi_t(P||Q)        (38)/(39)
    V     Omega_s(Q||P)      Omega_t(P||Q)      (40)/(41)
    VI    Zeta_s(P||Q)       Omega_t(P||Q)      (42)
    VII   Zeta_s(Q||P)       Omega_t(P||Q)      (43)/(44)
    VIII  Zeta_s(P||Q)       Omega_t(Q||P)      (45)/(46)
    IX    Zeta_s(Q||P)       Omega_t(Q||P)      (47)
    X     Zeta_s(Q||P)       Zeta_t(P||Q)       (48)

Region predicates are closed sets (boundary equality is in-region).  When
(s, t) violates every region of a family the engine still certifies the
pair numerically (``region_ok=False``): monotonicity is sufficient for the
endpoint formulas, not necessary for the sandwich itself.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

from .errors import (
    DegenerateDenominator,
    InvalidArgument,
    NonFiniteValue,
    NonPositiveArgument,
    RegionViolation,
)
from .generators import D2_FORMS, Gen, GeneratorSpec, csiszar, log_d2
from .simplex import Distribution, ratio_bounds

import numpy as np

#: tolerance scale for sandwich slack: pass iff slack >= -SLACK_REL_TOL * max(1, |mid|)
SLACK_REL_TOL = 1e-10
#: printed catalog text vs endpoint value agreement threshold
CROSS_CHECK_TOL = 1e-6
#: (s, t) validation grid used by the verification suites
PARAM_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)


class InequalityFamily(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"
    VIII = "VIII"
    IX = "IX"
    X = "X"


class CertificateSource(Enum):
    CLOSED_FORM = "closed-form"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Branch:
    tag: str
    increasing: bool
    predicate: Callable[[float, float], bool]
    condition: str


@dataclass(frozen=True)
class FamilyDef:
    num_gen: Gen
    den_gen: Gen
    label: str
    branches: tuple[Branch, ...]
    #: the catalog's endpoint constant as printed, misprints included:
    #: ``printed(s, t, e, R)`` at the end e of [r, R]
    printed: Callable[[float, float, float, float], float]


def _in04(s: float) -> bool:
    return 0.0 <= s <= 4.0


FAMILY_DEFS: dict[InequalityFamily, FamilyDef] = {
    InequalityFamily.I: FamilyDef(
        Gen.PSI,
        Gen.PHI,
        "Ω_s(P||Q) vs Φ_t(P||Q)",
        (
            Branch("32", True, lambda s, t: s + t <= 1 and t <= -1, "s + t ≤ 1, t ≤ −1"),
            Branch("33", False, lambda s, t: s + t >= 1 and t >= -1, "s + t ≥ 1, t ≥ −1"),
        ),
        lambda s, t, e, R: ((e + 1.0) / (2.0 * e)) ** (s - 2.0) / (4.0 * e ** (t + 1.0)),
    ),
    InequalityFamily.II: FamilyDef(
        Gen.UPSILON,
        Gen.PHI,
        "Ω_s(Q||P) vs Φ_t(P||Q)",
        (
            Branch("34", True, lambda s, t: s >= t and t <= 2, "s ≥ t, t ≤ 2"),
            Branch("35", False, lambda s, t: s <= t and t >= 2, "s ≤ t, t ≥ 2"),
        ),
        lambda s, t, e, R: ((e + 1.0) / 2.0) ** (s - 2.0) / (4.0 * e ** (t - 2.0)),
    ),
    InequalityFamily.III: FamilyDef(
        Gen.XI,
        Gen.PHI,
        "ζ_s(P||Q) vs Φ_t(P||Q)",
        (
            Branch(
                "36",
                True,
                lambda s, t: _in04(s) and t <= 2 and s >= t + 1,
                "0 ≤ s ≤ 4, t ≤ 2, s ≥ t + 1",
            ),
            Branch(
                "37",
                False,
                lambda s, t: _in04(s) and t >= 2 and s <= t + 1,
                "0 ≤ s ≤ 4, t ≥ 2, s ≤ t + 1",
            ),
        ),
        lambda s, t, e, R: (
            ((e + 1.0) / 2.0) ** (s - 3.0) * (s * e + 4.0 - s) / (4.0 * e ** (t - 2.0))
        ),
    ),
    InequalityFamily.IV: FamilyDef(
        Gen.VARSIGMA,
        Gen.PHI,
        "ζ_s(Q||P) vs Φ_t(P||Q)",
        (
            Branch(
                "38",
                True,
                lambda s, t: _in04(s) and t <= -1 and s + t <= 1,
                "0 ≤ s ≤ 4, t ≤ −1, s + t ≤ 1",
            ),
            Branch(
                "39",
                False,
                lambda s, t: _in04(s) and t >= -1 and s + t >= 2,
                "0 ≤ s ≤ 4, t ≥ −1, s + t ≥ 2",
            ),
        ),
        lambda s, t, e, R: (
            ((e + 1.0) / (2.0 * e)) ** (s - 3.0) * ((4.0 - s) * e + s) / (4.0 * e ** (t + 2.0))
        ),
    ),
    InequalityFamily.V: FamilyDef(
        Gen.UPSILON,
        Gen.PSI,
        "Ω_s(Q||P) vs Ω_t(P||Q)",
        (
            Branch("40", True, lambda s, t: s >= -1 and t >= -1, "s ≥ −1, t ≥ −1"),
            Branch("41", False, lambda s, t: s <= -1 and t <= -1, "s ≤ −1, t ≤ −1"),
        ),
        lambda s, t, e, R: e ** (t + 1.0) * ((e + 1.0) / 2.0) ** (s - t),
    ),
    InequalityFamily.VI: FamilyDef(
        Gen.XI,
        Gen.PSI,
        "ζ_s(P||Q) vs Ω_t(P||Q)",
        (
            Branch(
                "42",
                True,
                lambda s, t: _in04(s) and t >= -1,
                "0 ≤ s ≤ 4, t ≥ −1",
            ),
        ),
        lambda s, t, e, R: (
            e ** (t + 1.0) * ((e + 1.0) / 2.0) ** (s - t - 1.0) * (s * e + 4.0 - s)
        ),
    ),
    InequalityFamily.VII: FamilyDef(
        Gen.VARSIGMA,
        Gen.PSI,
        "ζ_s(Q||P) vs Ω_t(P||Q)",
        (
            Branch(
                "43",
                True,
                lambda s, t: _in04(s) and t >= s and t * (4 - s) >= 6 * s - s * s - 4,
                "0 ≤ s ≤ 4, t ≥ s, t(4 − s) ≥ 6s − s² − 4",
            ),
            Branch(
                "44",
                False,
                lambda s, t: _in04(s) and t <= s and t * (4 - s) <= 6 * s - s * s - 4,
                "0 ≤ s ≤ 4, t ≤ s, t(4 − s) ≤ 6s − s² − 4",
            ),
        ),
        lambda s, t, e, R: (
            ((e + 1.0) / (2.0 * e)) ** (s - t - 1.0) * ((4.0 - s) * e + s) / e
        ),
    ),
    InequalityFamily.VIII: FamilyDef(
        Gen.XI,
        Gen.UPSILON,
        "ζ_s(P||Q) vs Ω_t(Q||P)",
        (
            Branch(
                "45",
                True,
                lambda s, t: _in04(s) and s >= t and s * (t - s + 6) >= 4 * (1 + t),
                "0 ≤ s ≤ 4, s ≥ t, s(t − s + 6) ≥ 4(1 + t)",
            ),
            Branch(
                "46",
                False,
                lambda s, t: _in04(s) and s <= t and s * (t - s + 6) <= 4 * (1 + t),
                "0 ≤ s ≤ 4, s ≤ t, s(t − s + 6) ≤ 4(1 + t)",
            ),
        ),
        lambda s, t, e, R: ((e + 1.0) / 2.0) ** (s - t - 1.0) * (s * e + 4.0 - s),
    ),
    InequalityFamily.IX: FamilyDef(
        Gen.VARSIGMA,
        Gen.UPSILON,
        "ζ_s(Q||P) vs Ω_t(Q||P)",
        (
            Branch(
                "47",
                False,
                lambda s, t: _in04(s) and t >= -1,
                "0 ≤ s ≤ 4, t ≥ −1",
            ),
        ),
        # misprint: (47) repeats (4 - s) R + s at both ends where the endpoint
        # value has (4 - s) e + s, so its upper constant (at e = r) is wrong
        lambda s, t, e, R: (
            ((e + 1.0) / 2.0) ** (s - t - 1.0) * ((4.0 - s) * R + s) / e ** (s + 1.0)
        ),
    ),
    InequalityFamily.X: FamilyDef(
        Gen.VARSIGMA,
        Gen.XI,
        "ζ_s(Q||P) vs ζ_t(P||Q)",
        (
            Branch(
                "48",
                False,
                lambda s, t: 2 <= s <= 4 and 2 <= t <= 4,
                "2 ≤ s ≤ 4, 2 ≤ t ≤ 4",
            ),
        ),
        lambda s, t, e, R: (
            ((e + 1.0) / 2.0) ** (s - t)
            * ((4.0 - s) * e + s)
            / (e ** (s + 1.0) * (t * e + 4.0 - t))
        ),
    ),
}


def family_generators(
    family: InequalityFamily, s: float, t: float
) -> tuple[GeneratorSpec, GeneratorSpec]:
    fd = FAMILY_DEFS[family]
    return GeneratorSpec(fd.num_gen, s), GeneratorSpec(fd.den_gen, t)


def active_branch(family: InequalityFamily, s: float, t: float) -> Optional[Branch]:
    """First branch whose region contains (s, t), or None."""
    for br in FAMILY_DEFS[family].branches:
        if br.predicate(s, t):
            return br
    return None


def in_region(family: InequalityFamily, s: float, t: float) -> bool:
    return active_branch(family, s, t) is not None


def region_grid(
    family: InequalityFamily, grid: tuple[float, ...] = PARAM_GRID
) -> list[tuple[float, float]]:
    """All (s, t) of the validation grid inside some region of the family."""
    return [(s, t) for s in grid for t in grid if in_region(family, s, t)]


# --------------------------------------------------------------------------
# curvature ratio and numeric extrema


def g_ratio(num: GeneratorSpec, den: GeneratorSpec, x):
    """f1''(x) / f2''(x) for x > 0 (scalar or array); denominator curvature
    must be positive.  Read unpadded from the log-domain records
    (:func:`log_curvatures`), so curvatures beyond the double range are fine
    unless the ratio itself overflows (:class:`NonFiniteValue`)."""
    xs = np.asarray(x, float)
    if not np.all(np.isfinite(xs)):
        raise InvalidArgument(f"curvature ratio needs finite x, got {x}")
    if not np.all(xs > 0.0):
        raise NonPositiveArgument(f"curvature ratio needs x > 0, got {x}")
    L, sign, _ = log_curvatures(np.array([log_d2(num), log_d2(den)]), xs.reshape(-1))
    if not np.all((sign[1] > 0.0) & ~np.isnan(L[1])):
        raise DegenerateDenominator(f"{den.gen.value}(s={den.s}) has non-positive "
                                    f"curvature at x = {x}")
    with np.errstate(over="ignore"):
        g = (sign[0] * np.exp(L[0] - L[1])).reshape(xs.shape)
    if not np.all(np.isfinite(g)):
        raise NonFiniteValue(f"curvature ratio {num.gen.value}(s={num.s}) / "
                             f"{den.gen.value}(s={den.s}) at x = {x} {_OVERFLOW}")
    return g if np.ndim(x) else float(g)


def log_curvatures(records: np.ndarray, x: np.ndarray):
    """``(L, sign, e)``: ln|f''|, the sign of f'' and the rounding allowance
    of L for each of the ``(specs x 6)`` :func:`log_d2` ``records`` at each
    point of the 1-D ``x > 0``, as ``(specs x points)`` arrays.  The
    allowance is :meth:`_Ratio.point`'s rule for one curvature, and 0 where
    f'' = 0."""
    alpha, beta, c, sign, p, q = (a[:, None] for a in records.T)
    y, l1 = np.log(x), np.log1p(x)
    L = alpha * y + beta * l1 + c
    e = np.abs(alpha) * np.abs(y) + np.abs(beta) * l1 + (np.abs(c) + 1.0)
    sign = np.repeat(sign, x.shape[0], axis=1)
    lin = np.flatnonzero(p)
    px, q = p[lin] * x, q[lin]
    v = px + q
    with np.errstate(divide="ignore"):
        lv = np.log(np.abs(v))
        e[lin] += np.abs(lv) + (np.abs(px) + np.abs(q)) / np.abs(v)
    L[lin] += lv
    sign[lin] *= np.sign(v)
    e = _ERR * (e + np.abs(L))
    e[sign == 0.0] = 0.0
    return L, sign, e


_OVERFLOW = "overflows double precision"


def _non_finite(num: GeneratorSpec, den: GeneratorSpec, r: float, R: float, what: str):
    return NonFiniteValue(
        f"curvature ratio {num.gen.value}(s={num.s}) / {den.gen.value}(s={den.s}) "
        f"on [{r}, {R}] {what}"
    )


def numeric_mM(
    num: GeneratorSpec, den: GeneratorSpec, r: float, R: float
) -> tuple[float, float]:
    """inf and sup of the curvature ratio over [r, R], enclosed from outside.

    The extrema of g lie at r, R and the roots where its cubic N changes
    sign (:class:`_Ratio`), so ln|g| is evaluated only at r, R, the zero of
    g and the ends of a narrow bracket around each such root.  Padded
    outward by the rounding allowance of the evaluations, the result holds
    ``m <= inf g`` and ``M >= sup g``; for r == R it is the value at r
    padded both ways.  Curvatures beyond the double range are fine as long
    as the extrema are not.  Raises :class:`DegenerateDenominator` when the
    denominator curvature is not positive on [r, R] and
    :class:`NonFiniteValue` when an extremum overflows double precision or
    a non-zero one underflows it.
    """
    return _Ratio(num, den, r, R).extrema()[:2]


# --------------------------------------------------------------------------
# the curvature ratio and its cubic

#: rounding allowance per unit of term magnitude in ln|g|
_ERR = 8.0 * sys.float_info.epsilon
#: ln of the least normal double
_LOG_TINY = math.log(sys.float_info.min)
#: error of the float filter per unit of magnitude form.  Each form k0 +
#: k1 s that :func:`_at` reads has |k1| <= 1, so it is exact or one rounding
#: off its own value; from the forms a value the filter decides takes at
#: most 15 rounded steps on any path (gamma_15 < 7.6 eps), and its
#: magnitude form, the same steps on the absolute values of the terms, is
#: low by at most as much.  It runs only on s, t, x that are 0 or within
#: [1e-30, 1e30] in magnitude, so no step leaves the normal range.
_FILTER = 16.0 * sys.float_info.epsilon


def _filterable(v) -> bool:
    return v == 0.0 or 1e-30 <= abs(v) <= 1e30


def _at(forms, v, one) -> tuple:
    """alpha, alpha + beta, p and q of a :data:`D2_FORMS` row at v, with
    ``one`` the unit of the constant terms."""
    (a0, a1), (b0, b1), _, (p0, p1), (q0, q1) = forms
    return (a0 * one + a1 * v, (a0 + b0) * one + (a1 + b1) * v,
            p0 * one + p1 * v, q0 * one + q1 * v)


def _coefficients(f1, f2, s, t, one=1) -> tuple:
    """(c0, c1, c2, c3) of N(x) = sum c_k x^k from the :data:`D2_FORMS` row
    f1 of the numerator at s and f2 of the denominator at t, in the
    arithmetic of s, t and ``one``, and their magnitude forms: the same sums
    over the absolute values of the terms.  A + B enters only as a
    difference of alpha + beta forms, so a coefficient that vanishes for
    every (s, t) comes out exactly 0."""
    (a1, ab1, p1, q1), (a2, ab2, p2, q2) = _at(f1, s, one), _at(f2, t, one)
    A, AB, pq, qp, qq, pp = a1 - a2, ab1 - ab2, p1 * q2, p2 * q1, q1 * q2, p1 * p2
    u, w = pq + qp, pq - qp
    Am, ABm, um = abs(a1) + abs(a2), abs(ab1) + abs(ab2), abs(pq) + abs(qp)
    qm, pm = abs(qq), abs(pp)
    return ((A * qq, A * u + AB * qq + w * one, A * pp + AB * u + w * one, AB * pp),
            (Am * qm, Am * um + ABm * qm + um * one, Am * pm + ABm * um + um * one, ABm * pm))


def _decide(vals, mags) -> Optional[list[int]]:
    """Signs of float values within ``_FILTER`` times their magnitude forms
    of the exact ones, or None when one lies too close to 0 to tell."""
    for v, m in zip(vals, mags):
        if abs(v) <= _FILTER * m and m:
            return None
    return [(v > 0.0) - (v < 0.0) for v in vals]


def _moebius(c, a, b) -> tuple:
    """Coefficients of N((a + b y) / (1 + y)) (1 + y)^3, whose roots y > 0
    are the roots of N in (a, b): the first is N(a), the last N(b)."""
    c0, c1, c2, c3 = c
    aa, ab, bb = a * a, a * b, b * b
    return (c0 + c1 * a + c2 * aa + c3 * (aa * a),
            3 * c0 + c1 * (a + a + b) + c2 * (aa + ab + ab) + 3 * c3 * (aa * b),
            3 * c0 + c1 * (a + b + b) + c2 * (ab + ab + bb) + 3 * c3 * (a * bb),
            c0 + c1 * b + c2 * bb + c3 * (bb * b))


def _discriminant(c) -> int:
    """Of the cubic sum c_k x^k (c2^2 times that of the quadratic when
    c3 = 0): positive for three distinct real roots, 0 for a multiple one."""
    c0, c1, c2, c3 = c
    return (18 * c3 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
            - 4 * c3 * c1 ** 3 - 27 * c3 ** 2 * c0 ** 2)


def _turns(signs) -> int:
    """Sign changes along a sequence, zeros skipped."""
    nz = [v for v in signs if v]
    return sum(u != v for u, v in zip(nz, nz[1:]))


#: ln|g| at x: ``y = ln x``, ``l1 = ln(1+x)``, value ``L`` with rounding
#: allowance ``e``, the sign ``s`` of g (0 at a zero of g) and the terms
#: ``lv``, ``lw`` of the linear factors
_Pt = namedtuple("_Pt", "x y l1 L e s lv lw")


class _Ratio:
    """g = f1''/f2'' on [lo, hi].  Its values come from the :func:`log_d2`
    records, ln|g| = A ln x + B ln(1+x) + ln|p1 x + q1| - ln(p2 x + q2) + C,
    and its shape from the cubic N(x) = x (ln|g|)' (1+x)(p1 x + q1)(p2 x + q2),
    x (ln|g|)' = A + B x/(1+x) + p1 x/(p1 x + q1) - p2 x/(p2 x + q2), built
    from s and t themselves (:data:`D2_FORMS`).  There f'' is a positive power
    times p x + q, and p2 x + q2 > 0, so g' has the sign of N: g rises
    exactly where N > 0, and its extrema lie at lo, hi and the roots where N
    changes sign.  A float filter with a rigorous error bound decides the
    signs of N, and exact integer arithmetic where it cannot (Shewchuk 1997).
    Values of ln|g| carry a rounding allowance (``_ERR`` per unit of
    magnitude, including the conditioning of p x + q).  The zero of g is
    taken at the rounded -q1/p1, so within a few ulps of it the sign of g,
    and values of order eps (|p1 x| + |q1|) relative to the rest of g, are
    as rounded.
    """

    def __init__(self, num: GeneratorSpec, den: GeneratorSpec, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidArgument(f"interval ends must be finite, got [{lo}, {hi}]")
        if not (lo > 0.0 and hi > 0.0):
            raise NonPositiveArgument(f"interval must be positive, got [{lo}, {hi}]")
        if not lo <= hi:
            raise InvalidArgument(f"need r <= R, got [{lo}, {hi}]")
        a, b = log_d2(num), log_d2(den)
        if not (b.sign > 0.0 and math.isfinite(b.alpha + b.beta + b.c)) or (
            b.p and not (b.p * lo + b.q > 0.0 and b.p * hi + b.q > 0.0)
        ):
            raise DegenerateDenominator(
                f"{den.gen.value}(s={den.s}) has non-positive curvature on [{lo}, {hi}]"
            )
        self.num, self.den, self.lo, self.hi = num, den, float(lo), float(hi)
        self.A = a.alpha - b.alpha
        self.B = a.beta - b.beta
        self.C = a.c - b.c
        self.sign = a.sign
        self.p1, self.q1, self.p2, self.q2 = a.p, a.q, b.p, b.q
        # magnitudes behind the rounding of A, B and C
        self.sa = abs(a.alpha) + abs(b.alpha)
        self.sb = abs(a.beta) + abs(b.beta)
        self.sc = abs(a.c) + abs(b.c)
        s, t = num.s, den.s
        c, cm = _coefficients(D2_FORMS[num.gen], D2_FORMS[den.gen], s, t)
        self.c, self.cm = c, cm if _filterable(s) and _filterable(t) and (
            1e-30 <= self.lo and self.hi <= 1e30) else None
        # ln|g| at lo and hi, where every use of the ratio starts
        self.ends = (self.point(self.lo), self.point(self.hi))

    @cached_property
    def exact(self) -> tuple:
        """N's coefficients times E^3, E the product of the denominators of
        s and t, in integers: exact, with the signs and roots of N's."""
        (S, ds), (T, dt) = (spec.s.as_integer_ratio() for spec in (self.num, self.den))
        forms = D2_FORMS[self.num.gen], D2_FORMS[self.den.gen]
        return _coefficients(*forms, S * dt, T * ds, ds * dt)[0]

    def signs(self, a: float, b: float) -> list[int]:
        """Signs of the :func:`_moebius` coefficients of (a, b): from the
        float filter, else exactly, with a and b as integers over their
        common denominator d and N's coefficients scaled to match."""
        signs = self.cm and _decide(_moebius(self.c, a, b), _moebius(self.cm, a, b))
        if signs:
            return signs
        (A, da), (B, db) = a.as_integer_ratio(), b.as_integer_ratio()
        d = max(da, db)
        c = [v * d ** (3 - k) for k, v in enumerate(self.exact)]
        return [(v > 0) - (v < 0) for v in _moebius(c, A * (d // da), B * (d // db))]

    def point(self, x: float, zero: bool = False) -> _Pt:
        """ln|g| at x; ``zero`` marks x as the zero of p1 x + q1."""
        y, l1 = math.log(x), math.log1p(x)
        L = self.A * y + self.B * l1 + self.C
        e = self.sa * abs(y) + self.sb * l1 + self.sc + 1.0
        s, lv, lw = self.sign, 0.0, 0.0
        if self.p1:
            v = 0.0 if zero else self.p1 * x + self.q1
            if v:
                lv = math.log(abs(v))
                L += lv
                e += abs(lv) + (abs(self.p1 * x) + abs(self.q1)) / abs(v)
                if v < 0.0:
                    s = -s
            else:
                lv = L = -math.inf
                s = 0.0
        if self.p2:
            w = self.p2 * x + self.q2
            lw = math.log(w)
            L -= lw
            e += abs(lw) + (abs(self.p2 * x) + abs(self.q2)) / w
        e = _ERR * (e + abs(L)) if s else _ERR * e
        if not math.isfinite(e):  # nor is L, unless g = 0 here
            raise _non_finite(self.num, self.den, self.lo, self.hi,
                              f"has log-curvature {L!r} +- {e!r} at x = {x!r}")
        return _Pt(x, y, l1, L, e, s, lv, lw)

    def roots(self, signs: Optional[list[int]] = None) -> list[tuple[float, float]]:
        """Intervals [u, w] of [lo, hi], in order, that hold the roots of N
        in (lo, hi) where N changes sign: one each, but for an interval
        between adjacent doubles, which may hold none.

        Descartes' rule on the Moebius image of an interval (``signs``, its
        :func:`_moebius` signs) bounds its roots (Collins & Akritas 1976):
        one sign change means one simple root; more split the interval at
        its geometric mean, down to adjacent doubles.  A root on a split
        point is [x, x]."""
        todo, out = [(self.lo, self.hi, signs or self.signs(self.lo, self.hi))], []
        while todo:
            u, w, signs = todo.pop()
            turns, x = _turns(signs), math.sqrt(u) * math.sqrt(w)
            if turns > 1 and not u < x < w:
                x = u + 0.5 * (w - u)
            if turns < 2 or not u < x < w:
                # an even count between adjacent doubles is two simple roots
                # only if N has three distinct real ones; else it is none,
                # or one of even multiplicity
                if turns % 2 or turns and _discriminant(self.exact) > 0:
                    out.append((u, w))
                continue
            left, right = self.signs(u, x), self.signs(x, w)
            if not left[3] and [v for v in left if v][-1] != [v for v in right if v][0]:
                out.append((x, x))
            todo += [(u, x, left), (x, w, right)]
        return sorted(out)

    def bracket(self, u: float, w: float) -> tuple[float, float]:
        """[a, b] within one of :meth:`roots`' intervals [u, w], around its
        root: Newton's iterate x, kept inside by bisection, then x -+ h, h
        starting a few ulps out, at four times the width where the float
        filter stops deciding, and doubled until the signs of N at the ends
        show the root between them."""
        if not math.nextafter(u, w) < w:
            return u, w
        c0, c1, c2, c3 = self.c
        up = next(v for v in self.signs(u, w) if v)  # N just above u
        a, b, x = u, w, math.sqrt(u) * math.sqrt(w)
        for _ in range(100):
            v, dv = ((c3 * x + c2) * x + c1) * x + c0, (3.0 * c3 * x + 2.0 * c2) * x + c1
            a, b = (x, b) if (v > 0.0) == (up > 0) else (a, x)
            y = x - v / dv if v and dv else x
            x, y = (y, x) if a <= y <= b else (math.sqrt(a) * math.sqrt(b), x)
            if abs(y - x) <= math.ulp(x):
                break
        h = math.ulp(x)
        if self.cm and dv:  # four times where the filter stops deciding
            m0, m1, m2, m3 = self.cm
            h += 4.0 * _FILTER * (((m3 * x + m2) * x + m1) * x + m0) / abs(dv)
        while True:
            a, b = max(u, x - h), min(w, x + h)
            if (a == u or self.signs(a, a)[0] == up) and (b == w or self.signs(b, b)[0] == -up):
                return a, b
            h *= 2.0

    def extrema(self) -> tuple[float, float, float]:
        """(m, M, width) with m <= inf g and M >= sup g on [lo, hi]; width
        bounds the relative distance of m and M from the extrema.

        g is monotone between the candidates: lo, hi, the zero of g and the
        :meth:`bracket` of each of :meth:`roots`.  Across a bracket
        each term of ln|g| is monotone, or, for ln|p1 x + q1| at a zero of g,
        quasi-convex, so the terms' end values bound it.  A candidate holds
        g in s [exp(lo), exp(hi)]; the extreme ones are picked in the log
        domain, so only they must fit in doubles."""
        r, R = self.lo, self.hi
        a, b = self.ends
        pts = [a, b]
        if self.p1:
            x0 = -self.q1 / self.p1
            if r < x0 < R:
                pts.insert(1, self.point(x0, zero=True))
            elif a.s * b.s < 0.0:
                # the zero lies within rounding of r or R: take that end as it
                k = 0 if abs(x0 - r) <= abs(x0 - R) else 1
                pts[k] = self.point(pts[k].x, zero=True)
        cands = [(p.s, p.L + p.e, p.L - p.e) if p.s else (0.0, 0.0, 0.0) for p in pts]
        width = max(p.e for p in pts)
        A, B, C = self.A, self.B, self.C
        for u, w in self.roots():
            p, q = map(self.point, self.bracket(u, w))
            e = max(p.e, q.e)
            top = (C + max(A * p.y, A * q.y) + max(B * p.l1, B * q.l1)
                   + max(p.lv, q.lv) - min(p.lw, q.lw) + e)
            width = max(width, top - max(p.L, q.L))
            low = -math.inf  # where g has a zero on the bracket
            if p.s * q.s > 0.0:
                low = (C + min(A * p.y, A * q.y) + min(B * p.l1, B * q.l1)
                       + min(p.lv, q.lv) - max(p.lw, q.lw) - e)
                width = max(width, min(p.L, q.L) - low)
            cands += [(s, top, low) for s in {p.s, q.s} - {0.0}]
        s, L = max((s, s * (hi if s > 0.0 else lo)) for s, hi, lo in cands)
        M = s and s * self._magnitude(s * L, s > 0.0)
        s, L = min((s, s * (lo if s > 0.0 else hi)) for s, hi, lo in cands)
        return s and s * self._magnitude(s * L, s < 0.0), M, width

    def bound(self, pt: _Pt, upper: bool) -> float:
        """g at pt padded outward by its rounding allowance: a bound from
        above when ``upper``, else from below."""
        if not pt.s:
            return 0.0
        grow = (pt.s > 0.0) == upper
        return pt.s * self._magnitude(pt.L + pt.e if grow else pt.L - pt.e, grow)

    def _magnitude(self, L: float, grow: bool = True) -> float:
        """exp(L) for a bound on |g|.  One that must not round toward 0
        (``grow``) cannot keep its outward padding below the normal range
        of doubles; no bound fits above it."""
        if grow and L < _LOG_TINY:
            raise _non_finite(self.num, self.den, self.lo, self.hi,
                              f"underflows double precision (ln|g| about {L:.6g})")
        try:
            return math.exp(L)
        except OverflowError as exc:
            raise _non_finite(self.num, self.den, self.lo, self.hi, _OVERFLOW) from exc

    def direction(self) -> int:
        """+1 / -1 when g is monotone on [lo, hi] (+1 when flat, N = 0), 0
        when N changes sign in (lo, hi) or g has a zero on [lo, hi]."""
        if self.p1 and (self.p1 * self.lo + self.q1) * (self.p1 * self.hi + self.q1) <= 0.0:
            return 0
        signs = self.signs(self.lo, self.hi)
        if min(signs) < 0 < max(signs):
            # N may change sign, or have a root of even multiplicity, with
            # the sign just above lo on either side of it
            return 0 if self.roots(signs) else next(v for v in signs if v)
        return max(signs) or min(signs) or 1


def _directions(f1: Gen, f2: Gen, s: np.ndarray, t: np.ndarray, a: np.ndarray,
                b: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`_Ratio.direction` and ``ends[0].s`` (the sign of g at lo) of
    each ``_Ratio(GeneratorSpec(f1, s[k]), GeneratorSpec(f2, t[k]), lo, hi)``
    with :func:`log_d2` records ``a[k]``, ``b[k]``: the float filter on the
    same floats, computed for all k at once.  A row takes the scalar ratio
    where the filter does not decide or run, where its signs change, and
    where :class:`_Ratio` may refuse it (a denominator not positive on
    [lo, hi], a linear factor so near 0 that the allowance may overflow)."""
    p1, q1, p2, q2 = a[:, 4], a[:, 5], b[:, 4], b[:, 5]
    with np.errstate(all="ignore"):
        v, w = (np.array([p * lo + q, p * hi + q]) for p, q in ((p1, q1), (p2, q2)))
        zero = (p1 != 0.0) & (v[0] * v[1] <= 0.0)
        c, cm = _coefficients(D2_FORMS[f1], D2_FORMS[f2], s, t)
        vals, mags = np.array(_moebius(c, lo, hi)), np.array(_moebius(cm, lo, hi))
        st = np.abs([s, t])
        tame = (((st == 0.0) | ((1e-30 <= st) & (st <= 1e30))).all(axis=0)
                & (b[:, 3] > 0.0) & np.isfinite(b[:, 0] + b[:, 1] + b[:, 2])
                & ((p1 == 0.0) | (v == 0.0) | (np.abs(v) >= 1e-200)).all(axis=0)
                & ((p2 == 0.0) | (w >= 1e-200)).all(axis=0))
        signs = np.sign(vals)
        sure = ((np.abs(vals) > _FILTER * mags) | (mags == 0.0)).all(axis=0)
        rising = signs.min(axis=0) >= 0
        monotone = sure & (rising | (signs.max(axis=0) <= 0))
    direction = np.where(zero, 0, np.where(rising, 1, -1))
    sign = np.where((p1 != 0.0) & (v[0] <= 0.0), np.where(v[0] < 0.0, -a[:, 3], 0.0), a[:, 3])
    scalar = ~tame | ~(zero | monotone) if 1e-30 <= lo <= hi <= 1e30 else np.full(s.shape, True)
    for k in np.flatnonzero(scalar).tolist():
        g = _Ratio(GeneratorSpec(f1, s[k]), GeneratorSpec(f2, t[k]), lo, hi)
        direction[k], sign[k] = g.direction(), g.ends[0].s
    return direction, sign


# --------------------------------------------------------------------------
# cataloged endpoint formulas


def printed_mM(
    family: InequalityFamily, s: float, t: float, r: float, R: float
) -> Optional[tuple[float, float]]:
    """The catalog's endpoint constants exactly as printed, or None when
    (s, t) lies outside every region: the family's ``printed`` constant at
    the ends of [r, R], in its active branch's order.  Misprints are
    reproduced verbatim; this is the adjudication target for the erratum
    fixtures, not the engine's source of truth.  Evaluated in Python
    floats, the text may raise an :class:`ArithmeticError`
    (``OverflowError``, ``ZeroDivisionError``) far from ratio 1."""
    s, t, r, R = _items(s, t, r, R)
    br = active_branch(family, s, t)
    return None if br is None else _printed(family, br, s, t, r, R)


def _items(*values):
    # numpy scalars as the Python numbers they hold: float32 would round m, M
    return (v.item() if isinstance(v, np.generic) else v for v in values)


def _printed(family: InequalityFamily, br: Branch, s, t, r, R) -> tuple[float, float]:
    """:func:`printed_mM` with the active branch already found."""
    printed = FAMILY_DEFS[family].printed
    lo, hi = (r, R) if br.increasing else (R, r)
    return printed(s, t, lo, R), printed(s, t, hi, R)


# --------------------------------------------------------------------------
# certificates


def _json_fields(value, skip=frozenset()):
    """``value`` as JSON values: numbers, strings and None as they are, numpy
    scalars by ``.item()``, enums by value, tuples as lists, dicts by value,
    and a record by its dataclass fields in order, minus ``skip``."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json_fields(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_fields(v) for k, v in value.items()}
    return {f.name: _json_fields(getattr(value, f.name))
            for f in fields(value) if f.name not in skip}


@dataclass(frozen=True)
class BoundCertificate:
    """A verified sandwich  m*C_f2 <= C_f1 <= M*C_f2  on [r, R].

    ``source`` records whether the constants came from the cataloged
    endpoint formulas or the numeric enclosure; ``erratum`` documents any
    disagreement between the printed catalog text and the enclosure.  In-region
    certificates satisfy 0 <= m <= M; out-of-region numeric certificates
    only guarantee m <= M (a non-convex numerator can push m below zero).
    """

    family: InequalityFamily
    s: float
    t: float
    r: float
    R: float
    m: float
    M: float
    source: CertificateSource
    region_ok: bool
    erratum: Optional[str] = None

    def to_dict(self) -> dict:
        return _json_fields(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False)


def _agrees(a: float, b: float, tol: float = CROSS_CHECK_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def closed_form_mM(
    family: InequalityFamily,
    s: float,
    t: float,
    r: float,
    R: float,
    *,
    strict: bool = False,
) -> BoundCertificate:
    """Certificate for the family at (s, t) over [r, R].

    In-region: when the curvature ratio is monotone on [r, R] in the
    branch's direction, as its cubic decides (:meth:`_Ratio.direction`), or
    its end values are equal within their rounding allowance, m and M are
    its log-domain values at the ends, padded outward
    (:meth:`_Ratio.bound`), so ``m <= inf g`` and ``M >= sup g``; for
    r == R they are the value at r padded both ways.  Otherwise the
    :func:`numeric_mM` enclosure of the same ratio is shipped with an
    erratum note.  The printed catalog text is compared last, on endpoint
    values only, and can only add an erratum.  Out-of-region: numeric
    enclosure with ``region_ok=False`` unless ``strict``, which raises
    :class:`RegionViolation`.
    """
    s, t, r, R = _items(s, t, r, R)
    num, den = family_generators(family, s, t)
    br = active_branch(family, s, t)
    if br is None and strict:
        raise RegionViolation(
            f"(s={s}, t={t}) lies outside every region of family {family.value}"
        )
    ratio = _Ratio(num, den, r, R)
    erratum = None
    if br is not None:
        a, b = ratio.ends
        up = ratio.direction() if r < R else 1
        # the ends are taken in the proven order, so the padded values hold
        # g whichever way the branch runs; a branch against the proof is a
        # misprint unless the end values are equal within their allowance
        if up and ((up > 0) == br.increasing or abs(a.L - b.L) <= a.e + b.e):
            lo, hi = (a, b) if up > 0 else (b, a)
            m, M = ratio.bound(lo, False), ratio.bound(hi, True)
            try:
                printed = _printed(family, br, s, t, r, R)
                erratum = None if _agrees(printed[0], m) and _agrees(printed[1], M) else (
                    f"catalog text for tag ({br.tag}) disagrees with the curvature-ratio "
                    f"endpoint values; corrected endpoint values shipped"
                )
            except ArithmeticError as exc:
                erratum = (
                    f"catalog text for tag ({br.tag}) cannot be evaluated in double "
                    f"precision ({type(exc).__name__}); curvature-ratio endpoint values shipped"
                )
            return BoundCertificate(
                family, s, t, r, R, m, M, CertificateSource.CLOSED_FORM, True, erratum
            )
        erratum = (
            f"endpoint values of tag ({br.tag}) are not proven extrema in double "
            f"precision at (s={s}, t={t}); numeric extrema shipped"
        )
    m, M, _ = ratio.extrema()
    return BoundCertificate(
        family, s, t, r, R, m, M, CertificateSource.NUMERIC, br is not None, erratum
    )


@dataclass(frozen=True)
class SandwichReport:
    lhs: float
    mid: float
    rhs: float
    slack_low: float
    slack_high: float
    passed: bool
    certificate: BoundCertificate

    def to_dict(self) -> dict:
        return _json_fields(self, skip={"certificate"})


def sandwich_check(
    family: InequalityFamily,
    s: float,
    t: float,
    P: Distribution,
    Q: Distribution,
) -> SandwichReport:
    """Evaluate m*C_f2 <= C_f1 <= M*C_f2 on an actual pair.

    [r, R] is taken from the pair's mass ratios, and m, M are the
    :func:`closed_form_mM` certificate's: padded endpoint values where the
    curvature ratio is proven monotone, the numeric enclosure elsewhere.
    Passing requires both slacks to be at least
    -SLACK_REL_TOL * max(1, |C_f1|).
    """
    rb = ratio_bounds(P, Q)
    return _sandwich(closed_form_mM(family, s, t, rb.r, rb.R), P, Q)


def _sandwich(cert: BoundCertificate, P: Distribution, Q: Distribution) -> SandwichReport:
    """:func:`sandwich_check` on a pair with a certificate already made
    for its ratio interval."""
    num, den = family_generators(cert.family, cert.s, cert.t)
    mid = csiszar(num, P, Q)
    c2 = csiszar(den, P, Q)
    lhs = cert.m * c2
    rhs = cert.M * c2
    slack_low = mid - lhs
    slack_high = rhs - mid
    tol = SLACK_REL_TOL * max(1.0, abs(mid))
    return SandwichReport(
        lhs, mid, rhs, slack_low, slack_high,
        bool(slack_low >= -tol and slack_high >= -tol), cert,
    )


# --------------------------------------------------------------------------
# corollary catalog


@dataclass(frozen=True)
class Corollary:
    """One ratio-form special case of the family catalog.

    ``display`` is presentation only; the actual check is
    sandwich_check(family, s, t) at these parameters.  ``source_tag``
    records the substitution the entry came from; ``note`` flags entries
    whose printed substitution had to be corrected to reproduce the
    displayed ratio form.
    """

    name: str
    family: InequalityFamily
    s: float
    t: float
    display: str
    source_tag: str
    note: Optional[str] = None


_F = InequalityFamily


def corollary_table() -> tuple[Corollary, ...]:
    """The cataloged ratio-form corollaries, one entry per printed bullet."""
    return _COROLLARIES


_COROLLARIES = (
    Corollary(
        "chi2-vs-hellinger", _F.II, 2.0, 0.5,
        "r ≤ ∛(χ²(P||Q)²)/(4∛(h(P||Q)²)) ≤ R",
        "t=1/2, s=2 in (34)",
    ),
    Corollary(
        "hellinger-vs-chi2-qp", _F.I, 2.0, 0.5,
        "r ≤ 4∛(h(P||Q)²)/∛(χ²(Q||P)²) ≤ R",
        "t=1/2, s=2 in (33)",
    ),
    Corollary(
        "chi2-ratio", _F.I, 2.0, 2.0,
        "r ≤ ∛(χ²(P||Q))/∛(χ²(Q||P)) ≤ R",
        "t=2, s=2 in (33)",
    ),
    Corollary(
        "chi2-over-2KL", _F.II, 2.0, 1.0,
        "r ≤ χ²(P||Q)/(2K(P||Q)) ≤ R",
        "t=1, s=2 in (34)",
    ),
    Corollary(
        "2KL-qp-over-chi2-qp", _F.I, 2.0, 0.0,
        "r ≤ 2K(Q||P)/χ²(Q||P) ≤ R",
        "t=0, s=2 in (33)",
    ),
    Corollary(
        "2KL-vs-chi2-qp", _F.I, 2.0, 1.0,
        "r ≤ √(2K(P||Q))/√(χ²(Q||P)) ≤ R",
        "t=1, s=2 in (33)",
    ),
    Corollary(
        "chi2-vs-2KL-qp", _F.II, 2.0, 0.0,
        "r ≤ √(χ²(P||Q))/√(2K(Q||P)) ≤ R",
        "t=0, s=2 in (34)",
    ),
    Corollary(
        "F-ratio", _F.V, 0.0, 0.0,
        "r ≤ F(Q||P)/F(P||Q) ≤ R",
        "t=0, s=0 in (40)",
    ),
    Corollary(
        "G-ratio", _F.V, 1.0, 1.0,
        "r ≤ √(G(Q||P))/√(G(P||Q)) ≤ R",
        "t=1, s=1 in (40)",
    ),
    Corollary(
        "delta-vs-chi2", _F.I, -1.0, 2.0,
        "r ≤ (∛(4χ²(P||Q)) − ∛(Δ(P||Q)))/∛(Δ(P||Q)) ≤ R",
        "t=2, s=−1 in (33)",
    ),
    Corollary(
        "delta-vs-chi2-qp", _F.I, -1.0, -1.0,
        "r ≤ ∛(Δ(P||Q))/(∛(4χ²(Q||P)) − ∛(Δ(P||Q))) ≤ R",
        "t=−1, s=−1 in (32)",
    ),
    Corollary(
        "KL-qp-vs-2G", _F.I, 1.0, 0.0,
        "r ≤ (K(Q||P) − 2G(P||Q))/(2G(P||Q)) ≤ R",
        "t=0, s=1 in (33)",
    ),
    Corollary(
        "2G-qp-vs-KL", _F.II, 1.0, 1.0,
        "r ≤ 2G(Q||P)/(K(P||Q) − 2G(Q||P)) ≤ R",
        "t=1, s=1 in (34)",
    ),
    Corollary(
        "KL-vs-F", _F.I, 0.0, 1.0,
        "r ≤ (√(K(P||Q)) − √(F(P||Q)))/√(F(P||Q)) ≤ R",
        "t=1, s=0 in (33)",
    ),
    Corollary(
        "F-qp-vs-KL-qp", _F.II, 0.0, 0.0,
        "r ≤ √(F(Q||P))/(√(K(Q||P)) − √(F(Q||P))) ≤ R",
        "t=0, s=0 in (34)",
    ),
    Corollary(
        "delta-vs-4G", _F.V, -1.0, 1.0,
        "r ≤ √(Δ(P||Q))/(4√(G(P||Q)) − √(Δ(P||Q))) ≤ R",
        "t=1, s=−1 in (40)",
    ),
    Corollary(
        "4G-qp-vs-delta", _F.V, 1.0, -1.0,
        "r ≤ (4√(G(Q||P)) − √(Δ(P||Q)))/√(Δ(P||Q)) ≤ R",
        "t=−1, s=1 in (40)",
    ),
    Corollary(
        "delta-vs-8F", _F.V, -1.0, 0.0,
        "r ≤ Δ(P||Q)/(8F(P||Q) − Δ(P||Q)) ≤ R",
        "t=0, s=−1 in (40)",
    ),
    Corollary(
        "8F-qp-vs-delta", _F.V, 0.0, -1.0,
        "r ≤ (8F(Q||P) − Δ(P||Q))/Δ(P||Q) ≤ R",
        "t=−1, s=0 in (40)",
    ),
    Corollary(
        "6G-qp-vs-D", _F.VIII, 1.0, 1.0,
        "r ≤ (6G(Q||P) − D(P||Q))/(D(P||Q) − 2G(Q||P)) ≤ R",
        "t=1, s=1 in (46)",
    ),
    Corollary(
        "D-qp-vs-6G", _F.VII, 1.0, 1.0,
        "r ≤ (D(Q||P) − 2G(P||Q))/(6G(P||Q) − D(Q||P)) ≤ R",
        "t=1, s=1 in (44)",
        note="in-region only for the (43) branch; the (44) citation does not hold at s=t=1",
    ),
    Corollary(
        "4G-vs-chi2-qp", _F.I, 1.0, -1.0,
        "r ≤ 4G(P||Q)/(χ²(Q||P) − 4G(P||Q)) ≤ R",
        "t=−1, s=1 in (32)",
    ),
    Corollary(
        "F-vs-D-qp", _F.VII, 1.0, 0.0,
        "r ≤ F(P||Q)/(D(Q||P) − 3F(P||Q)) ≤ R",
        "s=1, t=0 in (44)",
        note=(
            "cataloged substitutions (t=0, s=1 in (32); t=1, s=2 in (44)) do not "
            "reproduce this ratio; it follows from (44) at s=1, t=0"
        ),
    ),
    Corollary(
        "2F-vs-chi2-qp", _F.I, 0.0, -1.0,
        "r ≤ √(2F(P||Q))/(√(χ²(Q||P)) − √(2F(P||Q))) ≤ R",
        "t=−1, s=0 in (32)",
    ),
    Corollary(
        "D-vs-9F", _F.VI, 1.0, 0.0,
        "r ≤ (√(4D(P||Q) + 9F(P||Q)) − 3√(F(P||Q)))/(2√(F(P||Q))) ≤ R",
        "t=0, s=1 in (42)",
    ),
    Corollary(
        "F-qp-vs-D-qp", _F.IX, 1.0, 0.0,
        "r ≤ 2√(F(Q||P))/(√(4D(Q||P) + 9F(Q||P)) − 3√(F(Q||P))) ≤ R",
        "t=0, s=1 in (47)",
    ),
    Corollary(
        "F-qp-vs-8G", _F.V, 0.0, 1.0,
        "r ≤ 2√(F(Q||P))/(√(8G(P||Q) + F(Q||P)) − √(F(Q||P))) ≤ R",
        "t=1, s=0 in (40)",
    ),
    Corollary(
        "8G-qp-vs-F", _F.V, 1.0, 0.0,
        "r ≤ (√(8G(Q||P) + F(P||Q)) − √(F(P||Q)))/(2√(F(P||Q))) ≤ R",
        "t=0, s=1 in (40)",
    ),
    Corollary(
        "G-qp-vs-2KL-qp", _F.II, 1.0, 0.0,
        "r ≤ 2√(G(Q||P))/(√(2K(Q||P) + G(Q||P)) − √(G(Q||P))) ≤ R",
        "t=0, s=1 in (34)",
    ),
    Corollary(
        "2KL-vs-G", _F.I, 1.0, 1.0,
        "r ≤ (√(2K(P||Q) + G(P||Q)) − √(G(P||Q)))/(2√(G(P||Q))) ≤ R",
        "t=1, s=1 in (33)",
    ),
    Corollary(
        "8D-vs-delta", _F.VI, 1.0, -1.0,
        "r ≤ (√(8D(P||Q) + Δ(P||Q)) − 2√(Δ(P||Q)))/√(Δ(P||Q)) ≤ R",
        "t=−1, s=1 in (42)",
    ),
    Corollary(
        "delta-vs-8D-qp", _F.VII, 1.0, -1.0,
        "r ≤ √(Δ(P||Q))/(√(8D(Q||P) + Δ(P||Q)) − 2√(Δ(P||Q))) ≤ R",
        "t=−1, s=1 in (44)",
    ),
    Corollary(
        "16D-vs-chi2", _F.VIII, 1.0, 2.0,
        "r ≤ (5√(χ²(P||Q)) − √(16D(P||Q) + χ²(P||Q)))/(√(16D(P||Q) + χ²(P||Q)) − √(χ²(P||Q))) ≤ R",
        "t=2, s=1 in (46)",
    ),
)
