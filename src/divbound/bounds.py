"""Certified two-sided bounds between f-divergences.

For two generators with f1(1) = f2(1) = 0, both twice differentiable and
f2'' > 0 on the likelihood-ratio interval (r, R), any constants

    m <= g(x) = f1''(x) / f2''(x) <= M        for all x in (r, R)

give the sandwich  m C_f2(P||Q) <= C_f1(P||Q) <= M C_f2(P||Q)  for every
pair whose mass ratios lie in [r, R] (convexity of f1 - m f2 and of
M f2 - f1 plus nonnegativity of normalized convex f-divergences).

The sharp constants m = inf g and M = sup g over [r, R] are enclosed from
outside, m <= inf g and M >= sup g (sound, not sharp), in two ways:

* :func:`numeric_mM` - an outward enclosure by cell proofs on ln|g|
  (:class:`_Ratio`); works for any generator pair with positive
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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import (
    DegenerateDenominator,
    NonFiniteValue,
    NonPositiveArgument,
    RegionViolation,
)
from .generators import Gen, GeneratorSpec, log_d2
from .generators import csiszar
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
    family: InequalityFamily
    num_gen: Gen
    den_gen: Gen
    label: str
    branches: tuple[Branch, ...]


def _in04(s: float) -> bool:
    return 0.0 <= s <= 4.0


FAMILY_DEFS: dict[InequalityFamily, FamilyDef] = {
    InequalityFamily.I: FamilyDef(
        InequalityFamily.I,
        Gen.PSI,
        Gen.PHI,
        "Ω_s(P||Q) vs Φ_t(P||Q)",
        (
            Branch("32", True, lambda s, t: s + t <= 1 and t <= -1, "s + t ≤ 1, t ≤ −1"),
            Branch("33", False, lambda s, t: s + t >= 1 and t >= -1, "s + t ≥ 1, t ≥ −1"),
        ),
    ),
    InequalityFamily.II: FamilyDef(
        InequalityFamily.II,
        Gen.UPSILON,
        Gen.PHI,
        "Ω_s(Q||P) vs Φ_t(P||Q)",
        (
            Branch("34", True, lambda s, t: s >= t and t <= 2, "s ≥ t, t ≤ 2"),
            Branch("35", False, lambda s, t: s <= t and t >= 2, "s ≤ t, t ≥ 2"),
        ),
    ),
    InequalityFamily.III: FamilyDef(
        InequalityFamily.III,
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
    ),
    InequalityFamily.IV: FamilyDef(
        InequalityFamily.IV,
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
    ),
    InequalityFamily.V: FamilyDef(
        InequalityFamily.V,
        Gen.UPSILON,
        Gen.PSI,
        "Ω_s(Q||P) vs Ω_t(P||Q)",
        (
            Branch("40", True, lambda s, t: s >= -1 and t >= -1, "s ≥ −1, t ≥ −1"),
            Branch("41", False, lambda s, t: s <= -1 and t <= -1, "s ≤ −1, t ≤ −1"),
        ),
    ),
    InequalityFamily.VI: FamilyDef(
        InequalityFamily.VI,
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
    ),
    InequalityFamily.VII: FamilyDef(
        InequalityFamily.VII,
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
    ),
    InequalityFamily.VIII: FamilyDef(
        InequalityFamily.VIII,
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
    ),
    InequalityFamily.IX: FamilyDef(
        InequalityFamily.IX,
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
    ),
    InequalityFamily.X: FamilyDef(
        InequalityFamily.X,
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
    if not np.all(xs > 0.0):
        raise NonPositiveArgument(f"curvature ratio needs x > 0, got {x}")
    L, sign, _ = log_curvatures([num, den], xs.reshape(-1))
    if not np.all((sign[1] > 0.0) & ~np.isnan(L[1])):
        raise DegenerateDenominator(f"{den.gen.value}(s={den.s}) has non-positive "
                                    f"curvature at x = {x}")
    with np.errstate(over="ignore"):
        g = (sign[0] * np.exp(L[0] - L[1])).reshape(xs.shape)
    if not np.all(np.isfinite(g)):
        raise NonFiniteValue(f"curvature ratio {num.gen.value}(s={num.s}) / "
                             f"{den.gen.value}(s={den.s}) at x = {x} {_OVERFLOW}")
    return g if np.ndim(x) else float(g)


def log_curvatures(specs: list[GeneratorSpec], x: np.ndarray):
    """``(L, sign, e)``: ln|f''|, the sign of f'' and the rounding allowance
    of L for each spec at each point of the 1-D ``x > 0``, as ``(specs x
    points)`` arrays from the :func:`log_d2` records.  The allowance is
    :meth:`_Ratio.point`'s rule for one curvature, and 0 where f'' = 0."""
    records = np.array([log_d2(s) for s in specs]).reshape(-1, 6)
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

    Works on ln|g| by cell proofs (:class:`_Ratio`): a ratio proven
    monotone costs its two endpoint values, and only cells that may hold
    an interior extremum are refined, until each extremum is enclosed to
    about 1e-13 relative.  The result is padded outward by the rounding
    allowance of the evaluations, so ``m <= inf g`` and ``M >= sup g``;
    for r == R they are the value at r padded both ways.  Curvatures
    beyond the double range are fine as long as the extrema are not.
    Raises :class:`DegenerateDenominator` when the denominator curvature is
    not positive on [r, R] and :class:`NonFiniteValue` when an extremum
    overflows double precision or a non-zero one underflows it.
    """
    return _enclosure(_Ratio(num, den, r, R))


def _enclosure(ratio: _Ratio) -> tuple[float, float]:
    """:func:`numeric_mM` of a ratio already built."""
    m, M, _ = ratio.extrema()
    if not (math.isfinite(m) and math.isfinite(M)):
        raise _non_finite(ratio.num, ratio.den, ratio.lo, ratio.hi,
                          f"has non-finite extrema m = {m!r}, M = {M!r}")
    return m, M


# --------------------------------------------------------------------------
# cell proofs on ln|g|

#: rounding allowance per unit of term magnitude, in ln|g| and in its slope
_ERR = 8.0 * sys.float_info.epsilon
#: target width of the enclosure of an extremum of ln|g| (relative in g)
_TOL = 1e-13
#: ln of the least normal double
_LOG_TINY = math.log(sys.float_info.min)
#: refinements one enclosure may spend before it settles for its bounds
_MAX_SPLITS = 400
#: bisections the monotonicity proof may spend before it gives up
_MAX_PROOF_SPLITS = 64


def _mean_value(fa: float, fb: float, lo: float, hi: float, h: float) -> tuple[float, float]:
    """(upper, lower) bound of f on a cell of width h from its end values and
    lo <= f' <= hi: f lies below both lines fa + hi t and fb - lo (h - t)
    and above fa + lo t and fb - hi (h - t).  Each pair of lines crosses
    inside the cell; the crossing is the bound unless f is monotone there,
    when the end values are."""
    dd = hi - lo
    if not dd > 0.0:
        return max(fa, fb), min(fa, fb)
    up = fa + hi * min(max((fb - fa - lo * h) / dd, 0.0), h)
    low = fa + lo * min(max((fa - fb + hi * h) / dd, 0.0), h)
    return max(fa, fb, up), min(fa, fb, low)


class _Pt:
    """ln|g| at one point: ``y = ln x``, ``l1 = ln(1+x)``, value ``L`` with
    rounding allowance ``e``, the sign ``s`` of g (0 at a zero of g), the
    terms ``lv``, ``lw`` of the linear factors, the slope ``D`` with its
    Moebius terms ``bm``, ``t1``, ``t2`` and their allowance ``dp``, and the
    slope's own slope terms x/(1+x)^2, t1(1-t1), t2(1-t2) with allowance
    ``kp``."""

    __slots__ = ("x", "y", "l1", "L", "e", "s", "lv", "lw", "bm", "t1", "t2", "dp", "D",
                 "hb", "h1", "h2", "kp")


class _Ratio:
    """ln|g| of g = f1''/f2'' on [lo, hi], from the :func:`log_d2` records:

        ln|g| = A ln x + B ln(1+x) + ln|p1 x + q1| - ln(p2 x + q2) + C.

    In y = ln x its slope is D = A + B x/(1+x) + t1 - t2 with
    t_i = p_i x / (p_i x + q_i).  Each term is monotone on either side of
    its pole, so on a cell [a, b] that holds no zero of p1 x + q1 the terms'
    end values bound D.  A cell where D keeps one sign holds its extrema
    at its ends; elsewhere the mean-value form bounds them, with a width
    that shrinks with the square of the cell.  Cells ending at a zero of g
    are bounded directly: every term of ln|g| is monotone or, for the
    numerator factor, quasi-convex, so the sum of the terms' end maxima
    bounds ln|g| from above.  Every bound is widened by the rounding
    allowance of the values it uses (``_ERR`` per unit of magnitude,
    including the conditioning of p x + q).  The zero of g is taken at the
    rounded -q1/p1, so within a few ulps of it the sign of g, and values
    of order eps (|p1 x| + |q1|) relative to the rest of g, are as rounded.
    """

    def __init__(self, num: GeneratorSpec, den: GeneratorSpec, lo: float, hi: float):
        if not (lo > 0.0 and hi > 0.0):
            raise NonPositiveArgument(f"interval must be positive, got [{lo}, {hi}]")
        if not lo <= hi:
            raise ValueError(f"need r <= R, got [{lo}, {hi}]")
        a, b = log_d2(num), log_d2(den)
        if not (b.sign > 0.0 and math.isfinite(b.alpha + b.beta + b.c)) or (
            b.p and not (b.p * lo + b.q > 0.0 and b.p * hi + b.q > 0.0)
        ):
            raise DegenerateDenominator(
                f"{den.gen.value}(s={den.s}) has non-positive curvature on [{lo}, {hi}]"
            )
        self.num, self.den, self.lo, self.hi = num, den, lo, hi
        self.A = a.alpha - b.alpha
        self.B = a.beta - b.beta
        self.C = a.c - b.c
        self.sign = a.sign
        self.p1, self.q1, self.p2, self.q2 = a.p, a.q, b.p, b.q
        # where t_i(1 - t_i) peaks, if it does for x > 0
        self.peak1 = a.q / a.p if a.p * a.q > 0.0 else math.nan
        self.peak2 = b.q / b.p if b.p * b.q > 0.0 else math.nan
        # magnitudes behind the rounding of A, B and C
        self.sa = abs(a.alpha) + abs(b.alpha)
        self.sb = abs(a.beta) + abs(b.beta)
        self.sc = abs(a.c) + abs(b.c)
        # ln|g| at lo and hi, where every use of the ratio starts
        self.ends = (self.point(lo), self.point(hi))

    def point(self, x: float, zero: bool = False) -> _Pt:
        """ln|g| at x; ``zero`` marks x as the zero of p1 x + q1."""
        pt = _Pt()
        pt.x = x
        pt.y = y = math.log(x)
        pt.l1 = l1 = math.log1p(x)
        L = self.A * y + self.B * l1 + self.C
        e = self.sa * abs(y) + self.sb * l1 + self.sc + 1.0
        pt.bm = bm = self.B * x / (1.0 + x)
        pt.hb = hb = x / ((1.0 + x) * (1.0 + x))
        dp = abs(self.A) + abs(bm)
        kp = abs(self.B) * (hb + 0.25)
        s = self.sign
        pt.lv = pt.lw = pt.t1 = pt.t2 = pt.h1 = pt.h2 = 0.0
        if self.p1:
            v = 0.0 if zero else self.p1 * x + self.q1
            if v:
                pt.lv = lv = math.log(abs(v))
                k = (abs(self.p1 * x) + abs(self.q1)) / abs(v)
                pt.t1 = t1 = self.p1 * x / v
                pt.h1 = h1 = t1 * self.q1 / v
                L += lv
                e += abs(lv) + k
                dp += abs(t1) * (1.0 + k)
                kp += 2.0 * abs(h1) * (1.0 + k)
                if v < 0.0:
                    s = -s
            else:
                pt.lv = L = -math.inf
                s = 0.0
        if self.p2:
            w = self.p2 * x + self.q2
            pt.lw = lw = math.log(w)
            k = (abs(self.p2 * x) + abs(self.q2)) / w
            pt.t2 = t2 = self.p2 * x / w
            pt.h2 = h2 = t2 * self.q2 / w
            L -= lw
            e += abs(lw) + k
            dp += abs(t2) * (1.0 + k)
            kp += 2.0 * abs(h2) * (1.0 + k)
        if s and not math.isfinite(L):
            raise _non_finite(self.num, self.den, self.lo, self.hi,
                              f"has log-curvature {L!r} at x = {x!r}")
        pt.L, pt.s = L, s
        pt.e = _ERR * (e + abs(L)) if s else _ERR * e
        pt.dp = _ERR * dp
        pt.kp = _ERR * kp
        pt.D = self.A + bm + pt.t1 - pt.t2
        return pt

    def slope(self, a: _Pt, b: _Pt) -> tuple[float, float]:
        """Bounds on D over the cell [a, b]; a and b share a non-zero sign.

        The terms' end values give the first bound.  When it straddles 0,
        the mean-value form of D itself tightens it: D' = B x/(1+x)^2 +
        t1(1-t1) - t2(1-t2), each term monotone or with a single peak of
        1/4 (at x = 1 and at x = q/p), so the terms' end values and peaks
        bound D' as well.  Terms that cancel loosen the first bound by the
        cell width, the second only by its square.
        """
        pad = max(a.dp, b.dp)
        lo = self.A + min(a.bm, b.bm) + min(a.t1, b.t1) - max(a.t2, b.t2) - pad
        hi = self.A + max(a.bm, b.bm) + max(a.t1, b.t1) - min(a.t2, b.t2) + pad
        if lo < 0.0 < hi:
            xa, xb = a.x, b.x
            hb = max(a.hb, b.hb) if not xa < 1.0 < xb else 0.25
            hb = (self.B * min(a.hb, b.hb), self.B * hb)
            h1 = max(a.h1, b.h1) if not xa < self.peak1 < xb else 0.25
            h2 = max(a.h2, b.h2) if not xa < self.peak2 < xb else 0.25
            h = b.y - a.y
            up, low = _mean_value(
                a.D, b.D,
                min(hb) + min(a.h1, b.h1) - h2,
                max(hb) + h1 - min(a.h2, b.h2),
                h,
            )
            pad += h * max(a.kp, b.kp)
            lo, hi = max(lo, low - pad), min(hi, up + pad)
        return lo, hi

    def _cell(self, a: _Pt, b: _Pt):
        """(upper bound of sup, lower bound of inf, rounding allowance) of
        ln|g| on [a, b], or None when the cell is proven monotone (its
        extrema are a and b)."""
        if a.s and a.s == b.s:
            lo, hi = self.slope(a, b)
            if lo >= 0.0 or hi <= 0.0:
                return None
            ub, lb = _mean_value(a.L, b.L, lo, hi, b.y - a.y)
            return ub, lb, max(a.e, b.e)
        # one end is a zero of g, where t1 runs off to -inf (from the left)
        # or +inf (from the right): the other end's t1 bounds D on one side
        pad = max(a.dp, b.dp)
        if a.s:
            hi = self.A + max(a.bm, b.bm) + a.t1 - min(a.t2, b.t2) + pad
            if hi <= 0.0:
                return None
        else:
            lo = self.A + min(a.bm, b.bm) + b.t1 - max(a.t2, b.t2) - pad
            if lo >= 0.0:
                return None
        ub = (self.C + max(self.A * a.y, self.A * b.y) + max(self.B * a.l1, self.B * b.l1)
              + max(a.lv, b.lv) - min(a.lw, b.lw))
        return ub, -math.inf, max(a.e, b.e)

    def _split(self, a: _Pt, b: _Pt) -> list[_Pt]:
        """New points inside (a, b): a pair close around the root of D when
        its end values bracket one, else the midpoint in ln x."""
        ya, yb = a.y, b.y
        if a.s and a.s == b.s and (a.D > a.dp and b.D < -b.dp or a.D < -a.dp and b.D > b.dp):
            y, curv = self._root(a, b)
            if curv > 0.0:
                delta = math.sqrt(0.5 * _TOL / curv)
                if ya < y - delta and y + delta < yb:
                    x1, x2 = math.exp(y - delta), math.exp(y + delta)
                    if a.x < x1 < x2 < b.x:
                        return [self.point(x1), self.point(x2)]
        x = math.exp(0.5 * (ya + yb))
        return [self.point(x)] if a.x < x < b.x else []

    def _root(self, a: _Pt, b: _Pt) -> tuple[float, float]:
        """Newton on D in y, kept inside the bracket [a, b]; returns the
        root and the magnitude of D's slope terms there."""
        A, B, p1, q1, p2, q2 = self.A, self.B, self.p1, self.q1, self.p2, self.q2
        ya, yb, up = a.y, b.y, a.D < 0.0
        y = ya + (yb - ya) * a.D / (a.D - b.D)
        curv = 0.0
        for _ in range(40):
            x = math.exp(y)
            m = x / (1.0 + x)
            d, d1 = A + B * m, B * m * (1.0 - m)
            curv = abs(d1)
            if p1:
                t = p1 * x / (p1 * x + q1)
                d += t
                d1 += t * (1.0 - t)
                curv += abs(t * (1.0 - t))
            if p2:
                t = p2 * x / (p2 * x + q2)
                d -= t
                d1 -= t * (1.0 - t)
                curv += abs(t * (1.0 - t))
            if (d < 0.0) == up:
                ya = y
            else:
                yb = y
            step = d / d1 if d1 else math.inf
            yn = y - step
            if not ya < yn < yb:
                yn = 0.5 * (ya + yb)
            if abs(yn - y) <= 1e-14 * (1.0 + abs(y)):
                return yn, curv
            y = yn
        return y, curv

    def _enclose(self, a: _Pt, b: _Pt, need_inf: bool):
        """Enclosures of sup and inf of ln|g| between a and b, where g keeps
        one sign: (sup upper bound, sup attained, inf lower bound, inf
        attained).  Cells are refined only while their bound reaches more
        than ``_TOL`` past the best value attained so far."""
        hi_att, lo_att = max(a.L, b.L), min(a.L, b.L)
        hi_ub, lo_lb = max(a.L + a.e, b.L + b.e), min(a.L - a.e, b.L - b.e)
        cells = [(a, b)]
        splits = _MAX_SPLITS
        while cells:
            a, b = cells.pop()
            bound = self._cell(a, b)
            if bound is None:
                continue
            ub, lb, e = bound
            if ub > hi_att + _TOL or (need_inf and lb < lo_att - _TOL):
                new = self._split(a, b) if splits else []
                if new:
                    splits -= 1
                    for p in new:
                        hi_att, lo_att = max(hi_att, p.L), min(lo_att, p.L)
                        hi_ub, lo_lb = max(hi_ub, p.L + p.e), min(lo_lb, p.L - p.e)
                    chain = [a, *new, b]
                    cells.extend(zip(chain, chain[1:]))
                    continue
            hi_ub = max(hi_ub, ub + e)
            if need_inf:
                lo_lb = min(lo_lb, lb - e)
        return hi_ub, hi_att, lo_lb, lo_att

    def extrema(self) -> tuple[float, float, float]:
        """(m, M, width) with m <= inf g and M >= sup g on [lo, hi]; width
        bounds the relative distance of m and M from the extrema."""
        r, R = self.lo, self.hi
        a, b = self.ends
        if r == R:
            return self.bound(a, False), self.bound(a, True), a.e
        pts = [a, b]
        if self.p1:
            x0 = -self.q1 / self.p1
            if r < x0 < R:
                pts.insert(1, self.point(x0, zero=True))
            elif a.s * b.s < 0.0:
                # the zero lies within rounding of r or R: take that end as it
                k = 0 if abs(x0 - r) <= abs(x0 - R) else 1
                pts[k] = self.point(pts[k].x, zero=True)
        has_zero = not all(p.s for p in pts)
        lows, highs = ([0.0], [0.0]) if has_zero else ([], [])
        width = 0.0
        for a, b in zip(pts, pts[1:]):
            s = a.s or b.s
            sup_ub, sup_att, inf_lb, inf_att = self._enclose(a, b, not has_zero)
            width = max(width, sup_ub - sup_att)
            (highs if s > 0.0 else lows).append(s * self._magnitude(sup_ub))
            if not has_zero:
                width = max(width, inf_att - inf_lb)
                (lows if s > 0.0 else highs).append(s * self._magnitude(inf_lb, False))
        return min(lows), max(highs), width

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
        """+1 / -1 when g is proven monotone on [lo, hi] (+1 when flat), 0
        when the proof does not close or g has a zero on the range."""
        if self.p1 and (self.p1 * self.lo + self.q1) * (self.p1 * self.hi + self.q1) <= 0.0:
            return 0
        a, b = self.ends
        sign = a.s
        up = down = False
        cells = [(a, b)]
        splits = _MAX_PROOF_SPLITS
        while cells:
            a, b = cells.pop()
            lo, hi = self.slope(a, b)
            if lo >= 0.0 or hi <= 0.0:  # monotone on the cell; flat if both
                up = up or (lo >= 0.0 and hi > 0.0)
                down = down or (hi <= 0.0 and lo < 0.0)
                if up and down:
                    return 0
                continue
            if a.D > a.dp and b.D < -b.dp or a.D < -a.dp and b.D > b.dp or not splits:
                return 0
            x = math.exp(0.5 * (a.y + b.y))
            if not a.x < x < b.x:
                return 0
            splits -= 1
            m = self.point(x)
            cells += [(a, m), (m, b)]
        return int(-sign) if down else int(sign)


# --------------------------------------------------------------------------
# cataloged endpoint formulas

# Generic per-family endpoint coefficient, transcribed literally from the
# catalog text.  Families IX and X are handled separately: X's printed
# bounds mix both endpoints in one expression, and IX's printed upper
# coefficient repeats (4-s)R + s where the endpoint value has (4-s)r + s.


def _printed_coef(family: InequalityFamily, s: float, t: float, e: float) -> float:
    if family is InequalityFamily.I:
        return ((e + 1.0) / (2.0 * e)) ** (s - 2.0) / (4.0 * e ** (t + 1.0))
    if family is InequalityFamily.II:
        return ((e + 1.0) / 2.0) ** (s - 2.0) / (4.0 * e ** (t - 2.0))
    if family is InequalityFamily.III:
        return ((e + 1.0) / 2.0) ** (s - 3.0) * (s * e + 4.0 - s) / (4.0 * e ** (t - 2.0))
    if family is InequalityFamily.IV:
        return (
            ((e + 1.0) / (2.0 * e)) ** (s - 3.0)
            * ((4.0 - s) * e + s)
            / (4.0 * e ** (t + 2.0))
        )
    if family is InequalityFamily.V:
        return e ** (t + 1.0) * ((e + 1.0) / 2.0) ** (s - t)
    if family is InequalityFamily.VI:
        return e ** (t + 1.0) * ((e + 1.0) / 2.0) ** (s - t - 1.0) * (s * e + 4.0 - s)
    if family is InequalityFamily.VII:
        return ((e + 1.0) / (2.0 * e)) ** (s - t - 1.0) * ((4.0 - s) * e + s) / e
    if family is InequalityFamily.VIII:
        return ((e + 1.0) / 2.0) ** (s - t - 1.0) * (s * e + 4.0 - s)
    raise KeyError(family)


def printed_mM(
    family: InequalityFamily, s: float, t: float, r: float, R: float
) -> Optional[tuple[float, float]]:
    """The catalog's endpoint constants exactly as printed, or None when
    (s, t) lies outside every region.  Misprints are reproduced verbatim;
    this is the adjudication target for the erratum fixtures, not the
    engine's source of truth.  Evaluated in Python floats, the text may
    raise an :class:`ArithmeticError` (``OverflowError``,
    ``ZeroDivisionError``) far from ratio 1."""
    br = active_branch(family, s, t)
    if br is None:
        return None
    if family is InequalityFamily.IX:
        coef = (4.0 - s) * R + s
        m = ((R + 1.0) / 2.0) ** (s - t - 1.0) * coef / R ** (s + 1.0)
        M = ((r + 1.0) / 2.0) ** (s - t - 1.0) * coef / r ** (s + 1.0)
        return m, M
    if family is InequalityFamily.X:
        m = (
            ((R + 1.0) / 2.0) ** (s - t)
            * ((4.0 - s) * R + s)
            / (R ** (s + 1.0) * (t * R + 4.0 - t))
        )
        M = (
            ((r + 1.0) / 2.0) ** (s - t)
            * ((4.0 - s) * r + s)
            / (r ** (s + 1.0) * (t * r + 4.0 - t))
        )
        return m, M
    lo, hi = (r, R) if br.increasing else (R, r)
    return _printed_coef(family, s, t, lo), _printed_coef(family, s, t, hi)


# --------------------------------------------------------------------------
# certificates


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
        return {
            "family": self.family.value,
            "s": self.s,
            "t": self.t,
            "r": self.r,
            "R": self.R,
            "m": self.m,
            "M": self.M,
            "source": self.source.value,
            "region_ok": self.region_ok,
            "erratum": self.erratum,
        }

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

    In-region: when the curvature ratio is proven monotone on [r, R]
    (:meth:`_Ratio.direction`) in the branch's direction, or its end values
    are equal within their rounding allowance, m and M are its log-domain
    values at the ends, padded outward (:meth:`_Ratio.bound`), so
    ``m <= inf g`` and ``M >= sup g``; for r == R they are the value at r
    padded both ways.  Otherwise the :func:`numeric_mM` enclosure of the
    same ratio is shipped with an erratum note.  The printed catalog text
    is compared last, on endpoint values only, and can only add an
    erratum.  Out-of-region: numeric enclosure with ``region_ok=False``
    unless ``strict``, which raises :class:`RegionViolation`.
    """
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
                printed = printed_mM(family, s, t, r, R)
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
    m, M = _enclosure(ratio)
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
        return {
            "lhs": self.lhs,
            "mid": self.mid,
            "rhs": self.rhs,
            "slack_low": self.slack_low,
            "slack_high": self.slack_high,
            "passed": self.passed,
        }


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
