"""Certified two-sided bounds between f-divergences.

For two generators with f1(1) = f2(1) = 0, both twice differentiable and
f2'' > 0 on the likelihood-ratio interval (r, R), any constants

    m <= g(x) = f1''(x) / f2''(x) <= M        for all x in (r, R)

give the sandwich  m C_f2(P||Q) <= C_f1(P||Q) <= M C_f2(P||Q)  for every
pair whose mass ratios lie in [r, R] (convexity of f1 - m f2 and of
M f2 - f1 plus nonnegativity of normalized convex f-divergences).

The sharp constants are m = inf g and M = sup g over [r, R].  This module
computes them two ways:

* :func:`numeric_mM` - dense log-spaced grid plus golden-section
  refinement; works for any generator pair with positive denominator
  curvature, monotone or not.

* :func:`closed_form_mM` - the cataloged endpoint formulas for the ten
  inequality families below.  Within each family's validity region the
  ratio g is monotone, so the extrema sit at the interval endpoints.
  Every closed-form certificate is cross-checked against the numeric
  scanner; if the cataloged text disagrees with the scan (two corners of
  the catalog are misprinted, see ``erratum`` on the certificate), the
  numeric values are shipped.  A certificate is therefore always sound.

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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import (
    DegenerateDenominator,
    NonFiniteValue,
    NonPositiveArgument,
    RegionViolation,
)
from .generators import Gen, GeneratorSpec, gen_d2, gen_d2_scalar
from .generators import csiszar
from .simplex import Distribution, ratio_bounds

import numpy as np

#: tolerance scale for sandwich slack: pass iff slack >= -SLACK_REL_TOL * max(1, |mid|)
SLACK_REL_TOL = 1e-10
#: closed-form vs numeric agreement threshold
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
    """f1''(x) / f2''(x) for x > 0; denominator curvature must be positive."""
    if np.ndim(x):
        xs = np.asarray(x, float)
        if not np.all(xs > 0.0):
            raise NonPositiveArgument("curvature ratio needs x > 0")
        d = gen_d2(den, xs)
        if not np.all(d > 0.0):
            raise DegenerateDenominator(
                f"{den.gen.value}(s={den.s}) has non-positive curvature in the range"
            )
        return gen_d2(num, xs) / d
    if not x > 0.0:
        raise NonPositiveArgument(f"curvature ratio needs x > 0, got {x}")
    d = float(gen_d2(den, x))
    if not d > 0.0:
        raise DegenerateDenominator(
            f"{den.gen.value}(s={den.s}) has curvature {d} at x={x}"
        )
    return float(gen_d2(num, x)) / d


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a: float, b: float, rel: float = 1e-12) -> float:
    """Least probed value of f over [a, b] (endpoints included)."""
    best = min(f(a), f(b))
    h = b - a
    tol = rel * max(1.0, abs(b))
    if h <= tol:
        return best
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    best = min(best, yc, yd)
    while h > tol:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - _INV_PHI * h
            yc = f(c)
            best = min(best, yc)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = f(d)
            best = min(best, yd)
    return best


_OVERFLOW = "overflows double precision"


def _non_finite(num: GeneratorSpec, den: GeneratorSpec, r: float, R: float, what: str):
    return NonFiniteValue(
        f"curvature ratio {num.gen.value}(s={num.s}) / {den.gen.value}(s={den.s}) "
        f"on [{r}, {R}] {what}"
    )


def numeric_mM(
    num: GeneratorSpec, den: GeneratorSpec, r: float, R: float, grid: int = 4097
) -> tuple[float, float]:
    """inf and sup of the curvature ratio over [r, R].

    Log-spaced grid scan followed by golden-section refinement of the cells
    bracketing the grid extrema, down to relative interval width 1e-12.
    Exact endpoint values are always included, so for monotone ratios the
    result is exact up to evaluation rounding.  Raises
    :class:`NonFiniteValue` when a curvature overflows double precision or
    an extremum is not finite.
    """
    if not (r > 0.0 and R > 0.0):
        raise NonPositiveArgument(f"interval must be positive, got [{r}, {R}]")
    if not r <= R:
        raise ValueError(f"need r <= R, got [{r}, {R}]")
    try:
        m, M = _scan_mM(num, den, r, R, grid)
    except OverflowError as exc:
        raise _non_finite(num, den, r, R, _OVERFLOW) from exc
    if not (math.isfinite(m) and math.isfinite(M)):
        raise _non_finite(num, den, r, R, f"has non-finite extrema m = {m!r}, M = {M!r}")
    return m, M


def _scan_mM(
    num: GeneratorSpec, den: GeneratorSpec, r: float, R: float, grid: int
) -> tuple[float, float]:
    fn = gen_d2_scalar(num)
    fd = gen_d2_scalar(den)

    def g(x: float) -> float:
        d = fd(x)
        if not d > 0.0:
            raise DegenerateDenominator(
                f"{den.gen.value}(s={den.s}) has curvature {d} at x={x}"
            )
        return fn(x) / d

    if r == R:
        v = g(r)
        return v, v
    xs = np.geomspace(r, R, grid)
    dvals = gen_d2(den, xs)
    if not np.all(dvals > 0.0):
        raise DegenerateDenominator(
            f"{den.gen.value}(s={den.s}) has non-positive curvature on [{r}, {R}]"
        )
    gs = gen_d2(num, xs) / dvals
    i_min = int(np.argmin(gs))
    i_max = int(np.argmax(gs))
    lo = _golden_min(g, float(xs[max(0, i_min - 1)]), float(xs[min(grid - 1, i_min + 1)]))
    hi = -_golden_min(
        lambda x: -g(x),
        float(xs[max(0, i_max - 1)]),
        float(xs[min(grid - 1, i_max + 1)]),
    )
    return min(float(gs[i_min]), lo), max(float(gs[i_max]), hi)


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
    engine's source of truth."""
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
    endpoint formulas or the numeric scanner; ``erratum`` documents any
    disagreement between the printed catalog text and the scan.  In-region
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
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def closed_form_mM(
    family: InequalityFamily,
    s: float,
    t: float,
    r: float,
    R: float,
    *,
    cross_check: bool = True,
    strict: bool = False,
) -> BoundCertificate:
    """Certificate for the family at (s, t) over [r, R].

    In-region: m and M are the curvature ratio at the interval endpoints,
    ordered by the branch's monotonicity, then cross-checked against
    :func:`numeric_mM`; any disagreement ships the numeric values with an
    erratum note.  Out-of-region: numeric fallback with ``region_ok=False``
    unless ``strict``, which raises :class:`RegionViolation`.
    """
    num, den = family_generators(family, s, t)
    br = active_branch(family, s, t)
    if br is None:
        if strict:
            raise RegionViolation(
                f"(s={s}, t={t}) lies outside every region of family {family.value}"
            )
        m, M = numeric_mM(num, den, r, R)
        return BoundCertificate(
            family, s, t, r, R, m, M, CertificateSource.NUMERIC, False
        )
    if r == R:
        v = g_ratio(num, den, r)
        if not math.isfinite(v):
            raise _non_finite(num, den, r, R, f"is {v!r} at x = {r!r}")
        return BoundCertificate(
            family, s, t, r, R, v, v, CertificateSource.CLOSED_FORM, True
        )
    lo, hi = (r, R) if br.increasing else (R, r)
    m = g_ratio(num, den, lo)
    M = g_ratio(num, den, hi)
    erratum = None
    try:
        printed = printed_mM(family, s, t, r, R)
    except OverflowError as exc:
        raise _non_finite(num, den, r, R, _OVERFLOW) from exc
    if printed is not None and not (_agrees(printed[0], m) and _agrees(printed[1], M)):
        erratum = (
            f"catalog text for tag ({br.tag}) disagrees with the curvature-ratio "
            f"endpoint values; corrected endpoint values shipped"
        )
    source = CertificateSource.CLOSED_FORM
    if m > M:
        # branch direction contradicted by the actual values: scan instead
        m, M = numeric_mM(num, den, r, R)
        source = CertificateSource.NUMERIC
        erratum = (
            f"monotonicity direction of tag ({br.tag}) is reversed at "
            f"(s={s}, t={t}); numeric extrema shipped"
        )
    elif cross_check:
        nm, nM = numeric_mM(num, den, r, R)
        if not (_agrees(m, nm) and _agrees(M, nM)):
            m, M = nm, nM
            source = CertificateSource.NUMERIC
            erratum = (
                f"endpoint values of tag ({br.tag}) fail the numeric cross-check "
                f"at (s={s}, t={t}); numeric extrema shipped"
            )
    if not (math.isfinite(m) and math.isfinite(M)):
        raise _non_finite(num, den, r, R, f"has non-finite extrema m = {m!r}, M = {M!r}")
    return BoundCertificate(family, s, t, r, R, m, M, source, True, erratum)


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
    *,
    cross_check: bool = True,
) -> SandwichReport:
    """Evaluate m*C_f2 <= C_f1 <= M*C_f2 on an actual pair.

    [r, R] is taken from the pair's mass ratios; passing requires both
    slacks to be at least -SLACK_REL_TOL * max(1, |C_f1|).
    """
    rb = ratio_bounds(P, Q)
    cert = closed_form_mM(family, s, t, rb.r, rb.R, cross_check=cross_check)
    num, den = family_generators(family, s, t)
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
