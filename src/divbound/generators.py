"""Convex generating functions and the f-divergence engine.

An f-divergence is C_f(P||Q) = sum q_i f(p_i/q_i) for a generator f that is
convex on (0, inf) and normalized by f(1) = 0.  Five generator families are
provided; each reproduces one type-s family through the engine:

    phi_gen      -> Phi_s(P||Q)
    psi_gen      -> Omega_s(P||Q)
    upsilon_gen  -> Omega_s(Q||P)
    xi_gen       -> Zeta_s(P||Q)
    varsigma_gen -> Zeta_s(Q||P)

With u = (x+1)/2 and v = (x+1)/(2x), the generators and their curvatures:

    gen       f(x), s generic                               f''(x)
    --------  -------------------------------------------   --------------------------
    PHI       [x^s - 1 - s(x-1)] / [s(s-1)]                 x^(s-2)
    PSI       [x v^s - x - s(1-x)/2] / [s(s-1)]             v^(s-2) / (4 x^3)
    UPSILON   [u^s - 1 - s(x-1)/2] / [s(s-1)]               u^(s-2) / 4
    XI        (x-1)(u^(s-1) - 1) / (s-1)                    u^(s-3) (s x + 4 - s) / 4
    VARSIGMA  (1-x)(v^(s-1) - 1) / (s-1)                    v^(s-3) ((4-s) x + s) / (4 x^4)

The points s = 0, 1 of these formulas are removable singularities.  f and
f' have no limit branch: they use L_a(y) = (y^a - 1)/a = ln(y) exprel(a ln y),
exprel(z) = expm1(z)/z, exact for every real a (L_0 = ln), and the PHI
generator phi_s(y) = [y L_(s-1)(y) - (y-1)]/s for s >= 1/2, else
[L_s(y) - (y-1)]/(s-1):

    PHI       f = phi_s(x)            f' = L_(s-1)(x)
    PSI       f = x phi_s(v)          f' = phi_s(v) - L_(s-1)(v) / (2x)
    UPSILON   f = phi_s(u)            f' = L_(s-1)(u) / 2
    XI        f = (x-1) L_(s-1)(u)    f' = L_(s-1)(u) + (x-1) u^(s-2) / 2
    VARSIGMA  f = (1-x) L_(s-1)(v)    f' = -L_(s-1)(v) + (x-1) v^(s-2) / (2x^2)

The two phi_s forms are algebraically equal and each is regular on its own
side of s = 1/2, so the choice is not a switching band.  The f'' closed
forms are uniform in s as written, and each is held to a
central-finite-difference oracle by the test suite before anything
downstream trusts them: certificates are built from curvature ratios, so
d2 is analytic code, never numerical differentiation.

All generators satisfy f(1) = 0 and f'(1) = 0, hence C_f(P||P) = 0 and
C_f inherits nonnegativity from convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._accum import comp_sum
from .errors import NonPositiveArgument
from .simplex import Distribution, require_same_length

CONVEXITY_SLACK = 1e-12


class Gen(Enum):
    PHI = "phi-gen"
    PSI = "psi-gen"
    UPSILON = "upsilon-gen"
    XI = "xi-gen"
    VARSIGMA = "varsigma-gen"


@dataclass(frozen=True)
class GeneratorSpec:
    gen: Gen
    s: float

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")


@dataclass(frozen=True)
class GeneratorValue:
    value: float
    d1: float
    d2: float


def _pow(x, e):
    # uniform treatment of real exponents; x > 0 is guaranteed by callers
    if e == 0.0:
        return np.ones_like(np.asarray(x, float)) if np.ndim(x) else 1.0
    return np.exp(e * np.log(x))


def _lpow(a, y):
    """L_a(y) = (y^a - 1)/a = ln(y) exprel(a ln y), exact through a = 0 (ln y).

    exprel(z) = expm1(z)/z is set to its limit 1 at z = 0; the 0/0 it
    computes there first is silenced here and nowhere else.  ``[()]`` turns
    the 0-d array of a scalar argument back into a scalar.
    """
    lny = np.log(y)
    z = a * lny
    with np.errstate(invalid="ignore"):
        return lny * np.where(z == 0.0, 1.0, np.expm1(z) / z)[()]


def _phi(s, y):
    """The PHI generator in the form that is regular at s (module docstring)."""
    if s >= 0.5:
        return (y * _lpow(s - 1.0, y) - (y - 1.0)) / s
    return (_lpow(s, y) - (y - 1.0)) / (s - 1.0)


def gen_value(spec: GeneratorSpec, x):
    """f(x) for positive x (scalar or array); no domain check."""
    s = spec.s
    g = spec.gen
    x = np.asarray(x, float) if np.ndim(x) else x
    if g is Gen.PHI:
        return _phi(s, x)
    if g is Gen.PSI:
        return x * _phi(s, (x + 1.0) / (2.0 * x))
    if g is Gen.UPSILON:
        return _phi(s, (x + 1.0) / 2.0)
    if g is Gen.XI:
        return (x - 1.0) * _lpow(s - 1.0, (x + 1.0) / 2.0)
    if g is Gen.VARSIGMA:
        return (1.0 - x) * _lpow(s - 1.0, (x + 1.0) / (2.0 * x))
    raise KeyError(f"unknown generator {g!r}")


def gen_d1(spec: GeneratorSpec, x):
    """f'(x); sign analysis only, certificates never rely on d1 alone."""
    s = spec.s
    g = spec.gen
    x = np.asarray(x, float) if np.ndim(x) else x
    if g is Gen.PHI:
        return _lpow(s - 1.0, x)
    if g is Gen.PSI:
        v = (x + 1.0) / (2.0 * x)
        return _phi(s, v) - _lpow(s - 1.0, v) / (2.0 * x)
    if g is Gen.UPSILON:
        return _lpow(s - 1.0, (x + 1.0) / 2.0) / 2.0
    if g is Gen.XI:
        u = (x + 1.0) / 2.0
        return _lpow(s - 1.0, u) + (x - 1.0) * _pow(u, s - 2.0) / 2.0
    if g is Gen.VARSIGMA:
        v = (x + 1.0) / (2.0 * x)
        return -_lpow(s - 1.0, v) + (x - 1.0) * _pow(v, s - 2.0) / (2.0 * x * x)
    raise KeyError(f"unknown generator {g!r}")


def gen_d2(spec: GeneratorSpec, x):
    """f''(x); a single closed form per generator, valid for every s."""
    s = spec.s
    g = spec.gen
    x = np.asarray(x, float) if np.ndim(x) else x
    if g is Gen.PHI:
        return _pow(x, s - 2.0)
    if g is Gen.PSI:
        v = (x + 1.0) / (2.0 * x)
        return _pow(v, s - 2.0) / (4.0 * x * x * x)
    if g is Gen.UPSILON:
        u = (x + 1.0) / 2.0
        return _pow(u, s - 2.0) / 4.0
    if g is Gen.XI:
        u = (x + 1.0) / 2.0
        return _pow(u, s - 3.0) * (s * x + 4.0 - s) / 4.0
    if g is Gen.VARSIGMA:
        v = (x + 1.0) / (2.0 * x)
        return _pow(v, s - 3.0) * ((4.0 - s) * x + s) / (4.0 * x * x * x * x)
    raise KeyError(f"unknown generator {g!r}")


def gen_d2_scalar(spec: GeneratorSpec) -> Callable[[float], float]:
    """A plain-float f'' evaluator (math module) for tight scalar loops.

    Same closed forms as :func:`gen_d2`; used by the golden-section
    refinement where per-call numpy overhead dominates.
    """
    s = spec.s
    g = spec.gen
    if g is Gen.PHI:
        return lambda x: math.exp((s - 2.0) * math.log(x))
    if g is Gen.PSI:
        return lambda x: math.exp((s - 2.0) * math.log((x + 1.0) / (2.0 * x))) / (
            4.0 * x * x * x
        )
    if g is Gen.UPSILON:
        return lambda x: math.exp((s - 2.0) * math.log((x + 1.0) / 2.0)) / 4.0
    if g is Gen.XI:
        return lambda x: (
            math.exp((s - 3.0) * math.log((x + 1.0) / 2.0)) * (s * x + 4.0 - s) / 4.0
        )
    if g is Gen.VARSIGMA:
        return lambda x: (
            math.exp((s - 3.0) * math.log((x + 1.0) / (2.0 * x)))
            * ((4.0 - s) * x + s)
            / (4.0 * x * x * x * x)
        )
    raise KeyError(f"unknown generator {g!r}")


def _require_positive(x) -> None:
    if np.ndim(x):
        if not np.all(np.asarray(x) > 0.0):
            raise NonPositiveArgument("generator argument must be positive")
    elif not x > 0.0:
        raise NonPositiveArgument(f"generator argument must be positive, got {x}")


def gen_eval(spec: GeneratorSpec, x) -> GeneratorValue:
    """Value and first two derivatives of the generator at x > 0."""
    _require_positive(x)
    if np.ndim(x):
        return GeneratorValue(gen_value(spec, x), gen_d1(spec, x), gen_d2(spec, x))
    return GeneratorValue(
        float(gen_value(spec, x)), float(gen_d1(spec, x)), float(gen_d2(spec, x))
    )


def csiszar(spec: GeneratorSpec, P: Distribution, Q: Distribution) -> float:
    """C_f(P||Q) = sum q_i f(p_i/q_i) for the specified generator."""
    require_same_length(P, Q)
    return csiszar_bulk(spec, P.masses, Q.masses)


def csiszar_bulk(spec: GeneratorSpec, p, q):
    """Engine over arrays of shape (..., n); reduces the last axis."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    return comp_sum(q * gen_value(spec, p / q))


@dataclass(frozen=True)
class ConvexityScan:
    convex: bool
    min_d2: float
    argmin_x: float


def convexity_scan(
    spec: GeneratorSpec, r: float, R: float, grid: int = 1025
) -> ConvexityScan:
    """Scan f'' on a log-spaced grid over [r, R].

    ``convex`` is true when the smallest sampled curvature is above
    -CONVEXITY_SLACK; ``argmin_x`` locates the most negative sample.
    """
    if not (r > 0.0 and R > 0.0):
        raise NonPositiveArgument(f"interval must be positive, got [{r}, {R}]")
    if not r <= R:
        raise ValueError(f"need r <= R, got [{r}, {R}]")
    if grid < 2:
        raise ValueError(f"need at least 2 grid points, got {grid}")
    xs = np.geomspace(r, R, grid)
    d2 = gen_d2(spec, xs)
    i = int(np.argmin(d2))
    return ConvexityScan(bool(d2[i] >= -CONVEXITY_SLACK), float(d2[i]), float(xs[i]))
