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
side of s = 1/2, so the choice is not a switching band.  Each kind is one
row of one table: f, f' and f'' as written and ln|f''| (:data:`D2_FORMS`).
Each f'' is uniform in s and held to a central-finite-difference oracle by
the tests before anything downstream trusts it: certificates are built
from curvature ratios, so d2 is analytic code, never numerical differentiation.

A spec may carry a 1-D array of s, a stack of one generator kind: f, f'
and f'' then gain a leading axis over s.  The stack is split by the
s >= 1/2 choice, so no form is evaluated on the wrong side, and every value
is bit-for-bit the one the same s gives alone.

All generators satisfy f(1) = 0 and f'(1) = 0, hence C_f(P||P) = 0 and
C_f inherits nonnegativity from convexity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import NamedTuple

import numpy as np

from ._accum import comp_sum
from .errors import InvalidArgument, NonPositiveArgument
from .simplex import Distribution, _require_integer, _require_interval, require_same_length


class Gen(Enum):
    PHI = "phi-gen"
    PSI = "psi-gen"
    UPSILON = "upsilon-gen"
    XI = "xi-gen"
    VARSIGMA = "varsigma-gen"


@dataclass(frozen=True)
class GeneratorSpec:
    """Generator kind and parameter; a scalar ``s`` is held as a Python float.

    ``s`` may also be a 1-D array: a stack of specs of one kind, which
    :func:`gen_value`, :func:`gen_d1`, :func:`gen_d2` and
    :func:`csiszar_bulk` evaluate along a leading axis over ``s``.  A
    stacked spec is not hashable.
    """

    gen: Gen
    s: float

    def __post_init__(self):
        s = self.s
        if type(s) is not float and not isinstance(s, np.ndarray):
            if isinstance(s, (bool, np.bool_)) or not isinstance(s, Real):
                raise InvalidArgument(f"s must be a real number, got {s!r}")
            try:
                object.__setattr__(self, "s", s := float(s))
            except OverflowError:  # an int or a Fraction past the double range
                raise InvalidArgument(f"s must be finite, got a huge {type(s).__name__}") from None
        if not (math.isfinite(s) if type(s) is float else np.isfinite(s).all()):
            raise InvalidArgument(f"s must be finite, got {s}")


@dataclass(frozen=True)
class GeneratorValue:
    value: float
    d1: float
    d2: float


def _pow(x, e):
    # uniform treatment of real exponents, e = 0 included (exp(0 ln x) is
    # exactly 1); finite x > 0 is guaranteed by callers
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


def _stack(s, x):
    """``s`` itself when it is a scalar; a 1-D array of s as a column of
    shape ``(len(s), 1, ..., 1)``, broadcasting against the argument ``x``,
    so results gain a leading axis over s.  (``isinstance``, not
    ``np.ndim``, keeps the scalar path of the certify loop cheap.)"""
    if not isinstance(s, np.ndarray):
        return s
    return s.astype(float).reshape((-1,) + (1,) * np.ndim(x))


def _by_form(s, high, low):
    """``high(s)`` for s >= 1/2 and ``low(s)`` below: the choice between the
    two phi_s forms (module docstring).

    A stacked ``s`` (:func:`_stack`) is split by that choice along its
    leading axis, so neither form ever sees a parameter from the other
    side, and the two parts are put back in the order of ``s``."""
    if not isinstance(s, np.ndarray):
        return high(s) if s >= 0.5 else low(s)
    up = s.reshape(-1) >= 0.5
    if up.all():
        return high(s)
    if not up.any():
        return low(s)
    a, b = high(s[up]), low(s[~up])
    out = np.empty((up.shape[0],) + a.shape[1:])
    out[up], out[~up] = a, b
    return out


def _phi(s, y):
    """The PHI generator in the form that is regular at s (module docstring)."""
    return _by_form(
        s,
        lambda s: (y * _lpow(s - 1.0, y) - (y - 1.0)) / s,
        lambda s: (_lpow(s, y) - (y - 1.0)) / (s - 1.0),
    )


def _v(x):
    return (x + 1.0) / (2.0 * x)


#: a kind's f, f', f'' of (s, x), s as :func:`_stack` gives it, and d2_forms
_Row = namedtuple("_Row", "f d1 d2 d2_forms")

_ROWS = {
    Gen.PHI: _Row(
        _phi,
        lambda s, x: _lpow(s - 1.0, x),
        lambda s, x: _pow(x, s - 2.0),
        ((-2, 1), (0, 0), (0, 0), (0, 0), (1, 0))),
    Gen.PSI: _Row(
        lambda s, x: x * _phi(s, _v(x)),
        lambda s, x: _phi(s, v := _v(x)) - _lpow(s - 1.0, v) / (2.0 * x),
        lambda s, x: _pow(_v(x), s - 2.0) / (4.0 * x * x * x),
        ((-1, -1), (-2, 1), (0, -1), (0, 0), (1, 0))),
    Gen.UPSILON: _Row(
        lambda s, x: _phi(s, (x + 1.0) / 2.0),
        lambda s, x: _lpow(s - 1.0, (x + 1.0) / 2.0) / 2.0,
        lambda s, x: _pow((x + 1.0) / 2.0, s - 2.0) / 4.0,
        ((0, 0), (-2, 1), (0, -1), (0, 0), (1, 0))),
    Gen.XI: _Row(
        lambda s, x: (x - 1.0) * _lpow(s - 1.0, (x + 1.0) / 2.0),
        lambda s, x: _lpow(s - 1.0, u := (x + 1.0) / 2.0) + (x - 1.0) * _pow(u, s - 2.0) / 2.0,
        lambda s, x: _pow((x + 1.0) / 2.0, s - 3.0) * (s * x + (4.0 - s)) / 4.0,
        ((0, 0), (-3, 1), (1, -1), (0, 1), (4, -1))),
    Gen.VARSIGMA: _Row(
        lambda s, x: (1.0 - x) * _lpow(s - 1.0, _v(x)),
        lambda s, x: -_lpow(s - 1.0, v := _v(x)) + (x - 1.0) * _pow(v, s - 2.0) / (2.0 * x * x),
        lambda s, x: _pow(_v(x), s - 3.0) * ((4.0 - s) * x + s) / (4.0 * x * x * x * x),
        ((-1, -1), (-3, 1), (1, -1), (4, -1), (0, 1))),
}

#: the d2_forms column: ln|f''| of the docstring's table, with u = (1+x)/2,
#: v = u/x, ln u = ln(1+x) - ln 2 and ln v = ln u - ln x, as alpha ln x +
#: beta ln(1+x) + c ln 2 + ln|p x + q| (q = 1 and p = 0 where f'' has no
#: linear factor): the fields alpha, beta, c, p and q, each k0 + k1 s as (k0, k1)
D2_FORMS = {g: row.d2_forms for g, row in _ROWS.items()}


def _column(col: int, spec: GeneratorSpec, x):
    x = np.asarray(x, float) if np.ndim(x) else x
    return _ROWS[spec.gen][col](_stack(spec.s, x), x)


def gen_value(spec: GeneratorSpec, x):
    """f(x) for positive x (scalar or array); no domain check."""
    return _column(0, spec, x)


def gen_d1(spec: GeneratorSpec, x):
    """f'(x); sign analysis only, certificates never rely on d1 alone."""
    return _column(1, spec, x)


def gen_d2(spec: GeneratorSpec, x):
    """f''(x); a single closed form per generator, valid for every s."""
    return _column(2, spec, x)


class LogD2(NamedTuple):
    """f''(x) = sign * exp(alpha ln x + beta ln(1+x) + c) * (p x + q), with
    the last factor read as 1 when p = q = 0.

    The linear factor is present only when ``p`` and ``q`` are both
    non-zero and differ; otherwise it is folded into the other fields
    (``p x`` into ``alpha``, ``q`` into ``c``, ``p (1+x)`` into ``beta``) and
    ``p = q = 0``.  The bound engine reads ln|f''| from these fields, and
    builds its cubic N from :data:`D2_FORMS` at s itself: the fields are
    rounded.
    """

    alpha: float
    beta: float
    c: float
    sign: float
    p: float = 0.0
    q: float = 0.0


_LN2 = math.log(2.0)


def log_d2(spec: GeneratorSpec) -> LogD2:
    """The closed form of :func:`gen_d2` as a :class:`LogD2` record, from
    :data:`D2_FORMS` at ``spec.s``."""
    (a0, a1), (b0, b1), (c0, c1), (p0, p1), (q0, q1) = _ROWS[spec.gen].d2_forms
    s = spec.s
    alpha, beta, c = a0 + a1 * s, b0 + b1 * s, (c0 + c1 * s) * _LN2
    if not (p0 or p1):  # no linear factor
        return LogD2(alpha, beta, c, 1.0)
    return _fold(alpha, beta, c, p0 + p1 * s, q0 + q1 * s)


def _fold(alpha: float, beta: float, c: float, p: float, q: float) -> LogD2:
    # a factor proportional to 1, x or 1+x is a power, not a Moebius term:
    # folding it keeps ratios such as XI(2)/PHI(2) == 1 exactly flat
    if p == 0.0:
        return LogD2(alpha, beta, c + math.log(abs(q)), math.copysign(1.0, q))
    if q == 0.0:
        return LogD2(alpha + 1.0, beta, c + math.log(abs(p)), math.copysign(1.0, p))
    if p == q:
        return LogD2(alpha, beta + 1.0, c + math.log(abs(p)), math.copysign(1.0, p))
    return LogD2(alpha, beta, c, 1.0, p, q)


def _require_positive(x) -> None:
    if np.ndim(x):
        x = np.asarray(x)
        if not np.all((x > 0.0) & (x < np.inf)):
            raise NonPositiveArgument("generator argument must be positive and finite")
    elif not 0.0 < x < np.inf:
        raise NonPositiveArgument(f"generator argument must be positive and finite, got {x}")


def gen_eval(spec: GeneratorSpec, x) -> GeneratorValue:
    """Value and first two derivatives of the generator at finite x > 0."""
    _require_positive(x)
    vals = gen_value(spec, x), gen_d1(spec, x), gen_d2(spec, x)
    return GeneratorValue(*(vals if np.ndim(x) else map(float, vals)))


def csiszar(spec: GeneratorSpec, P: Distribution, Q: Distribution) -> float:
    """C_f(P||Q) = sum q_i f(p_i/q_i) for the specified generator."""
    require_same_length(P, Q)
    return csiszar_bulk(spec, P.masses, Q.masses)


def csiszar_bulk(spec: GeneratorSpec, p, q):
    """Engine over arrays of shape (..., n); reduces the last axis.  A
    stacked spec adds a leading axis over its s, summed in one call."""
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
    """Whether f'' >= 0 on [r, R], decided by the signs of the :func:`log_d2`
    record at r and R (f'' changes sign at most once, at the zero of
    p x + q).  ``min_d2`` and ``argmin_x`` are a sampled diagnostic: the
    least f'' on a log-spaced grid of ``grid`` points, and where it lies."""
    _require_interval(r, R)
    _require_integer("grid", grid, 2)
    rec = log_d2(spec)
    convex = all(rec.sign * (rec.p * x + rec.q if rec.p else 1.0) >= 0.0 for x in (r, R))
    xs = np.geomspace(r, R, grid)
    d2 = gen_d2(spec, xs)
    i = int(np.argmin(d2))
    return ConvexityScan(convex, float(d2[i]), float(xs[i]))
