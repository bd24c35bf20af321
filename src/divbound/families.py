"""One-parameter (type-s) generalizations of the non-symmetric measures.

Three families, each smooth in the real parameter s; their singular points
s = 0, 1 are removable:

    Phi_s(P||Q)   = [s(s-1)]^-1 [ sum p^s q^(1-s) - 1 ]          s not in {0, 1}
                  = K(Q||P) at s = 0,   K(P||Q) at s = 1

    Omega_s(P||Q) = [s(s-1)]^-1 [ sum p ((p+q)/(2p))^s - 1 ]     s not in {0, 1}
                  = F(P||Q) at s = 0,   G(P||Q) at s = 1

    Zeta_s(P||Q)  = (s-1)^-1 sum (p-q) ((p+q)/(2q))^(s-1)        s != 1
                  = D(P||Q) at s = 1

Adjoints swap P and Q.  Special parameter values recover the classical
measures, e.g. Phi_2 = chi2(P||Q)/2, Phi_1/2 = 4h, Omega_-1 = Delta/4,
Zeta_2 = chi2(P||Q)/2; the full list is pinned down by the test suite.
The swap duality Phi_s(P||Q) = Phi_(1-s)(Q||P) holds for every real s
(immediate from s(s-1) = (1-s)(-s); verified empirically in the tests).

The kernels have no limit branches.  With L_a(y) = (y^a - 1)/a =
ln(y) expm1(a ln y)/(a ln y), exact for every real a (L_0 = ln), and
m = (p+q)/2, they sum, for s >= 1/2 and for s < 1/2 respectively,

    Phi_s:    [p L_(s-1)(p/q) - (p-q)] / s,    [q L_s(p/q) - (p-q)] / (s-1)
    Omega_s:  [m L_(s-1)(m/p) - (m-p)] / s,    [p L_s(m/p) - (m-p)] / (s-1)
    Zeta_s:   (p-q) L_(s-1)(m/q) for every s

The two forms are algebraically equal and each is regular on its own side
of s = 1/2, so the choice is not a switching band.  A 1-D array of s is
split by that choice (no form sees the other side's values) and summed in
one compensated sum; each value is bit-for-bit the one the same s gives
alone.  Subtracting the linear
term per term keeps the kernels equal to the engine on validated pairs
whose masses add up to 1 only within tolerance.  The kernels never call
the generator engine, so the two stay independent computations.

Each family is the f-divergence of one generator (:mod:`generators`).  One
private table holds each family's kernel, its terms (:func:`_accum.summed`)
and its generator, and :func:`family_value`, :func:`in_convex_range` and the
harness read it.  The Zeta generators are convex only for 0 <= s <= 4, as
their curvature records say; outside that range the value is still defined
and computable, but it is not a certified divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ._accum import summed
from .generators import Gen, GeneratorSpec, _by_form, _lpow, _stack, log_d2
from .simplex import Distribution, require_same_length

#: the s where the Zeta generators are convex (:func:`in_convex_range`)
ZETA_CONVEX_RANGE = (0.0, 4.0)


class Family(Enum):
    PHI = "phi"
    OMEGA = "omega"
    OMEGA_ADJOINT = "omega-adj"
    ZETA = "zeta"
    ZETA_ADJOINT = "zeta-adj"


@dataclass(frozen=True)
class FamilyId:
    family: Family
    s: float

    def __post_init__(self):
        # s as its family's generator spec holds it, and refused as there
        object.__setattr__(self, "s", GeneratorSpec(_FAMILIES[self.family].gen, self.s).s)


@summed()
def phi_s(s, p, q):
    """Relative information of type s; arrays of shape (..., n) reduce.

    ``s`` is a float or a 1-D array; an array adds a leading axis over s
    to the result, summed in one call (module docstring)."""
    s = _stack(s, p)
    return _by_form(
        s,
        lambda s: (p * _lpow(s - 1.0, p / q) - (p - q)) / s,
        lambda s: (q * _lpow(s, p / q) - (p - q)) / (s - 1.0),
    )


@summed()
def omega_s(s, p, q, *, adjoint: bool = False):
    """Unified relative JS/AG divergence of type s (adjoint swaps p and q);
    ``s`` as in :func:`phi_s`."""
    if adjoint:
        p, q = q, p
    m = (p + q) / 2.0
    s = _stack(s, p)
    return _by_form(
        s,
        lambda s: (m * _lpow(s - 1.0, m / p) - (m - p)) / s,
        lambda s: (p * _lpow(s, m / p) - (m - p)) / (s - 1.0),
    )


@summed()
def zeta_s(s, p, q, *, adjoint: bool = False):
    """Relative J-divergence of type s (adjoint swaps p and q); ``s`` as in
    :func:`phi_s`."""
    if adjoint:
        p, q = q, p
    s = _stack(s, p)
    return (p - q) * _lpow(s - 1.0, (p + q) / (2.0 * q))


class _Row(NamedTuple):
    kernel: Callable  # (s, p, q) -> value, s as in phi_s
    gen: Gen  # the generator whose f-divergence the family is
    terms: Callable  # (s, p, q) -> the terms the kernel sums


# lambdas look the kernels up when called (benchmark/tracing.py rebinds them)
_FAMILIES = {
    Family.PHI: _Row(lambda s, p, q: phi_s(s, p, q), Gen.PHI, phi_s.terms),
    Family.OMEGA: _Row(lambda s, p, q: omega_s(s, p, q), Gen.PSI, omega_s.terms),
    Family.OMEGA_ADJOINT: _Row(lambda s, p, q: omega_s(s, q, p), Gen.UPSILON,
                               partial(omega_s.terms, adjoint=True)),
    Family.ZETA: _Row(lambda s, p, q: zeta_s(s, p, q), Gen.XI, zeta_s.terms),
    Family.ZETA_ADJOINT: _Row(lambda s, p, q: zeta_s(s, q, p), Gen.VARSIGMA,
                              partial(zeta_s.terms, adjoint=True)),
}


def family_value(fid: FamilyId, P: Distribution, Q: Distribution) -> float:
    """Dispatch to the family kernels over a validated pair."""
    require_same_length(P, Q)
    return _FAMILIES[fid.family].kernel(fid.s, P.masses, Q.masses)


def in_convex_range(family: Family, s: float) -> bool:
    """Whether the generator of (family, s) is convex on (0, inf): its
    curvature record has sign > 0 and a linear factor p x + q, p, q >= 0."""
    rec = log_d2(GeneratorSpec(_FAMILIES[family].gen, s))
    return rec.sign > 0.0 and rec.p >= 0.0 and rec.q >= 0.0
