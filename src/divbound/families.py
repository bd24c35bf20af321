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
of s = 1/2, so the choice is not a switching band.  Subtracting the linear
term per term keeps the kernels equal to the engine on validated pairs
whose masses add up to 1 only within tolerance.  The kernels never call
the generator engine, so the two stay independent computations.

The Zeta generators are convex only for 0 <= s <= 4; outside that range the
value is still defined and computable, but it is not a certified divergence
(see :func:`in_convex_range`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._accum import comp_sum
from .generators import _lpow
from .simplex import Distribution, require_same_length

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
        if not np.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")


def in_convex_range(family: Family, s: float) -> bool:
    """Whether the generating function of (family, s) is convex on (0, inf)."""
    if family in (Family.ZETA, Family.ZETA_ADJOINT):
        lo, hi = ZETA_CONVEX_RANGE
        return lo <= s <= hi
    return True


def phi_s(s: float, p, q):
    """Relative information of type s; arrays of shape (..., n) reduce."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    if s >= 0.5:
        terms = (p * _lpow(s - 1.0, p / q) - (p - q)) / s
    else:
        terms = (q * _lpow(s, p / q) - (p - q)) / (s - 1.0)
    return comp_sum(terms)


def omega_s(s: float, p, q, adjoint: bool = False):
    """Unified relative JS/AG divergence of type s (adjoint swaps p and q)."""
    if adjoint:
        p, q = q, p
    p, q = np.asarray(p, float), np.asarray(q, float)
    m = (p + q) / 2.0
    if s >= 0.5:
        terms = (m * _lpow(s - 1.0, m / p) - (m - p)) / s
    else:
        terms = (p * _lpow(s, m / p) - (m - p)) / (s - 1.0)
    return comp_sum(terms)


def zeta_s(s: float, p, q, adjoint: bool = False):
    """Relative J-divergence of type s (adjoint swaps p and q)."""
    if adjoint:
        p, q = q, p
    p, q = np.asarray(p, float), np.asarray(q, float)
    return comp_sum((p - q) * _lpow(s - 1.0, (p + q) / (2.0 * q)))


def family_value(fid: FamilyId, P: Distribution, Q: Distribution) -> float:
    """Dispatch to the family kernels over a validated pair."""
    require_same_length(P, Q)
    p, q = P.masses, Q.masses
    if fid.family is Family.PHI:
        return phi_s(fid.s, p, q)
    if fid.family is Family.OMEGA:
        return omega_s(fid.s, p, q)
    if fid.family is Family.OMEGA_ADJOINT:
        return omega_s(fid.s, p, q, adjoint=True)
    if fid.family is Family.ZETA:
        return zeta_s(fid.s, p, q)
    if fid.family is Family.ZETA_ADJOINT:
        return zeta_s(fid.s, p, q, adjoint=True)
    raise KeyError(f"unknown family {fid.family!r}")
