"""Classical divergence measures between discrete distributions.

Twelve measures over a pair (P, Q) with strictly positive masses, all in
nats (the dimensionless ones are the quadratic/root families):

    chi2(P||Q)       = sum (p - q)^2 / q              Pearson chi-square
    K(P||Q)          = sum p ln(p/q)                  relative information
    F(P||Q)          = sum p ln(2p/(p+q))             relative Jensen-Shannon
    G(P||Q)          = sum ((p+q)/2) ln((p+q)/(2p))   relative arithmetic-geometric
    D(P||Q)          = sum (p - q) ln((p+q)/(2q))     relative J-divergence
    Psi              = sum (p - q)^2 (p + q) / (p q)  symmetric chi-square
    J                = sum (p - q) ln(p/q)            Jeffreys divergence
    I                = (1/2) sum [p ln(2p/(p+q)) + q ln(2q/(p+q))]
    T                = (1/2) sum ((p+q)/2) ln((p+q)^2/(4pq))
    Delta            = sum (p - q)^2 / (p + q)        triangular discrimination
    B                = sum sqrt(p q)                  Bhattacharyya coefficient
    h                = (1/2) sum (sqrt p - sqrt q)^2  Hellinger discrimination

Each symmetric measure is implemented from its own closed form rather than
by composing the one-sided halves, so the decomposition identities

    Psi = chi2(P||Q) + chi2(Q||P)
    J   = K(P||Q) + K(Q||P) = D(P||Q) + D(Q||P) = 4[I + T]
    D(Q||P) = 2[F(P||Q) + G(P||Q)]
    h   = 1 - B

are genuine cross-checks between independent computations, not tautologies.
:func:`identity_residuals` and the harness read them from one table.  The
kernel functions accept arrays of shape (..., n) and reduce the last axis,
so a bulk matrix of pairs evaluates in one call; each is written as the
function of its terms (:func:`_accum.summed`), which the harness stacks.

Note the factor in the last decomposition: term-by-term algebra gives
F(P||Q) + G(P||Q) = (1/2) sum (q - p) ln((p+q)/(2p)) = D(Q||P)/2, i.e. the
constant relating D(Q||P) to F + G is 2.  This is confirmed by brute force
in the verification suite and frozen in `REL_J_FROM_F_G_CONSTANT`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._accum import comp_sum, summed
from .simplex import Distribution, require_same_length

REL_J_FROM_F_G_CONSTANT = 2.0


@summed()
def chi_square(p, q):
    d = p - q
    return d * d / q


@summed()
def kl(p, q):
    return p * np.log(p / q)


@summed()
def rel_js(p, q):
    return p * np.log(2.0 * p / (p + q))


@summed()
def rel_ag(p, q):
    m = (p + q) / 2.0
    return m * np.log(m / p)


@summed()
def rel_j(p, q):
    return (p - q) * np.log((p + q) / (2.0 * q))


@summed()
def sym_chi_square(p, q):
    d = p - q
    return d * d * (p + q) / (p * q)


@summed()
def jeffreys(p, q):
    return (p - q) * np.log(p / q)


@summed(0.5)
def jensen_shannon(p, q):
    m = p + q
    return p * np.log(2.0 * p / m) + q * np.log(2.0 * q / m)


@summed(0.5)
def ag_mean(p, q):
    m = (p + q) / 2.0
    return m * (np.log(m / p) + np.log(m / q))


@summed()
def triangular(p, q):
    d = p - q
    return d * d / (p + q)


@summed()
def bhattacharyya(p, q):
    return np.sqrt(p * q)


@summed(0.5)
def hellinger(p, q):
    d = np.sqrt(p) - np.sqrt(q)
    return d * d


class MeasureKind(Enum):
    CHI_SQUARE = "chi2"
    KL = "kl"
    REL_JS = "rjs"
    REL_AG = "rag"
    REL_J = "rjd"
    SYM_CHI_SQUARE = "psi"
    JEFFREYS = "j"
    JENSEN_SHANNON = "js"
    AG_MEAN = "agt"
    TRIANGULAR = "delta"
    BHATTACHARYYA = "bhat"
    HELLINGER = "hellinger"


class Orientation(Enum):
    PQ = "pq"
    QP = "qp"


#: Kinds whose value is unchanged when P and Q are swapped.
SYMMETRIC_KINDS = frozenset(
    {
        MeasureKind.SYM_CHI_SQUARE,
        MeasureKind.JEFFREYS,
        MeasureKind.JENSEN_SHANNON,
        MeasureKind.AG_MEAN,
        MeasureKind.TRIANGULAR,
        MeasureKind.BHATTACHARYYA,
        MeasureKind.HELLINGER,
    }
)

_KERNELS = {
    MeasureKind.CHI_SQUARE: chi_square,
    MeasureKind.KL: kl,
    MeasureKind.REL_JS: rel_js,
    MeasureKind.REL_AG: rel_ag,
    MeasureKind.REL_J: rel_j,
    MeasureKind.SYM_CHI_SQUARE: sym_chi_square,
    MeasureKind.JEFFREYS: jeffreys,
    MeasureKind.JENSEN_SHANNON: jensen_shannon,
    MeasureKind.AG_MEAN: ag_mean,
    MeasureKind.TRIANGULAR: triangular,
    MeasureKind.BHATTACHARYYA: bhattacharyya,
    MeasureKind.HELLINGER: hellinger,
}


@dataclass(frozen=True)
class MeasureId:
    kind: MeasureKind
    orientation: Orientation = Orientation.PQ

    @classmethod
    def parse(cls, name: str) -> "MeasureId":
        """Parse a CLI-style name such as ``"kl"`` or ``"chi2:qp"``."""
        base, _, suffix = name.partition(":")
        try:
            kind = MeasureKind(base)
        except ValueError:
            raise KeyError(f"unknown measure {name!r}") from None
        orientation = Orientation(suffix) if suffix else Orientation.PQ
        return cls(kind, orientation)

    def __str__(self) -> str:
        if self.orientation is Orientation.PQ:
            return self.kind.value
        return f"{self.kind.value}:{self.orientation.value}"


def evaluate(mid: MeasureId, P: Distribution, Q: Distribution) -> float:
    """Value of the identified measure; QP orientation swaps the arguments."""
    require_same_length(P, Q)
    p, q = P.masses, Q.masses
    if mid.orientation is Orientation.QP:
        p, q = q, p
    return _KERNELS[mid.kind](p, q)


class _Values(dict):
    """Measure values of (P, Q) keyed by CLI name (``"kl"``, or ``"kl:qp"``
    with P and Q swapped), each computed on its first read; those of
    ``keys`` all at once, from one compensated sum over their stacked
    terms, which gives each value bit for bit (:func:`summed`)."""

    def __init__(self, P: np.ndarray, Q: np.ndarray, keys: tuple[str, ...] = ()):
        super().__init__()
        self.P, self.Q = P, Q
        if keys:
            parts = [self.terms(key) for key in keys]
            shapes = [(scale, t.shape[:-1], t.size // P.shape[-1]) for scale, t in parts]
            terms = np.concatenate([t.reshape(-1, P.shape[-1]) for _, t in parts])
            del parts  # only the stacked copy stays alive through the sum
            sums, at = comp_sum(terms), 0
            for key, (scale, shape, size) in zip(keys, shapes):
                self[key], at = scale * sums[at:at + size].reshape(shape), at + size

    def terms(self, key: str) -> tuple[float, np.ndarray]:
        """``(scale, terms)``: the entry ``key`` is ``scale * comp_sum(terms)``."""
        mid = MeasureId.parse(key)
        p, q = (self.Q, self.P) if mid.orientation is Orientation.QP else (self.P, self.Q)
        kernel = _KERNELS[mid.kind]
        return kernel.scale, kernel.terms(p, q)

    def __missing__(self, key: str):
        scale, terms = self.terms(key)
        value = self[key] = scale * comp_sum(terms)
        return value


# the decomposition identities (module docstring): name, lhs, rhs
_IDENTITIES = (
    ("j_from_kl", lambda v: v["j"], lambda v: v["kl"] + v["kl:qp"]),
    ("j_from_rel_j", lambda v: v["j"], lambda v: v["rjd"] + v["rjd:qp"]),
    ("j_from_js_ag", lambda v: v["j"], lambda v: 4.0 * (v["js"] + v["agt"])),
    ("rel_j_from_f_g", lambda v: v["rjd:qp"],
     lambda v: REL_J_FROM_F_G_CONSTANT * (v["rjs"] + v["rag"])),
    ("psi_from_chi2", lambda v: v["psi"], lambda v: v["chi2"] + v["chi2:qp"]),
    ("hellinger_forms", lambda v: v["hellinger"], lambda v: 1.0 - v["bhat"]),
)


def identity_residuals(P: Distribution, Q: Distribution) -> dict[str, float]:
    """Absolute residuals |lhs - rhs| of the decomposition identities.

    Keys:
      ``j_from_kl``        J vs K(P||Q) + K(Q||P)
      ``j_from_rel_j``     J vs D(P||Q) + D(Q||P)
      ``j_from_js_ag``     J vs 4[I + T]
      ``rel_j_from_f_g``   D(Q||P) vs 2[F(P||Q) + G(P||Q)]
      ``psi_from_chi2``    Psi vs chi2(P||Q) + chi2(Q||P)
      ``hellinger_forms``  h vs 1 - B
    """
    require_same_length(P, Q)
    v = _Values(P.masses, Q.masses)
    return {name: abs(lhs(v) - rhs(v)) for name, lhs, rhs in _IDENTITIES}
