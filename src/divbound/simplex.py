"""Points on the open probability simplex and likelihood-ratio intervals.

A :class:`Distribution` is a finite discrete probability vector with strictly
positive masses summing to one.  Zero masses are rejected rather than
smoothed: every divergence in this package (or one of its derivatives) is
singular at mass ratio 0 or infinity, and a silently smoothed input would
corrupt any bound certificate computed from it.  Inputs are never
renormalized behind the caller's back; renormalization is an explicit,
opt-in step.

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    LengthMismatch,
    NonPositiveMass,
    NotNormalized,
    SamplingExhausted,
    TooShort,
)

EPS_MASS = 1e-12
EPS_SUM = 1e-9
MAX_REJECTIONS = 10_000


@dataclass(frozen=True, eq=False)
class Distribution:
    """A validated point on the open probability simplex.

    Invariants: every mass exceeds ``eps_mass``, the total deviates from 1
    by at most ``eps_sum``, and there are at least two masses.  The
    tolerances the instance was validated at travel with it.
    """

    masses: np.ndarray
    eps_sum: float = EPS_SUM
    eps_mass: float = EPS_MASS

    def __post_init__(self):
        a = np.asarray(self.masses, dtype=np.float64)
        if a.ndim != 1:
            raise TooShort(f"expected a 1-D sequence of masses, got shape {a.shape}")
        _check_masses(a, self.eps_sum, self.eps_mass)
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "masses", a)

    @property
    def n(self) -> int:
        return self.masses.shape[0]

    def __len__(self) -> int:
        return self.n


def _check_masses(a: np.ndarray, eps_sum: float, eps_mass: float) -> None:
    if a.shape[0] < 2:
        raise TooShort(f"need at least 2 masses, got {a.shape[0]}")
    bad = np.nonzero(~(a > eps_mass))[0]
    if bad.size:
        i = int(bad[0])
        raise NonPositiveMass(i, float(a[i]), eps_mass)
    total = float(np.sum(a))
    if abs(total - 1.0) > eps_sum:
        raise NotNormalized(total, eps_sum)


def _as_masses(raw) -> np.ndarray:
    # lists, tuples and arrays go to numpy directly; any other iterable
    # (a generator, a range, ...) is materialised first, and a scalar or a
    # 0-d array is rejected by list() with TypeError
    if not (isinstance(raw, (list, tuple)) or (isinstance(raw, np.ndarray) and raw.ndim)):
        raw = list(raw)
    return np.asarray(raw, dtype=np.float64)


def validate(raw, eps_sum: float = EPS_SUM, eps_mass: float = EPS_MASS) -> Distribution:
    """Check ``raw`` against the simplex invariants and wrap it.

    ``raw`` may be any iterable of numbers.  The input is used as given; it
    is not rescaled.  Raises :class:`TooShort`, :class:`NonPositiveMass` or
    :class:`NotNormalized`.
    """
    return Distribution(_as_masses(raw), eps_sum, eps_mass)


def normalize(raw) -> Distribution:
    """Explicitly rescale ``raw`` to unit sum, then validate."""
    a = _as_masses(raw)
    total = float(np.sum(a))
    if total <= 0.0:
        raise NotNormalized(total, EPS_SUM)
    return validate(a / total)


@dataclass(frozen=True)
class RatioBounds:
    """The range [r, R] of the per-coordinate mass ratios p_i/q_i.

    For a pair of actual distributions r <= 1 <= R always holds: if every
    ratio exceeded 1 the first vector would sum past 1.
    """

    r: float
    R: float

    def __post_init__(self):
        if not (0.0 < self.r <= self.R):
            raise ValueError(f"need 0 < r <= R, got r={self.r}, R={self.R}")


def require_same_length(P: Distribution, Q: Distribution) -> None:
    if P.n != Q.n:
        raise LengthMismatch(f"distributions have sizes {P.n} and {Q.n}")


def ratio_bounds(P: Distribution, Q: Distribution) -> RatioBounds:
    """Exact min and max of p_i/q_i over the common support."""
    require_same_length(P, Q)
    ratios = P.masses / Q.masses
    return RatioBounds(float(ratios.min()), float(ratios.max()))


def _check_concentration(concentration: float) -> None:
    # a non-finite concentration makes numpy's Dirichlet draws NaN, which the
    # rejection loop would only report as exhausted
    if not (concentration > 0.0 and np.isfinite(concentration)):
        raise ValueError(f"concentration must be positive and finite, got {concentration}")


def _draw_rows(rng, alpha, count, eps_mass, max_rejections):
    """``count`` symmetric-Dirichlet rows from one batched draw.

    The rows with a mass at or below ``eps_mass`` are redrawn together, in
    row order, from the same stream.  When a row is still rejected after
    ``max_rejections`` rounds of draws (for one row: that many consecutive
    draws), :class:`SamplingExhausted` is raised.
    """
    x = rng.dirichlet(alpha, size=count)
    bad = np.flatnonzero(~(x.min(axis=1) > eps_mass))
    rejections = 0
    while bad.size:
        rejections += 1
        if rejections >= max_rejections:
            raise SamplingExhausted(
                f"{rejections} consecutive draws had a mass below {eps_mass}"
            )
        x[bad] = rng.dirichlet(alpha, size=bad.size)
        bad = bad[~(x[bad].min(axis=1) > eps_mass)]
    return x


def _draw(rng, alpha, eps_mass, max_rejections):
    # a batch of one row draws the same stream as rng.dirichlet(alpha)
    return _draw_rows(rng, alpha, 1, eps_mass, max_rejections)[0]


def sample_pair(
    n: int,
    seed: int,
    concentration: float = 1.0,
    *,
    eps_mass: float = EPS_MASS,
    max_rejections: int = MAX_REJECTIONS,
) -> tuple[Distribution, Distribution]:
    """Two independent symmetric-Dirichlet draws, reproducible from ``seed``.

    Draws with any mass at or below ``eps_mass`` are rejected and redrawn;
    after ``max_rejections`` consecutive rejections :class:`SamplingExhausted`
    is raised.
    """
    if n < 2:
        raise TooShort(f"need n >= 2, got {n}")
    _check_concentration(concentration)
    rng = np.random.default_rng(seed)
    alpha = np.full(n, concentration)
    p = _draw(rng, alpha, eps_mass, max_rejections)
    q = _draw(rng, alpha, eps_mass, max_rejections)
    return Distribution(p), Distribution(q)


def sample_pair_matrix(
    n: int,
    count: int,
    seed: int,
    concentration: float = 1.0,
    *,
    eps_mass: float = EPS_MASS,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` pairs as two (count, n) matrices.

    Row ``i`` is drawn from its own stream keyed by ``(seed, i)``, so the
    matrix content does not depend on how the work is chunked.
    """
    _check_concentration(concentration)
    P = np.empty((count, n))
    Q = np.empty((count, n))
    alpha = np.full(n, concentration)
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        P[i] = _draw(rng, alpha, eps_mass, MAX_REJECTIONS)
        Q[i] = _draw(rng, alpha, eps_mass, MAX_REJECTIONS)
    return P, Q


def parse_masses(text: str) -> list[float]:
    """Parse a JSON array of numbers, or CSV with one value per line."""
    stripped = text.strip()
    if stripped.startswith("["):
        data = json.loads(stripped)
        if not isinstance(data, list):
            raise ValueError("JSON distribution file must contain an array")
        return [float(v) for v in data]
    values = []
    for line in stripped.splitlines():
        line = line.strip()
        if line:
            values.append(float(line))
    return values


def load_distribution(path, *, renormalize: bool = False) -> Distribution:
    """Read a distribution from a JSON-array or one-value-per-line CSV file."""
    text = Path(path).read_text(encoding="utf-8")
    raw = parse_masses(text)
    return normalize(raw) if renormalize else validate(raw)
