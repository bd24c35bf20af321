"""Points on the open probability simplex and likelihood-ratio intervals.

A :class:`Distribution` is a finite discrete probability vector with strictly
positive masses summing to one.  Zero masses are rejected rather than
smoothed: every divergence in this package (or one of its derivatives) is
singular at mass ratio 0 or infinity, and a silently smoothed input would
corrupt any bound certificate computed from it.  Inputs are never
renormalized behind the caller's back; renormalization is an explicit,
opt-in step.

Distribution files hold either a JSON array of numbers or CSV with one number
per line; :func:`parse_masses` states exactly what is accepted.

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DivboundError,
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
    n: int, count: int, seed: int, concentration: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` pairs as two (count, n) matrices.

    Row ``i`` is drawn from its own stream keyed by ``(seed, i)``, so the
    matrix content does not depend on how the work is chunked.
    """
    if n < 2:
        raise TooShort(f"need n >= 2, got {n}")
    _check_concentration(concentration)
    P = np.empty((count, n))
    Q = np.empty((count, n))
    alpha = np.full(n, concentration)
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        P[i] = _draw(rng, alpha, EPS_MASS, MAX_REJECTIONS)
        Q[i] = _draw(rng, alpha, EPS_MASS, MAX_REJECTIONS)
    return P, Q


_JSON = "not a JSON array of numbers"
_CSV = "not CSV with one number per line"
#: whitespace that numpy's text parser skips and that str.splitlines does
#: not split at
_INLINE_SPACE = (" ", "\t")


def _unmatched_data_raises() -> bool:
    """Whether ``np.fromstring`` raises ValueError on unmatched data.

    Older numpy releases only emit a DeprecationWarning there, which Python
    hides by default, and return the values read before the unmatched data.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.fromstring("1,x", sep=",")
        except ValueError:
            return True
    return False


_UNMATCHED_RAISES = _unmatched_data_raises()


def _numbers(text: str, sep: str) -> np.ndarray | None:
    # numpy's C parser converts each token as float() does, bit for bit;
    # None means unmatched data.  Where numpy only warns about it, the
    # warning is made an error for the call, so a file is never cut short
    # (warnings filters are process-wide, so on such numpy concurrent loads
    # from several threads are not safe).
    # Callers strip the text first: numpy reads whitespace alone as [-1.0],
    # and an empty string as []
    try:
        if _UNMATCHED_RAISES:
            return np.fromstring(text, sep=sep)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.fromstring(text, sep=sep)
    except (ValueError, DeprecationWarning):
        return None


def _first_bad(items, sep: str, blank_ok: bool) -> str:
    """Where the first item that is not exactly one number is, as text."""
    for i, item in enumerate(items, 1):
        token = item.strip()
        if not token and blank_ok:
            continue
        values = _numbers(token, sep)
        if values is None or values.size != 1:
            shown = token if len(token) <= 40 else token[:37] + "..."
            return f": {'line' if blank_ok else 'item'} {i} is {shown!r}"
    return ""


def parse_masses(text: str) -> np.ndarray:
    """Parse a JSON array of numbers, or CSV with one number per line.

    Text whose first non-blank character is ``[`` or ``{`` is JSON: a
    single array of numbers, compact or pretty-printed, without a trailing
    comma.  Anything else is CSV: one number on each line, with ``\\n`` or
    ``\\r\\n`` line ends, surrounding spaces allowed and blank lines
    skipped.  A number is a decimal such as ``0.25``, ``-1e-3`` or ``.5``;
    ``inf`` and ``nan`` parse here and fail validation later.  Nested
    arrays, ``null``, ``true``, quoted strings, objects, empty items and
    two numbers on one line raise :class:`ValueError` naming the format
    and the first offending item or line.  Each mass is the double that
    ``float()`` gives for its text.
    """
    stripped = text.strip()
    if stripped[:1] in ("[", "{"):
        if not (stripped[0] == "[" and stripped[-1] == "]"):
            what = "a JSON object" if stripped[0] == "{" else "an unterminated array"
            raise ValueError(f"{_JSON}: the file holds {what}")
        body = stripped[1:-1].strip()
        values = _numbers(body, ",")
        # numpy skips a trailing comma and reads a blank item as -1.0
        if values is None or body.endswith(",") or (
            (values == -1.0).any() and not all(item.strip() for item in body.split(","))
        ):
            raise ValueError(_JSON + _first_bad(body.split(","), ",", blank_ok=False))
        return values
    values = _numbers(stripped, "\n")
    # numpy splits at any whitespace: where a line can hold inline
    # whitespace, one number per non-blank line rules out two on one line
    if values is None or (
        any(c in stripped for c in _INLINE_SPACE)
        and values.size != sum(1 for line in stripped.splitlines() if line.strip())
    ):
        raise ValueError(_CSV + _first_bad(text.splitlines(), "\n", blank_ok=True))
    return values


def load_distribution(path, *, renormalize: bool = False) -> Distribution:
    """Read a distribution from a JSON-array or one-number-per-line CSV file.

    A file that cannot be decoded or parsed raises :class:`ValueError`, and
    one whose masses fail validation raises the :func:`validate` error; the
    message starts with ``path`` either way.
    """
    try:
        raw = parse_masses(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    try:
        return normalize(raw) if renormalize else validate(raw)
    except DivboundError as exc:
        # same error, class and fields kept; only the message gains the path
        exc.args = (f"{path}: {exc}",)
        raise
