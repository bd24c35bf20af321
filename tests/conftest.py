import numpy as np
import pytest

from divbound.bounds import InequalityFamily, family_generators, region_grid
from divbound.simplex import sample_pair_matrix, validate
from divbound.verify import brute_force_mM

SIZES = (2, 3, 5, 10)


def scaled_ok(a, b, tol):
    """|a - b| <= tol * max(1, |a|, |b|), elementwise.

    The same scaling the sandwich slack uses: relative for large values,
    absolute below 1.  A purely relative comparison is unattainable for
    near-identical pairs, where both sides cancel to the rounding floor.
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    return bool(
        np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
    )


# signed offsets 1e-15 ... 1e-3 from a parameter value under test
S_OFFSETS = tuple(sign * 10.0**-k for k in range(15, 2, -1) for sign in (1.0, -1.0))


def continuity_violations(f, s0, offsets=S_OFFSETS, C=10.0):
    """Offsets d with |f(s0+d) - f(s0)| > C |d| max(1, |f(s0)|) + 1e-14.

    ``f`` maps the parameter s to a value or an array.  The bound is a
    Lipschitz bound in s, scaled as in :func:`scaled_ok`, plus a rounding
    floor; a form that breaks down next to s0 fails it by orders of
    magnitude at the small offsets.
    """
    f0 = np.asarray(f(s0), float)
    scale = np.maximum(1.0, np.abs(f0))
    return [
        d for d in offsets
        if not np.all(np.abs(np.asarray(f(s0 + d), float) - f0) <= C * abs(d) * scale + 1e-14)
    ]


def log_curvature(spec, x):
    """(sign, ln|f''|) of a generator on an array of x > 0, transcribed from
    the closed forms with u = (x+1)/2 and v = u/x; reads no ``divbound``
    curvature code, so it can judge the log-domain bound engine."""
    s, name = spec.s, spec.gen.name
    lx = np.log(x)
    lu = np.log1p(x) - np.log(2.0)
    lv = lu - lx
    ln4 = np.log(4.0)
    if name == "PHI":
        return np.ones_like(x), (s - 2.0) * lx
    if name == "PSI":
        return np.ones_like(x), (s - 2.0) * lv - 3.0 * lx - ln4
    if name == "UPSILON":
        return np.ones_like(x), (s - 2.0) * lu - ln4
    lin = s * x + (4.0 - s) if name == "XI" else (4.0 - s) * x + s
    with np.errstate(divide="ignore"):
        llin = np.log(np.abs(lin))
    if name == "XI":
        return np.sign(lin), (s - 3.0) * lu + llin - ln4
    return np.sign(lin), (s - 3.0) * lv + llin - ln4 - 4.0 * lx


def dense_log_ratio(num, den, r, R, points=200_001):
    """(sign, ln|g|) of g = f1''/f2'' on a log-spaced grid over [r, R] that
    includes both ends, formed in the log domain so that curvatures beyond
    the double range do not overflow or underflow on the way."""
    x = np.exp(np.linspace(np.log(r), np.log(R), points))
    x[0], x[-1] = r, R
    sd, ld = log_curvature(den, x)
    assert np.all(sd > 0.0)
    sn, ln = log_curvature(num, x)
    return sn, ln - ld


def dense_log_extrema(num, den, r, R, points=200_001):
    """(min g, max g) over the grid of :func:`dense_log_ratio`."""
    sign, lg = dense_log_ratio(num, den, r, R, points)
    with np.errstate(over="ignore", under="ignore"):
        g = sign * np.exp(lg)
    return float(g.min()), float(g.max())


def mp_curvature_ratio(num, den, x):
    """g(x) = f1''(x) / f2''(x) at 50 digits, transcribed from the f'' closed
    forms with u = (x+1)/2 and v = (x+1)/(2x); reads no ``divbound``
    curvature code.  Needs ``mpmath``: guard callers with ``importorskip``."""
    import mpmath

    def d2(spec):
        s, y = mpmath.mpf(spec.s), mpmath.mpf(x)
        u, v = (y + 1) / 2, (y + 1) / (2 * y)
        return {
            "PHI": lambda: y ** (s - 2),
            "PSI": lambda: v ** (s - 2) / (4 * y ** 3),
            "UPSILON": lambda: u ** (s - 2) / 4,
            "XI": lambda: u ** (s - 3) * (s * y + 4 - s) / 4,
            "VARSIGMA": lambda: v ** (s - 3) * ((4 - s) * y + s) / (4 * y ** 4),
        }[spec.gen.name]()

    with mpmath.workdps(50):
        return d2(num) / d2(den)


def mass_lists(st):
    """Hypothesis strategy for two mass lists of one length 2..8, each mass in
    [0.01, 1], to be normalized (``st`` is ``hypothesis.strategies``)."""
    return st.integers(2, 8).flatmap(
        lambda n: st.tuples(*[st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)] * 2)
    )


@pytest.fixture
def fixed_pair():
    """The worked example pair used throughout: P = (1/2, 1/2), Q = (1/4, 3/4)."""
    return validate([0.5, 0.5]), validate([0.25, 0.75])


@pytest.fixture(scope="session")
def pair_matrices():
    """Moderate random-pair batches per simplex size, for unit-level sweeps."""
    return {n: sample_pair_matrix(n, 300, seed=9100 + n) for n in SIZES}


@pytest.fixture(scope="session")
def battery_oracle():
    """``brute_force_mM(num, den, r, R, 100_000)``, computed once per request
    and session.  A miss fills its interval for every region-grid corner at
    once, so the oracle builds each interval's grid once.  Criterion 4 fills
    the table inside its own timed window; the enclosure test of the same
    battery reads it, and computes what is missing when it runs without
    criterion 4."""
    table = {}
    corners = [family_generators(f, s, t) for f in InequalityFamily for s, t in region_grid(f)]

    def oracle(num, den, r, R):
        key = (num, den, r, R)
        if key not in table:
            for a, b in dict.fromkeys([(num, den), *corners]):
                table[a, b, r, R] = brute_force_mM(a, b, r, R, 100_000)
        return table[key]

    return oracle
