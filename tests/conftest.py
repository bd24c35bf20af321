import numpy as np
import pytest

from divbound.simplex import sample_pair_matrix, validate

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
