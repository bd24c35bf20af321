"""Compensated summation.

All divergence sums go through :func:`comp_sum` so that results are
reproducible regardless of how callers batch their inputs (a row of a bulk
matrix sums exactly like the same values passed one pair at a time), and so
that near-cancelling sums keep full double precision.

The sum is a cascade of error-free transformations in the manner of the
Sum2 algorithm of Ogita, Rump & Oishi ("Accurate sum and dot product",
SIAM J. Sci. Comput. 26, 2005), laid out as a fixed binary tree so that
each level is one vectorised numpy step: Knuth's TwoSum splits every
pairwise sum into its rounded value and its exact rounding error, and the
errors are added up along the same tree and folded in at the end.  For
``n`` terms ``t`` with exact sum ``S`` the result satisfies

    |result - S| <= eps*|S| + gamma_{n-1}^2 * sum|t|,
    gamma_k = k*eps / (1 - k*eps),  eps = 2**-53,

as for Sum2: as accurate as if the terms were summed in twice the working
precision and then rounded.  (In a tree of depth ``d = ceil(log2 n)`` each
rounding error meets at most ``2d - 2`` roundings on its way to the result,
so the second term is in fact below about ``2 d^2 eps^2 sum|t|``.)
"""

from __future__ import annotations

import numpy as np


def comp_sum(terms, axis: int = -1):
    """Sum ``terms`` along ``axis`` with a cascaded TwoSum reduction.

    Every row is reduced by the same tree, elementwise over the other axes,
    so a row of a bulk array sums bit-for-bit like the same values passed
    alone.  When the compensated result is not finite (a term or a partial
    sum overflowed, where TwoSum would turn ``inf`` into ``inf - inf``), the
    plain IEEE sum of the same tree is returned instead.  Returns a float
    for 1-D input, an ndarray otherwise.
    """
    # reduction axis first, in a private C-ordered copy: each level below is
    # then one contiguous elementwise step over shape (pairs, rows...).  The
    # transpose is built by hand because np.moveaxis costs a few µs, a large
    # share of a call on the short rows of the verification harness.
    x = np.asarray(terms, dtype=np.float64)
    order = list(range(x.ndim))
    order.insert(0, order.pop(axis))
    s = x.transpose(order).copy()
    if s.shape[0] == 0:
        s = np.zeros((1,) + s.shape[1:])
    e = np.zeros_like(s)
    m = s.shape[0]
    with np.errstate(invalid="ignore"):
        while m > 1:
            h = (m + 1) // 2  # an odd middle element waits for the next level
            a, b = s[: m - h], s[h:m]
            t = a + b
            z = t - a
            err = (a - (t - z)) + (b - z)  # TwoSum: a + b == t + err exactly
            e[: m - h] += e[h:m]
            e[: m - h] += err
            s[: m - h] = t
            m = h
        out = s[0] + e[0]
        out = np.where(np.isfinite(out), out, s[0])
    return float(out) if out.ndim == 0 else out
