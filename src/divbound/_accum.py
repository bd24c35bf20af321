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

The other axes are taken a few thousand columns at a time, and each level
writes its steps into the rows the tree no longer reads and one buffer, not
into fresh temporaries.  Rows never mix, so the terms of many kernels
(:func:`summed`) can be stacked into one call, as the harness does per block.
"""

from __future__ import annotations

from functools import wraps
from math import prod

import numpy as np


def summed(scale: float = 1.0):
    """Decorator: the kernel ``scale * comp_sum(terms(..., p, q))`` of a
    function of the terms whose last two arguments are the masses, passed as
    float arrays.  The kernel keeps ``terms`` and ``scale``: one
    :func:`comp_sum` over the stacked terms of several kernels gives each
    kernel's value bit for bit."""
    def kernel_of(terms):
        @wraps(terms)
        def kernel(*args, **kwargs):
            *rest, p, q = args
            return scale * comp_sum(terms(*rest, np.asarray(p, float), np.asarray(q, float),
                                          **kwargs))

        kernel.terms, kernel.scale = terms, scale
        return kernel

    return kernel_of


#: columns per pass: a pass's copy and its tree stay small and in cache
_CHUNK = 2048


def comp_sum(terms, axis: int = -1):
    """Sum ``terms`` along ``axis`` with a cascaded TwoSum reduction.

    Every row is reduced by the same tree, elementwise over the other axes,
    so a row of a bulk array sums bit-for-bit like the same values passed
    alone.  When the compensated result is not finite (a term or a partial
    sum overflowed, where TwoSum would turn ``inf`` into ``inf - inf``), the
    plain IEEE sum of the same tree is returned instead.  Returns a float
    for 1-D input, an ndarray otherwise.
    """
    # reduction axis first, in a private C-ordered copy of at most _CHUNK
    # columns at a time: each level below is then one contiguous elementwise
    # step.  The transpose is built by hand because np.moveaxis costs a few
    # µs, a large share of a call on the short rows of the verification
    # harness, and so would the column loop on a call that needs no second pass.
    x = np.asarray(terms, dtype=np.float64)
    order = list(range(x.ndim))
    order.insert(0, order.pop(axis))
    x = x.transpose(order)
    columns = prod(x.shape[1:])
    if columns <= _CHUNK:
        out = _tree(x.copy())
        return float(out) if out.ndim == 0 else out
    flat, out = x.reshape(x.shape[0], columns), np.empty(columns)
    for c in range(0, columns, _CHUNK):
        out[c:c + _CHUNK] = _tree(flat[:, c:c + _CHUNK].copy())
    return out.reshape(x.shape[1:])


def _tree(s: np.ndarray) -> np.ndarray:
    """The sum of :func:`comp_sum` over the first axis of ``s``, a private
    array the levels overwrite."""
    if s.shape[0] == 0:
        s = np.zeros((1,) + s.shape[1:])
    e = np.zeros_like(s)
    m = s.shape[0]
    t = np.empty((m // 2,) + s.shape[1:])  # each level's sums, in its first rows
    with np.errstate(invalid="ignore"):
        while m > 1:
            h = (m + 1) // 2  # an odd middle element waits for the next level
            a, b, ea, z, tk = s[: m - h], s[h:m], e[: m - h], e[h:m], t[: m - h]
            ea += z
            # the rows of b and z are read by no later level: they take the
            # steps of a + b == t + err (TwoSum), err = (a - (t - z)) + (b - z)
            np.add(a, b, out=tk)
            np.subtract(tk, a, out=z)
            b -= z
            np.subtract(tk, z, out=z)
            np.subtract(a, z, out=z)
            z += b
            ea += z
            a[...] = tk
            m = h
        out = s[0] + e[0]
        return np.where(np.isfinite(out), out, s[0])
