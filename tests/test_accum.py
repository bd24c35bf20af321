import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from divbound._accum import comp_sum

U = 2.0**-53  # unit roundoff of binary64


def gamma(k):
    return Fraction(k) * Fraction(U) / (1 - Fraction(k) * Fraction(U))


def cancelling_sums(seed, count):
    """Sums of terms over twelve decades paired with nearly equal negatives.

    The perturbation of 1e-14 leaves condition numbers sum|t| / |sum t|
    around 1e15 (up to 1e17), where plain summation keeps no correct digit.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 200))
        x = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, n)
        x = np.concatenate([x, -x * (1.0 + rng.normal(size=n) * 1e-14)])
        yield rng.permutation(x)


class TestAccuracy:
    @pytest.mark.parametrize(
        "terms, expected",
        [
            ([1e16, 1.0, -1e16], 1.0),
            ([1.0, 1e100, 1.0, -1e100], 2.0),
            ([0.1] * 10, math.fsum([0.1] * 10)),
            ([1e-16, 1.0, 1e-16, -1.0], 2e-16),
        ],
    )
    def test_classic_cancellation(self, terms, expected):
        assert comp_sum(terms) == expected

    def test_matches_fsum_on_cancelling_sums(self):
        for x in cancelling_sums(seed=1, count=300):
            assert comp_sum(x) == math.fsum(x)

    def test_error_bound_on_cancelling_sums(self):
        # |result - S| <= eps |S| + gamma_{n-1}^2 sum|t|, checked in exact arithmetic
        for x in cancelling_sums(seed=2, count=100):
            exact = sum(map(Fraction, x))
            err = abs(Fraction(comp_sum(x)) - exact)
            g = gamma(len(x) - 1)
            assert err <= Fraction(U) * abs(exact) + g * g * sum(abs(Fraction(t)) for t in x)

    def test_error_bound_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(
            st.lists(
                st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
                min_size=1,
                max_size=64,
            )
        )
        def check(terms):
            exact = sum(map(Fraction, terms))
            err = abs(Fraction(comp_sum(terms)) - exact)
            g = gamma(len(terms) - 1)
            assert err <= Fraction(U) * abs(exact) + g * g * sum(abs(Fraction(t)) for t in terms)

        check()


class TestLayout:
    @pytest.mark.parametrize("n", [1, 3, 7, 13, 101])
    def test_bulk_rows_match_single_rows(self, n):
        rng = np.random.default_rng(n)
        M = rng.normal(size=(9, n)) * 10.0 ** rng.integers(-8, 9, (9, n))
        singles = np.array([comp_sum(row) for row in M])
        np.testing.assert_array_equal(comp_sum(M), singles)
        np.testing.assert_array_equal(comp_sum(M.T, axis=0), singles)
        np.testing.assert_array_equal(comp_sum(np.asfortranarray(M)), singles)
        wide = np.repeat(M, 2, axis=1)[:, ::2]  # non-contiguous view equal to M
        assert not wide.flags.c_contiguous
        np.testing.assert_array_equal(comp_sum(wide), singles)
        np.testing.assert_array_equal(comp_sum(M[::-1])[::-1], singles)

    def test_middle_axis_of_3d_input(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 11, 3))
        out = comp_sum(A, axis=1)
        assert out.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert out[i, j] == comp_sum(A[i, :, j])

    def test_single_term(self):
        assert comp_sum([0.1]) == 0.1
        assert isinstance(comp_sum([0.1]), float)
        np.testing.assert_array_equal(comp_sum([[0.1], [-3.0]]), [0.1, -3.0])

    def test_empty_sum_is_zero(self):
        assert comp_sum([]) == 0.0
        np.testing.assert_array_equal(comp_sum(np.zeros((3, 0))), np.zeros(3))

    def test_input_not_modified(self):
        x = np.array([1e16, 1.0, -1e16])
        comp_sum(x)
        np.testing.assert_array_equal(x, [1e16, 1.0, -1e16])


class TestNonFinite:
    def test_infinite_terms_give_the_ieee_sum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no inf - inf warning from the compensation
            assert comp_sum([1.0, np.inf, 2.0]) == np.inf
            assert comp_sum([-np.inf, 1.0, 1e300]) == -np.inf
            assert math.isnan(comp_sum([np.inf, -np.inf, 1.0]))

    def test_finite_rows_unaffected_by_an_infinite_row(self):
        M = np.array([[1e16, 1.0, -1e16], [1.0, np.inf, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = comp_sum(M)
        np.testing.assert_array_equal(out, [1.0, np.inf])

    def test_overflowing_partial_sum(self):
        with np.errstate(over="ignore"):
            assert comp_sum([1e308, 1e308, 1.0]) == np.inf
            assert comp_sum([-1e308, -1e308]) == -np.inf
