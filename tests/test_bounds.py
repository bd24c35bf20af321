import hashlib
import json
import math
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_log_extrema, dense_log_ratio, mp_curvature_ratio

from divbound.bounds import (
    CROSS_CHECK_TOL,
    CertificateSource,
    InequalityFamily,
    PARAM_GRID,
    active_branch,
    closed_form_mM,
    corollary_table,
    family_generators,
    g_ratio,
    in_region,
    numeric_mM,
    printed_mM,
    region_grid,
    sandwich_check,
)
from divbound import bounds, generators, verify
from divbound.errors import (
    DegenerateDenominator,
    DivboundError,
    InvalidArgument,
    NonFiniteValue,
    NonPositiveArgument,
    RegionViolation,
)
from divbound.families import Family
from divbound.generators import D2_FORMS, Gen, GeneratorSpec
from divbound.measures import (
    chi_square,
    hellinger,
    kl,
    rel_ag,
    rel_j,
    rel_js,
    triangular,
)
from divbound.simplex import ratio_bounds, sample_pair, validate

F = InequalityFamily
PSI2 = GeneratorSpec(Gen.PSI, 2.0)
PHI2 = GeneratorSpec(Gen.PHI, 2.0)


class TestGRatio:
    def test_psi_over_phi_at_one(self):
        assert g_ratio(PSI2, PHI2, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_psi_over_phi_at_two(self):
        assert g_ratio(PSI2, PHI2, 2.0) == pytest.approx(1.0 / 32.0, rel=1e-14)

    def test_xi_over_phi_at_one(self):
        for s in (0.0, 1.0, 2.5, 4.0):
            for t in (-1.0, 0.0, 3.0):
                assert g_ratio(
                    GeneratorSpec(Gen.XI, s), GeneratorSpec(Gen.PHI, t), 1.0
                ) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_non_positive_x(self):
        with pytest.raises(NonPositiveArgument):
            g_ratio(PSI2, PHI2, 0.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan, np.array([1.0, math.inf])])
    def test_rejects_non_finite_x(self, x):
        # PHI(2)'' = 1 everywhere: a non-finite x is the fault, not the
        # denominator, and numpy is never asked for log(inf)
        with pytest.raises(ValueError, match="needs finite x"):
            g_ratio(PSI2, PHI2, x)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            g_ratio(PHI2, GeneratorSpec(Gen.XI, 5.0), 0.1)

    def test_underflowing_denominator_is_not_degenerate(self):
        # PHI(-300)'' = x^-302 > 0 underflows to 0 at x = 1e3, not its log
        # record: the ratio to PHI(2)'' = 1 is 1e906 and overflows, and the
        # ratio PHI(-290)''/PHI(-300)'' = x^10 is a double
        tiny = GeneratorSpec(Gen.PHI, -300.0)
        with pytest.raises(NonFiniteValue, match="overflows double precision"):
            g_ratio(PHI2, tiny, 1e3)
        with pytest.raises(NonFiniteValue, match="overflows double precision"):
            g_ratio(PHI2, tiny, np.array([1.0, 1e3]))
        g = g_ratio(GeneratorSpec(Gen.PHI, -290.0), tiny, np.array([1.0, 1e3]))
        assert g[0] == 1.0 and g[1] == pytest.approx(1e30, rel=1e-13)

    def test_non_positive_denominator_stays_degenerate(self):
        # XI(-300)'' = u^-303 (304 - 300 x) / 4 is negative above x = 304/300
        # and rounds to -0.0 at x = 1e3: the log record's sign, not the zero,
        # decides
        xi = GeneratorSpec(Gen.XI, -300.0)
        with pytest.raises(DegenerateDenominator):
            g_ratio(PHI2, xi, 1e3)
        with pytest.raises(DegenerateDenominator):
            g_ratio(PHI2, xi, np.array([1.0, 1e3, 1e300]))
        with pytest.raises(DegenerateDenominator):
            g_ratio(PHI2, GeneratorSpec(Gen.XI, 5.0), np.array([0.1, 1.0]))

    def test_nan_denominator_is_degenerate(self, monkeypatch):
        log_d2 = bounds.log_d2
        monkeypatch.setattr(bounds, "log_d2", lambda spec: (
            log_d2(spec)._replace(c=math.nan) if spec.gen is Gen.PHI else log_d2(spec)))
        with pytest.raises(DegenerateDenominator):
            g_ratio(PSI2, PHI2, 2.0)
        with pytest.raises(DegenerateDenominator):
            g_ratio(PSI2, PHI2, np.array([0.5, 2.0]))

    @pytest.mark.parametrize("family,s,t,x", [
        # s x + 4 - s cancels in the linear form of XI(4)''
        (F.III, 4.0, 2.0, 1e-6),
        (F.VI, 4.0, 21.18687715434057, 9.520077620487599e-12),
        # PHI(-27.25)'' is subnormal
        (F.II, -10.536926652699783, -27.251272143864334, 84181679095.49355),
        # PSI(-30.27)'' is normal, but its power v^(t-2) is subnormal
        (F.V, -23.330462373535497, -30.274354533005152, 5.2338882602128696e-11),
    ])
    def test_matches_50_digits_where_the_linear_forms_lose(self, family, s, t, x):
        pytest.importorskip("mpmath")
        num, den = family_generators(family, s, t)
        g = mp_curvature_ratio(num, den, x)
        assert abs(g_ratio(num, den, x) - g) <= 1e-13 * abs(g)

    def test_matches_50_digits_past_the_curvature_range(self):
        pytest.importorskip("mpmath")
        num, den = GeneratorSpec(Gen.PHI, -290.0), GeneratorSpec(Gen.PHI, -300.0)
        g = mp_curvature_ratio(num, den, 1e3)
        assert abs(g_ratio(num, den, 1e3) - g) <= 1e-13 * abs(g)

    def test_array_is_the_scalar_elementwise(self):
        xs = np.array([1e-3, 0.5, 1.0, 2.0, 1e3])
        gs = g_ratio(PSI2, GeneratorSpec(Gen.XI, 2.5), xs)
        assert gs.shape == xs.shape
        assert gs.tolist() == [g_ratio(PSI2, GeneratorSpec(Gen.XI, 2.5), float(x)) for x in xs]
        assert type(g_ratio(PSI2, PHI2, 2.0)) is float


class TestNumericMM:
    def test_degenerate_interval(self):
        # the value at the point, 1/32, padded outward by its rounding allowance
        m, M = numeric_mM(PSI2, PHI2, 2.0, 2.0)
        assert m <= 1.0 / 32.0 <= M
        assert M - m <= 1e-13 / 32.0

    def test_monotone_ratio_hits_endpoints(self):
        # ratio is 1/(4x^3), decreasing: extrema exactly at the endpoints
        m, M = numeric_mM(PSI2, PHI2, 2.0 / 3.0, 2.0)
        assert m == pytest.approx(1.0 / 32.0, rel=1e-12)
        assert M == pytest.approx(27.0 / 32.0, rel=1e-12)

    def test_unit_point(self):
        m, M = numeric_mM(GeneratorSpec(Gen.XI, 1.0), GeneratorSpec(Gen.PHI, 1.0), 1.0, 1.0)
        assert m <= 1.0 <= M
        assert M - m <= 1e-13

    @pytest.mark.parametrize("np_type", [np.float16, np.float32, np.float64, np.int64])
    def test_numpy_scalar_parameter_keeps_double_precision(self, np_type):
        # PSI(3)''/PHI(2)'' = v/(4 x^3) falls from 1/4 at x = 1: an s carried
        # through in single precision would give M = 0.24999999904767284 < sup g
        specs = GeneratorSpec(Gen.PSI, np_type(3)), GeneratorSpec(Gen.PHI, 2.0)
        m, M = numeric_mM(*specs, 1.0, 4.0)
        assert (m, M) == numeric_mM(GeneratorSpec(Gen.PSI, 3.0), PHI2, 1.0, 4.0)
        assert M == 0.25000000000000233 and M >= 0.25

    def test_interior_extremum_found(self):
        # I at (s=0, t=0): ratio x/(x+1)^2 peaks at x = 1 with value 1/4
        num, den = family_generators(F.I, 0.0, 0.0)
        m, M = numeric_mM(num, den, 0.5, 2.0)
        assert M == pytest.approx(0.25, rel=1e-10)
        assert m == pytest.approx(2.0 / 9.0, rel=1e-10)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            numeric_mM(PHI2, GeneratorSpec(Gen.XI, 5.0), 0.1, 10.0)

    def test_nan_denominator_is_degenerate(self, monkeypatch):
        log_d2 = bounds.log_d2

        def nan_phi(spec):
            rec = log_d2(spec)
            return rec._replace(c=math.nan) if spec.gen is Gen.PHI else rec

        monkeypatch.setattr(bounds, "log_d2", nan_phi)
        for r, R in ((2.0, 2.0), (0.5, 2.0)):
            with pytest.raises(DegenerateDenominator):
                numeric_mM(PSI2, PHI2, r, R)

    def test_overflow_is_non_finite(self):
        # (x+1)/(2x) ** (t-2) overflows math.exp at t = -2000
        num, den = family_generators(F.V, 0.0, -2000.0)
        with pytest.raises(NonFiniteValue):
            numeric_mM(num, den, 1e200, 1e200)

    def test_infinite_extremum_is_non_finite(self):
        # f'' of PSI at s = 400 overflows to inf on the grid near x = 1e-6
        num, den = family_generators(F.I, 400.0, 0.0)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
            numeric_mM(num, den, 1e-6, 1.0)

    @pytest.mark.parametrize("s", [1e308, -1e308])
    def test_overflowing_allowance_is_non_finite(self, s):
        # ln|g| is finite at |s| = 1e308, but its rounding allowance overflows
        # to inf, and exp(inf) is inf without an OverflowError
        with pytest.raises(NonFiniteValue, match=r"\+- inf"):
            closed_form_mM(F.I, s, 2.0, 0.5, 2.0)
        with pytest.raises(NonFiniteValue, match=r"\+- inf"):
            numeric_mM(*family_generators(F.I, s, 2.0), 0.5, 2.0)

    def test_numpy_and_int_arguments_match_floats(self):
        # the filter and its exact fallback see the same doubles either way
        num, den = family_generators(F.I, 0.0, 0.0)
        expected = numeric_mM(num, den, 0.5, 2.0)
        assert numeric_mM(num, den, np.float64(0.5), 2) == expected
        num, den = GeneratorSpec(Gen.PSI, np.float64(0.0)), GeneratorSpec(Gen.PHI, 0)
        assert numeric_mM(num, den, np.float64(0.5), np.float64(2.0)) == expected

    def test_rejects_bad_interval(self):
        with pytest.raises(NonPositiveArgument):
            numeric_mM(PSI2, PHI2, 0.0, 1.0)
        with pytest.raises(ValueError):
            numeric_mM(PSI2, PHI2, 2.0, 1.0)

    @pytest.mark.parametrize("r,R", [(0.5, math.inf), (math.nan, 2.0), (0.5, math.nan),
                                     (-math.inf, 2.0), (math.inf, math.inf)])
    def test_rejects_non_finite_interval(self, r, R):
        with pytest.raises(ValueError, match="interval ends must be finite"):
            numeric_mM(PSI2, PHI2, r, R)
        with pytest.raises(ValueError, match="interval ends must be finite"):
            closed_form_mM(F.I, 2.0, 2.0, r, R)


class TestEnclosure:
    """numeric_mM encloses the extrema: m <= inf g and M >= sup g."""

    def test_sound_and_tight_on_the_criterion_4_battery(self, battery_oracle):
        battery = json.loads(
            (Path(__file__).parent / "fixtures" / "closed_form_errata.json").read_text()
        )["interval_battery"]
        rng = np.random.default_rng(battery["seed"])
        intervals = []
        for _ in range(battery["count"]):
            a, b = np.sort(
                np.exp(rng.uniform(np.log(battery["low"]), np.log(battery["high"]), size=2))
            )
            intervals.append((float(a), float(b)))
        for family in F:
            for s, t in region_grid(family):
                num, den = family_generators(family, s, t)
                for r, R in intervals:
                    m, M, width = bounds._Ratio(bounds._Pair(num, den), r, R).extrema()
                    bm, bM = battery_oracle(num, den, r, R)
                    assert m <= bm and M >= bM, (family, s, t, r, R)
                    assert width <= 1e-9, (family, s, t, r, R)

    def test_sound_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def requests(draw):
            family = draw(st.sampled_from(list(F)))
            s = draw(st.floats(-40.0, 40.0))
            t = draw(st.floats(0.0, 4.0) if family is F.X else st.floats(-40.0, 40.0))
            return family, s, t, 10.0 ** draw(st.floats(-12.0, 0.0)), 10.0 ** draw(st.floats(0.0, 12.0))

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(requests())
        def check(request):
            family, s, t, r, R = request
            num, den = family_generators(family, s, t)
            sign, lg = dense_log_ratio(num, den, r, R, 20_001)
            try:
                m, M = numeric_mM(num, den, r, R)
            except NonFiniteValue:
                # a bound on |g| left the range of doubles
                assert np.abs(lg[sign != 0]).max() > 690.0, request
                return
            with np.errstate(over="ignore", under="ignore"):
                g = sign * np.exp(lg)
            lo, hi = float(g.min()), float(g.max())
            assert m <= lo + 1e-12 * abs(lo) and M >= hi - 1e-12 * abs(hi), request

        check()

    def test_decision_matches_a_50_digit_scan_property(self):
        # where the cubic N decides g monotone, a 50-digit scan of g finds no
        # change of direction; where it does not, g has a zero on [r, R] or
        # N changes sign in (r, R), and each root's bracket holds an exact
        # sign change of N (or the root itself, on a split point)
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        mpmath = pytest.importorskip("mpmath")

        @st.composite
        def requests(draw):
            family = draw(st.sampled_from(list(F)))
            s = draw(st.floats(-12.0, 12.0))
            t = draw(st.floats(0.0, 4.0) if family is F.X else st.floats(-12.0, 12.0))
            r = 10.0 ** draw(st.floats(-11.0, 0.0))
            return family, s, t, r, r * 10.0 ** draw(st.floats(0.0, 13.0))

        def exact_sign(ratio, x):
            c0, c1, c2, c3 = ratio.pair.exact
            x = Fraction(x)
            v = ((c3 * x + c2) * x + c1) * x + c0
            return (v > 0) - (v < 0)

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(requests())
        def check(request):
            family, s, t, r, R = request
            ratio = bounds._Ratio(bounds._Pair(*family_generators(family, s, t)), r, R)
            direction = ratio.direction()
            if direction:
                xs = np.exp(np.linspace(np.log(r), np.log(R), 257))
                g = [mp_curvature_ratio(ratio.num, ratio.den, float(x)) for x in xs]
                with mpmath.workdps(50):
                    steps = [(b - a) * direction for a, b in zip(g, g[1:])]
                    assert all(d >= -mpmath.mpf(10) ** -40 * abs(a) for d, a in zip(steps, g)), request
                return
            roots, g = ratio.roots(), ratio.pair
            assert roots or g.p1 and (g.p1 * r + g.q1) * (g.p1 * R + g.q1) <= 0.0
            for u, w, up in roots:
                assert r <= u <= w <= R, request
                a, b = ratio.bracket(u, w, up)
                assert u <= a <= b <= w, request
                if a == b:
                    assert exact_sign(ratio, a) == 0, request
                elif math.nextafter(a, b) < b:
                    assert exact_sign(ratio, a) * exact_sign(ratio, b) < 0 or a == u or b == w, request

        check()

    def test_vii_large_interval_is_proven_decreasing(self):
        # N(x) = c0 + c1 x with c0, c1 < 0: its x^2 coefficient p1 (A + B + 1)
        # vanishes for every (s, t) and is built as exactly 0, where the
        # rounded record fields put a spurious root near x = 2.8e16
        family, s, t, r, R = F.VII, 3.5, -2.978951757508582, 1.0, 1e17
        ratio = bounds._Ratio(bounds._Pair(*family_generators(family, s, t)), r, R)
        assert ratio.c[2] == 0.0 and ratio.c[3] == 0.0
        assert ratio.direction() == -1 and ratio.roots() == []
        cert = closed_form_mM(family, s, t, r, R)
        assert cert.source is CertificateSource.CLOSED_FORM and cert.erratum is None
        lo, hi = dense_log_extrema(*family_generators(family, s, t), r, R)
        assert cert.m <= lo + 1e-12 * abs(lo) and cert.M >= hi - 1e-12 * abs(hi)

    @pytest.mark.parametrize("r,R", [(1e-6, 1e6), (0.5, 2.0), (1.0, 1.0)])
    def test_constant_ratio_is_one(self, r, R):
        # XI(2)'' = 1 = PHI(2)'': only the rounding allowance separates m, M from 1
        m, M = numeric_mM(GeneratorSpec(Gen.XI, 2.0), PHI2, r, R)
        assert m <= 1.0 <= M
        assert 1.0 - m <= 1e-14 and M - 1.0 <= 1e-14

    def test_monotone_ratio_is_its_end_values(self):
        # proven monotone: the endpoint values, widened by the padding only
        num, den = family_generators(F.II, 2.0, 1.0)
        m, M = numeric_mM(num, den, 0.01, 50.0)
        gr, gR = g_ratio(num, den, 0.01), g_ratio(num, den, 50.0)
        assert m <= gr and M >= gR
        assert gr - m <= 1e-13 * gr and M - gR <= 1e-13 * gR

    def test_sign_change_puts_zero_between(self):
        # XI(5)'' vanishes at x = 1/5, so g takes both signs on [0.1, 10]
        num = GeneratorSpec(Gen.XI, 5.0)
        m, M = numeric_mM(num, PHI2, 0.1, 10.0)
        lo, hi = dense_log_extrema(num, PHI2, 0.1, 10.0)
        assert m <= lo < 0.0 < hi <= M
        assert m == pytest.approx(lo, rel=1e-9) and M == pytest.approx(hi, rel=1e-9)

    def test_zero_rounded_onto_an_end(self):
        # the rounded zero x0 = -q/p of XI(s)'' is r itself, yet the
        # rounded factor p r + q is -1.1e-16 there: r is taken as the zero
        s = 4.899999999999997
        num = GeneratorSpec(Gen.XI, s)
        r = (s - 4.0) / s
        assert s * r + (4.0 - s) < 0.0
        m, M = numeric_mM(num, PHI2, r, 2.0)
        assert m == 0.0 and M == pytest.approx(dense_log_extrema(num, PHI2, r, 2.0)[1], rel=1e-12)

    @pytest.mark.parametrize("family,s,t,r,R", [
        # the linear-domain curvatures overflowed at the parent
        (F.I, 38.5196925608098, -4.0601865298986155, 1.0443060000715921e-09, 9109.32691455385),
        # PSI's curvature underflowed to 0 and was reported as non-positive
        (F.VII, -25.790162686137208, -35.49214754779693, 3.100755709662614e-11,
         908181114707.8119),
    ])
    def test_curvatures_past_the_double_range(self, family, s, t, r, R):
        num, den = family_generators(family, s, t)
        m, M = numeric_mM(num, den, r, R)
        lo, hi = dense_log_extrema(num, den, r, R)
        assert m <= lo + 1e-12 * abs(lo) and M >= hi - 1e-12 * abs(hi)
        assert m == pytest.approx(lo, rel=1e-6) and M == pytest.approx(hi, rel=1e-6)

    def test_overflowing_extremum_is_non_finite(self):
        # the true M is about exp(976); not a DegenerateDenominator
        with pytest.raises(NonFiniteValue, match="overflows double precision"):
            numeric_mM(*family_generators(F.V, 300.0, -300.0), 0.01, 100.0)


class TestCubic:
    """N(x) = x (ln|g|)' (1+x)(p1 x + q1)(p2 x + q2) of :class:`bounds._Ratio`."""

    def test_coefficients_match_a_symbolic_derivation(self):
        # N from the five f'' closed forms, derived symbolically in s and t
        # for every family, against _coefficients at exact rational (s, t)
        sp = pytest.importorskip("sympy")
        s, t = sp.symbols("s t")
        x = sp.symbols("x", positive=True)
        u, v = (x + 1) / 2, (x + 1) / (2 * x)
        d2 = {  # (f'', its linear factor p x + q)
            Gen.PHI: lambda a: (x ** (a - 2), 1),
            Gen.PSI: lambda a: (v ** (a - 2) / (4 * x ** 3), 1),
            Gen.UPSILON: lambda a: (u ** (a - 2) / 4, 1),
            Gen.XI: lambda a: (u ** (a - 3) * (a * x + 4 - a) / 4, a * x + 4 - a),
            Gen.VARSIGMA: lambda a: (v ** (a - 3) * ((4 - a) * x + a) / (4 * x ** 4),
                                     (4 - a) * x + a),
        }
        vii = (Fraction(3.5), Fraction(-2.978951757508582))
        for family in F:
            fd = bounds.FAMILY_DEFS[family]
            (f1, lin1), (f2, lin2) = d2[fd.num_gen](s), d2[fd.den_gen](t)
            lg = sp.expand_log(sp.log(f1) - sp.log(f2), force=True)
            n = sp.cancel(sp.together(x * sp.diff(lg, x) * (1 + x) * lin1 * lin2))
            poly = sp.Poly(n, x)
            assert poly.degree() <= 3, family
            coefs = [sp.Poly(poly.coeff_monomial(x ** k), s, t) for k in range(4)]
            points = [(Fraction(a), Fraction(b)) for a in PARAM_GRID for b in PARAM_GRID]
            for a, b in points + [vii] * (family is F.VII):
                expected = tuple(
                    sum(int(c) * a ** i * b ** j for (i, j), c in c_k.terms()) for c_k in coefs)
                forms = D2_FORMS[fd.num_gen], D2_FORMS[fd.den_gen]
                assert bounds._coefficients(*forms, a, b)[0] == expected, (family, a, b)
        # the x^2 coefficient of VII is p1 (A + B + 1), 0 for every (s, t),
        # and exactly 0 in floats as well
        forms = D2_FORMS[Gen.VARSIGMA], D2_FORMS[Gen.PSI]
        assert bounds._coefficients(*forms, *vii)[0][2] == 0
        assert bounds._coefficients(*forms, 3.5, -2.978951757508582)[0][2] == 0.0

    def test_forms_round_once(self):
        # the float filter's error bound counts one rounding per form k0 + k1 s
        for (_, a1), (_, b1), _, (_, p1), (_, q1) in D2_FORMS.values():
            assert max(abs(a1), abs(a1 + b1), abs(p1), abs(q1)) <= 1

    @pytest.mark.parametrize("c,direction", [
        ((1, -5, 3, 9), 1),  # 9 (x - 1/3)^2 (x + 1): 1/3 is no double
        ((1, -6, 9, 0), 1),  # (3 x - 1)^2
        ((1, -9, 27, -27), 0),  # -(3 x - 1)^3
        ((0, 0, 0, 0), 1),  # flat
    ])
    def test_only_roots_of_odd_multiplicity_turn_g(self, c, direction):
        ratio = bounds._Ratio(bounds._Pair(*family_generators(F.I, 2.0, 2.0)), 0.1, 1.0)
        ratio.c, ratio.cm = tuple(map(float, c)), tuple(float(abs(v)) for v in c)
        ratio.pair._exact = c
        assert ratio.direction() == direction
        assert len(ratio.roots()) == (direction == 0)


class TestClosedForm:
    def test_family_I_worked_example(self):
        cert = closed_form_mM(F.I, 2.0, 2.0, 2.0 / 3.0, 2.0)
        assert cert.m == pytest.approx(1.0 / 32.0, rel=1e-13)
        assert cert.M == pytest.approx(27.0 / 32.0, rel=1e-13)
        assert cert.source is CertificateSource.CLOSED_FORM
        assert cert.region_ok and cert.erratum is None

    def test_family_II_worked_example(self):
        cert = closed_form_mM(F.II, 2.0, 1.0, 2.0 / 3.0, 2.0)
        assert cert.m == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert cert.M == pytest.approx(0.5, rel=1e-14)

    def test_degenerate_interval_is_ratio_at_point(self):
        # the ratio at the point, 1/4, padded outward by its rounding allowance
        cert = closed_form_mM(F.I, 2.0, 2.0, 1.0, 1.0)
        assert cert.source is CertificateSource.CLOSED_FORM
        assert cert.m <= 0.25 <= cert.M
        assert cert.M - cert.m <= 1e-13 * 0.25

    def test_out_of_region_falls_back_to_numeric(self):
        cert = closed_form_mM(F.I, 0.0, 0.0, 0.5, 2.0)
        assert not cert.region_ok
        assert cert.source is CertificateSource.NUMERIC
        assert cert.M == pytest.approx(0.25, rel=1e-10)

    def test_strict_mode_raises(self):
        with pytest.raises(RegionViolation):
            closed_form_mM(F.I, 0.0, 0.0, 0.5, 2.0, strict=True)

    def test_printed_text_overflow_is_non_finite(self):
        # in region (33); g(1e-6) overflows to inf, and so does the true M,
        # about exp(5235), so the numeric fallback raises
        with pytest.raises(NonFiniteValue, match="overflows double precision"):
            closed_form_mM(F.I, 400.0, 0.0, 1e-6, 1e6)

    def test_infinite_point_ratio_is_non_finite(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
            closed_form_mM(F.I, 400.0, 0.0, 1e-6, 1e-6)

    def test_unproven_ratio_ships_the_enclosure(self, monkeypatch, cold_memo):
        monkeypatch.setattr(bounds._Ratio, "direction", lambda self: 0)
        cert = closed_form_mM(F.II, 2.0, 1.0, 2.0 / 3.0, 2.0)
        assert cert.source is CertificateSource.NUMERIC and cert.region_ok
        assert "not proven" in cert.erratum
        assert (cert.m, cert.M) == numeric_mM(*family_generators(F.II, 2.0, 1.0), 2.0 / 3.0, 2.0)

    def test_proven_ratio_needs_no_enclosure(self, monkeypatch):
        # only the certificates that ship the enclosure compute it: the
        # reversed corner III(4, 3), where the ratio (x+1)/2 increases
        # against its decreasing branch; flat ratios certify in closed form
        calls = []
        extrema = bounds._Ratio.extrema
        monkeypatch.setattr(bounds._Ratio, "extrema",
                            lambda self: calls.append((self.num, self.den)) or extrema(self))
        numeric = []
        for family in F:
            for s, t in region_grid(family):
                cert = closed_form_mM(family, s, t, 0.3, 5.0)
                if cert.source is CertificateSource.NUMERIC:
                    numeric.append(family_generators(family, s, t))
                    lo, hi = dense_log_extrema(*numeric[-1], 0.3, 5.0)
                    assert cert.m <= lo and cert.M >= hi
                    assert hi - cert.M <= 1e-12 * hi and lo - cert.m <= 1e-12 * lo
        assert calls == numeric == [family_generators(F.III, 4.0, 3.0)]

    def test_closed_form_never_reads_the_linear_curvatures(self, monkeypatch):
        # nor do g_ratio and the harness's block table: only the plain-grid
        # oracle and the convexity diagnostic call gen_d2
        def boom(*args):
            raise AssertionError("gen_d2 called")

        assert not hasattr(bounds, "gen_d2")
        monkeypatch.setattr(generators, "gen_d2", boom)
        monkeypatch.setattr(verify, "gen_d2", boom)
        ratios = []
        for family in F:
            for s, t in region_grid(family):
                cert = closed_form_mM(family, s, t, 0.3, 5.0)
                assert cert.region_ok and cert.m <= cert.M, (family, s, t)
                ratios.append(bounds._Pair(*family_generators(family, s, t)))
                assert cert.m <= g_ratio(*family_generators(family, s, t),
                                         np.array([0.3, 5.0])).min()
        P, Q = np.array([[0.15, 0.85], [0.5, 0.5]]), np.array([[0.5, 0.5], [0.1, 0.9]])
        for _, m, M, _ in verify._Sandwiches(ratios).slacks(P, Q):
            assert np.all(m <= M)

    def test_unevaluable_printed_text_is_an_erratum(self):
        # (e+1)/(2e) ** (s-3) / e ** (t+2) of tag (39) divides by an e ** 37.04
        # that underflows to 0 at r = 1.3e-9; the ratio itself is proven
        # decreasing, with extrema 2.34e-170 and 2.81e302
        family, s, t = F.IV, 0.07603497704644013, 35.03920573942102
        r, R = 1.287862906509099e-09, 53832.526546420755
        with pytest.raises(ZeroDivisionError):
            printed_mM(family, s, t, r, R)
        cert = closed_form_mM(family, s, t, r, R)
        assert cert.source is CertificateSource.CLOSED_FORM
        assert "ZeroDivisionError" in cert.erratum
        lo, hi = dense_log_extrema(*family_generators(family, s, t), r, R)
        assert cert.m <= lo + 1e-12 * abs(lo) and cert.M >= hi - 1e-12 * abs(hi)

    @pytest.mark.parametrize("family,s,t,r,R", [
        # the printed text overflows; the endpoint values are finite and proven
        (F.V, 23.468782520666977, 32.93434228712755, 0.03470652065124331,
         460995591592.7579),
        # PHI(38.15)'' underflows to 0 at r, but not its log-domain record
        (F.I, -15.534548598688449, 38.152259363999775, 9.561872738525603e-12,
         442.1531700854481),
        # PHI(35.86)'' overflows at R, where g is 4e-284
        (F.II, 10.194273501535207, 35.85994201596016, 9.549976844090945e-07,
         83323943598.75293),
    ])
    def test_in_region_edge_requests_certify(self, family, s, t, r, R):
        cert = closed_form_mM(family, s, t, r, R)
        assert cert.region_ok and cert.erratum is not None
        assert cert.source is CertificateSource.CLOSED_FORM
        lo, hi = dense_log_extrema(*family_generators(family, s, t), r, R)
        assert cert.m <= lo + 1e-12 * abs(lo) and cert.M >= hi - 1e-12 * abs(hi)
        # the padding reaches about 5e-12 relative at these parameters
        assert cert.m >= lo - 1e-11 * abs(lo) and cert.M <= hi + 1e-11 * abs(hi)

    @pytest.mark.parametrize("family,s,t,r,R", [
        # s x + 4 - s cancels in XI(4)'': g_ratio is off by 8e-11 at r = R
        (F.III, 4.0, 2.0, 1e-6, 1e-6),
        # ... and by 9e-6 at r
        (F.VI, 4.0, 21.18687715434057, 9.520077620487599e-12, 190.0110733806304),
        # PHI(-27.25)'' is subnormal at R: g_ratio is off by 7e-5 there
        (F.II, -10.536926652699783, -27.251272143864334, 3.733073821797901e-07,
         84181679095.49355),
        # PSI(-30.27)'' is normal at r, but its power v^(t-2) is subnormal
        (F.V, -23.330462373535497, -30.274354533005152, 5.2338882602128696e-11,
         240.76776765940704),
    ])
    def test_lossy_linear_curvatures_certify_in_closed_form(self, family, s, t, r, R):
        # the linear-domain curvatures lose accuracy here; the log-domain
        # record does not, so its padded end values certify in closed form
        num, den = family_generators(family, s, t)
        cert = closed_form_mM(family, s, t, r, R)
        assert cert.source is CertificateSource.CLOSED_FORM and cert.region_ok
        lo, hi = dense_log_extrema(num, den, r, R)
        assert cert.m <= lo + 1e-12 * abs(lo) and cert.M >= hi - 1e-12 * abs(hi)
        # the padding reaches about 5e-12 relative at these parameters
        assert cert.m >= lo - 1e-11 * abs(lo) and cert.M <= hi + 1e-11 * abs(hi)

    def test_sound_or_divbound_error_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # [0, 4] and [2, 4] hold the narrow regions of families III to X
        param = st.one_of(st.floats(-40.0, 40.0), st.floats(0.0, 4.0), st.floats(2.0, 4.0))

        @st.composite
        def requests(draw):
            family = draw(st.sampled_from(list(F)))
            s, t = draw(param), draw(param)
            hyp.assume(in_region(family, s, t))
            return family, s, t, 10.0 ** draw(st.floats(-12.0, 0.0)), 10.0 ** draw(st.floats(0.0, 12.0))

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(requests())
        def check(request):
            try:
                cert = closed_form_mM(*request)
            except DivboundError:
                return
            lo, hi = dense_log_extrema(*family_generators(*request[:3]), *request[3:], 20_001)
            assert cert.m <= lo + 1e-12 * abs(lo) and cert.M >= hi - 1e-12 * abs(hi), request

        check()

    def test_ix_misprint_corrected(self):
        # printed upper repeats the R coefficient; corrected value matches
        # the scan and the certificate carries the erratum flag
        cert = closed_form_mM(F.IX, 1.0, 0.0, 2.0 / 3.0, 2.0)
        assert cert.erratum is not None
        assert cert.m == pytest.approx(7.0 / 4.0, rel=1e-13)   # (3R+1)/R^2 at R=2
        assert cert.M == pytest.approx(27.0 / 4.0, rel=1e-13)  # (3r+1)/r^2 at r=2/3
        nm, nM = numeric_mM(*family_generators(F.IX, 1.0, 0.0), 2.0 / 3.0, 2.0)
        assert cert.m == pytest.approx(nm, rel=1e-10)
        assert cert.M == pytest.approx(nM, rel=1e-10)
        pm, pM = printed_mM(F.IX, 1.0, 0.0, 2.0 / 3.0, 2.0)
        assert pM > cert.M * (1.0 + CROSS_CHECK_TOL)  # misprint overshoots

    def test_printed_constant_underflowing_to_zero_is_an_erratum(self):
        # the printed m underflows to 0.0 against a true m of 7.2e-294; the
        # comparison is relative, so it disagrees
        request = (F.II, 3.842263338716535, 37.50097174039465,
                   9.411508030135755e-05, 473033665.6367348)
        assert printed_mM(*request)[0] == 0.0
        cert = closed_form_mM(*request)
        assert cert.source is CertificateSource.CLOSED_FORM
        assert cert.erratum is not None and "disagrees" in cert.erratum
        lo, hi = dense_log_extrema(*family_generators(*request[:3]), *request[3:])
        assert lo - 1e-11 * lo <= cert.m <= lo + 1e-12 * lo
        assert hi - 1e-12 * hi <= cert.M <= hi + 1e-11 * hi

    def test_sound_at_50_digits(self):
        # every closed-form certificate holds g(r) and g(R), the extrema of
        # a monotone ratio, evaluated at 50 digits from the f'' forms
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1)
        families = list(F)
        requests = []
        while len(requests) < 2000:
            family = families[rng.integers(len(families))]
            s, t = (rng.uniform(*((-40.0, 40.0), (0.0, 4.0), (2.0, 4.0))[rng.integers(3)])
                    for _ in range(2))
            if in_region(family, s, t):
                r, R = np.sort(np.exp(rng.uniform(-5.0, 5.0, size=2)))
                requests.append((family, float(s), float(t), float(r), float(R)))
        closed = 0
        for request in requests:
            cert = closed_form_mM(*request)
            if cert.source is not CertificateSource.CLOSED_FORM:
                continue
            closed += 1
            num, den = family_generators(*request[:3])
            for x in request[3:]:
                g = mp_curvature_ratio(num, den, x)
                assert mpmath.mpf(cert.m) <= g <= mpmath.mpf(cert.M), request
        assert closed >= 1900

    def test_iii_reversed_direction_corner(self):
        # at (s=4, t=3) the ratio (x+1)/2 is increasing although the
        # region of the decreasing branch admits the point
        cert = closed_form_mM(F.III, 4.0, 3.0, 2.0 / 3.0, 2.0)
        assert cert.erratum is not None
        assert cert.source is CertificateSource.NUMERIC
        assert cert.m == pytest.approx(5.0 / 6.0, rel=1e-10)
        assert cert.M == pytest.approx(1.5, rel=1e-10)

    def test_iii_boundary_prefers_sound_branch(self):
        # (s=3, t=2) lies in both branch regions; the increasing branch is
        # the correct one and is chosen, so no erratum
        br = active_branch(F.III, 3.0, 2.0)
        assert br.tag == "36" and br.increasing
        cert = closed_form_mM(F.III, 3.0, 2.0, 0.5, 2.0)
        assert cert.erratum is None
        assert cert.m < cert.M

    def test_invariants_on_grid(self):
        rng = np.random.default_rng(5150)
        for family in F:
            pts = region_grid(family)
            take = [pts[i] for i in rng.choice(len(pts), size=min(6, len(pts)), replace=False)]
            for s, t in take:
                r = float(np.exp(rng.uniform(np.log(0.05), 0.0)))
                R = float(np.exp(rng.uniform(0.0, np.log(20.0))))
                cert = closed_form_mM(family, s, t, r, R)
                assert 0.0 <= cert.m <= cert.M, (family, s, t)

    def test_endpoint_attainment_in_region(self):
        # wherever some region admits (s, t) the ratio is monotone (up to
        # the two reversed-direction corners), so the scanned extrema are
        # the endpoint values
        rng = np.random.default_rng(616)
        for family in F:
            for s, t in region_grid(family)[::5]:
                num, den = family_generators(family, s, t)
                r = float(np.exp(rng.uniform(np.log(0.05), 0.0)))
                R = float(np.exp(rng.uniform(0.0, np.log(20.0))))
                m, M = numeric_mM(num, den, r, R)
                ends = sorted((g_ratio(num, den, r), g_ratio(num, den, R)))
                assert m == pytest.approx(ends[0], rel=1e-9, abs=1e-12), (family, s, t)
                assert M == pytest.approx(ends[1], rel=1e-9, abs=1e-12), (family, s, t)

    def test_certificate_serialization(self):
        cert = closed_form_mM(F.II, 2.0, 1.0, 2.0 / 3.0, 2.0)
        d = cert.to_dict()
        assert list(d) == ["family", "s", "t", "r", "R", "m", "M", "source",
                           "region_ok", "erratum"]
        assert d["family"] == "II" and d["source"] == "closed-form"
        assert "0.5" in cert.to_json()

    @pytest.mark.parametrize("np_type", [np.int32, np.int64, np.float32, np.float64])
    @pytest.mark.parametrize("arg", range(4))
    def test_numpy_scalar_arguments_serialize(self, arg, np_type):
        # each of s, t, r, R as a numpy scalar serializes as the same value
        # passed as a Python number
        args = [3, 2, 1, 4]
        python = args.copy()
        python[arg] = np_type(args[arg]).item()
        args[arg] = np_type(args[arg])
        assert closed_form_mM(F.I, *args).to_json() == closed_form_mM(F.I, *python).to_json()

    @pytest.mark.parametrize("s,t", [(True, 1), (2.0, np.False_), ("2", 1.0)])
    def test_rejects_non_real_parameters(self, s, t):
        # a bool is an int to Python but no parameter here: it would
        # certify and serialize as "s": true
        with pytest.raises(InvalidArgument, match="must be a real number"):
            closed_form_mM(F.II, s, t, 0.5, 2.0)

    @pytest.mark.parametrize("family", ["I", [1], None, F])
    @pytest.mark.parametrize("s,t", [(2.0, 1.0), (2, 1)])
    def test_rejects_a_family_that_is_not_one(self, family, s, t, fixed_pair):
        # before the memo, which would hash it, or the catalog, which would
        # look it up: the error names it
        P, Q = fixed_pair
        block = np.array([P.masses, Q.masses])
        for certify in (lambda: closed_form_mM(family, s, t, 0.5, 2.0),
                        lambda: sandwich_check(family, s, t, P, Q),
                        lambda: verify.sandwich_slack_bulk(family, s, t, block, block[::-1])):
            with pytest.raises(InvalidArgument, match=re.escape(repr(family))):
                certify()


class TestArguments:
    """Every entry point that takes a family or a ratio interval refuses a
    value of the wrong type with an InvalidArgument naming it."""

    @pytest.mark.parametrize("family", ["I", 1, None, Family.PHI])
    @pytest.mark.parametrize("call", [
        lambda f: in_region(f, 0.0, 0.0),
        lambda f: region_grid(f),
        lambda f: printed_mM(f, 2.0, 1.0, 0.5, 2.0),
        lambda f: verify.tightness_scan(f, 2.0, 1.0, 2, 1),
        lambda f: family_generators(f, 2.0, 1.0),
        lambda f: active_branch(f, 2.0, 1.0),
    ])
    def test_family_of_another_type(self, call, family):
        with pytest.raises(InvalidArgument, match=re.escape(repr(family))):
            call(family)

    @pytest.mark.parametrize("call", [
        lambda r: numeric_mM(*family_generators(F.I, 2.0, 1.0), r, 2.0),
        lambda r: closed_form_mM(F.I, 2.0, 1.0, r, 2.0),
        lambda r: generators.convexity_scan(GeneratorSpec(Gen.PHI, 2.0), r, 2.0),
        lambda r: verify.brute_force_mM(*family_generators(F.I, 2.0, 1.0), r, 2.0, 100),
    ])
    @pytest.mark.parametrize("r", ["1", "0.5", np.array([0.5]), None])
    def test_interval_end_of_another_type(self, call, r):
        with pytest.raises(InvalidArgument, match=re.escape(repr(r))):
            call(r)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_plain_grid_oracle_refuses_a_non_positive_end_as_the_engine(self, r):
        num, den = family_generators(F.I, 2.0, 1.0)
        for call in (numeric_mM, lambda *a: verify.brute_force_mM(*a, 100)):
            with pytest.raises(NonPositiveArgument, match=re.escape(f"[{r}, 2.0]")):
                call(num, den, r, 2.0)


def _battery() -> list[tuple]:
    """1500 seeded certify requests: the validation grid with ratios within
    1e-3 and 1e3, one in ten far off it (|s|, |t| up to 40, ratios up to
    1e12, X's t within [0, 4]), and one in fifty with r = R."""
    rng = np.random.default_rng([2027, 10])
    requests = []
    for i in range(1500):
        family = list(F)[i % len(F)]
        ts = [v for v in PARAM_GRID if 0.0 <= v <= 4.0] if family is F.X else PARAM_GRID
        if i % 10 == 9:
            s, t = rng.uniform(-40.0, 40.0, 2)
            t = rng.uniform(0.0, 4.0) if family is F.X else t
            r, R = 10.0 ** rng.uniform(-12.0, 0.0), 10.0 ** rng.uniform(0.0, 12.0)
        else:
            s, t = PARAM_GRID[rng.integers(len(PARAM_GRID))], ts[rng.integers(len(ts))]
            r, R = 10.0 ** rng.uniform(-3.0, 0.0), 10.0 ** rng.uniform(0.0, 3.0)
        requests.append((family, float(s), float(t), float(r), float(r if i % 50 == 7 else R)))
    return requests


def _outcome(*request) -> str:
    """The certificate's JSON, or the name of the error it raises."""
    try:
        return closed_form_mM(*request).to_json()
    except (DivboundError, ArithmeticError) as exc:
        return type(exc).__name__


def _digest(outcomes) -> str:
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


#: :func:`_battery`'s certificates, recorded before the per-pair memo
BATTERY_DIGEST = "5a5da381cfcc4e93ea4ca3d70137cb3b542bd5bc1d6ebf2ec10a8e40b9aa0bc9"


class TestMemo:
    """closed_form_mM reads the per-pair record of (family, s, t) from a
    bounded memo (``bounds._record``): the same certificates, cold or warm."""

    def test_battery_digest_cold_and_warm(self, cold_memo):
        # a change to any certificate bit fails here
        cold = [_outcome(*request) for request in _battery()]
        assert _digest(cold) == BATTERY_DIGEST
        assert bounds._record.cache_info().currsize > 0
        assert [_outcome(*request) for request in _battery()] == cold

    def test_two_threads_from_a_cold_memo(self, cold_memo):
        # both build and complete the same records, switching every few
        # microseconds: a record read half made would change a certificate
        battery, start, out = _battery(), threading.Barrier(2), {}

        def certify(k):
            start.wait()
            out[k] = [_outcome(*request) for request in battery]

        threads = [threading.Thread(target=certify, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert out[0] == out[1] and _digest(out[0]) == BATTERY_DIGEST

    def test_memo_is_bounded(self, cold_memo):
        # room for the catalog: every grid (family, s, t) and the harness's
        # 616 distinct ratios, which are grid ones too
        size = bounds._record.cache_info().maxsize
        harness = {(c.pair.num, c.pair.den)
                   for c in verify._build_checks(("all", "bounds-grid")) if c.pair}
        assert len(harness) == 616
        assert len(F) * len(PARAM_GRID) ** 2 + len(harness) <= size < 10_000
        for k in range(size + 50):
            closed_form_mM(F.V, 0.5 + 1e-6 * k, 1.5, 0.5, 2.0)
        assert bounds._record.cache_info().currsize == size

    @pytest.mark.parametrize("s,t", [(True, 1), (2.0, np.False_), ("2", 1.0), (1.0, 1j),
                                     ([1.0], 1.0), (1.0, math.nan)])
    def test_rejects_invalid_parameters_with_a_warm_memo(self, s, t, cold_memo):
        # True == 1.0 and hashes alike: a key is made of floats only
        for _ in range(2):
            closed_form_mM(F.II, 1.0, 1.0, 0.5, 2.0)
            closed_form_mM(F.II, 2.0, 0.0, 0.5, 2.0)
        with pytest.raises(InvalidArgument):
            closed_form_mM(F.II, s, t, 0.5, 2.0)

    @pytest.mark.parametrize("family", list(F))
    def test_signed_zeros_share_a_record(self, family, cold_memo):
        # -0.0 == 0.0: whichever comes first makes the record, and both
        # certify as they do from a cold memo, alike but for the zeros' signs
        for st in [(0.0, 2.0), (2.0, 0.0), (0.0, 0.0)]:
            negated = tuple(-v if v == 0.0 else v for v in st)
            for first, second in [(st, negated), (negated, st)]:
                bounds._record.cache_clear()
                alone = _outcome(family, *second, 0.5, 3.0)
                bounds._record.cache_clear()
                for _ in range(2):
                    _outcome(family, *first, 0.2, 4.0)
                assert _outcome(family, *second, 0.5, 3.0) == alone
            a, b = (_outcome(family, *params, 0.5, 3.0) for params in (st, negated))
            if a.startswith("{"):
                a, b = ({**json.loads(c), "s": 0, "t": 0} for c in (a, b))
            assert a == b

    def test_cold_and_warm_certificates_property(self, cold_memo):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        real = st.one_of(st.floats(-40.0, 40.0), st.sampled_from(PARAM_GRID + (0.0, -0.0)),
                         st.integers(-40, 40))
        param = st.one_of(real, real.map(np.float64), st.integers(-4, 4).map(np.int64))
        end = st.one_of(st.floats(1e-35, 1e35), st.sampled_from([1e-31, 1e-30, 1.0, 1e30, 1e31]))

        def twin(v):
            # an equal float key: its float, or the other zero
            return -float(v) if v == 0 else float(v)

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(st.sampled_from(list(F)), param, param, end, end)
        def check(family, s, t, x, y):
            r, R = min(x, y), max(x, y)
            bounds._record.cache_clear()
            cold = _outcome(family, s, t, r, R)
            # warm the record through equal keys, twice so its verdict is
            # computed, then read it back on either side of [1e-30, 1e30]
            for ends in [(0.5, 2.0), (0.5, 2.0), (r, R)]:
                _outcome(family, twin(s), twin(t), *ends)
            assert _outcome(family, s, t, r, R) == cold
            assert _outcome(family, s, t, r, R) == cold

        check()


class TestPrintedText:
    @pytest.mark.parametrize("np_type", [np.float16, np.float32, np.float64])
    def test_numpy_scalar_arguments_keep_double_precision(self, np_type):
        # as in closed_form_mM: computed in float32, the text would give
        # np.float32(0.0234375) for m
        expected = printed_mM(F.I, 3.0, 2.0, 0.5, 2.0)
        for k in range(4):
            args = [3.0, 2.0, 0.5, 2.0]
            args[k] = np_type(args[k])
            got = printed_mM(F.I, *args)
            assert got == expected and all(type(v) is float for v in got)

    def test_matches_endpoint_values_except_ix(self):
        rng = np.random.default_rng(77)
        for family in F:
            for s, t in region_grid(family)[::3]:
                r = float(np.exp(rng.uniform(np.log(0.05), 0.0)))
                R = float(np.exp(rng.uniform(0.0, np.log(20.0))))
                num, den = family_generators(family, s, t)
                br = active_branch(family, s, t)
                lo, hi = (r, R) if br.increasing else (R, r)
                pm, pM = printed_mM(family, s, t, r, R)
                assert pm == pytest.approx(g_ratio(num, den, lo), rel=1e-10), (family, s, t)
                if family is F.IX and s != 4.0:
                    assert pM != pytest.approx(g_ratio(num, den, hi), rel=1e-6)
                else:
                    assert pM == pytest.approx(g_ratio(num, den, hi), rel=1e-10), (family, s, t)

    def test_none_outside_regions(self):
        assert printed_mM(F.X, 0.0, 0.0, 0.5, 2.0) is None

    @pytest.mark.parametrize("family, s, t, expected", [
        (F.I, 2.0, 0.5, (0.05635005735649856, 1.5214515486254616)),
        (F.II, 2.0, 1.0, (0.075, 0.675)),
        (F.III, 3.0, 1.0, (0.14250000000000002, 6.142500000000001)),
        (F.IV, 1.0, -1.0, (0.33727810650887563, 1.794740686632579)),
        (F.V, 0.0, 1.0, (0.13846153846153844, 3.9405405405405403)),
        (F.VI, 1.0, 0.0, (0.9899999999999999, 15.390000000000002)),
        (F.VII, 1.0, 1.0, (2.9230769230769225, 4.91891891891892)),
        (F.VIII, 1.0, 2.0, (1.6654492330168005, 7.810650887573963)),
        (F.IX, 1.0, 0.0, (1.2482853223593964, 101.11111111111113)),  # misprinted M
        (F.X, 3.0, 2.5, (0.01768282767836357, 145.98326787042643)),
    ])
    def test_pinned_bit_for_bit(self, family, s, t, expected):
        # a drift below the errata tolerance would go unseen by the errata
        # checks, so the printed text is pinned exactly on [0.3, 2.7]
        assert printed_mM(family, s, t, 0.3, 2.7) == expected


class TestSandwich:
    def test_worked_example_family_II(self, fixed_pair):
        P, Q = fixed_pair
        rep = sandwich_check(F.II, 2.0, 1.0, P, Q)
        # m*K = (1/6)*0.143841..., mid = chi2(P||Q)/8, M*K = (1/2)*0.143841...
        assert rep.lhs == pytest.approx(0.023973, abs=1e-6)
        assert rep.mid == pytest.approx(0.041667, abs=1e-6)
        assert rep.rhs == pytest.approx(0.071920, abs=1e-6)
        assert rep.passed

    def test_identical_pair_passes_at_zero(self):
        d = validate([0.4, 0.6])
        rep = sandwich_check(F.II, 2.0, 1.0, d, d)
        assert rep.lhs == rep.mid == rep.rhs == 0.0
        assert rep.passed

    def test_out_of_region_numeric_fallback_passes(self):
        P, Q = sample_pair(4, seed=5)
        rep = sandwich_check(F.I, 0.0, 0.0, P, Q)
        assert not rep.certificate.region_ok
        assert rep.passed


# --------------------------------------------------------------------------
# corollary catalog: each displayed ratio form, recomputed from the classical
# measures, must land inside [r, R]; this pins the (family, s, t) mapping

def _measure_values(p, q):
    return {
        "chi2_pq": chi_square(p, q), "chi2_qp": chi_square(q, p),
        "kl_pq": kl(p, q), "kl_qp": kl(q, p),
        "f_pq": rel_js(p, q), "f_qp": rel_js(q, p),
        "g_pq": rel_ag(p, q), "g_qp": rel_ag(q, p),
        "d_pq": rel_j(p, q), "d_qp": rel_j(q, p),
        "delta": triangular(p, q), "hell": hellinger(p, q),
    }


_SQ = math.sqrt

DISPLAY_ORACLES = {
    "chi2-vs-hellinger": lambda v: (v["chi2_pq"] / (8 * v["hell"])) ** (2 / 3),
    "hellinger-vs-chi2-qp": lambda v: (8 * v["hell"] / v["chi2_qp"]) ** (2 / 3),
    "chi2-ratio": lambda v: (v["chi2_pq"] / v["chi2_qp"]) ** (1 / 3),
    "chi2-over-2KL": lambda v: v["chi2_pq"] / (2 * v["kl_pq"]),
    "2KL-qp-over-chi2-qp": lambda v: 2 * v["kl_qp"] / v["chi2_qp"],
    "2KL-vs-chi2-qp": lambda v: _SQ(2 * v["kl_pq"] / v["chi2_qp"]),
    "chi2-vs-2KL-qp": lambda v: _SQ(v["chi2_pq"] / (2 * v["kl_qp"])),
    "F-ratio": lambda v: v["f_qp"] / v["f_pq"],
    "G-ratio": lambda v: _SQ(v["g_qp"] / v["g_pq"]),
    "delta-vs-chi2": lambda v: (4 * v["chi2_pq"] / v["delta"]) ** (1 / 3) - 1,
    "delta-vs-chi2-qp": lambda v: 1 / ((4 * v["chi2_qp"] / v["delta"]) ** (1 / 3) - 1),
    "KL-qp-vs-2G": lambda v: (v["kl_qp"] - 2 * v["g_pq"]) / (2 * v["g_pq"]),
    "2G-qp-vs-KL": lambda v: 2 * v["g_qp"] / (v["kl_pq"] - 2 * v["g_qp"]),
    "KL-vs-F": lambda v: _SQ(v["kl_pq"] / v["f_pq"]) - 1,
    "F-qp-vs-KL-qp": lambda v: _SQ(v["f_qp"]) / (_SQ(v["kl_qp"]) - _SQ(v["f_qp"])),
    "delta-vs-4G": lambda v: _SQ(v["delta"]) / (4 * _SQ(v["g_pq"]) - _SQ(v["delta"])),
    "4G-qp-vs-delta": lambda v: (4 * _SQ(v["g_qp"]) - _SQ(v["delta"])) / _SQ(v["delta"]),
    "delta-vs-8F": lambda v: v["delta"] / (8 * v["f_pq"] - v["delta"]),
    "8F-qp-vs-delta": lambda v: (8 * v["f_qp"] - v["delta"]) / v["delta"],
    "6G-qp-vs-D": lambda v: (6 * v["g_qp"] - v["d_pq"]) / (v["d_pq"] - 2 * v["g_qp"]),
    "D-qp-vs-6G": lambda v: (v["d_qp"] - 2 * v["g_pq"]) / (6 * v["g_pq"] - v["d_qp"]),
    "4G-vs-chi2-qp": lambda v: 4 * v["g_pq"] / (v["chi2_qp"] - 4 * v["g_pq"]),
    "F-vs-D-qp": lambda v: v["f_pq"] / (v["d_qp"] - 3 * v["f_pq"]),
    "2F-vs-chi2-qp": lambda v: _SQ(2 * v["f_pq"]) / (_SQ(v["chi2_qp"]) - _SQ(2 * v["f_pq"])),
    "D-vs-9F": lambda v: (_SQ(4 * v["d_pq"] + 9 * v["f_pq"]) - 3 * _SQ(v["f_pq"]))
    / (2 * _SQ(v["f_pq"])),
    "F-qp-vs-D-qp": lambda v: 2 * _SQ(v["f_qp"])
    / (_SQ(4 * v["d_qp"] + 9 * v["f_qp"]) - 3 * _SQ(v["f_qp"])),
    "F-qp-vs-8G": lambda v: 2 * _SQ(v["f_qp"])
    / (_SQ(8 * v["g_pq"] + v["f_qp"]) - _SQ(v["f_qp"])),
    "8G-qp-vs-F": lambda v: (_SQ(8 * v["g_qp"] + v["f_pq"]) - _SQ(v["f_pq"]))
    / (2 * _SQ(v["f_pq"])),
    "G-qp-vs-2KL-qp": lambda v: 2 * _SQ(v["g_qp"])
    / (_SQ(2 * v["kl_qp"] + v["g_qp"]) - _SQ(v["g_qp"])),
    "2KL-vs-G": lambda v: (_SQ(2 * v["kl_pq"] + v["g_pq"]) - _SQ(v["g_pq"]))
    / (2 * _SQ(v["g_pq"])),
    "8D-vs-delta": lambda v: (_SQ(8 * v["d_pq"] + v["delta"]) - 2 * _SQ(v["delta"]))
    / _SQ(v["delta"]),
    "delta-vs-8D-qp": lambda v: _SQ(v["delta"])
    / (_SQ(8 * v["d_qp"] + v["delta"]) - 2 * _SQ(v["delta"])),
    "16D-vs-chi2": lambda v: (
        5 * _SQ(v["chi2_pq"]) - _SQ(16 * v["d_pq"] + v["chi2_pq"])
    ) / (_SQ(16 * v["d_pq"] + v["chi2_pq"]) - _SQ(v["chi2_pq"])),
}


class TestCorollaryTable:
    def test_full_catalog(self):
        table = corollary_table()
        assert len(table) == 33
        assert {c.name for c in table} == set(DISPLAY_ORACLES)

    def test_known_mappings(self):
        by_name = {c.name: c for c in corollary_table()}
        c = by_name["chi2-over-2KL"]
        assert (c.family, c.s, c.t) == (F.II, 2.0, 1.0)
        c = by_name["F-ratio"]
        assert (c.family, c.s, c.t) == (F.V, 0.0, 0.0)
        c = by_name["delta-vs-chi2"]
        assert (c.family, c.s, c.t) == (F.I, -1.0, 2.0)

    def test_all_entries_in_region(self):
        for c in corollary_table():
            assert in_region(c.family, c.s, c.t), c.name

    def test_remapped_entry_documents_erratum(self):
        by_name = {c.name: c for c in corollary_table()}
        c = by_name["F-vs-D-qp"]
        assert c.note is not None and "(44)" in c.source_tag
        # the cited family-I substitution lands in the other branch and
        # certifies a different ratio, so it cannot produce this display
        assert active_branch(F.I, 1.0, 0.0).tag == "33"

    def test_displays_lie_in_ratio_interval(self):
        table = corollary_table()
        for n in (2, 3, 7):
            for i in range(60):
                P, Q = sample_pair(n, seed=31000 + 100 * n + i)
                v = _measure_values(P.masses, Q.masses)
                rb = ratio_bounds(P, Q)
                for c in table:
                    x = DISPLAY_ORACLES[c.name](v)
                    assert rb.r * (1 - 1e-9) <= x <= rb.R * (1 + 1e-9), (c.name, n, i)

    def test_sandwich_passes_for_every_entry(self):
        for i in range(10):
            P, Q = sample_pair(4, seed=888 + i)
            for c in corollary_table():
                rep = sandwich_check(c.family, c.s, c.t, P, Q)
                assert rep.passed, (c.name, i)
