from fractions import Fraction

import numpy as np
import pytest

from conftest import continuity_violations, mass_lists, scaled_ok
from divbound.errors import InvalidArgument, NonPositiveArgument
from divbound.families import omega_s, phi_s, zeta_s
from divbound.generators import (
    Gen,
    GeneratorSpec,
    convexity_scan,
    csiszar,
    csiszar_bulk,
    gen_d1,
    gen_d2,
    gen_eval,
    gen_value,
    log_d2,
)
from divbound.simplex import normalize, validate

S_GRID = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0)
ALL_SPECS = [GeneratorSpec(g, s) for g in Gen for s in S_GRID]
X_GRID = np.geomspace(0.1, 10.0, 64)

# the family kernel each generator feeds through the engine
ENGINE_EQUIV = {
    Gen.PHI: lambda s, p, q: phi_s(s, p, q),
    Gen.PSI: lambda s, p, q: omega_s(s, p, q),
    Gen.UPSILON: lambda s, p, q: omega_s(s, p, q, adjoint=True),
    Gen.XI: lambda s, p, q: zeta_s(s, p, q),
    Gen.VARSIGMA: lambda s, p, q: zeta_s(s, p, q, adjoint=True),
}


def central_d2(spec, x, h):
    f = lambda y: gen_value(spec, y)
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def central_d1(spec, x, h):
    f = lambda y: gen_value(spec, y)
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestSpec:
    @pytest.mark.parametrize("s", [True, np.True_, "2", None, 1j, np.array(2.0 + 0j)[()]])
    def test_rejects_non_real_parameter(self, s):
        with pytest.raises(InvalidArgument, match="must be a real number"):
            GeneratorSpec(Gen.PHI, s)

    @pytest.mark.parametrize("s", [np.inf, np.float32("nan"), np.array([2.0, np.nan]),
                                   10**400, -(10**400), Fraction(10**400, 3)],
                             ids=["inf", "s1", "s2", "10**400", "-10**400", "Fraction(10**400, 3)"])
    def test_rejects_non_finite_parameter(self, s):
        # an int or Fraction past the double range included: float(s) would
        # raise a bare OverflowError
        with pytest.raises(InvalidArgument, match="must be finite"):
            GeneratorSpec(Gen.PHI, s)

    @pytest.mark.parametrize("s", [2, np.int32(2), np.float32(2.5), np.float64(2.5), Fraction(5, 2)])
    def test_scalar_parameter_is_held_as_float(self, s):
        spec = GeneratorSpec(Gen.XI, s)
        assert type(spec.s) is float and spec.s == float(s)
        assert spec == GeneratorSpec(Gen.XI, float(s))
        assert all(type(v) is float for v in log_d2(spec))
        assert gen_eval(spec, 3.0) == gen_eval(GeneratorSpec(Gen.XI, float(s)), 3.0)

    def test_stacked_parameter_is_kept(self):
        s = np.array([0.0, 2.0])
        assert GeneratorSpec(Gen.PHI, s).s is s


class TestNormalization:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_value_vanishes_at_one(self, spec):
        assert abs(gen_eval(spec, 1.0).value) <= 1e-14

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_slope_vanishes_at_one(self, spec):
        # all five families are normalized with a stationary point at 1,
        # which is why C_f(P||Q)/C_f2(P||Q) tends to f1''(1)/f2''(1) as P -> Q
        assert abs(gen_eval(spec, 1.0).d1) <= 1e-14


class TestClosedForms:
    def test_phi_at_two(self):
        gv = gen_eval(GeneratorSpec(Gen.PHI, 2.0), 2.0)
        assert gv.value == pytest.approx(0.5, abs=1e-15)
        assert gv.d2 == pytest.approx(1.0, abs=1e-15)

    def test_psi_curvature_at_one(self):
        for s in S_GRID:
            assert gen_eval(GeneratorSpec(Gen.PSI, s), 1.0).d2 == pytest.approx(
                0.25, abs=1e-15
            )

    def test_xi_curvature_at_one(self):
        # (s*1 + 4 - s)/4 = 1 independently of s
        for s in S_GRID:
            assert gen_eval(GeneratorSpec(Gen.XI, s), 1.0).d2 == pytest.approx(
                1.0, abs=1e-15
            )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_d2_matches_central_difference(self, spec):
        h = 1e-4 * X_GRID
        fd = central_d2(spec, X_GRID, h)
        d2 = gen_d2(spec, X_GRID)
        assert scaled_ok(d2, fd, 1e-5), spec

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_d1_matches_central_difference(self, spec):
        h = 1e-5 * X_GRID
        fd = central_d1(spec, X_GRID, h)
        d1 = gen_d1(spec, X_GRID)
        assert scaled_ok(d1, fd, 1e-6), spec

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_log_d2_record_agrees(self, spec):
        # the bound engine reads f'' only through this record
        d2 = gen_d2(spec, X_GRID)
        rec = log_d2(spec)
        lin = rec.p * X_GRID + rec.q if rec.p else np.ones_like(X_GRID)
        sign = rec.sign * np.sign(lin)
        log_abs = (rec.alpha * np.log(X_GRID) + rec.beta * np.log1p(X_GRID)
                   + np.log(np.abs(lin)) + rec.c)
        assert np.array_equal(sign, np.sign(d2)), spec
        assert scaled_ok(log_abs, np.log(np.abs(d2)), 1e-14), spec

    @pytest.mark.parametrize("x", [1e-6, 1e-9, 1e-12])
    def test_xi_curvature_exact_at_four(self, x):
        # XI(4)'' = u^1 (4 x + 0) / 4 = x (x + 1) / 2: the linear factor is
        # exact as s x + (4 - s), while (s x + 4) - s cancels near x = 0
        exact = Fraction(x) * (Fraction(x) + 1) / 2
        d2 = gen_eval(GeneratorSpec(Gen.XI, 4.0), x).d2
        assert abs(Fraction(d2) - exact) <= Fraction(1e-14) * exact

    @pytest.mark.parametrize("gen,s", [(Gen.XI, 0.0), (Gen.XI, 2.0), (Gen.XI, 4.0),
                                       (Gen.VARSIGMA, 0.0), (Gen.VARSIGMA, 2.0),
                                       (Gen.VARSIGMA, 4.0)])
    def test_log_d2_folds_power_factors(self, gen, s):
        # a linear factor proportional to 1, x or 1+x is folded into the powers
        rec = log_d2(GeneratorSpec(gen, s))
        assert rec.p == rec.q == 0.0 and rec.sign == 1.0

    def test_log_d2_keeps_sign_changing_factor(self):
        rec = log_d2(GeneratorSpec(Gen.XI, 5.0))  # f'' has the factor 5x - 1
        assert (rec.p, rec.q, rec.sign) == (5.0, -1.0, 1.0)

    def test_rejects_non_positive_argument(self):
        spec = GeneratorSpec(Gen.PHI, 2.0)
        with pytest.raises(NonPositiveArgument):
            gen_eval(spec, 0.0)
        with pytest.raises(NonPositiveArgument):
            gen_eval(spec, np.array([1.0, -2.0]))

    @pytest.mark.parametrize(
        "x", [np.inf, np.nan, np.array([1.0, np.inf]), np.array([np.nan, 1.0])]
    )
    def test_rejects_non_finite_argument(self, x):
        with pytest.raises(NonPositiveArgument):
            gen_eval(GeneratorSpec(Gen.PHI, 2.0), x)


class TestEngine:
    def test_zero_on_identical(self):
        d = validate([0.2, 0.3, 0.5])
        for spec in ALL_SPECS:
            assert abs(csiszar(spec, d, d)) <= 1e-15

    @pytest.mark.parametrize("gen", list(Gen), ids=lambda g: g.value)
    def test_matches_family_kernels(self, gen, pair_matrices):
        kernel = ENGINE_EQUIV[gen]
        for n in (2, 5):
            P, Q = pair_matrices[n]
            for s in S_GRID:
                spec = GeneratorSpec(gen, s)
                assert scaled_ok(csiszar_bulk(spec, P, Q), kernel(s, P, Q), 1e-12), (
                    gen, s, n,
                )

    def test_engine_adjoint_relation(self, pair_matrices):
        # summing q f(p/q) for the swapped-argument generator equals
        # summing p f(q/p) for the original one
        P, Q = pair_matrices[3]
        for s in S_GRID:
            a = csiszar_bulk(GeneratorSpec(Gen.PSI, s), P, Q)
            b = csiszar_bulk(GeneratorSpec(Gen.UPSILON, s), Q, P)
            assert scaled_ok(a, b, 1e-12), s

    def test_worked_example(self, fixed_pair):
        P, Q = fixed_pair
        assert csiszar(GeneratorSpec(Gen.PHI, 2.0), P, Q) == pytest.approx(
            1.0 / 6.0, rel=1e-13
        )


class TestUniformInS:
    """No limit branches: f, f' and the engine are continuous in s through the
    removable points s = 0, 1 and through the form choice at s = 1/2."""

    @pytest.mark.parametrize("s0", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("gen", list(Gen), ids=lambda g: g.value)
    def test_value_and_slope_continuous(self, gen, s0):
        xs = np.geomspace(0.01, 100.0, 201)
        for fn in (gen_value, gen_d1):
            bad = continuity_violations(lambda s: fn(GeneratorSpec(gen, s), xs), s0)
            assert not bad, (fn.__name__, bad)

    @pytest.mark.parametrize("s0", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("gen", list(Gen), ids=lambda g: g.value)
    def test_engine_continuous(self, gen, s0, pair_matrices):
        P, Q = pair_matrices[5]
        bad = continuity_violations(lambda s: csiszar_bulk(GeneratorSpec(gen, s), P, Q), s0)
        assert not bad, bad

    def test_scalar_in_scalar_out(self):
        for spec in ALL_SPECS:
            assert isinstance(gen_value(spec, 2.0), float), spec
            assert isinstance(gen_d1(spec, 2.0), float), spec

    @pytest.mark.parametrize("gen", list(Gen), ids=lambda g: g.value)
    def test_matches_kernels_off_unit_sum(self, gen, pair_matrices):
        """Kernel and engine agree on pairs whose mass sums are off by up to
        9e-10, which validation accepts, right next to s = 0 and s = 1."""
        kernel = ENGINE_EQUIV[gen]
        P, Q = pair_matrices[5]
        for a, b in ((1.0 + 9e-10, 1.0 - 9e-10), (1.0 - 9e-10, 1.0 + 9e-10), (1.0 + 9e-10, 1.0)):
            p = np.array([validate(row * a).masses for row in P[:60]])
            q = np.array([validate(row * b).masses for row in Q[:60]])
            for s0 in (0.0, 1.0):
                for d in (0.0, 1e-9, -1e-9, 1e-12, -1e-15):
                    s = s0 + d
                    assert scaled_ok(
                        csiszar_bulk(GeneratorSpec(gen, s), p, q), kernel(s, p, q), 1e-12
                    ), (gen, a, b, s)

    def test_matches_kernels_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        near = st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-1e-6, 1e-6)).map(sum)

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(mass_lists(st), st.sampled_from(list(Gen)), st.one_of(near, st.floats(-3.0, 5.0)))
        def check(pq, gen, s):
            p, q = normalize(pq[0]).masses, normalize(pq[1]).masses
            engine = csiszar_bulk(GeneratorSpec(gen, s), p, q)
            assert scaled_ok(engine, ENGINE_EQUIV[gen](s, p, q), 1e-12)

        check()


class TestConvexityScan:
    def test_phi_cubic_convex(self):
        scan = convexity_scan(GeneratorSpec(Gen.PHI, 3.0), 0.1, 10.0, 1025)
        assert scan.convex and scan.min_d2 > 0.0

    def test_xi_outside_range_non_convex(self):
        # curvature carries the factor 5x - 1, negative below x = 0.2
        scan = convexity_scan(GeneratorSpec(Gen.XI, 5.0), 0.1, 10.0, 1025)
        assert not scan.convex
        assert scan.argmin_x < 0.2

    def test_xi_boundary_convex(self):
        scan = convexity_scan(GeneratorSpec(Gen.XI, 0.0), 0.1, 10.0, 1025)
        assert scan.convex

    def test_decided_by_the_record_not_the_samples(self):
        # XI(4 + 1e-13)'' carries the factor s x + 4 - s, negative below
        # x = 2.5e-14: a curvature of order -1e-14 that no sample tolerance
        # could tell from 0
        scan = convexity_scan(GeneratorSpec(Gen.XI, 4.0000000000001), 1e-15, 1.0, 1025)
        assert not scan.convex
        assert -1e-13 < scan.min_d2 < 0.0 and scan.argmin_x < 2.5e-14
        assert convexity_scan(GeneratorSpec(Gen.XI, 4.0000000000001), 1e-13, 1.0).convex
        assert convexity_scan(GeneratorSpec(Gen.XI, 5.0), 0.2, 10.0).convex

    def test_rejects_bad_interval(self):
        with pytest.raises(NonPositiveArgument):
            convexity_scan(GeneratorSpec(Gen.PHI, 2.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            convexity_scan(GeneratorSpec(Gen.PHI, 2.0), 2.0, 1.0)
        with pytest.raises(ValueError):
            convexity_scan(GeneratorSpec(Gen.PHI, 2.0), 1.0, 2.0, grid=1)

    @pytest.mark.parametrize("grid", [2.5, 1025.0, True])
    def test_grid_must_be_an_integer(self, grid):
        with pytest.raises(InvalidArgument, match=r"^grid must be an integer >= 2"):
            convexity_scan(GeneratorSpec(Gen.PHI, 2.0), 1.0, 2.0, grid=grid)

    @pytest.mark.parametrize("r,R", [(1.0, np.inf), (np.inf, np.inf), (np.nan, 2.0),
                                     (0.5, np.nan), (-np.inf, 1.0)])
    def test_rejects_non_finite_interval(self, r, R):
        # finiteness is checked before positivity, so a NaN end is named as such
        with pytest.raises(InvalidArgument, match="interval ends must be finite"):
            convexity_scan(GeneratorSpec(Gen.XI, 2.0), r, R)
