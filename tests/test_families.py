import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import SIZES, continuity_violations, mass_lists, scaled_ok
from divbound.bounds import PARAM_GRID
from divbound.errors import InvalidArgument, LengthMismatch
from divbound.families import (
    Family,
    FamilyId,
    ZETA_CONVEX_RANGE,
    family_value,
    in_convex_range,
    omega_s,
    phi_s,
    zeta_s,
)
from divbound.measures import chi_square, hellinger, kl, rel_ag, rel_j, rel_js, triangular
from divbound.simplex import normalize, validate

S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)

KERNELS = {
    "phi": phi_s,
    "omega": omega_s,
    "omega-adj": lambda s, p, q: omega_s(s, p, q, adjoint=True),
    "zeta": zeta_s,
    "zeta-adj": lambda s, p, q: zeta_s(s, p, q, adjoint=True),
}


class TestWorkedExample:
    """Special parameter values on P = (1/2, 1/2), Q = (1/4, 3/4)."""

    def test_phi_special_values(self, fixed_pair):
        P, Q = fixed_pair
        p, q = P.masses, Q.masses
        assert phi_s(2.0, p, q) == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert phi_s(-1.0, p, q) == pytest.approx(0.125, rel=1e-13)
        four_h = 4.0 * (1.0 - (math.sqrt(0.125) + math.sqrt(0.375)))
        assert phi_s(0.5, p, q) == pytest.approx(four_h, rel=1e-12)
        assert phi_s(0.5, p, q) == pytest.approx(0.136297, abs=1e-6)
        assert phi_s(0.0, p, q) == pytest.approx(kl(q, p), rel=1e-14)
        assert phi_s(1.0, p, q) == pytest.approx(kl(p, q), rel=1e-14)

    def test_omega_special_values(self, fixed_pair):
        P, Q = fixed_pair
        p, q = P.masses, Q.masses
        assert omega_s(-1.0, p, q) == pytest.approx(triangular(p, q) / 4.0, rel=1e-13)
        assert omega_s(-1.0, p, q) == pytest.approx(0.033333, abs=1e-6)
        assert omega_s(2.0, p, q) == pytest.approx(0.03125, rel=1e-13)
        assert omega_s(2.0, p, q, adjoint=True) == pytest.approx(1.0 / 24.0, rel=1e-12)
        assert omega_s(2.0, p, q, adjoint=True) == pytest.approx(0.041667, abs=1e-6)

    def test_zeta_special_values(self, fixed_pair):
        P, Q = fixed_pair
        p, q = P.masses, Q.masses
        assert zeta_s(0.0, p, q) == pytest.approx(triangular(p, q), rel=1e-13)
        assert zeta_s(2.0, p, q) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_zero_on_equal(self):
        d = validate([0.3, 0.3, 0.4])
        p = d.masses
        for s in S_GRID:
            assert abs(phi_s(s, p, p)) <= 1e-15
            assert abs(omega_s(s, p, p)) <= 1e-15
            assert abs(zeta_s(s, p, p)) <= 1e-15


# (name, family value, classical expression) exercised across random pairs
PARTICULAR = [
    ("phi@-1", lambda p, q: phi_s(-1.0, p, q), lambda p, q: chi_square(q, p) / 2.0),
    ("phi@0", lambda p, q: phi_s(0.0, p, q), lambda p, q: kl(q, p)),
    ("phi@1/2", lambda p, q: phi_s(0.5, p, q), lambda p, q: 4.0 * hellinger(p, q)),
    ("phi@1", lambda p, q: phi_s(1.0, p, q), lambda p, q: kl(p, q)),
    ("phi@2", lambda p, q: phi_s(2.0, p, q), lambda p, q: chi_square(p, q) / 2.0),
    ("omega@-1", lambda p, q: omega_s(-1.0, p, q), lambda p, q: triangular(p, q) / 4.0),
    ("omega-adj@-1", lambda p, q: omega_s(-1.0, p, q, adjoint=True),
     lambda p, q: triangular(p, q) / 4.0),
    ("omega@0", lambda p, q: omega_s(0.0, p, q), rel_js),
    ("omega@1", lambda p, q: omega_s(1.0, p, q), rel_ag),
    ("omega@2", lambda p, q: omega_s(2.0, p, q), lambda p, q: chi_square(q, p) / 8.0),
    ("omega-adj@0", lambda p, q: omega_s(0.0, p, q, adjoint=True),
     lambda p, q: rel_js(q, p)),
    ("omega-adj@1", lambda p, q: omega_s(1.0, p, q, adjoint=True),
     lambda p, q: rel_ag(q, p)),
    ("omega-adj@2", lambda p, q: omega_s(2.0, p, q, adjoint=True),
     lambda p, q: chi_square(p, q) / 8.0),
    ("zeta@0", lambda p, q: zeta_s(0.0, p, q), triangular),
    ("zeta-adj@0", lambda p, q: zeta_s(0.0, p, q, adjoint=True), triangular),
    ("zeta@1", lambda p, q: zeta_s(1.0, p, q), rel_j),
    ("zeta@2", lambda p, q: zeta_s(2.0, p, q), lambda p, q: chi_square(p, q) / 2.0),
    ("zeta-adj@1", lambda p, q: zeta_s(1.0, p, q, adjoint=True), lambda p, q: rel_j(q, p)),
    ("zeta-adj@2", lambda p, q: zeta_s(2.0, p, q, adjoint=True),
     lambda p, q: chi_square(q, p) / 2.0),
]


class TestParticularCases:
    @pytest.mark.parametrize("name,fam,classical", PARTICULAR, ids=[c[0] for c in PARTICULAR])
    def test_recovers_classical(self, name, fam, classical, pair_matrices):
        for n in SIZES:
            P, Q = pair_matrices[n]
            assert scaled_ok(fam(P, Q), classical(P, Q), 1e-10), (name, n)


class TestStructure:
    def test_swap_duality_all_s(self, pair_matrices):
        """Phi_s(P||Q) = Phi_(1-s)(Q||P) for every sampled real s.

        Only four instances of this are usually quoted; it holds for all s
        because s(s-1) is invariant under s -> 1-s.  Derived property,
        confirmed here across the grid and off-grid values.
        """
        P, Q = pair_matrices[3]
        for s in S_GRID + (0.31, 2.72, -1.3):
            assert scaled_ok(phi_s(s, P, Q), phi_s(1.0 - s, Q, P), 1e-10), s

    def test_omega_adjoint_is_phi_at_midpoint(self, pair_matrices):
        # Omega_s(Q||P) equals Phi_s with the first argument moved to (P+Q)/2
        P, Q = pair_matrices[5]
        mid = (P + Q) / 2.0
        for s in S_GRID:
            assert scaled_ok(
                omega_s(s, P, Q, adjoint=True), phi_s(s, mid, Q), 1e-10
            ), s

    def test_continuity_at_removable_singularities(self, fixed_pair, pair_matrices):
        """Continuous in s through the removable points s = 0, 1 and the form
        choice at s = 1/2, at offsets from 1e-15 to 1e-3 on either side."""
        P, Q = fixed_pair
        for p, q in ((P.masses, Q.masses), pair_matrices[5]):
            for name, kernel in KERNELS.items():
                for s0 in (0.0, 0.5, 1.0):
                    bad = continuity_violations(lambda s: kernel(s, p, q), s0)
                    assert not bad, (name, s0, bad)

    def test_continuity_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(
            mass_lists(st),
            st.sampled_from(list(KERNELS)),
            st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-3.0, 5.0)),
            st.floats(-15.0, -4.0),
            st.sampled_from([1.0, -1.0]),
        )
        def check(pq, name, s0, log_d, sign):
            p, q = normalize(pq[0]).masses, normalize(pq[1]).masses
            d = sign * 10.0**log_d
            assert not continuity_violations(lambda s: KERNELS[name](s, p, q), s0, (d,))

        check()

    def test_nonnegativity(self, pair_matrices):
        zeta_grid = [s for s in S_GRID if ZETA_CONVEX_RANGE[0] <= s <= ZETA_CONVEX_RANGE[1]]
        for n in SIZES:
            P, Q = pair_matrices[n]
            for s in S_GRID:
                assert np.all(np.asarray(phi_s(s, P, Q)) >= -1e-12), ("phi", s)
                assert np.all(np.asarray(omega_s(s, P, Q)) >= -1e-12), ("omega", s)
                assert np.all(
                    np.asarray(omega_s(s, P, Q, adjoint=True)) >= -1e-12
                ), ("omega-adj", s)
            for s in zeta_grid:
                assert np.all(np.asarray(zeta_s(s, P, Q)) >= -1e-12), ("zeta", s)
                assert np.all(
                    np.asarray(zeta_s(s, P, Q, adjoint=True)) >= -1e-12
                ), ("zeta-adj", s)


class TestFamilyValue:
    def test_dispatch(self, fixed_pair):
        P, Q = fixed_pair
        p, q = P.masses, Q.masses
        assert family_value(FamilyId(Family.PHI, 2.0), P, Q) == phi_s(2.0, p, q)
        assert family_value(FamilyId(Family.OMEGA, 0.0), P, Q) == omega_s(0.0, p, q)
        assert family_value(FamilyId(Family.OMEGA, 0.0), P, Q) == pytest.approx(
            rel_js(p, q), rel=1e-14
        )
        assert family_value(FamilyId(Family.OMEGA_ADJOINT, 1.0), P, Q) == omega_s(
            1.0, p, q, adjoint=True
        )
        assert family_value(FamilyId(Family.OMEGA_ADJOINT, 1.0), P, Q) == pytest.approx(
            rel_ag(q, p), rel=1e-14
        )
        assert family_value(FamilyId(Family.ZETA_ADJOINT, 2.0), P, Q) == pytest.approx(
            chi_square(q, p) / 2.0, rel=1e-13
        )

    def test_length_mismatch(self, fixed_pair):
        P, _ = fixed_pair
        with pytest.raises(LengthMismatch):
            family_value(FamilyId(Family.PHI, 2.0), P, validate([0.2, 0.3, 0.5]))

    def test_rejects_non_finite_s(self):
        with pytest.raises(ValueError):
            FamilyId(Family.PHI, float("nan"))

    @pytest.mark.parametrize("s", [True, np.True_, "2", None, 1j])
    def test_rejects_non_real_s(self, s):
        # as GeneratorSpec does: a bool is no parameter, and a string is no
        # bare numpy TypeError
        with pytest.raises(InvalidArgument, match="must be a real number"):
            FamilyId(Family.PHI, s)

    @pytest.mark.parametrize("s", [10**400, -(10**400), Fraction(10**400, 3)],
                             ids=["10**400", "-10**400", "Fraction(10**400, 3)"])
    def test_rejects_s_beyond_the_double_range(self, s):
        with pytest.raises(InvalidArgument, match="must be finite"):
            FamilyId(Family.PHI, s)

    @pytest.mark.parametrize("s", [2, np.int32(2), np.float32(2.5), Fraction(5, 2)])
    def test_s_is_held_as_float(self, s):
        fid = FamilyId(Family.OMEGA, s)
        assert type(fid.s) is float and fid == FamilyId(Family.OMEGA, float(s))

    def test_convexity_flag(self):
        assert in_convex_range(Family.ZETA, 4.0)
        assert in_convex_range(Family.ZETA, 0.0)
        assert not in_convex_range(Family.ZETA_ADJOINT, 9.0)
        assert in_convex_range(Family.PHI, -7.0)

    @pytest.mark.parametrize("family", list(Family))
    def test_dispatch_is_the_direct_kernel_call(self, pair_matrices, family):
        direct = {
            Family.PHI: lambda s, p, q: phi_s(s, p, q),
            Family.OMEGA: lambda s, p, q: omega_s(s, p, q),
            Family.OMEGA_ADJOINT: lambda s, p, q: omega_s(s, p, q, adjoint=True),
            Family.ZETA: lambda s, p, q: zeta_s(s, p, q),
            Family.ZETA_ADJOINT: lambda s, p, q: zeta_s(s, p, q, adjoint=True),
        }[family]
        P, Q = pair_matrices[5]
        for p, q in zip(P[:10], Q[:10]):
            for s in S_GRID + (1e-17, -1e-17, 7.0):
                value = family_value(FamilyId(family, s), validate(p), validate(q))
                assert value == direct(s, p, q), s


def _old_convex_rule(family, s):
    lo, hi = ZETA_CONVEX_RANGE
    return lo <= s <= hi if family in (Family.ZETA, Family.ZETA_ADJOINT) else True


class TestConvexRange:
    """in_convex_range, read off the generators' curvature records, keeps
    the rule 0 <= s <= 4 for the Zeta families and True for the others."""

    EDGES = tuple(
        float(x) for e in (0.0, 4.0)
        for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))
    )

    @pytest.mark.parametrize("family", list(Family))
    def test_grid_and_edges(self, family):
        for s in PARAM_GRID + self.EDGES + (-0.0, 2.0, -1e300, 1e300):
            assert in_convex_range(family, s) == _old_convex_rule(family, s), s

    def test_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(st.sampled_from(list(Family)),
                   st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(self.EDGES))
        def check(family, s):
            assert in_convex_range(family, s) == _old_convex_rule(family, s)

        check()
