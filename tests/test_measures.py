import math

import numpy as np
import pytest

from conftest import SIZES, scaled_ok
from divbound.errors import LengthMismatch
from divbound.measures import (
    MeasureId,
    MeasureKind,
    Orientation,
    SYMMETRIC_KINDS,
    ag_mean,
    bhattacharyya,
    chi_square,
    evaluate,
    hellinger,
    identity_residuals,
    jeffreys,
    jensen_shannon,
    kl,
    rel_ag,
    rel_j,
    rel_js,
    sym_chi_square,
    triangular,
)
from divbound.simplex import validate


class TestWorkedExample:
    """P = (1/2, 1/2) vs Q = (1/4, 3/4), expectations by direct summation."""

    def test_chi_square(self, fixed_pair):
        P, Q = fixed_pair
        expect = 0.25**2 / 0.25 + 0.25**2 / 0.75
        assert evaluate(MeasureId(MeasureKind.CHI_SQUARE), P, Q) == pytest.approx(
            expect, rel=1e-14
        )
        assert expect == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_kl(self, fixed_pair):
        P, Q = fixed_pair
        expect = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        val = evaluate(MeasureId(MeasureKind.KL), P, Q)
        assert val == pytest.approx(expect, rel=1e-14)
        assert val == pytest.approx(0.143841, abs=1e-6)

    def test_triangular(self, fixed_pair):
        P, Q = fixed_pair
        expect = 0.25**2 / 0.75 + 0.25**2 / 1.25
        val = evaluate(MeasureId(MeasureKind.TRIANGULAR), P, Q)
        assert val == pytest.approx(expect, rel=1e-14)
        assert val == pytest.approx(0.133333, abs=1e-6)

    def test_hellinger(self, fixed_pair):
        P, Q = fixed_pair
        expect = 1.0 - (math.sqrt(0.5 * 0.25) + math.sqrt(0.5 * 0.75))
        val = evaluate(MeasureId(MeasureKind.HELLINGER), P, Q)
        assert val == pytest.approx(expect, rel=1e-12)
        assert val == pytest.approx(0.034074, abs=1e-6)

    def test_bhattacharyya_range(self, fixed_pair):
        P, Q = fixed_pair
        b = evaluate(MeasureId(MeasureKind.BHATTACHARYYA), P, Q)
        assert 0.0 < b <= 1.0
        assert b == pytest.approx(1.0 - hellinger(P.masses, Q.masses), abs=1e-15)

    def test_kl_vanishes_on_equal(self):
        d = validate([0.2, 0.3, 0.5])
        assert evaluate(MeasureId(MeasureKind.KL), d, d) == pytest.approx(0.0, abs=1e-16)

    def test_orientation_swaps_arguments(self, fixed_pair):
        P, Q = fixed_pair
        assert evaluate(
            MeasureId(MeasureKind.CHI_SQUARE, Orientation.QP), P, Q
        ) == evaluate(MeasureId(MeasureKind.CHI_SQUARE), Q, P)

    def test_length_mismatch(self, fixed_pair):
        P, _ = fixed_pair
        with pytest.raises(LengthMismatch):
            evaluate(MeasureId(MeasureKind.KL), P, validate([0.2, 0.3, 0.5]))


class TestIdentities:
    def test_residuals_on_worked_example(self, fixed_pair):
        P, Q = fixed_pair
        res = identity_residuals(P, Q)
        assert set(res) == {
            "j_from_kl", "j_from_rel_j", "j_from_js_ag", "rel_j_from_f_g",
            "psi_from_chi2", "hellinger_forms",
        }
        for name, value in res.items():
            assert value <= 1e-12, name

    @pytest.mark.parametrize("n", SIZES)
    def test_residuals_match_direct_kernel_calls(self, pair_matrices, n):
        """Each residual is |lhs - rhs| of the kernels called directly, bit
        for bit."""
        for p, q in zip(*(m[:20] for m in pair_matrices[n])):
            jv = jeffreys(p, q)
            direct = {
                "j_from_kl": abs(jv - (kl(p, q) + kl(q, p))),
                "j_from_rel_j": abs(jv - (rel_j(p, q) + rel_j(q, p))),
                "j_from_js_ag": abs(jv - 4.0 * (jensen_shannon(p, q) + ag_mean(p, q))),
                "rel_j_from_f_g": abs(rel_j(q, p) - 2.0 * (rel_js(p, q) + rel_ag(p, q))),
                "psi_from_chi2": abs(sym_chi_square(p, q) - (chi_square(p, q) + chi_square(q, p))),
                "hellinger_forms": abs(hellinger(p, q) - (1.0 - bhattacharyya(p, q))),
            }
            assert identity_residuals(validate(p), validate(q)) == direct

    def test_residuals_vanish_on_equal(self):
        d = validate([0.1, 0.2, 0.3, 0.4])
        assert all(v == 0.0 for v in identity_residuals(d, d).values())

    def test_residuals_on_random_pairs(self, pair_matrices):
        for n, (P, Q) in pair_matrices.items():
            jv = jeffreys(P, Q)
            assert scaled_ok(jv, kl(P, Q) + kl(Q, P), 1e-10)
            assert scaled_ok(jv, rel_j(P, Q) + rel_j(Q, P), 1e-10)
            assert scaled_ok(
                sym_chi_square(P, Q), chi_square(P, Q) + chi_square(Q, P), 1e-12
            )
            assert scaled_ok(hellinger(P, Q), 1.0 - bhattacharyya(P, Q), 1e-12)
            # the relative-J decomposition constant is 2, not 1/2
            assert scaled_ok(rel_j(Q, P), 2.0 * (rel_js(P, Q) + rel_ag(P, Q)), 1e-10)
            bad = np.abs(rel_j(Q, P) - 0.5 * (rel_js(P, Q) + rel_ag(P, Q)))
            assert np.median(bad) > 1e-3, "the 1/2 constant should fail clearly"

    def test_symmetric_kinds(self, pair_matrices):
        P, Q = pair_matrices[5]
        for kind in sorted(SYMMETRIC_KINDS, key=lambda k: k.value):
            a = [evaluate(MeasureId(kind), validate(p), validate(q)) for p, q in zip(P[:40], Q[:40])]
            b = [evaluate(MeasureId(kind), validate(q), validate(p)) for p, q in zip(P[:40], Q[:40])]
            assert scaled_ok(a, b, 1e-12), kind

    def test_nonnegativity(self, pair_matrices):
        divergences = [
            chi_square, kl, rel_js, rel_ag, rel_j,
            sym_chi_square, jeffreys, triangular, hellinger,
        ]
        for n in SIZES:
            P, Q = pair_matrices[n]
            for fn in divergences:
                assert np.all(np.asarray(fn(P, Q)) >= -1e-12), fn.__name__


class TestMeasureId:
    def test_parse_default_orientation(self):
        mid = MeasureId.parse("kl")
        assert mid.kind is MeasureKind.KL and mid.orientation is Orientation.PQ

    def test_parse_qp(self):
        mid = MeasureId.parse("chi2:qp")
        assert mid.orientation is Orientation.QP
        assert str(mid) == "chi2:qp"

    def test_parse_unknown(self):
        with pytest.raises(KeyError):
            MeasureId.parse("wat")
