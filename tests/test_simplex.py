import json

import numpy as np
import pytest

from divbound.errors import (
    LengthMismatch,
    NonPositiveMass,
    NotNormalized,
    SamplingExhausted,
    TooShort,
)
from divbound.simplex import (
    Distribution,
    load_distribution,
    normalize,
    parse_masses,
    ratio_bounds,
    sample_pair,
    sample_pair_matrix,
    validate,
)


class TestValidate:
    def test_uniform(self):
        d = validate([0.5, 0.5])
        assert d.n == 2
        np.testing.assert_array_equal(d.masses, [0.5, 0.5])

    def test_skewed(self):
        assert validate([0.25, 0.75]).n == 2

    def test_sum_beyond_tolerance(self):
        # sum is 1.0000002, off by 2e-7 > 1e-9
        with pytest.raises(NotNormalized):
            validate([0.5, 0.5000002])

    def test_zero_mass_rejected(self):
        with pytest.raises(NonPositiveMass) as exc:
            validate([0.0, 1.0])
        assert exc.value.index == 0

    def test_negative_mass_rejected(self):
        with pytest.raises(NonPositiveMass) as exc:
            validate([0.3, -0.1, 0.8])
        assert exc.value.index == 1

    def test_too_short(self):
        with pytest.raises(TooShort):
            validate([1.0])

    def test_no_silent_renormalization(self):
        with pytest.raises(NotNormalized):
            validate([0.3, 0.3, 0.39])

    def test_explicit_normalize(self):
        d = normalize([3.0, 1.0])
        np.testing.assert_allclose(d.masses, [0.75, 0.25], rtol=0, atol=1e-15)

    def test_custom_tolerances(self):
        assert validate([0.5, 0.5002], eps_sum=1e-3).n == 2

    def test_idempotent(self):
        d = validate([0.2, 0.3, 0.5])
        d2 = validate(d.masses)
        np.testing.assert_array_equal(d.masses, d2.masses)

    def test_masses_read_only(self):
        d = validate([0.5, 0.5])
        with pytest.raises(ValueError):
            d.masses[0] = 0.9

    @pytest.mark.parametrize("make", [
        lambda: (0.25, 0.75),
        lambda: np.array([0.25, 0.75]),
        lambda: np.array([0.25, 0.75], dtype=np.float32),
        lambda: (x for x in [0.25, 0.75]),
        lambda: {0.25: "a", 0.75: "b"},
    ])
    def test_any_iterable_accepted(self, make):
        np.testing.assert_array_equal(validate(make()).masses, [0.25, 0.75])
        np.testing.assert_array_equal(normalize(make()).masses, [0.25, 0.75])

    @pytest.mark.parametrize("raw", [0.5, np.float64(0.5), np.array(0.5), None])
    def test_non_iterable_rejected(self, raw):
        with pytest.raises(TypeError):
            validate(raw)
        with pytest.raises(TypeError):
            normalize(raw)

    def test_direct_construction_checks(self):
        with pytest.raises(NonPositiveMass):
            Distribution(np.array([1.0, 0.0]))


class TestRatioBounds:
    def test_worked_example(self):
        rb = ratio_bounds(validate([0.5, 0.5]), validate([0.25, 0.75]))
        assert rb.r == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert rb.R == pytest.approx(2.0, abs=1e-15)

    def test_identical_pair(self):
        d = validate([0.3, 0.7])
        rb = ratio_bounds(d, d)
        assert rb.r == rb.R == 1.0

    def test_extreme(self):
        rb = ratio_bounds(validate([0.1, 0.9]), validate([0.9, 0.1]))
        assert rb.r == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert rb.R == pytest.approx(9.0, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ratio_bounds(validate([0.5, 0.5]), validate([0.2, 0.3, 0.5]))

    def test_straddles_one_on_samples(self):
        for i in range(50):
            P, Q = sample_pair(5, seed=1234 + i, concentration=0.5)
            rb = ratio_bounds(P, Q)
            assert rb.r <= 1.0 <= rb.R


class TestSamplePair:
    def test_valid_output(self):
        P, Q = sample_pair(2, seed=0, concentration=1.0)
        validate(P.masses)
        validate(Q.masses)

    def test_deterministic(self):
        a = sample_pair(4, seed=99, concentration=0.7)
        b = sample_pair(4, seed=99, concentration=0.7)
        np.testing.assert_array_equal(a[0].masses, b[0].masses)
        np.testing.assert_array_equal(a[1].masses, b[1].masses)

    def test_seeds_differ(self):
        a = sample_pair(3, seed=1)
        b = sample_pair(3, seed=2)
        assert not np.array_equal(a[0].masses, b[0].masses)

    def test_n_too_small(self):
        with pytest.raises(TooShort):
            sample_pair(1, seed=0)

    def test_bad_concentration(self):
        with pytest.raises(ValueError):
            sample_pair(2, seed=0, concentration=0.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_concentration(self, value):
        with pytest.raises(ValueError, match=f"got {value}"):
            sample_pair(2, seed=0, concentration=value)
        with pytest.raises(ValueError, match=f"got {value}"):
            sample_pair_matrix(2, 3, seed=0, concentration=value)

    def test_rejection_budget(self):
        # with the rejection threshold at 0.9 no 2-simplex draw can pass
        with pytest.raises(SamplingExhausted):
            sample_pair(2, seed=0, eps_mass=0.9, max_rejections=5)

    def test_matrix_rows_match_streams(self):
        P, Q = sample_pair_matrix(3, 4, seed=77)
        assert P.shape == Q.shape == (4, 3)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(Q.sum(axis=1), 1.0, atol=1e-12)
        # row streams are keyed by (seed, i): chunking cannot change content
        P2, Q2 = sample_pair_matrix(3, 2, seed=77)
        np.testing.assert_array_equal(P[:2], P2)
        np.testing.assert_array_equal(Q[:2], Q2)

    def test_matrix_rows_are_unbatched_draws(self):
        # each row is drawn alone and redrawn alone until every mass passes;
        # at concentration 0.05 and n = 10 some draws are redrawn
        alpha = np.full(10, 0.05)
        P, Q = sample_pair_matrix(10, 30, seed=5, concentration=0.05)
        redrawn = 0
        for i in range(30):
            rng = np.random.default_rng([5, i])
            for row in (P[i], Q[i]):
                x = rng.dirichlet(alpha)
                while not np.all(x > 1e-12):
                    redrawn += 1
                    x = rng.dirichlet(alpha)
                np.testing.assert_array_equal(row, x)
        assert redrawn > 0


class TestDistributionFiles:
    def test_json_array(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps([0.5, 0.5]))
        assert load_distribution(f).n == 2

    def test_csv_one_per_line(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("0.25\n0.75\n")
        np.testing.assert_array_equal(load_distribution(f).masses, [0.25, 0.75])

    def test_renormalize_flag(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("2\n6\n")
        d = load_distribution(f, renormalize=True)
        np.testing.assert_allclose(d.masses, [0.25, 0.75], atol=1e-15)

    def test_parse_rejects_non_array_json(self):
        with pytest.raises(ValueError):
            parse_masses('{"a": 1}')

    def test_invalid_content(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0.5\nnot-a-number\n")
        with pytest.raises(ValueError):
            load_distribution(f)
