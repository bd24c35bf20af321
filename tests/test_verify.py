import numpy as np
import pytest

from divbound.bounds import InequalityFamily, family_generators, numeric_mM, region_grid
from divbound.errors import ConfigInvalid, RegionViolation
from divbound.generators import Gen, GeneratorSpec
from divbound.measures import triangular
from divbound.verify import (
    CheckResult,
    VerificationReport,
    VerifyConfig,
    Witness,
    _BlockTable,
    _build_checks,
    _Check,
    _sample_trials,
    _shrink_witness,
    _Tally,
    brute_force_mM,
    run,
    sandwich_slack_bulk,
    tightness_scan,
)

F = InequalityFamily
PSI2 = GeneratorSpec(Gen.PSI, 2.0)
PHI2 = GeneratorSpec(Gen.PHI, 2.0)


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigInvalid):
            VerifyConfig(trials=0)

    def test_rejects_excessive_trials(self):
        with pytest.raises(ConfigInvalid):
            VerifyConfig(trials=10_000_001)

    def test_rejects_bad_rel_tol(self):
        with pytest.raises(ConfigInvalid):
            VerifyConfig(trials=10, rel_tol=1.0)

    def test_rejects_bad_n_range(self):
        with pytest.raises(ConfigInvalid):
            VerifyConfig(trials=10, n_range=(1, 5))
        with pytest.raises(ConfigInvalid):
            VerifyConfig(trials=10, n_range=(5, 3))

    def test_rejects_unknown_subject(self):
        with pytest.raises(ConfigInvalid):
            VerifyConfig(trials=10, subjects=("wat",))


class TestRun:
    def test_all_pass_and_deterministic(self):
        cfg = VerifyConfig(trials=120, seed=42, subjects=("identities", "families"))
        a = run(cfg)
        b = run(cfg)
        assert a.to_json() == b.to_json()
        assert a.all_passed
        for res in a.checks.values():
            assert res.attempts == 120
            assert res.witness is None

    def test_corollaries_subject(self):
        rep = run(VerifyConfig(trials=60, seed=7, subjects=("corollaries",)))
        assert len(rep.checks) == 33
        assert rep.all_passed
        worst = min(r.worst_slack for r in rep.checks.values())
        assert worst >= -1e-10

    def test_seed_changes_report(self):
        a = run(VerifyConfig(trials=40, seed=1, subjects=("identities",)))
        b = run(VerifyConfig(trials=40, seed=2, subjects=("identities",)))
        assert a.to_json() != b.to_json()

    def test_timing_excluded_from_canonical_json(self):
        rep = run(VerifyConfig(trials=5, seed=0, subjects=("identities",)))
        assert "wall_time" not in rep.to_json()
        assert "wall_time" in rep.to_json(include_timing=True)


def _unshared_report(config: VerifyConfig) -> str:
    """The report built check by check: every sandwich check calls
    sandwich_slack_bulk on each block alone, and the worst trial is the
    full-array argmax/argmin over all trials."""
    blocks = _sample_trials(config)
    checks = {}
    for check in _build_checks(config.subjects):
        values = np.empty(config.trials)
        for idx, P, Q in blocks:
            if check.family is not None:
                values[idx] = sandwich_slack_bulk(check.family, check.s, check.t, P, Q)
            else:
                values[idx] = check.fn(P, Q)
        if check.kind == "residual":
            passes = int(np.count_nonzero(values <= config.rel_tol))
            worst = int(np.argmax(values))
        else:
            passes = int(np.count_nonzero(values >= -config.rel_tol))
            worst = int(np.argmin(values))
        witness = None
        if passes < config.trials:
            for idx, P, Q in blocks:
                j = np.flatnonzero(idx == worst)
                if j.size:
                    witness = _shrink_witness(check, P[j[0]], Q[j[0]], config.rel_tol)
        checks[check.id] = CheckResult(
            check.kind, config.trials, passes, float(values[worst]), witness
        )
    return VerificationReport(config, checks, 0.0).to_json()


class TestSharedBlockTable:
    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-300])
    def test_report_matches_unshared_path(self, rel_tol):
        cfg = VerifyConfig(trials=40, seed=4, n_range=(2, 6), rel_tol=rel_tol,
                           subjects=("all", "bounds-grid"))
        report = run(cfg)
        witnesses = [k for k, c in report.checks.items() if c.witness is not None]
        if rel_tol == 1e-300:
            # sandwich checks at tight corners fail by rounding and get witnesses
            assert any(k.startswith("bounds-grid/") for k in witnesses)
        else:
            assert not witnesses
        assert report.to_json() == _unshared_report(cfg)


def _tally_blocks(kind, values, n_blocks, rng):
    """Reduce ``values`` through a _Tally over a random interleaved split
    of the trials into blocks (each block's indices increasing)."""
    label = rng.integers(n_blocks, size=values.size)
    tally = _Tally(kind, 1e-10)
    blocks = [np.flatnonzero(label == b) for b in range(n_blocks)]
    blocks = [idx for idx in blocks if idx.size]
    rng.shuffle(blocks)
    for b, idx in enumerate(blocks):
        tally.add(b, idx, values[idx])
    return tally, blocks


class TestTally:
    @pytest.mark.parametrize("kind", ["residual", "slack"])
    def test_matches_full_array_reduction(self, kind):
        rng = np.random.default_rng(99)
        pool = np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 1e-12, 1.0, np.inf])
        for _ in range(400):
            values = rng.choice(pool[rng.permutation(pool.size)[: rng.integers(1, 6)]],
                                size=int(rng.integers(1, 30)))
            tally, blocks = _tally_blocks(kind, values, int(rng.integers(1, 6)), rng)
            full = np.argmax(values) if kind == "residual" else np.argmin(values)
            ok = values <= 1e-10 if kind == "residual" else values >= -1e-10
            assert tally.trial == full
            assert tally.passes == np.count_nonzero(ok)
            assert repr(tally.worst) == repr(float(values[full]))  # NaN and the sign of 0
            b, j = tally.row
            assert blocks[b][j] == full

    @pytest.mark.parametrize("kind", ["residual", "slack"])
    def test_ties_and_nan_go_to_the_first_trial(self, kind):
        tally = _Tally(kind, 1e-10)
        worse = 5.0 if kind == "residual" else -5.0
        tally.add(0, np.array([3, 7]), np.array([worse, worse]))
        tally.add(1, np.array([1, 9]), np.array([0.0, worse]))
        assert (tally.trial, tally.worst, tally.row) == (3, worse, (0, 0))
        tally.add(2, np.array([2]), np.array([worse]))
        assert (tally.trial, tally.row) == (2, (2, 0))
        tally.add(3, np.array([8, 11]), np.array([np.nan, np.nan]))
        tally.add(4, np.array([4]), np.array([worse * 10]))
        assert tally.trial == 8 and np.isnan(tally.worst) and tally.row == (3, 0)
        tally.add(5, np.array([0, 6]), np.array([worse, np.nan]))
        assert tally.trial == 6 and tally.row == (5, 1)
        tally.add(6, np.array([5]), np.array([np.nan]))
        assert tally.trial == 5 and tally.row == (6, 0)
        assert tally.passes == 1


class TestWitnessShrinking:
    def test_shrinks_toward_uniform_keeping_failure(self):
        # a check that always fails on non-uniform pairs: slack = -Delta(P,Q)
        check = _Check(
            "synthetic", "slack",
            lambda P, Q: -np.atleast_1d(triangular(P, Q)), s=1.0, t=2.0,
        )
        p = np.array([0.8, 0.1, 0.1])
        q = np.array([0.1, 0.1, 0.8])
        w = _shrink_witness(check, p, q, rel_tol=1e-10)
        assert isinstance(w, Witness)
        assert w.s == 1.0 and w.t == 2.0
        # still failing, but much closer to uniform than the input
        shrunk = np.array(w.p)
        assert triangular(shrunk, np.array(w.q)) > 1e-10
        assert np.max(np.abs(shrunk - 1.0 / 3.0)) < 0.01

    def test_run_records_witness_on_failure(self):
        # impossible tolerance forces failures through the public path
        cfg = VerifyConfig(trials=10, seed=3, subjects=("identities",), rel_tol=1e-300)
        rep = run(cfg)
        assert not rep.all_passed
        failing = [r for r in rep.checks.values() if r.passes < r.attempts]
        assert failing and any(r.witness is not None for r in failing)


class TestBruteForce:
    def test_monotone_worked_example(self):
        m, M = brute_force_mM(PSI2, PHI2, 2.0 / 3.0, 2.0, 1_000_000)
        assert m == pytest.approx(1.0 / 32.0, abs=1e-8)
        assert M == pytest.approx(27.0 / 32.0, abs=1e-8)

    def test_degenerate_interval(self):
        m, M = brute_force_mM(PSI2, PHI2, 2.0, 2.0, 1000)
        assert m == M == pytest.approx(1.0 / 32.0, rel=1e-12)

    def test_sign_changing_numerator_falls_back(self):
        m, M = brute_force_mM(GeneratorSpec(Gen.XI, 5.0), PHI2, 0.1, 10.0, 100_000)
        assert m < 0.0 < M

    def test_needs_two_points(self):
        with pytest.raises(ConfigInvalid):
            brute_force_mM(PSI2, PHI2, 0.5, 2.0, 1)

    def test_agrees_with_refined_scanner(self):
        rng = np.random.default_rng(2024)
        for family in (F.I, F.IV, F.VII, F.X):
            pts = region_grid(family)
            for s, t in (pts[0], pts[len(pts) // 2], pts[-1]):
                num, den = family_generators(family, s, t)
                for _ in range(3):
                    a, b = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(20.0), 2)))
                    nm, nM = numeric_mM(num, den, float(a), float(b))
                    bm, bM = brute_force_mM(num, den, float(a), float(b), 100_000)
                    assert nm == pytest.approx(bm, rel=1e-6, abs=1e-9)
                    assert nM == pytest.approx(bM, rel=1e-6, abs=1e-9)

    def test_grid_refinement_bounded_by_resolution(self):
        # denser grids may move either way within the coarse grid's
        # quadratic resolution error, but never beyond it
        num, den = family_generators(F.I, 0.0, 0.0)  # interior maximum
        m1, M1 = brute_force_mM(num, den, 0.3, 3.0, 1_000)
        m2, M2 = brute_force_mM(num, den, 0.3, 3.0, 100_000)
        assert m2 <= m1 + 1e-6
        assert M2 >= M1 - 1e-6
        assert abs(M2 - M1) <= 1e-5 and abs(m2 - m1) <= 1e-5


class TestBulkSandwich:
    def test_matches_per_pair_check(self):
        from divbound.bounds import sandwich_check
        from divbound.simplex import sample_pair

        rows = [sample_pair(4, seed=650 + i) for i in range(8)]
        P = np.vstack([r[0].masses for r in rows])
        Q = np.vstack([r[1].masses for r in rows])
        slacks = sandwich_slack_bulk(F.II, 2.0, 1.0, P, Q)
        for i, (Pd, Qd) in enumerate(rows):
            rep = sandwich_check(F.II, 2.0, 1.0, Pd, Qd)
            direct = min(rep.slack_low, rep.slack_high) / max(1.0, abs(rep.mid))
            assert slacks[i] == pytest.approx(direct, rel=1e-9, abs=1e-15)


class TestBlockDirection:
    # P / Q ratios span the pooled envelope [0.4, 2.0]
    P = np.array([[0.2, 0.8], [0.6, 0.4]])
    Q = np.array([[0.5, 0.5], [0.3, 0.7]])

    @pytest.mark.parametrize("family,s,t,expected", [
        (F.II, 2.0, 1.0, 1),    # x/4
        (F.I, 2.0, 2.0, -1),    # 1/(4x^3)
        (F.III, 2.0, 2.0, 1),   # exactly 1: flat counts as increasing
        (F.I, 0.0, 0.0, 0),     # x/(x+1)^2 peaks at x = 1
    ])
    def test_proof_follows_the_ratio(self, family, s, t, expected):
        table = _BlockTable(self.P, self.Q)
        assert (table.lo, table.hi) == (0.4, 2.0)
        assert table.direction(*family_generators(family, s, t)) == expected

    def test_unproven_block_encloses_each_row(self):
        from divbound.bounds import sandwich_check
        from divbound.simplex import validate

        slacks = sandwich_slack_bulk(F.I, 0.0, 0.0, self.P, self.Q)
        for i in range(2):
            rep = sandwich_check(F.I, 0.0, 0.0, validate(self.P[i]), validate(self.Q[i]))
            direct = min(rep.slack_low, rep.slack_high) / max(1.0, abs(rep.mid))
            assert slacks[i] == pytest.approx(direct, rel=1e-9, abs=1e-15)
            assert slacks[i] >= 0.0


class TestTightness:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigInvalid):
            tightness_scan(F.II, 2.0, 1.0, trials=0, seed=1)

    def test_rejects_out_of_region(self):
        with pytest.raises(RegionViolation):
            tightness_scan(F.I, 0.0, 0.0, trials=5, seed=1)

    def test_slacks_nonnegative_and_approach_zero(self):
        rep = tightness_scan(F.II, 2.0, 1.0, trials=40, seed=11, shrink_levels=10)
        assert rep.pairs_evaluated > 0
        assert rep.min_slack_low >= -1e-10
        assert rep.min_slack_high >= -1e-10
        # contracting toward the uniform pair drives both slacks to zero
        assert rep.min_slack_low < 1e-3
        assert rep.min_slack_high < 1e-3
