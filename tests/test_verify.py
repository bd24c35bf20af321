import hashlib
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from conftest import mp_curvature_ratio
from divbound import _accum, bounds, families, generators, measures, simplex, verify
from divbound.bounds import (
    PARAM_GRID,
    InequalityFamily,
    _coefficients,
    _Pair,
    _Ratio,
    active_branch,
    closed_form_mM,
    corollary_table,
    family_generators,
    in_region,
    numeric_mM,
    region_grid,
)
from divbound.errors import (
    ConfigInvalid,
    DivboundError,
    InvalidArgument,
    RegionViolation,
    SamplingExhausted,
    TooShort,
)
from divbound.families import omega_s, phi_s, zeta_s
from divbound.generators import D2_FORMS, Gen, GeneratorSpec, csiszar_bulk, log_d2
from divbound.measures import triangular
from divbound.simplex import normalize, sample_pair_matrix
from divbound.verify import (
    CheckResult,
    VerificationReport,
    VerifyConfig,
    Witness,
    _build_checks,
    _Check,
    _Sandwiches,
    _sample_trials,
    _shrink_witness,
    _Tally,
    _Values,
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

    @pytest.mark.parametrize("field,value", [
        ("trials", "5"), ("seed", "1"), ("n_range", ("2", 4)), ("n_range", (2,)),
        ("concentration", "1"), ("rel_tol", "1e-3"), ("subjects", None),
        ("subjects", "identities"), ("subjects", ()),
    ])
    def test_wrong_types_are_checked_before_ranges(self, field, value):
        # a value of the wrong type is refused naming its field, not by a
        # TypeError or ValueError of the range check; a string of subjects
        # is not split into letters
        got = re.escape(repr(value))
        with pytest.raises(ConfigInvalid, match=f"^{field} must be .*, got {got}$"):
            VerifyConfig(**{"trials": 10, field: value})

    @pytest.mark.parametrize("field,value", [
        ("trials", 5.5), ("trials", True), ("seed", 1.5), ("seed", -1),
        ("seed", np.float64(2.0)), ("n_range", (2.5, 4)), ("n_range", (2, 4.0)),
    ])
    def test_integer_fields_are_checked(self, field, value):
        # refused up front, naming the field and the value, and not by numpy
        # inside run
        got = re.escape(repr(value))
        with pytest.raises(ConfigInvalid, match=f"^{field} must be .*, got {got}$"):
            VerifyConfig(**{"trials": 10, field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_concentration(self, value):
        with pytest.raises(ConfigInvalid, match=f"got {value}"):
            VerifyConfig(trials=10, concentration=value)


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

    @pytest.mark.parametrize("field,value", [
        ("trials", np.int32(5)), ("trials", np.int64(5)),
        ("seed", np.int32(3)), ("seed", np.int64(3)),
        ("n_range", (np.int32(2), np.int64(4))), ("n_range", (np.int64(3), np.int32(3))),
        ("concentration", np.float32(0.5)), ("concentration", np.float64(0.5)),
        ("rel_tol", np.float32(2.0 ** -40)), ("rel_tol", np.float64(1e-300)),
    ])
    def test_numpy_scalar_fields_serialize(self, field, value):
        # the report, witnesses included (rel_tol 1e-300 fails some checks),
        # serializes as that of the same values passed as Python numbers
        python = tuple(v.item() for v in value) if field == "n_range" else value.item()
        base = {"trials": 5, "seed": 3, "subjects": ("identities", "corollaries")}
        got = run(VerifyConfig(**{**base, field: value})).to_json()
        assert got == run(VerifyConfig(**{**base, field: python})).to_json()

    def test_timing_excluded_from_canonical_json(self):
        rep = run(VerifyConfig(trials=5, seed=0, subjects=("identities",)))
        assert "wall_time" not in rep.to_json()
        assert "wall_time" in rep.to_json(include_timing=True)


def _unshared_report(config: VerifyConfig) -> str:
    """The report built check by check: every check runs on each block
    alone, on a value table of its own (a sandwich check's ``fn`` is
    sandwich_slack_bulk, which proves the ratio on the block's own
    envelope), and the worst trial is the full-array argmax/argmin over all
    trials."""
    blocks = _sample_trials(config)
    checks = {}
    for check in _build_checks(config.subjects):
        values = np.empty(config.trials)
        for idx, P, Q in blocks:
            values[idx] = check.fn(_Values(P, Q))
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
        failed = [k for k, c in report.checks.items() if c.passes < c.attempts]
        assert witnesses == failed
        # at rel_tol 1e-300 checks fail by rounding and get witnesses
        assert bool(witnesses) == (rel_tol == 1e-300)
        assert report.to_json() == _unshared_report(cfg)

    def test_all_subjects_match_unshared_path(self):
        cfg = VerifyConfig(trials=300, seed=2026, subjects=("all", "bounds-grid"))
        assert run(cfg).to_json() == _unshared_report(cfg)

    def test_row_fallback_matches_unshared_path(self, monkeypatch, cold_memo):
        # one corner's ratio closes nowhere, so its rows take their own
        # enclosures, each one scalar ratio's extrema
        cfg = VerifyConfig(trials=300, seed=2026, subjects=("all", "bounds-grid"))
        never = family_generators(F.II, 2.0, 1.0)
        fallback = []

        class Never(_Ratio):
            def direction(self):
                return 0 if (self.num, self.den) == never else super().direction()

            def extrema(self):
                fallback.append((self.num, self.den))
                return super().extrema()

        # the plan's verdicts come from the records' bounds._Ratio, so it has
        # none here
        _fresh_plans(monkeypatch)
        monkeypatch.setattr(verify, "_Ratio", Never)
        monkeypatch.setattr(bounds, "_Ratio", Never)
        report = run(cfg).to_json()
        assert len(fallback) == 2 * cfg.trials  # a bounds-grid check and a corollary
        assert report == _unshared_report(cfg)

    def test_one_verdict_per_distinct_ratio(self, monkeypatch, cold_memo):
        cfg = VerifyConfig(trials=1000, seed=5, subjects=("all", "bounds-grid"))
        decided = []

        class Recorded(_Ratio):
            def __init__(self, pair, lo, hi):
                decided.append((pair.num, pair.den, lo, hi))
                super().__init__(pair, lo, hi)

        # the verdicts are the records' (bounds._Ratio on the span)
        _fresh_plans(monkeypatch)
        monkeypatch.setattr(bounds, "_Ratio", Recorded)
        verify._plan(cfg.subjects)
        ratios = {(c.pair.num, c.pair.den) for c in _build_checks(cfg.subjects) if c.pair}
        assert len(decided) == len(set(decided)) == len(ratios) == 616
        # each on the widest envelope the verdicts are read on
        assert {(lo, hi) for *_, lo, hi in decided} == {(1e-30, 1e30)}
        # every ratio has a verdict, so the runs of seeds 1-40 build no
        # scalar ratio
        monkeypatch.setattr(_Ratio, "__init__", lambda *a: pytest.fail("scalar ratio"))
        for seed in range(1, 41):
            report = run(VerifyConfig(trials=1000, seed=seed, subjects=cfg.subjects))
            assert report.all_passed and len(report.checks) == 686
        assert len(decided) == 616

    def test_one_sum_per_block_and_generator_kind(self, monkeypatch):
        # 9 size blocks: per block, one sum over the terms of every entry of
        # the shared table (22 measures, 5 family s-sweeps and the other
        # sides of the duality and midpoint checks) and one per generator
        # kind of the sandwich table (one sum per s and per spec: 1737; one
        # per entry: 306)
        cfg = VerifyConfig(trials=1000, seed=5, subjects=("all", "bounds-grid"))
        verify._plan(cfg.subjects)  # built on first use, before the count
        calls, total = [], _accum.comp_sum
        for module in (_accum, generators, measures):
            monkeypatch.setattr(module, "comp_sum", lambda *a: calls.append(1) or total(*a))
        run(cfg)
        assert len(calls) == 9 * (1 + 5)

    def test_one_stream_per_size_block(self, monkeypatch):
        cfg = VerifyConfig(trials=1000, seed=5, n_range=(2, 40))
        streams = []
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: streams.append(a) or make(*a))
        blocks = _sample_trials(cfg)
        assert len(blocks) == 39
        assert len(streams) <= 1 + len(blocks)


class _Recording(_Values):
    """A value table that records every key read from it."""

    def __init__(self, P, Q):
        super().__init__(P, Q)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


PLAIN_CHECKS = [c for c in _build_checks(("identities", "families")) if c.pair is None]


class TestValueTable:
    """The checks that share a block's _Values compare independent
    computations, and every entry is the direct kernel call's value."""

    P, Q = sample_pair_matrix(5, 3, seed=61)

    def test_no_check_reads_an_entry_on_both_sides(self):
        keys = set()
        for check in PLAIN_CHECKS:
            table = _Recording(self.P, self.Q)
            check.fn(table)
            keys |= set(table.reads)
            if check.kind == "residual":
                assert table.reads, check.id
                assert len(table.reads) == len(set(table.reads)), (check.id, table.reads)
        # 12 measures, 10 of them in both orientations, 5 family sweeps and
        # the other sides of the duality and midpoint checks
        assert len(keys) == 29

    @pytest.mark.parametrize("n", range(2, 11))
    def test_entries_match_direct_calls(self, n):
        P, Q = sample_pair_matrix(n, 4, seed=900 + n, concentration=0.3 + 0.2 * n)
        _entries_match_direct_calls(P, Q)

    def test_entries_match_direct_calls_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # up to 3 rows of n masses for P and n for Q, each mass in [0.01, 1]
        rows = st.integers(2, 10).flatmap(lambda n: st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=2 * n, max_size=2 * n),
            min_size=1, max_size=3,
        ))

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(rows)
        def check(rows):
            n = len(rows[0]) // 2
            P = np.vstack([normalize(row[:n]).masses for row in rows])
            Q = np.vstack([normalize(row[n:]).masses for row in rows])
            _entries_match_direct_calls(P, Q)

        check()


def _entries_match_direct_calls(P, Q):
    """Every entry the checks read from a block's table equals, bit for bit,
    the public measure or family call on each row alone (each s alone),
    whether it is summed on its first read or with all the others in the
    block's one stacked sum."""
    table = _Values(P, Q)
    for check in PLAIN_CHECKS:
        check.fn(table)
    assert len(table) == 29
    _, _, keys, _ = verify._plan(("identities", "families"))
    stacked = _Values(P, Q, keys)
    assert sorted(stacked) == sorted(table)
    for key, value in table.items():
        if key in verify._SWEEPS:
            family, grid, pair = verify._SWEEPS[key]
            rows = [tuple(map(simplex.validate, pair(p, q))) for p, q in zip(P, Q)]
            fids = [families.FamilyId(family, s) for s in grid]
            direct = [[families.family_value(fid, *pq) for pq in rows] for fid in fids]
        else:
            mid = measures.MeasureId.parse(key)
            direct = [measures.evaluate(mid, simplex.validate(p), simplex.validate(q))
                      for p, q in zip(P, Q)]
        assert np.array_equal(value, np.array(direct)), key
        assert np.array_equal(stacked[key], value), key


# the harness grid, its swap-dual grid, both sides of the form choice at
# s = 1/2, and the removable points s = 0, 1 with their nearest neighbours
STACK_S = tuple(PARAM_GRID) + tuple(1.0 - s for s in PARAM_GRID) + (
    0.5, float(np.nextafter(0.5, 0.0)), float(np.nextafter(0.5, 1.0)),
    0.0, 1.0, 1e-17, -1e-17,
)

KERNELS = {
    "phi": phi_s,
    "omega": omega_s,
    "omega-adj": lambda s, p, q: omega_s(s, p, q, adjoint=True),
    "zeta": zeta_s,
    "zeta-adj": lambda s, p, q: zeta_s(s, p, q, adjoint=True),
}


def _stacked_kernels_match(s, P, Q):
    for name, kernel in KERNELS.items():
        stacked = kernel(np.array(s), P, Q)
        alone = np.array([kernel(x, P, Q) for x in s])
        assert np.array_equal(stacked, alone, equal_nan=True), name


def _block_table(specs, P, Q):
    """The spec table, curvature bounds and f-divergences of one block for
    the ratios of ``specs`` over PHI(2), whose curvature is 1."""
    sandwiches = _Sandwiches([_Pair(spec, PHI2) for spec in specs])
    _, _, bounds, div = sandwiches.table(P, Q)
    return sandwiches.specs, bounds, div


def _block_table_matches(specs, P, Q):
    table, bounds, div = _block_table(specs, P, Q)
    for spec in specs:
        i = table.index(spec)
        one, alone, _ = _block_table([spec], P, Q)
        assert np.array_equal(div[i], csiszar_bulk(spec, P, Q), equal_nan=True), spec
        assert np.array_equal(bounds[i], alone[one.index(spec)], equal_nan=True), spec


class TestStackedS:
    """A stacked s (one kernel call or one table row per generator kind)
    gives every value bit-for-bit as the same s alone."""

    @pytest.mark.parametrize("n,concentration", [(2, 1.0), (5, 0.3), (10, 1.0)])
    def test_kernels_match_one_call_per_s(self, n, concentration):
        P, Q = sample_pair_matrix(n, 40, seed=700 + n, concentration=concentration)
        order = np.random.default_rng(n).permutation(len(STACK_S))
        for s in (STACK_S, [STACK_S[k] for k in order]):
            _stacked_kernels_match(s, P, Q)
            _stacked_kernels_match(s, P[0], Q[0])

    @pytest.mark.parametrize("n,concentration", [(2, 1.0), (5, 0.3), (10, 1.0)])
    def test_block_table_matches_each_spec(self, n, concentration):
        P, Q = sample_pair_matrix(n, 40, seed=800 + n, concentration=concentration)
        specs = [GeneratorSpec(g, s) for s in STACK_S for g in Gen]
        order = np.random.default_rng(n).permutation(len(specs))
        _block_table_matches([specs[k] for k in order], P, Q)

    def test_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        s_value = st.one_of(st.sampled_from(STACK_S), st.floats(-20.0, 20.0))

        # up to 4 rows of n masses for P and n for Q, each mass in [0.01, 1]
        rows = st.integers(2, 8).flatmap(lambda n: st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=2 * n, max_size=2 * n),
            min_size=1, max_size=4,
        ))

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(
            rows,
            st.lists(st.tuples(st.sampled_from(list(Gen)), s_value), min_size=1, max_size=12),
        )
        def check(rows, specs):
            n = len(rows[0]) // 2
            P = np.vstack([normalize(row[:n]).masses for row in rows])
            Q = np.vstack([normalize(row[n:]).masses for row in rows])
            _stacked_kernels_match([s for _, s in specs], P, Q)
            _block_table_matches([GeneratorSpec(g, s) for g, s in specs], P, Q)

        check()


def _rows_reference(seed, n, count, concentration):
    """``count`` rows of the size-``n`` stream: one batched draw, then the
    rejected rows redrawn together until none is left."""
    rng = np.random.default_rng([seed, n])
    x = rng.dirichlet(np.full(n, concentration), size=count)
    redrawn = 0
    while True:
        bad = np.flatnonzero(~np.all(x > simplex.EPS_MASS, axis=1))
        if not bad.size:
            return x, redrawn
        redrawn += bad.size
        x[bad] = rng.dirichlet(np.full(n, concentration), size=bad.size)


class TestSampler:
    @pytest.mark.parametrize("n_range,concentration", [((2, 7), 0.2), ((10, 10), 0.05)])
    def test_blocks_follow_the_documented_streams(self, n_range, concentration):
        cfg = VerifyConfig(trials=200, seed=31, n_range=n_range, concentration=concentration)
        sizes = np.random.default_rng([31]).integers(n_range[0], n_range[1] + 1, size=200)
        blocks = _sample_trials(cfg)
        assert [P.shape[1] for _, P, _ in blocks] == sorted(set(sizes.tolist()))
        redrawn = 0
        for idx, P, Q in blocks:
            n = P.shape[1]
            assert np.array_equal(idx, np.flatnonzero(sizes == n))
            rows, count = _rows_reference(31, n, 2 * idx.size, concentration)
            redrawn += count
            assert np.array_equal(P, rows[: idx.size]) and np.array_equal(Q, rows[idx.size:])
            assert np.all(P > simplex.EPS_MASS) and np.all(Q > simplex.EPS_MASS)
        # at these low concentrations some first draws are rejected, so the
        # redraw path runs
        assert redrawn > 0

    def test_exhausted_when_no_draw_can_pass(self, monkeypatch):
        # no mass of a draw with n >= 2 exceeds 1
        monkeypatch.setattr(simplex, "EPS_MASS", 1.0)
        monkeypatch.setattr(simplex, "MAX_REJECTIONS", 5)
        with pytest.raises(SamplingExhausted, match="5 consecutive draws"):
            _sample_trials(VerifyConfig(trials=3, seed=1))


def _tally_blocks(kinds, values, n_blocks, rng):
    """Reduce ``values`` (checks x trials) through one _Tally over a random
    interleaved split of the trials into blocks (each block's indices
    increasing), adding each block's checks in two random groups."""
    label = rng.integers(n_blocks, size=values.shape[1])
    blocks = [np.flatnonzero(label == b) for b in range(n_blocks)]
    blocks = [idx for idx in blocks if idx.size]
    rng.shuffle(blocks)
    tally = _Tally(kinds, 1e-10, len(blocks))
    for b, idx in enumerate(blocks):
        order = rng.permutation(len(kinds))
        cut = int(rng.integers(len(kinds) + 1))
        for checks in (order[:cut], order[cut:]):
            tally.add(b, idx, values[checks][:, idx], checks)
    return tally, blocks


class TestTally:
    @pytest.mark.parametrize("kind", ["residual", "slack"])
    def test_matches_full_array_reduction(self, kind):
        # check 0 is of ``kind``, the others of random kinds
        rng = np.random.default_rng(99)
        pool = np.array([np.nan, -np.inf, -1.0, -1e-10, -0.0, 0.0, 1e-12, 1e-10, 1.0, np.inf])
        for _ in range(200):
            kinds = [kind] + [str(k) for k in rng.choice(["residual", "slack"],
                                                          size=rng.integers(0, 4))]
            trials = int(rng.integers(1, 30))
            values = np.array([
                rng.choice(pool[rng.permutation(pool.size)[: rng.integers(1, 6)]], size=trials)
                for _ in kinds
            ])
            tally, blocks = _tally_blocks(kinds, values, int(rng.integers(1, 6)), rng)
            worst, trial, block, row = tally.worst()
            for k, (kind, value) in enumerate(zip(kinds, values)):
                full = np.argmax(value) if kind == "residual" else np.argmin(value)
                ok = value <= 1e-10 if kind == "residual" else value >= -1e-10
                assert trial[k] == full
                assert tally.passes[k] == np.count_nonzero(ok)
                # NaN and the sign of 0
                assert repr(float(worst[k])) == repr(float(value[full]))
                assert blocks[block[k]][row[k]] == full

    @pytest.mark.parametrize("kind", ["residual", "slack"])
    def test_ties_and_nan_go_to_the_first_trial(self, kind):
        # check 0 is of ``kind``, check 1 of the other kind on the negated
        # values, so the two must always agree
        other = "slack" if kind == "residual" else "residual"
        worse = 5.0 if kind == "residual" else -5.0
        adds = [([3, 7], [worse, worse]), ([1, 9], [0.0, worse]), ([2], [worse]),
                ([8, 11], [np.nan, np.nan]), ([4], [worse * 10]), ([0, 6], [worse, np.nan]),
                ([5], [np.nan])]

        def tally(blocks):
            # the first ``blocks`` blocks of ``adds``
            tally = _Tally([kind, other], 1e-10, blocks)
            for block, (idx, values) in enumerate(adds[:blocks]):
                values = np.array(values)
                tally.add(block, np.array(idx), np.vstack([values, -values]), np.array([0, 1]))
            return tally

        def state(blocks):
            (v0, _), (t0, t1), (b0, b1), (j0, j1) = tally(blocks).worst()
            assert (t0, b0, j0) == (t1, b1, j1)
            return int(t0), float(v0), (int(b0), int(j0))

        assert state(2) == (3, worse, (0, 0))
        assert state(3)[::2] == (2, (2, 0))
        trial, value, row = state(5)
        assert trial == 8 and np.isnan(value) and row == (3, 0)
        assert state(6)[::2] == (6, (5, 1))
        assert state(7)[::2] == (5, (6, 0))
        assert tally(7).passes.tolist() == [1, 1]
        assert np.isnan(tally(7).worst()[0][1])


class TestWitnessShrinking:
    def test_shrinks_toward_uniform_keeping_failure(self):
        # a check that always fails on non-uniform pairs: slack = -Delta(P,Q)
        check = _Check(
            "synthetic", "slack", lambda v: -np.atleast_1d(triangular(v.P, v.Q)),
            pair=_Pair(GeneratorSpec(Gen.PHI, 1.0), GeneratorSpec(Gen.PHI, 2.0)),
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
        # a check that is not a sandwich check has no (s, t)
        assert all(r.witness.s is r.witness.t is None for r in failing if r.witness)


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

    @pytest.mark.parametrize("points", [1e5, 2.5, True, "1000"])
    def test_points_must_be_an_integer(self, points):
        with pytest.raises(ConfigInvalid, match=r"^points must be an integer >= 2"):
            brute_force_mM(PSI2, PHI2, 0.5, 2.0, points)

    def test_needs_two_points(self):
        with pytest.raises(ConfigInvalid):
            brute_force_mM(PSI2, PHI2, 0.5, 2.0, 1)

    @pytest.mark.parametrize(
        "r,R", [(1.0, np.inf), (np.inf, np.inf), (np.nan, 2.0), (1.0, np.nan)]
    )
    def test_rejects_non_finite_interval(self, r, R):
        with pytest.raises(ValueError):
            brute_force_mM(PSI2, PHI2, r, R, 1000)

    def test_kept_grid_matches_a_fresh_one(self):
        # a thread's workspace keeps the last interval's grid; every call,
        # on that interval or another, equals a call in a fresh thread
        import threading

        psi = GeneratorSpec(Gen.PSI, -1.0)
        calls = [(PSI2, PHI2, 0.3, 3.0), (psi, PHI2, 0.3, 3.0), (PSI2, PHI2, 0.3, 2.0),
                 (GeneratorSpec(Gen.XI, 5.0), PHI2, 0.3, 2.0), (psi, PHI2, 0.3, 3.0)]
        kept = [brute_force_mM(*call, 10_000) for call in calls]
        fresh = []
        for call in calls:
            worker = threading.Thread(
                target=lambda c=call: fresh.append(brute_force_mM(*c, 10_000))
            )
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert kept == fresh

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
    @pytest.mark.parametrize("zero", ["P", "Q", "both"])
    def test_zero_mass_raises_without_a_warning(self, zero):
        # the pytest settings make numpy's divide-by-zero warning an error
        P, Q = np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])
        if zero in ("P", "both"):
            P = np.array([[0.0, 1.0]])
        if zero in ("Q", "both"):
            Q = np.array([[0.0, 1.0]])
        with pytest.raises(DivboundError):
            sandwich_slack_bulk(F.II, 2.0, 1.0, Q, P)

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


def _fresh_plans(monkeypatch):
    """Build plans afresh, in a cache of their own, until the test ends."""
    monkeypatch.setattr(verify, "_plan", lru_cache(verify._plan.__wrapped__))


def _harness_ratios():
    """The distinct ratios of every sandwich check, as the harness decides
    them: ``(record, direction, sign)``, direction 0 where the plan holds
    no verdict."""
    for group in verify._plan(("all", "bounds-grid"))[3].groups:
        yield from zip(group.ratios, group.direction.tolist(), group.sign.tolist())


def _same_decisions(ratios, lo, hi):
    """``_Sandwiches(ratios).prove(lo, hi)`` on the records ``ratios`` makes
    the decisions of one scalar _Ratio per ratio, on a record of its own:
    its direction() (+1 on a zero-width envelope) and the sign of g at lo,
    or raises the scalar ratio's error."""
    try:
        scalar = [_Ratio(_Pair(pair.num, pair.den), lo, hi) for pair in ratios]
    except DivboundError as exc:
        with pytest.raises(type(exc)):
            _Sandwiches(ratios).prove(lo, hi)
        return
    expected = [(g.direction() if lo < hi else 1, g.ends[0].s) for g in scalar]
    got = [None] * len(ratios)
    for family in _Sandwiches(ratios).prove(lo, hi):
        for row, direction, sign in zip(family.rows.tolist(), family.direction.tolist(),
                                        family.sign[:, 0].tolist()):
            got[row] = direction, sign
    assert got == expected, (lo, hi)
    assert not any(sign == 0.0 and np.signbit(sign) for _, sign in got)


def _verdicts_hold(lo, hi) -> int:
    """Each harness verdict equals the scalar ratio's decisions on [lo, hi];
    returns the number of verdicts."""
    count = 0
    for pair, direction, sign in _harness_ratios():
        if direction:
            g = _Ratio(_Pair(pair.num, pair.den), lo, hi)
            assert (direction, sign) == (g.direction(), g.ends[0].s), (g.num, g.den, lo, hi)
            count += 1
    return count


class TestPlanVerdicts:
    """The plan's verdicts, the scalar ratio's decisions on [1e-30, 1e30],
    are its decisions on every envelope within it."""

    def test_harness_envelopes_of_seeds_1_to_40(self):
        ratios = [pair for pair, _, _ in _harness_ratios()]
        verdicts = 0
        for seed in range(1, 41):
            blocks = _sample_trials(VerifyConfig(trials=1000, seed=seed))
            lo = min(float((P / Q).min()) for _, P, Q in blocks)
            hi = max(float((P / Q).max()) for _, P, Q in blocks)
            verdicts += _verdicts_hold(lo, hi)
            _same_decisions(ratios, lo, hi)
        assert verdicts == 40 * 616

    @pytest.mark.parametrize("x", [0.05, 1.0, 1.5, 40.0])
    def test_zero_width_envelope(self, x):
        assert _verdicts_hold(x, x) == 616
        _same_decisions([pair for pair, _, _ in _harness_ratios()], x, x)

    def test_every_ratio_is_scalar_outside_the_filter_range(self, monkeypatch):
        # the verdicts are read only on envelopes within [1e-30, 1e30]
        sandwiches = verify._plan(("all", "bounds-grid"))[3]
        for lo, hi in ((1e-31, 1.0), (1.0, 1e31)):
            proved = []
            alone = _Ratio.direction
            monkeypatch.setattr(_Ratio, "direction", lambda self: proved.append(1) or alone(self))
            sandwiches.prove(lo, hi)
            assert len(proved) == 616
            monkeypatch.undo()
            _same_decisions([pair for pair, _, _ in _harness_ratios()], lo, hi)

    def test_no_ratio_is_scalar_on_a_harness_envelope(self, monkeypatch):
        sandwiches = verify._plan(("all", "bounds-grid"))[3]
        monkeypatch.setattr(_Ratio, "__init__", lambda *a: pytest.fail("scalar ratio"))
        sandwiches.prove(0.003, 400.0)
        sandwiches.prove(1e-30, 1e30)

    def test_exact_coefficients_give_the_same_verdicts(self, monkeypatch, cold_memo):
        # with an error bound no float value can clear, every verdict comes
        # from the exact integers, but II(2, 2)'s: UPSILON(2)''/PHI(2)'' =
        # 1/4 has no terms in x at all, so its magnitude forms are 0
        ratios = list(_harness_ratios())
        monkeypatch.setattr(bounds, "_FILTER", 1.0)
        exact, alone = [], bounds._Pair.exact.fget
        monkeypatch.setattr(bounds._Pair, "exact",
                            property(lambda g: exact.append((g.num, g.den)) or alone(g)))
        for pair, direction, sign in ratios:
            assert _Pair(pair.num, pair.den).verdict() == (direction, sign), (pair.num, pair.den)
        assert len(set(exact)) == 615
        assert family_generators(F.II, 2.0, 2.0) not in exact
        _same_decisions([_Pair(pair.num, pair.den) for pair, _, _ in ratios], 0.003, 400.0)

    def test_refused_ratios_raise_as_alone(self):
        # PHI(2) over XI(5): the linear factor 5x - 1 of XI(5)'' is negative
        # below x = 1/5, so the ratio has no verdict
        refused = _Pair(PHI2, GeneratorSpec(Gen.XI, 5.0))
        assert refused.verdict() == (0, 0.0)
        ratios = [_Pair(PHI2, GeneratorSpec(Gen.XI, 2.0)), refused]
        for lo, hi in ((0.1, 2.0), (0.3, 2.0), (0.0, 2.0), (2.0, 1.0), (1.0, np.inf)):
            _same_decisions(ratios, lo, hi)
        with pytest.raises(DivboundError):
            _Sandwiches(ratios).prove(0.1, 2.0)

    def test_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        param = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, -1.0, 1e-31, 1e-30, 1e30, 1e31]),
            st.floats(-40.0, 40.0),
        )
        end = st.one_of(st.sampled_from([1e-31, 1e-30, 1.0, 1e30, 1e31]), st.floats(1e-35, 1e35))

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(st.sampled_from(list(Gen)), st.sampled_from(list(Gen)),
                   st.lists(st.tuples(param, param), min_size=1, max_size=6), end, end)
        def check(f1, f2, pairs, x, y):
            lo, hi = min(x, y), max(x, y)
            ratios = [_Pair(GeneratorSpec(f1, s), GeneratorSpec(f2, t)) for s, t in pairs]
            _same_decisions(ratios, lo, hi)
            if 1e-30 <= lo and hi <= 1e30:
                for ratio in ratios:
                    verdict = ratio.verdict()
                    if verdict[0]:
                        g = _Ratio(_Pair(ratio.num, ratio.den), lo, hi)
                        assert verdict == (g.direction(), g.ends[0].s), (g.num, g.den)

        check()

    def test_slack_bulk_matches_scalar_proofs(self, monkeypatch):
        # reading the verdicts changes no bit of the slacks
        P, Q = sample_pair_matrix(6, 30, seed=99, concentration=0.5)
        cases = [(c.family, c.s, c.t) for c in corollary_table()] + [
            (family, s, t) for family in F for s, t in region_grid(family)]
        read = [sandwich_slack_bulk(*case, P, Q) for case in cases]
        monkeypatch.setattr(_Pair, "verdict", lambda pair: (0, 0.0))
        for case, slack in zip(cases, read):
            assert np.array_equal(sandwich_slack_bulk(*case, P, Q), slack, equal_nan=True), case

    def test_printed_directions_on_the_validation_grid(self):
        # every grid point has a verdict, in its branch's printed direction
        # but at III(4, 3), where g rises against (37), and at the flat
        # ratios (N = 0), which count as increasing
        against = []
        for family in F:
            for s, t in region_grid(family):
                verdict = _Pair(*family_generators(family, s, t)).verdict()
                assert verdict[0], (family, s, t)
                if (verdict[0] > 0) != active_branch(family, s, t).increasing:
                    against.append((family, s, t))
        assert sum(len(region_grid(family)) for family in F) == 616
        assert against == [(F.III, 2.0, 2.0), (F.III, 4.0, 3.0), (F.VII, 0.0, -1.0),
                           (F.IX, 0.0, -1.0)]
        flat = [(F.III, 2.0, 2.0), (F.VII, 0.0, -1.0), (F.IX, 0.0, -1.0)]
        for family, s, t in flat:
            assert _Pair(*family_generators(family, s, t)).exact == (0, 0, 0, 0)
        assert _Pair(*family_generators(F.III, 4.0, 3.0)).exact != (0, 0, 0, 0)

    def test_decides_a_ratio_whose_coefficients_change_sign(self):
        # PHI(0.9)''/VARSIGMA(0.5)'': N's coefficients c_k change sign, so no
        # rule on their signs alone decides it, but N has no positive root:
        # g rises, and is positive, on every envelope
        num, den = GeneratorSpec(Gen.PHI, 0.9), GeneratorSpec(Gen.VARSIGMA, 0.5)
        c, _ = _coefficients(D2_FORMS[num.gen], D2_FORMS[den.gen], num.s, den.s)
        assert min(c) < 0.0 < max(c)
        assert _Pair(num, den).verdict() == (1, 1.0)
        ends = np.sort(np.exp(np.random.default_rng(26).uniform(np.log(1e-30), np.log(1e30),
                                                                 (200, 2))), axis=1)
        for lo, hi in [(0.003, 400.0), (1e-30, 1e-29), (1e29, 1e30)] + ends.tolist():
            g = _Ratio(_Pair(num, den), lo, hi)
            assert (g.direction(), g.ends[0].s) == (1, 1.0), (lo, hi)
        (family,) = _Sandwiches([_Pair(num, den)]).prove(0.003, 400.0)
        assert (family.direction.tolist(), family.sign.tolist()) == ([1], [[1.0]])


class TestPlan:
    def test_not_built_at_import(self):
        # the plan is built by the first run that asks for it, never by an
        # import: it holds the verdicts of every distinct ratio
        code = ("import divbound, divbound.cli, divbound.verify as v; "
                "print(v._plan.cache_info().currsize)")
        src, path = str(Path(verify.__file__).parents[1]), os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout == "0\n"

    def test_built_once_per_subject_set(self, monkeypatch):
        plan = verify._plan(("identities", "corollaries"))
        assert verify._plan(("identities", "corollaries")) is plan
        assert verify._plan(("corollaries",)) is not plan
        monkeypatch.setattr(verify, "_build_checks", lambda subjects: pytest.fail("rebuilt"))
        run(VerifyConfig(trials=20, subjects=("identities", "corollaries")))

    def test_arrays_are_read_only(self):
        checks, plain, keys, sandwiches = verify._plan(("all", "bounds-grid"))
        assert isinstance(checks, tuple) and isinstance(keys, tuple) and len(keys) == 29
        arrays = [plain, sandwiches.records] + [stack.s for stack in sandwiches.stacks]
        # each group's records are a tuple, immutable too
        assert all(type(group.ratios) is tuple for group in sandwiches.groups)
        arrays += [array for group in sandwiches.groups for array in group
                   if array is not group.ratios]
        assert sum(len(group.rows) for group in sandwiches.groups) == 649
        assert sum(len(group.ratios) for group in sandwiches.groups) == 616
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


class TestGroupProof:
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
        ratios = self.P / self.Q
        assert (ratios.min(), ratios.max()) == (0.4, 2.0)
        (checks,) = _Sandwiches([_Pair(*family_generators(family, s, t))]).prove(0.4, 2.0)
        assert checks.direction.tolist() == [expected]

    def test_zero_width_envelope_counts_as_increasing(self, monkeypatch):
        # the plan decides the ratio once (I(0, 0) has no verdict); prove
        # then asks no direction
        sandwiches = _Sandwiches([_Pair(*family_generators(F.I, 0.0, 0.0))])
        monkeypatch.setattr(_Ratio, "direction", lambda self: pytest.fail("proved"))
        (checks,) = sandwiches.prove(1.5, 1.5)
        assert checks.direction.tolist() == [1]

    def test_unproven_block_encloses_each_row(self):
        from divbound.bounds import sandwich_check
        from divbound.simplex import validate

        slacks = sandwich_slack_bulk(F.I, 0.0, 0.0, self.P, self.Q)
        for i in range(2):
            rep = sandwich_check(F.I, 0.0, 0.0, validate(self.P[i]), validate(self.Q[i]))
            direct = min(rep.slack_low, rep.slack_high) / max(1.0, abs(rep.mid))
            assert slacks[i] == pytest.approx(direct, rel=1e-9, abs=1e-15)
            assert slacks[i] >= 0.0


class TestBlockTableSoundness:
    def test_constants_hold_g_at_50_digits(self):
        # every proven row's m and M hold g at both of its ends, evaluated
        # at 50 digits from the f'' forms, at random in-region corners with
        # |s|, |t| <= 40 and ratios far from 1
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(10)
        ratios = []
        while len(ratios) < 300:
            family = list(F)[rng.integers(len(F))]
            s, t = (rng.uniform(*((-40.0, 40.0), (0.0, 4.0), (2.0, 4.0))[rng.integers(3)])
                    for _ in range(2))
            if in_region(family, s, t):
                ratios.append(_Pair(*family_generators(family, float(s), float(t))))
        proven = 0
        for seed in (1, 2):
            P, Q = sample_pair_matrix(6, 30, seed=seed, concentration=0.3)
            r, R = (P / Q).min(axis=1), (P / Q).max(axis=1)
            sandwiches = _Sandwiches(ratios)
            proofs = sandwiches.prove(float(r.min()), float(R.max()))
            # some f-divergences and slacks overflow here; only the
            # constants are read
            with np.errstate(over="ignore", invalid="ignore"):
                families = list(sandwiches.slacks(P, Q, proofs))
            for family, m, M, _ in families:
                for k in np.flatnonzero(family.direction):
                    proven += 1
                    ratio = ratios[family.rows[k]]
                    for i in range(30):
                        lo, hi = mpmath.mpf(m[k, i]), mpmath.mpf(M[k, i])
                        for x in (r[i], R[i]):
                            g = mp_curvature_ratio(ratio.num, ratio.den, float(x))
                            assert lo <= g <= hi, (ratio.num, ratio.den, float(x))
        assert proven >= 500


    def test_bounds_hold_curvatures_past_the_double_range(self):
        # |f''| at 50 digits lies within the table's bounds, also where it
        # overflows, is subnormal or underflows to 0 in double precision
        mpmath = pytest.importorskip("mpmath")
        P = np.array([[1e-12, 1.0 - 1e-12], [0.5, 0.5], [0.3, 0.7], [1e-6, 1.0 - 1e-6]]
                     + [[0.5, 0.5]] * 4)
        Q = np.array([[0.5, 0.5], [1e-12, 1.0 - 1e-12], [1e-7, 1.0 - 1e-7], [0.9, 0.1]]
                     + [[0.25 / x, 1.0 - 0.25 / x] for x in (2e7, 3.3e7, 4.7e7, 7.1e7)])
        specs = [GeneratorSpec(Gen.PHI, t) for t in (-300.0, -27.25, 2.0, 27.5, 300.0)]
        specs += [GeneratorSpec(Gen.PHI, t) for t in np.arange(-36.0, -46.0, -1.0).tolist()]
        specs += [GeneratorSpec(Gen.PSI, 31.0), GeneratorSpec(Gen.UPSILON, -38.0),
                  GeneratorSpec(Gen.XI, -300.0), GeneratorSpec(Gen.VARSIGMA, 40.0)]
        with np.errstate(over="ignore", invalid="ignore"):
            table, bounds, _ = _block_table(specs, P, Q)
        ratios = P / Q
        ends = np.concatenate([ratios.min(axis=1), ratios.max(axis=1)]).tolist()
        for spec in specs:
            i = table.index(spec)
            for j, x in enumerate(ends):
                d2 = abs(mp_curvature_ratio(spec, PHI2, x))
                end, row = divmod(j, P.shape[0])
                lo, hi = bounds[i, end, row], bounds[i, 2 + end, row]
                assert mpmath.mpf(lo) <= d2 <= mpmath.mpf(hi), (spec, x)


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

    @pytest.mark.parametrize("args,kwargs,expected", [
        ((F.II, 2.0, 1.0, 40, 11), {"n": 4, "concentration": 0.5, "shrink_levels": 6},
         (0.0019192025962229459, 0.002164298999596031, 240)),
        ((F.VI, 1.0, -1.0, 25, 7), {"n": 4, "concentration": 0.5, "shrink_levels": 6},
         (0.040200698913501316, 0.037039515902920477, 150)),
        ((F.I, 2.0, 2.0, 20, 5), {}, (0.0005997761551854035, 0.0006749221172409148, 160)),
    ])
    def test_pinned_reports(self, args, kwargs, expected):
        # the pairs are sample_pair_matrix's rows: row i from the stream (seed, i)
        rep = tightness_scan(*args, **kwargs)
        assert (rep.min_slack_low, rep.min_slack_high, rep.pairs_evaluated) == expected

    def test_rejects_non_finite_concentration(self):
        with pytest.raises(ValueError, match="concentration"):
            tightness_scan(F.II, 2.0, 1.0, trials=2, seed=1, concentration=np.inf)

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_short_simplex(self, n):
        with pytest.raises(TooShort):
            tightness_scan(F.II, 2.0, 1.0, trials=2, seed=1, n=n)

    @pytest.mark.parametrize("name,kwargs", [
        ("trials", {"trials": 2.5}), ("trials", {"trials": True}),
        ("shrink_levels", {"shrink_levels": 2.0}), ("shrink_levels", {"shrink_levels": False}),
    ])
    def test_rejects_non_integer_counts(self, name, kwargs):
        args = {"trials": 2, "seed": 1, **kwargs}
        with pytest.raises(ConfigInvalid, match=f"^{name} must be an integer >= 1"):
            tightness_scan(F.II, 2.0, 1.0, **args)

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 1.5}, {"n": 3.0}])
    def test_rejects_non_integer_sampler_arguments(self, kwargs):
        args = {"trials": 2, "seed": 1, **kwargs}
        with pytest.raises(InvalidArgument, match=f"^{next(iter(kwargs))} must be an integer"):
            tightness_scan(F.II, 2.0, 1.0, **args)

    @pytest.mark.parametrize("levels", [0, -1])
    def test_rejects_no_shrink_levels(self, levels):
        with pytest.raises(ConfigInvalid, match="shrink_levels"):
            tightness_scan(F.II, 2.0, 1.0, trials=2, seed=1, shrink_levels=levels)


class TestSlackBulkBlock:
    """sandwich_slack_bulk takes one block: two non-empty 2-D arrays of one
    shape, and nothing numpy would broadcast or reduce otherwise."""

    P = np.array([[0.2, 0.8], [0.5, 0.5]])
    Q = np.array([[0.3, 0.7], [0.6, 0.4]])

    def test_slacks_of_a_block(self):
        slacks = sandwich_slack_bulk(F.I, 2.0, 1.0, self.P, self.Q)
        assert slacks == pytest.approx([0.0029, 0.0017], abs=5e-5)

    @pytest.mark.parametrize("P,Q", [
        (P, Q[:, :1]),  # broadcast across columns: a false violation
        (P, Q[:1]),  # broadcast across rows
        (P[:, :1], Q),
        (P[0], Q[0]),  # 1-D
        (P[None], Q[None]),  # 3-D
        (P[:0], Q[:0]),  # no rows
    ])
    def test_rejects_any_other_shape(self, P, Q):
        with pytest.raises(InvalidArgument, match=re.escape(f"{P.shape} and {Q.shape}")):
            sandwich_slack_bulk(F.I, 2.0, 1.0, P, Q)


class TestOneRecordPerRatio:
    """One curvature-ratio record per (family, s, t), from the catalog to the
    harness: the plan's checks hold the records closed_form_mM reads."""

    def test_plan_holds_the_certificates_records(self, monkeypatch, cold_memo):
        _fresh_plans(monkeypatch)
        checks, _, _, sandwiches = verify._plan(("all", "bounds-grid"))
        sandwich = [check for check in checks if check.pair is not None]
        cases = [(c.family, c.s, c.t) for c in corollary_table()]
        cases += [(family, s, t) for family in F for s, t in region_grid(family)]
        assert len(sandwich) == len(cases) == 649
        read = []

        class Reading(_Ratio):
            def __init__(self, pair, lo, hi):
                read.append(pair)
                super().__init__(pair, lo, hi)

        monkeypatch.setattr(bounds, "_Ratio", Reading)
        for check, (family, s, t) in zip(sandwich, cases):
            read.clear()
            closed_form_mM(family, s, t, 0.5, 2.0)
            assert read[0] is check.pair is bounds._record(family, s, t), check.id
        records = [pair for group in sandwiches.groups for pair in group.ratios]
        assert len({id(pair) for pair in records}) == len(records) == 616
        assert {id(check.pair) for check in sandwich} == {id(pair) for pair in records}

    def test_no_record_per_row_on_a_non_monotone_ratio(self, monkeypatch, cold_memo):
        # III(2.539, 2.156) has no verdict and is not monotone on either
        # envelope, so every row takes its own enclosure of the one record
        P, Q = sample_pair_matrix(4, 200, seed=28)
        (family,) = _Sandwiches([_Pair(*family_generators(F.III, 2.539, 2.156))]).prove(
            float((P[:2] / Q[:2]).min()), float((P[:2] / Q[:2]).max()))
        assert family.numeric
        built, init = [], _Pair.__init__
        monkeypatch.setattr(_Pair, "__init__", lambda pair, *a: built.append(a) or init(pair, *a))
        counts = []
        for rows in (2, 200):
            bounds._record.cache_clear()
            built.clear()
            sandwich_slack_bulk(F.III, 2.539, 2.156, P[:rows], Q[:rows])
            counts.append(len(built))
        assert counts[0] == counts[1]


#: sha256 of two harness reports over every subject, recorded before sandwich
#: checks carried their records: seed 1 at 200 trials, and a witness run
#: (rel_tol 1e-300, 50 trials on 2 to 6 masses) in which 25 checks fail
REPORT_DIGESTS = {
    VerifyConfig(trials=200, seed=1, subjects=("all", "bounds-grid")):
        "bcd54c91bc99e1819e5922be77ae2a957610d0eab4904549de745ef3341f7657",
    VerifyConfig(trials=50, seed=1, rel_tol=1e-300, n_range=(2, 6),
                 subjects=("all", "bounds-grid")):
        "6680b461c26a1c60f1028e6b897317e2df67d217759f64cd8c08295f6317b4c7",
}


@pytest.mark.parametrize("config", list(REPORT_DIGESTS))
def test_report_digest(config):
    # a change to any bit of either report, witnesses included, fails here
    digest = hashlib.sha256(run(config).to_json().encode()).hexdigest()
    assert digest == REPORT_DIGESTS[config]
