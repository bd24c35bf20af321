"""Acceptance gate: every release criterion at its stated tolerance.

One test per criterion; the pytest -v report gives the pass/fail line for
each, and every test also prints a PASS summary with its wall time.

Tolerance convention: "within tol relative" means
|a - b| <= tol * max(1, |a|, |b|) - the same scaling the sandwich slack
uses.  A purely relative comparison cannot hold for near-identical pairs,
where both sides of an identity cancel to the rounding floor while the
values themselves are arbitrarily small.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import scaled_ok
from divbound import cli
from divbound.bounds import (
    InequalityFamily,
    PARAM_GRID,
    closed_form_mM,
    corollary_table,
    family_generators,
    numeric_mM,
    printed_mM,
    region_grid,
)
from divbound.families import ZETA_CONVEX_RANGE, omega_s, phi_s, zeta_s
from divbound.generators import (
    Gen,
    GeneratorSpec,
    convexity_scan,
    csiszar_bulk,
    gen_d2,
    gen_value,
)
from divbound.measures import (
    REL_J_FROM_F_G_CONSTANT,
    chi_square,
    hellinger,
    jeffreys,
    jensen_shannon,
    ag_mean,
    kl,
    rel_ag,
    rel_j,
    rel_js,
    triangular,
)
from divbound.simplex import sample_pair_matrix
from divbound.verify import VerifyConfig, run, sandwich_slack_bulk

FIXTURES = Path(__file__).parent / "fixtures"
SIZES = (2, 3, 5, 10)
S_GRID = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0)
ZETA_GRID = tuple(s for s in PARAM_GRID if ZETA_CONVEX_RANGE[0] <= s <= ZETA_CONVEX_RANGE[1])


@pytest.fixture(scope="module")
def suite_pairs():
    """The full random-pair suite: 2500 pairs per size, 10^4 in total."""
    return {n: sample_pair_matrix(n, 2500, seed=20260 + n) for n in SIZES}


def _report(criterion, detail, elapsed, budget):
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.1f}s < {budget}s]")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


def _agrees(a, b, tol=1e-6):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_particular_case_identities(suite_pairs):
    """Type-s families recover the classical measures at special s."""
    t0 = time.perf_counter()
    cases = [
        (lambda P, Q: phi_s(-1.0, P, Q), lambda P, Q: chi_square(Q, P) / 2.0),
        (lambda P, Q: phi_s(0.0, P, Q), lambda P, Q: kl(Q, P)),
        (lambda P, Q: phi_s(0.5, P, Q), lambda P, Q: 4.0 * hellinger(P, Q)),
        (lambda P, Q: phi_s(1.0, P, Q), kl),
        (lambda P, Q: phi_s(2.0, P, Q), lambda P, Q: chi_square(P, Q) / 2.0),
        (lambda P, Q: omega_s(-1.0, P, Q), lambda P, Q: triangular(P, Q) / 4.0),
        (lambda P, Q: omega_s(-1.0, P, Q, adjoint=True),
         lambda P, Q: triangular(P, Q) / 4.0),
        (lambda P, Q: omega_s(0.0, P, Q), rel_js),
        (lambda P, Q: omega_s(1.0, P, Q), rel_ag),
        (lambda P, Q: omega_s(2.0, P, Q), lambda P, Q: chi_square(Q, P) / 8.0),
        (lambda P, Q: omega_s(0.0, P, Q, adjoint=True), lambda P, Q: rel_js(Q, P)),
        (lambda P, Q: omega_s(1.0, P, Q, adjoint=True), lambda P, Q: rel_ag(Q, P)),
        (lambda P, Q: omega_s(2.0, P, Q, adjoint=True),
         lambda P, Q: chi_square(P, Q) / 8.0),
        (lambda P, Q: zeta_s(0.0, P, Q), triangular),
        (lambda P, Q: zeta_s(0.0, P, Q, adjoint=True), triangular),
        (lambda P, Q: zeta_s(1.0, P, Q), rel_j),
        (lambda P, Q: zeta_s(2.0, P, Q), lambda P, Q: chi_square(P, Q) / 2.0),
        (lambda P, Q: zeta_s(1.0, P, Q, adjoint=True), lambda P, Q: rel_j(Q, P)),
        (lambda P, Q: zeta_s(2.0, P, Q, adjoint=True),
         lambda P, Q: chi_square(Q, P) / 2.0),
    ]
    pairs = 0
    for n in SIZES:
        P, Q = suite_pairs[n]
        pairs += P.shape[0]
        for i, (fam, classical) in enumerate(cases):
            assert scaled_ok(fam(P, Q), classical(P, Q), 1e-10), (n, i)
    assert pairs == 10_000
    _report(1, f"{len(cases)} special-value identities x {pairs} pairs at 1e-10",
            time.perf_counter() - t0, 30)


def test_criterion_2_engine_family_equivalence(suite_pairs):
    """The generator engine reproduces each type-s family value."""
    t0 = time.perf_counter()
    kernels = {
        Gen.PHI: lambda s, P, Q: phi_s(s, P, Q),
        Gen.PSI: lambda s, P, Q: omega_s(s, P, Q),
        Gen.UPSILON: lambda s, P, Q: omega_s(s, P, Q, adjoint=True),
        Gen.XI: lambda s, P, Q: zeta_s(s, P, Q),
        Gen.VARSIGMA: lambda s, P, Q: zeta_s(s, P, Q, adjoint=True),
    }
    pairs = 0
    for n in SIZES:
        P, Q = suite_pairs[n]
        P, Q = P[:250], Q[:250]
        pairs += P.shape[0]
        for gen, kernel in kernels.items():
            for s in S_GRID:
                spec = GeneratorSpec(gen, s)
                assert scaled_ok(csiszar_bulk(spec, P, Q), kernel(s, P, Q), 1e-12), (
                    gen, s, n,
                )
    assert pairs == 1000
    _report(2, f"5 generators x {len(S_GRID)} s-values x {pairs} pairs at 1e-12",
            time.perf_counter() - t0, 10)


def test_criterion_3_derivative_soundness():
    """Analytic curvature matches central finite differences."""
    t0 = time.perf_counter()
    xs = np.geomspace(0.1, 10.0, 64)
    h = 1e-4 * xs
    checked = 0
    for gen in Gen:
        for s in S_GRID:
            spec = GeneratorSpec(gen, s)
            fd = (gen_value(spec, xs + h) - 2.0 * gen_value(spec, xs)
                  + gen_value(spec, xs - h)) / (h * h)
            assert scaled_ok(gen_d2(spec, xs), fd, 1e-5), (gen, s)
            checked += xs.size
    _report(3, f"{checked} curvature points across 5 generators x 8 s-values at 1e-5",
            time.perf_counter() - t0, 1)


def test_criterion_4_bound_constant_soundness(battery_oracle):
    """Cataloged constants vs two independent numeric oracles.

    The shipped certificate values must agree with both the refined scanner
    and the plain-grid oracle everywhere in-region; grid corners where the
    cataloged *text* fails the cross-check must exactly match the committed
    erratum fixture, and their certificates must carry the erratum flag.
    """
    t0 = time.perf_counter()
    fixture = json.loads((FIXTURES / "closed_form_errata.json").read_text())
    battery = fixture["interval_battery"]
    rng = np.random.default_rng(battery["seed"])
    intervals = []
    for _ in range(battery["count"]):
        a, b = np.sort(
            np.exp(rng.uniform(np.log(battery["low"]), np.log(battery["high"]), size=2))
        )
        intervals.append((float(a), float(b)))
    failures = []
    combos = 0
    for family in InequalityFamily:
        for s, t in region_grid(family):
            combos += 1
            num, den = family_generators(family, s, t)
            text_failures = 0
            for r, R in intervals:
                nm, nM = numeric_mM(num, den, r, R)
                bm, bM = battery_oracle(num, den, r, R)
                assert _agrees(nm, bm) and _agrees(nM, bM), (family, s, t, r, R)
                cert = closed_form_mM(family, s, t, r, R)
                assert _agrees(cert.m, nm) and _agrees(cert.M, nM), (family, s, t, r, R)
                pm, pM = printed_mM(family, s, t, r, R)
                if not (_agrees(pm, nm) and _agrees(pM, nM)):
                    text_failures += 1
            if text_failures:
                failures.append({
                    "family": family.value, "s": s, "t": t,
                    "failed_intervals": text_failures,
                })
    assert failures == fixture["corners"]
    for corner in fixture["corners"]:
        cert = closed_form_mM(
            InequalityFamily(corner["family"]), corner["s"], corner["t"], 0.5, 2.0
        )
        assert cert.erratum is not None, corner
    _report(
        4,
        f"{combos} in-region corners x {len(intervals)} intervals vs both oracles "
        f"at 1e-6; {len(failures)} cataloged-text corners match the erratum fixture",
        time.perf_counter() - t0, 60,
    )


def test_criterion_5_sandwich_validity(suite_pairs):
    """No certified sandwich is ever violated on the random-pair suite."""
    t0 = time.perf_counter()
    combos = [(c.family, c.s, c.t) for c in corollary_table()]
    for family in InequalityFamily:
        combos += [(family, s, t) for s, t in region_grid(family)]
    worst = np.inf
    for family, s, t in combos:
        for n in SIZES:
            P, Q = suite_pairs[n]
            slack = sandwich_slack_bulk(family, s, t, P, Q)
            worst = min(worst, float(slack.min()))
            assert np.all(slack >= -1e-10), (family.value, s, t, n)
    _report(
        5,
        f"{len(combos)} certified inequalities x 10^4 pairs, worst slack {worst:.2e}",
        time.perf_counter() - t0, 120,
    )


def test_criterion_6_identity_adjudication(suite_pairs):
    """Jeffreys decompositions hold; the F+G constant is fixed by brute force."""
    t0 = time.perf_counter()
    fixture = json.loads((FIXTURES / "relative_j_identity_constant.json").read_text())
    worst_half = 0.0
    for n in SIZES:
        P, Q = suite_pairs[n]
        jv = jeffreys(P, Q)
        assert scaled_ok(jv, kl(P, Q) + kl(Q, P), 1e-10)
        assert scaled_ok(jv, rel_j(P, Q) + rel_j(Q, P), 1e-10)
        assert scaled_ok(jv, 4.0 * (jensen_shannon(P, Q) + ag_mean(P, Q)), 1e-10)
        assert scaled_ok(
            rel_j(Q, P),
            REL_J_FROM_F_G_CONSTANT * (rel_js(P, Q) + rel_ag(P, Q)),
            1e-10,
        )
        # brute-force determination of c in D(Q||P) = c [F(P||Q) + G(P||Q)]
        ratio = rel_j(Q, P) / (rel_js(P, Q) + rel_ag(P, Q))
        assert np.max(np.abs(ratio - fixture["confirmed_constant"])) <= 1e-8
        worst_half = max(
            worst_half,
            float(np.min(np.abs(ratio - fixture["printed_constant"]))),
        )
    assert fixture["confirmed_constant"] == REL_J_FROM_F_G_CONSTANT == 2.0
    assert worst_half > 1.0, "the printed 1/2 is off by the factor 4 everywhere"
    _report(
        6,
        "J decompositions at 1e-10; F+G constant pinned to 2 (printed 1/2 rejected)",
        time.perf_counter() - t0, 30,
    )


def test_criterion_7_nonnegativity_and_convexity(suite_pairs):
    """Generator convexity in the stated ranges; divergences never negative."""
    t0 = time.perf_counter()
    for gen in (Gen.PHI, Gen.PSI, Gen.UPSILON):
        for s in PARAM_GRID:
            scan = convexity_scan(GeneratorSpec(gen, s), 0.05, 20.0, 1025)
            assert scan.convex, (gen, s)
    for gen in (Gen.XI, Gen.VARSIGMA):
        for s in ZETA_GRID:
            scan = convexity_scan(GeneratorSpec(gen, s), 0.05, 20.0, 1025)
            assert scan.convex, (gen, s)
    classical = (chi_square, kl, rel_js, rel_ag, rel_j, jeffreys,
                 jensen_shannon, ag_mean, triangular, hellinger)
    for n in SIZES:
        P, Q = suite_pairs[n]
        for fn in classical:
            assert np.all(np.asarray(fn(P, Q)) >= -1e-12), fn.__name__
        for s in PARAM_GRID:
            assert np.all(np.asarray(phi_s(s, P, Q)) >= -1e-12)
            assert np.all(np.asarray(omega_s(s, P, Q)) >= -1e-12)
            assert np.all(np.asarray(omega_s(s, P, Q, adjoint=True)) >= -1e-12)
        for s in ZETA_GRID:
            assert np.all(np.asarray(zeta_s(s, P, Q)) >= -1e-12)
            assert np.all(np.asarray(zeta_s(s, P, Q, adjoint=True)) >= -1e-12)
    _report(
        7,
        "convexity scans pass in the stated parameter ranges; all classical "
        "and family values nonnegative on 10^4 pairs",
        time.perf_counter() - t0, 60,
    )


def test_criterion_8_deterministic_reports(capsys):
    """Fixed-seed verification reports are byte-identical across runs."""
    t0 = time.perf_counter()
    args = ["verify", "--trials", "300", "--seed", "2026"]
    code1 = cli.main(args)
    out1 = capsys.readouterr().out
    code2 = cli.main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    cfg = VerifyConfig(trials=300, seed=2026)
    assert run(cfg).to_json() == run(cfg).to_json()
    _report(8, "two fixed-seed runs produced byte-identical reports",
            time.perf_counter() - t0, 60)
