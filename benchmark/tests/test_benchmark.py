"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["attempted"] >= 1
    assert result["correct"] is True
    assert any(line.split()[:1] == ["fail_ratio"] for line in lines)
    env = json.loads(lines[-2])["environment"]
    assert env["src_divbound_lines"] > 0 and env["thread_env"]["OMP_NUM_THREADS"] == "1"


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_value_fails_its_request(tmp_path):
    reqs = [r for r in workloads.compute_requests(3, tmp_path, tiny=True) if r["s"] is None][:2]
    refs = run.references("compute-large", reqs)
    good = [[0, repr(ref[0])] for ref in refs]
    bad = [0, repr(refs[0][0] * (1 + 1e-6) + 1e-9)]
    # two passes over a pool of two; the first request is wrong once
    verdict = run.score("compute-large", [good[0], good[1], bad, good[1]], refs)
    assert (verdict["ops"], verdict["failed_ops"]) == (4, 1)
    assert verdict["attempted"] == 2
    assert verdict["failed"] == 1
    assert verdict["incorrect"] == 1
    assert verdict["reasons"] == {"value rejected by the oracle": 1}


@pytest.mark.parametrize("edge", [False, True])
def test_certificate_below_oracle_max_fails_its_request(edge):
    from divbound import bounds

    req = {"family": "II", "s": 2.0, "t": 1.0, "r": 0.01, "R": 50.0, "edge": edge}
    refs = run.references("certify-intervals", [req])
    cert = bounds.closed_form_mM(bounds.InequalityFamily.II, 2.0, 1.0, 0.01, 50.0)
    lo, hi = refs[0][0]
    verdict = run.score("certify-intervals", [[cert.m, cert.M]], refs)
    assert (verdict["attempted"], verdict["failed"]) == (1, 0)
    verdict = run.score("certify-intervals", [[cert.m, cert.M], [cert.m, hi * (1 - 1e-6)]], refs)
    assert (verdict["ops"], verdict["failed_ops"]) == (2, 1)
    assert verdict["attempted"] == 1
    assert verdict["failed"] == 1
    assert verdict["reasons"] == {("edge" if edge else "normal") + ": unsound certificate": 1}
    # an unsound edge certificate fails its request but does not clear `correct`
    assert verdict["incorrect"] == (0 if edge else 1)


def test_raised_and_non_finite_certificates_fail_their_requests():
    req = {"family": "II", "s": 2.0, "t": 1.0, "r": 0.01, "R": 50.0, "edge": False}
    refs = run.references("certify-intervals", [req] * 4)
    lo, hi = refs[0][0]
    outputs = [[lo, float("inf")], ["OverflowError"], [lo, hi], [float("nan"), hi]]
    verdict = run.score("certify-intervals", outputs * 2, refs)
    assert (verdict["ops"], verdict["failed_ops"]) == (8, 6)
    assert verdict["attempted"] == 4
    assert verdict["failed"] == 3
    assert verdict["reasons"] == {"normal: non-finite certificate": 1,
                                  "normal: raised OverflowError": 1,
                                  "normal: unsound certificate": 1}


def test_failed_harness_report_fails_its_request():
    refs = run.references("verify-harness", workloads.verify_requests(1))
    assert len(refs) == workloads.VERIFY_POOL == 3
    digest = refs[0]
    outputs = [[True, digest, True], [False, digest, True], [True, "0" * 64, True],
               [True, digest, True], [True, digest, True], ["ValueError"]]
    verdict = run.score("verify-harness", outputs, refs)
    assert (verdict["ops"], verdict["failed_ops"]) == (6, 3)
    assert verdict["attempted"] == 3
    assert verdict["failed"] == 2
    assert verdict["incorrect"] == 2
    assert verdict["reasons"] == {"a harness check failed": 1,
                                  "check ids differ from the recorded 686": 1}


def test_request_latency_is_the_mean_of_its_repetitions():
    phase = {"latency_ns": [3e6, 5e6, 1e6, 5e6, 2e6, 6e6]}
    assert run.request_latencies_ms(phase, 3).tolist() == [4.0, 3.5, 3.5]


def test_oracle_matches_program_on_the_worked_example():
    # P = (1/2, 1/2), Q = (1/4, 3/4): chi2 = 1/3, and family II at s=2, t=1
    # on [2/3, 2] has m = 1/6 and M = 1/2 (README).
    value, _ = oracles.compute_reference("chi2", None, [0.5, 0.5], [0.25, 0.75])
    assert value == pytest.approx(1 / 3, rel=1e-15)
    lo, hi = oracles.certify_extrema("II", 2.0, 1.0, 2 / 3, 2.0)
    assert lo == pytest.approx(1 / 6, rel=1e-14) and hi == pytest.approx(1 / 2, rel=1e-14)


def test_request_streams_repeat_for_a_seed(tmp_path):
    a = workloads.certify_requests(5, tiny=True)
    assert a == workloads.certify_requests(5, tiny=True)
    assert a != workloads.certify_requests(6, tiny=True)
    assert sum(r["edge"] for r in a) == len(a) // workloads.EDGE_EVERY
