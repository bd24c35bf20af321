"""divbound's benchmark: three closed-loop workloads and a traced run.

Run from the repository root:

    python3 benchmark/run.py --workload compute-large --seed 1 --seconds 30 --trace 0

Workloads (one client, one op at a time, in one process):

* ``compute-large``: ``divbound compute`` through ``cli.main`` on P/Q files
  of 10 to 1e5 masses; stresses ``_accum``, file loading, measures and
  families.
* ``certify-intervals``: ``bounds.closed_form_mM`` with its numeric
  cross-check, including a slice of extreme edge requests; stresses the
  ``bounds`` scanner and ``generators`` curvature.
* ``verify-harness``: ``verify.run`` at 1000 trials over all four subject
  groups, cycling through three harness seeds; stresses the sampler,
  ``_accum`` on short rows and the bulk sandwich check.

The benchmark writes the program's inputs from ``--seed``, computes its own
oracle references (outside set-up and the timed region), starts the
workload process ``worker.py`` and checks every output.  With ``--trace 0``
it measures set-up several times and reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of ``tracing.py`` and the
tracing overhead, and writes the spans to ``benchmark/out/``.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; :func:`score` says what fails an op and what clears
``correct``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("compute-large", "certify-intervals", "verify-harness")
#: set-ups per run; verify-harness's set-up is mostly its 2 s warm-up op,
#: already a long measurement, so fewer repetitions keep its runs short
SETUP_REPS = {"compute-large": 5, "certify-intervals": 5, "verify-harness": 3}
TINY_SETUP_REPS = 2
#: every run must end within this many seconds, set-up included
RUN_BUDGET_S = 170.0
THREAD_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# environment


def _git_commit() -> str | None:
    """HEAD read straight from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    files = sorted((SRC / "divbound").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_divbound_lines": lines,
        "thread_env": THREAD_ENV,
    }


# --------------------------------------------------------------------------
# the workload process


def launch(workload: str, mode: str, inputs: Path, workdir: Path, seconds: float,
           deadline: float, spans: Path | None = None) -> dict:
    """Start one workload process, wait for it, return its results with
    ``setup_s`` measured from launch to its first possible timed op."""
    out = workdir / f"result-{mode}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--out", str(out), "--mode", mode,
           "--seconds", repr(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]), **THREAD_ENV)
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ({mode}) did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    lines = out.read_text(encoding="utf-8").splitlines()
    out.unlink()
    result = json.loads(lines[-1])
    passes = [json.loads(line) for line in lines[:-1]]
    for i, phase in enumerate(result.get("phases", [])):
        phase["latency_ns"] = [v for p in passes if p["phase"] == i for v in p["latency_ns"]]
    result["outputs"] = [o for p in passes for o in p["outputs"]]
    result["setup_s"] = result["ready"] - launched
    return result


# --------------------------------------------------------------------------
# verdicts


def references(workload: str, requests: list[dict]) -> list:
    """The oracle's answer for each request of the pool."""
    if workload == "compute-large":
        return [oracles.compute_reference(r["name"], r["s"], r["p"], r["q"]) for r in requests]
    if workload == "certify-intervals":
        return [(oracles.certify_extrema(r["family"], r["s"], r["t"], r["r"], r["R"]), r["edge"])
                for r in requests]
    return [oracles.expected_ids_digest()] * len(requests)


def _verdicts(workload: str, outputs: list, refs: list):
    """Per op: (why it failed, or None; whether that failure makes the run
    incorrect)."""
    for k, out in enumerate(outputs):
        ref = refs[k % len(refs)]
        if workload == "certify-intervals":
            extrema, edge = ref
            reason = f"raised {out[0]}" if len(out) == 1 else oracles.check_certificate(*out, extrema)
            yield reason and ("edge: " if edge else "normal: ") + reason, not edge
        elif len(out) == 1:
            yield f"raised {out[0]}", True
        elif workload == "compute-large":
            yield oracles.check_compute(*out, ref), True
        else:
            yield oracles.check_report(*out, ref), True


def score(workload: str, outputs, refs: list) -> dict:
    """Judge every op, then count by request of the pool.

    Op ``k`` serves request ``k % len(refs)``.  An op fails when it raises
    (or the CLI exits non-zero), or when its output is non-finite or
    rejected by the oracle.  A request is attempted when at least one op
    served it, and fails when any of its ops failed; ``reasons`` counts the
    failed requests by their first failure.  Counting requests rather than
    ops makes ``attempted`` and ``failed`` depend on the seed alone, not on
    how many passes fitted in the run.

    ``incorrect`` counts the failed requests that make the run incorrect:
    every failure, except in the edge slice of certify-intervals, a
    robustness probe whose failures (errors, non-finite and unsound
    certificates alike) are counted and itemised but do not clear
    ``correct``.
    """
    first_failure: dict[int, tuple[str, bool]] = {}
    failed_ops = 0
    for k, (reason, counts_against) in enumerate(_verdicts(workload, outputs, refs)):
        if reason is not None:
            failed_ops += 1
            first_failure.setdefault(k % len(refs), (reason, counts_against))
    reasons: dict[str, int] = {}
    for reason, _ in first_failure.values():
        reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "ops": len(outputs),
        "failed_ops": failed_ops,
        "attempted": min(len(outputs), len(refs)),
        "failed": len(first_failure),
        "incorrect": sum(c for _, c in first_failure.values()),
        "reasons": reasons,
    }


# --------------------------------------------------------------------------
# the run


def request_latencies_ms(phase: dict, pool: int) -> np.ndarray:
    """Each request's mean latency over its repetitions in the run.

    Whole passes give every request of the pool the same number of
    repetitions.  Averaging them before taking percentiles over the
    requests keeps the percentiles from jumping when the host's speed
    changes partway through a run, which moves the median of the raw op
    latencies in steps.
    """
    lat = np.asarray(phase["latency_ns"], dtype=np.float64) * 1e-6
    return lat.reshape(-1, pool).mean(axis=0)


def end_to_end(phase: dict, lat: np.ndarray, setups: list[float], peak_rss_mb: float) -> dict:
    return {
        "latency_p50_ms": (float(np.median(lat)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat, 90)), "ms"),
        "throughput_ops_s": (phase["ops"] / phase["elapsed_s"], "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run(args, workdir: Path) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.workload == "compute-large":
        requests = workloads.compute_requests(args.seed, workdir, args.tiny)
        warmup = min(range(len(requests)), key=lambda i: requests[i]["n"])
    elif args.workload == "certify-intervals":
        requests = workloads.certify_requests(args.seed, args.tiny)
        warmup = next(i for i, r in enumerate(requests) if not r["edge"])
    else:
        requests = workloads.verify_requests(args.seed)
        warmup = 0
    inputs = workdir / "inputs.json"
    inputs.write_text(json.dumps({"requests": workloads.worker_inputs(args.workload, requests),
                                  "warmup": warmup}), encoding="utf-8")
    refs = references(args.workload, requests)
    del requests

    if args.trace:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        res = launch(args.workload, "trace", inputs, workdir, args.seconds, deadline,
                     spans=out_dir / f"trace-{args.workload}.npz")
        untraced, traced = res["phases"]
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        metrics["trace.overhead_ratio"] = (
            (traced["ops"] / traced["elapsed_s"]) / (untraced["ops"] / untraced["elapsed_s"]),
            "ratio",
        )
    else:
        reps = TINY_SETUP_REPS if args.tiny else SETUP_REPS[args.workload]
        setups = [launch(args.workload, "setup", inputs, workdir, args.seconds, deadline)["setup_s"]
                  for _ in range(reps - 1)]
        res = launch(args.workload, "run", inputs, workdir, args.seconds, deadline)
        setups.append(res["setup_s"])
        lat = request_latencies_ms(res["phases"][0], len(refs))
        metrics = end_to_end(res["phases"][0], lat, setups, res["peak_rss_mb"])

    verdict = score(args.workload, res["outputs"], refs)
    ops = sum(p["ops"] for p in res["phases"])
    if verdict["ops"] != ops or ops % len(refs):
        raise BenchError(f"{verdict['ops']} outputs for {ops} ops in passes of {len(refs)}")
    attempted, failed = verdict["attempted"], verdict["failed"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pool {len(refs)}  ops {ops}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({len(refs)} requests, {ops} ops)" if name.startswith("latency") else ""
        print(f"  {name:<40} {value:.6g} {unit}{extra}")
    print(f"  {'fail_ratio':<40} {failed / attempted:.6g}  ({failed}/{attempted} requests, "
          f"{verdict['failed_ops']}/{ops} ops)")
    for reason, count in sorted(verdict["reasons"].items()):
        print(f"    failed: {count} x {reason}")
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": verdict["incorrect"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small pools and fewer set-ups, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the workload process is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "divbound" / "__init__.py").is_file():
        print(f"error: no divbound sources under {SRC}", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
