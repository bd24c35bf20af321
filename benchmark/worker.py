"""The workload process: set up, then serve one client's requests in a loop.

Started by ``run.py`` with the divbound sources on ``PYTHONPATH`` and the
thread-count variables pinned to 1.  It loads only the generated program
inputs (never the oracle data), runs one warm-up op, stamps the moment the
first timed op could start, and then (unless ``--mode setup``) runs the
closed loop for ``--seconds``: one op at a time, in whole passes over the
request pool.  Raw latencies and outputs go to ``--out`` as JSON lines,
one per pass, then one line with the run's summary; every verdict is made
by ``run.py``.

``--mode trace`` runs half the time untraced and half traced, so the
tracing overhead is measured within one process.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout

from divbound import bounds, cli, verify

from oracles import ids_digest


class ComputeOps:
    """``divbound compute`` requests served through ``cli.main``."""

    def __init__(self, inputs):
        self.requests = inputs["requests"]
        self.warmup = inputs["warmup"]

    def __len__(self):
        return len(self.requests)

    def call(self, k):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(self.requests[k % len(self.requests)])
        return [code, out.getvalue()]

    def output(self, result):
        return result


class CertifyOps:
    """One ``bounds.closed_form_mM`` call per request, with cross-check."""

    def __init__(self, inputs):
        families = {f.value: f for f in bounds.InequalityFamily}
        self.requests = [(families[f], s, t, r, R) for f, s, t, r, R in inputs["requests"]]
        self.warmup = inputs["warmup"]

    def __len__(self):
        return len(self.requests)

    def call(self, k):
        return bounds.closed_form_mM(*self.requests[k % len(self.requests)])

    def output(self, cert):
        return [cert.m, cert.M]


class VerifyOps:
    """One harness run per op, with the configuration of request ``k``."""

    def __init__(self, inputs):
        self.configs = [
            verify.VerifyConfig(trials=c["trials"], seed=c["seed"], subjects=tuple(c["subjects"]))
            for c in inputs["requests"]
        ]
        self.warmup = inputs["warmup"]

    def __len__(self):
        return len(self.configs)

    def call(self, k):
        return verify.run(self.configs[k % len(self.configs)])

    def output(self, report):
        finite = all(math.isfinite(c.worst_slack) for c in report.checks.values())
        return [report.all_passed, ids_digest(report.checks), finite]


OPS = {"compute-large": ComputeOps, "certify-intervals": CertifyOps, "verify-harness": VerifyOps}


def closed_loop(ops, seconds: float, first: int, sink, phase: int, tracer=None) -> dict:
    """Run ops back to back until ``seconds`` have passed and a pass over
    the pool is complete.  Whole passes keep the request mix, and with it
    the fail ratio, identical for a given seed.

    Each pass's latencies and outputs are written to ``sink`` as one JSON
    line when the pass ends, so the process's memory does not grow with
    the number of ops; the writing is excluded from the timed wall time.
    An op that raises is recorded as ``[exception name]``.
    """
    latency, outputs = array("q"), []
    paused = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    k = first
    while True:
        if (k - first) % len(ops) == 0 and k > first:
            now = time.perf_counter()
            sink.write(json.dumps({"phase": phase, "latency_ns": latency.tolist(),
                                   "outputs": outputs}) + "\n")
            latency, outputs = array("q"), []
            paused += time.perf_counter() - now
            if now >= deadline:
                break
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter_ns()
        try:
            result = ops.call(k)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latency.append(time.perf_counter_ns() - t0)
            outputs.append([type(exc).__name__])
        else:
            latency.append(time.perf_counter_ns() - t0)
            outputs.append(ops.output(result))
        k += 1
    return {"ops": k - first, "elapsed_s": time.perf_counter() - start - paused}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    with open(args.inputs, encoding="utf-8") as fh:
        ops = OPS[args.workload](json.load(fh))
    ops.call(ops.warmup)
    result = {"ready": time.monotonic()}
    with open(args.out, "w", encoding="utf-8") as sink:
        if args.mode == "run":
            result["phases"] = [closed_loop(ops, args.seconds, 0, sink, 0)]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elif args.mode == "trace":
            import tracing

            untraced = closed_loop(ops, args.seconds / 2, 0, sink, 0)
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            traced = closed_loop(ops, args.seconds / 2, untraced["ops"], sink, 1, tracer)
            result["phases"] = [untraced, traced]
            result["layers"] = tracing.layer_metrics(tracer, traced["ops"])
            if args.spans:
                tracing.write_spans(tracer, args.spans)
        sink.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
