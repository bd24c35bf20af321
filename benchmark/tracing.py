"""Spans around the calls into divbound's layers, recorded from outside.

:func:`instrument` wraps every public function of the layer modules (plus
``simplex._draw``, which the harness calls as a module attribute) and
rebinds the wrapper in every ``divbound`` module that holds the function,
so calls made through those names are recorded; nothing in the package
changes.  Calls made through other references (such as the kernel table
in ``measures``) stay inside their caller's span.

A span is (op, id, parent, name, start_ns, end_ns, work): every span of one
op shares the op id, and ``work`` is the size of the input where a per-unit
cost is reported (summed terms, curvature points, loaded masses).  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("_accum", "simplex", "measures", "families", "generators", "bounds", "verify", "cli")
PRIVATE_TRACED = {"simplex._draw"}
KERNELS = ("families.phi_s", "families.omega_s", "families.zeta_s")


#: the input size behind each per-unit cost: summed terms, curvature
#: points, loaded masses
WORK = {
    "_accum.comp_sum": lambda args, result: np.size(args[0]),
    "generators.gen_d2": lambda args, result: np.size(args[1]),
    "simplex.load_distribution": lambda args, result: result.n,
}


class Tracer:
    """Collects spans and the counters that need a call's result."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        work_of = WORK.get(name)
        on_result = _RESULT_HOOKS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            work = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if work_of is not None:
                    work = int(work_of(args, result))
                if on_result is not None:
                    result = on_result(tracer, result)
                return result
            except Exception as exc:
                if name == "bounds.closed_form_mM":
                    tracer.counters[f"bounds.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((tracer.op, span_id, parent, name_idx, start, end, work))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def _count_closed_form(tracer: Tracer, cert):
    if cert.source.value == "closed-form":
        tracer.counters["bounds.closed_form_shipped"] += 1
    return cert


def _count_scalar_d2(tracer: Tracer, fn):
    counters = tracer.counters

    def counted(x):
        counters["generators.scalar_d2.evals"] += 1
        return fn(x)

    return counted


_RESULT_HOOKS = {
    "bounds.closed_form_mM": _count_closed_form,
    "generators.gen_d2_scalar": _count_scalar_d2,
}


def instrument(tracer: Tracer) -> None:
    """Rebind every traced function, in every divbound module that holds it."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"divbound.{layer}")
        for attr, obj in vars(module).items():
            qualified = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and (not attr.startswith("_") or qualified in PRIVATE_TRACED)
            ):
                wrappers[obj] = tracer.wrap(qualified, obj)
    for name, module in list(sys.modules.items()):
        if name == "divbound" or name.startswith("divbound."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])


def write_spans(tracer: Tracer, path) -> None:
    cols = np.array(tracer.spans, dtype=np.int64).reshape(-1, 7)
    np.savez_compressed(
        path,
        op=cols[:, 0], id=cols[:, 1], parent=cols[:, 2], name=cols[:, 3],
        start_ns=cols[:, 4], end_ns=cols[:, 5], work=cols[:, 6],
        names=np.array(tracer.names),
    )


# --------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, per op where it says /op.

    Self time is a span's duration minus the time its child spans cover.
    Two metrics gather a layer's self time under an entry point:
    ``simplex.load`` is the whole of ``load_distribution`` (every span below
    it is a simplex span), and ``families.family_value`` adds the kernels
    it dispatches to; ``families.kernel`` holds the kernels called directly.
    """
    names = tracer.names
    spans = tracer.spans
    by_id = {}
    child_ns = Counter()
    for sp in spans:
        by_id[sp[1]] = sp
        if sp[2] >= 0:
            child_ns[sp[2]] += sp[5] - sp[4]

    def under(sp, ancestor: str) -> bool:
        parent = sp[2]
        while parent >= 0:
            up = by_id[parent]
            if names[up[3]] == ancestor:
                return True
            parent = up[2]
        return False

    calls, self_ns, total_ns, work = Counter(), Counter(), Counter(), Counter()
    kernel_direct_ns = 0
    kernel_in_family_value_ns = 0
    fallback_rows = 0
    for sp in spans:
        name = names[sp[3]]
        dur = sp[5] - sp[4]
        own = dur - child_ns[sp[1]]
        calls[name] += 1
        self_ns[name] += own
        total_ns[name] += dur
        work[name] += sp[6]
        if name in KERNELS:
            if under(sp, "families.family_value"):
                kernel_in_family_value_ns += own
            else:
                kernel_direct_ns += own
        elif name == "bounds.numeric_mM" and under(sp, "verify.sandwich_slack_bulk"):
            fallback_rows += 1

    ops = max(ops, 1)
    per_op = 1.0 / ops

    def sec(ns):
        return ns * 1e-9 * per_op

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    certs = calls["bounds.closed_form_mM"]
    m = {
        "accum.comp_sum.calls": (calls["_accum.comp_sum"] * per_op, "1/op"),
        "accum.comp_sum.self_s": (sec(self_ns["_accum.comp_sum"]), "s/op"),
        "accum.comp_sum.ns_per_term": (
            ratio(self_ns["_accum.comp_sum"], work["_accum.comp_sum"]), "ns"),
        "simplex.load.self_s": (sec(total_ns["simplex.load_distribution"]), "s/op"),
        "simplex.load.ns_per_mass": (
            ratio(total_ns["simplex.load_distribution"], work["simplex.load_distribution"]),
            "ns"),
        "simplex.draw.self_s": (sec(self_ns["simplex._draw"]), "s/op"),
        "simplex.draw.us_per_pair": (
            ratio(self_ns["simplex._draw"] * 1e-3, calls["simplex._draw"] / 2), "us"),
        "measures.evaluate.calls": (calls["measures.evaluate"] * per_op, "1/op"),
        "measures.evaluate.self_s": (sec(self_ns["measures.evaluate"]), "s/op"),
        "families.family_value.calls": (calls["families.family_value"] * per_op, "1/op"),
        "families.family_value.self_s": (
            sec(self_ns["families.family_value"] + kernel_in_family_value_ns), "s/op"),
        "families.kernel.self_s": (sec(kernel_direct_ns), "s/op"),
        "generators.gen_d2.calls": (calls["generators.gen_d2"] * per_op, "1/op"),
        "generators.gen_d2.points": (work["generators.gen_d2"] * per_op, "1/op"),
        "generators.gen_d2.self_s": (sec(self_ns["generators.gen_d2"]), "s/op"),
        "generators.scalar_d2.evals": (c["generators.scalar_d2.evals"] * per_op, "1/op"),
        "generators.csiszar_bulk.calls": (calls["generators.csiszar_bulk"] * per_op, "1/op"),
        "generators.csiszar_bulk.self_s": (sec(self_ns["generators.csiszar_bulk"]), "s/op"),
        "bounds.closed_form_mM.calls": (certs * per_op, "1/op"),
        "bounds.closed_form_mM.self_s": (sec(self_ns["bounds.closed_form_mM"]), "s/op"),
        "bounds.numeric_mM.calls": (calls["bounds.numeric_mM"] * per_op, "1/op"),
        "bounds.numeric_mM.self_s": (sec(self_ns["bounds.numeric_mM"]), "s/op"),
        "bounds.numeric_mM.us_per_call": (
            ratio(total_ns["bounds.numeric_mM"] * 1e-3, calls["bounds.numeric_mM"]), "us"),
        "bounds.numeric_per_cert": (ratio(calls["bounds.numeric_mM"], certs), "ratio"),
        "bounds.closed_form_ship_ratio": (
            ratio(c["bounds.closed_form_shipped"], certs), "ratio"),
        "bounds.errors.OverflowError": (c["bounds.errors.OverflowError"] * per_op, "1/op"),
        "bounds.errors.DegenerateDenominator": (
            c["bounds.errors.DegenerateDenominator"] * per_op, "1/op"),
        "bounds.errors.other": (
            sum(v for k, v in c.items() if k.startswith("bounds.errors.")
                and k not in ("bounds.errors.OverflowError",
                              "bounds.errors.DegenerateDenominator")) * per_op,
            "1/op"),
        "verify.run.self_s": (sec(self_ns["verify.run"]), "s/op"),
        "verify.sandwich_slack_bulk.calls": (
            calls["verify.sandwich_slack_bulk"] * per_op, "1/op"),
        "verify.sandwich_slack_bulk.self_s": (
            sec(self_ns["verify.sandwich_slack_bulk"]), "s/op"),
        "verify.numeric_fallback_rows": (fallback_rows * per_op, "1/op"),
        "cli.main.self_s": (sec(self_ns["cli.main"]), "s/op"),
    }
    return m
