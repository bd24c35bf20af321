"""Command-line front end.

Subcommands: ``compute`` (measure and family values), ``bounds``
(certificates), ``verify`` (Monte-Carlo harness), ``catalog`` (listing).

Exit codes: 0 success, 1 input/config error, 2 verification violation,
3 strict-mode region violation.  Data goes to stdout in the requested
format; diagnostics go to stderr only.  Identical invocations on identical
inputs (and seed) produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bounds import (
    FAMILY_DEFS,
    SLACK_REL_TOL,
    InequalityFamily,
    _sandwich,
    closed_form_mM,
    corollary_table,
    family_generators,
)
from .errors import DivboundError, NonFiniteValue, RegionViolation
from .families import ZETA_CONVEX_RANGE, Family, FamilyId, family_value, in_convex_range
from .measures import MeasureId, MeasureKind, Orientation, evaluate
from .simplex import load_distribution, ratio_bounds
from .verify import DEFAULT_SUBJECTS, VerifyConfig, run

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_REGION = 3

_FAMILY_NAMES = {f.value: f for f in Family}
_MEASURE_NAMES = {k.value: k for k in MeasureKind}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # verification violations here, so remap to the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _fmt(value: float) -> str:
    # shortest representation that round-trips to the same double
    return repr(float(value))


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _load_pair(args):
    P = load_distribution(args.p, renormalize=args.normalize)
    Q = load_distribution(args.q, renormalize=args.normalize)
    return P, Q


def _cmd_compute(args) -> int:
    name = args.name
    P, Q = _load_pair(args)
    base, _, suffix = name.partition(":")
    family = _FAMILY_NAMES.get(base)
    # main reports each ValueError as an input error
    if family is None and base not in _MEASURE_NAMES:
        raise ValueError(f"unknown measure or family {name!r}")
    if family is not None and args.s is None:
        raise ValueError(f"family {base!r} requires --s")
    try:
        orientation = Orientation(suffix or Orientation.PQ.value)
    except ValueError:
        raise ValueError(f"unknown orientation suffix {suffix!r}") from None
    if orientation is Orientation.QP:
        P, Q = Q, P
    if family is not None:
        if not in_convex_range(family, args.s):
            lo, hi = ZETA_CONVEX_RANGE
            print(
                f"warning: {base} generator is non-convex for s outside "
                f"[{lo:g}, {hi:g}]; the value is not a certified divergence",
                file=sys.stderr,
            )
        # an overflowing term is reported below as an error, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            value = family_value(FamilyId(family, args.s), P, Q)
        s_field = args.s
    else:
        value = evaluate(MeasureId(_MEASURE_NAMES[base]), P, Q)
        s_field = None
    if not math.isfinite(value):
        raise NonFiniteValue(
            f"{name} evaluates to {value!r}: a term of the sum overflows double precision"
        )
    if args.format == "json":
        _emit(json.dumps({"name": name, "s": s_field, "value": value}))
    elif args.format == "csv":
        _emit("name,s,value\n" + f"{name},{'' if s_field is None else _fmt(s_field)},{_fmt(value)}")
    else:
        _emit(_fmt(value))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    family = InequalityFamily(args.family)
    if args.p or args.q:
        if not (args.p and args.q):
            print("error: provide both --p and --q, or --r and --R", file=sys.stderr)
            return EXIT_INPUT
        P, Q = _load_pair(args)
        rb = ratio_bounds(P, Q)
        r, R = rb.r, rb.R
    elif args.r is not None and args.R is not None:
        r, R = args.r, args.R
        P = Q = None
    else:
        print("error: provide either --r/--R or --p/--q", file=sys.stderr)
        return EXIT_INPUT
    # an overflowing constant is reported as an error, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        cert = closed_form_mM(family, args.s, args.t, r, R, strict=args.strict_closed_form)
        payload = cert.to_dict()
        if P is not None:
            payload["sandwich"] = _sandwich(cert, P, Q).to_dict()
    if args.format == "csv":
        keys = [k for k in payload if k != "sandwich"]
        row = [str(payload[k]) if not isinstance(payload[k], float) else _fmt(payload[k])
               for k in keys]
        _emit(",".join(keys) + "\n" + ",".join(row))
    elif args.format == "text":
        lines = [f"family {cert.family.value}  s={_fmt(cert.s)}  t={_fmt(cert.t)}",
                 f"interval [{_fmt(cert.r)}, {_fmt(cert.R)}]",
                 f"m = {_fmt(cert.m)}",
                 f"M = {_fmt(cert.M)}",
                 f"source = {cert.source.value}  region_ok = {cert.region_ok}"]
        if cert.erratum:
            lines.append(f"erratum: {cert.erratum}")
        if P is not None:
            rep = payload["sandwich"]
            lines.append(
                f"sandwich: {_fmt(rep['lhs'])} <= {_fmt(rep['mid'])} <= "
                f"{_fmt(rep['rhs'])} ({'pass' if rep['passed'] else 'FAIL'})"
            )
        _emit("\n".join(lines))
    else:
        _emit(json.dumps(payload, ensure_ascii=False))
    return EXIT_OK


def _cmd_verify(args) -> int:
    subjects = tuple(s.strip() for s in args.subjects.split(",")) if args.subjects else DEFAULT_SUBJECTS
    lo, _, hi = args.n_range.partition(":")
    config = VerifyConfig(
        trials=args.trials,
        n_range=(int(lo), int(hi or lo)),
        seed=args.seed,
        concentration=args.concentration,
        rel_tol=args.rel_tol,
        subjects=subjects,
    )
    report = run(config)
    if args.format == "text":
        lines = []
        for cid, res in report.checks.items():
            status = "pass" if res.passes == res.attempts else "FAIL"
            lines.append(
                f"{status}  {cid}  {res.passes}/{res.attempts}  worst={_fmt(res.worst_slack)}"
            )
        _emit("\n".join(lines))
    elif args.format == "csv":
        rows = ["check,kind,attempts,passes,worst_slack"]
        for cid, res in report.checks.items():
            rows.append(f"{cid},{res.kind},{res.attempts},{res.passes},{_fmt(res.worst_slack)}")
        _emit("\n".join(rows))
    else:
        _emit(report.to_json())
    print(f"verify: wall time {report.wall_time:.3f}s", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VIOLATION


def _catalog_entries() -> dict:
    measures = [m.value for m in MeasureKind]
    families = [f.value for f in Family]
    ineq = []
    for fam, fd in FAMILY_DEFS.items():
        for br in fd.branches:
            ineq.append({
                "family": fam.value,
                "tag": br.tag,
                "label": fd.label,
                "condition": br.condition,
            })
    corollaries = [
        {
            "name": c.name,
            "family": c.family.value,
            "s": c.s,
            "t": c.t,
            "display": c.display,
            "source": c.source_tag,
            "note": c.note,
        }
        for c in corollary_table()
    ]
    return {
        "measures": measures,
        "families": families,
        "inequality_families": ineq,
        "corollaries": corollaries,
    }


def _cmd_catalog(args) -> int:
    data = _catalog_entries()
    if args.format == "json":
        _emit(json.dumps(data, ensure_ascii=False))
    elif args.format == "csv":
        rows = ["section,name,detail"]
        for m in data["measures"]:
            rows.append(f"measure,{m},")
        for f in data["families"]:
            rows.append(f"family,{f},")
        for e in data["inequality_families"]:
            rows.append(f"inequality,({e['tag']}),\"{e['label']} [{e['condition']}]\"")
        for c in data["corollaries"]:
            rows.append(f"corollary,{c['name']},\"{c['display']}\"")
        _emit("\n".join(rows))
    else:
        lines = ["measures:"]
        lines += [f"  {m}" for m in data["measures"]]
        lines.append("families (--s <real>):")
        lines += [f"  {f}" for f in data["families"]]
        lines.append("inequality families:")
        for e in data["inequality_families"]:
            lines.append(f"  ({e['tag']}): {e['label']}  [{e['condition']}]  --family {e['family']}")
        lines.append("corollaries:")
        for c in data["corollaries"]:
            lines.append(f"  {c['name']}: {c['display']}  (family {c['family']}, s={c['s']:g}, t={c['t']:g})")
        _emit("\n".join(lines))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="divbound", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"divbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = {"choices": ("text", "json", "csv")}

    c = sub.add_parser("compute", help="evaluate a measure or type-s family on a pair")
    c.add_argument("name", help="measure (e.g. kl, chi2:qp) or family (phi, omega, ...)")
    c.add_argument("--s", type=float, default=None, help="family parameter")
    c.add_argument("--p", required=True, help="file with the P masses (JSON array or CSV)")
    c.add_argument("--q", required=True, help="file with the Q masses")
    c.add_argument("--normalize", action="store_true",
                   help="explicitly rescale inputs to unit sum before validation")
    c.add_argument("--format", default="text", **fmt)
    c.set_defaults(fn=_cmd_compute)

    b = sub.add_parser("bounds", help="emit a bound certificate")
    b.add_argument("--family", required=True, choices=[f.value for f in InequalityFamily])
    b.add_argument("--s", type=float, required=True)
    b.add_argument("--t", type=float, required=True)
    b.add_argument("--r", type=float, default=None, help="lower ratio bound")
    b.add_argument("--R", type=float, default=None, help="upper ratio bound")
    b.add_argument("--p", default=None, help="file with the P masses")
    b.add_argument("--q", default=None, help="file with the Q masses")
    b.add_argument("--normalize", action="store_true")
    b.add_argument("--strict-closed-form", action="store_true",
                   help="fail (exit 3) instead of falling back to numeric out of region")
    b.add_argument("--format", default="json", **fmt)
    b.set_defaults(fn=_cmd_bounds)

    v = sub.add_parser("verify", help="run the Monte-Carlo verification harness")
    v.add_argument("--trials", type=int, default=1000)
    # a string default is converted only if used: a bad DIVBOUND_SEED is a verify usage error
    v.add_argument("--seed", type=int, default=os.environ.get("DIVBOUND_SEED", "0"))
    v.add_argument("--subjects", default=None,
                   help="comma list: identities,families,corollaries,bounds-grid,all")
    v.add_argument("--n-range", default="2:10", help="simplex sizes, e.g. 2:10")
    v.add_argument("--concentration", type=float, default=1.0)
    v.add_argument("--rel-tol", type=float, default=SLACK_REL_TOL)
    v.add_argument("--format", default="json", **fmt)
    v.set_defaults(fn=_cmd_verify)

    k = sub.add_parser("catalog", help="list measures, families, bounds and corollaries")
    k.add_argument("--format", default="text", **fmt)
    k.set_defaults(fn=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RegionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGION
    except DivboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
