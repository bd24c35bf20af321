"""Monte-Carlo verification harness and independent oracles.

:func:`run` samples reproducible Dirichlet pairs and exercises the selected
check suites on every pair, recording pass counts, the worst observed
residual or slack, and a shrunk witness pair for any violation.  It never
aborts on a failure; the harness exists to adjudicate formulas, so a
violation is data, not an error.

Determinism: the trials' simplex sizes come from one RNG stream keyed by
``(seed,)``, and the pairs of all trials of size ``n`` from one batched
Dirichlet draw on the stream keyed by ``(seed, n)`` (:func:`_sample_trials`),
so the report depends only on the configuration, not on scheduling.
Identical configurations produce bit-identical report JSON.

What no sample changes is built once per subject set, on first use
(:func:`_plan`): the checks, and one object (:class:`_Sandwiches`) that
holds the sandwich checks as integer indices into a table of their
generator specs, and each distinct curvature ratio's record (the
:class:`bounds._Pair` that :func:`closed_form_mM` reads) with its verdict:
its direction where the library's own decision (:meth:`bounds._Ratio.direction`)
finds it monotone on [1e-30, 1e30].  A run groups its trials by simplex size
into blocks, the outer loop.  A ratio monotone there, or on the run's ratio
envelope by the same decision, takes outward bounds of its endpoint values;
any other ratio takes each row's own enclosure, as :func:`numeric_mM` gives
it.  Per block, one table of generator values along a stacked ``s`` axis
feeds one array step over ``(checks x rows)`` per pair of generator kinds.
The other checks of a block read one table of measure values and family
``s`` sweeps (:class:`_Values`), summed in one compensated sum over their
stacked terms.  Each block keeps every check's first-index
``argmax``/``argmin`` (:class:`_Tally`), and one more over these, in trial
order, picks the run's worst trial.

:func:`brute_force_mM` is the deliberately plain oracle for the bound
engine - a dense linear grid with no refinement, on a different
discretization and algebraic path than the engine's cubic - so the two
can cross-validate each other.
"""

from __future__ import annotations

import json
import threading
import time
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from numbers import Real
from typing import Callable, Optional

import numpy as np

from . import measures as ms
from . import simplex
from .bounds import (
    PARAM_GRID,
    SLACK_REL_TOL,
    _SPAN,
    _json_fields,
    _pair,
    _Pair,
    _Ratio,
    InequalityFamily,
    closed_form_mM,
    corollary_table,
    family_generators,
    in_region,
    log_curvatures,
    region_grid,
)
from .errors import (ConfigInvalid, DegenerateDenominator, InvalidArgument,
                     RegionViolation)
from .families import _FAMILIES, Family, in_convex_range
from .generators import GeneratorSpec, csiszar_bulk, gen_d2, log_d2

SUBJECTS = ("identities", "families", "corollaries", "bounds-grid")
DEFAULT_SUBJECTS = ("identities", "families", "corollaries")
MAX_TRIALS = 10_000_000
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True)
class VerifyConfig:
    trials: int
    n_range: tuple[int, int] = (2, 10)
    seed: int = 0
    concentration: float = 1.0
    rel_tol: float = SLACK_REL_TOL
    subjects: tuple[str, ...] = DEFAULT_SUBJECTS

    def __post_init__(self):
        integer, n_range = simplex._integer, self.n_range
        pair = isinstance(n_range, tuple) and len(n_range) == 2 and all(map(integer, n_range))
        # (field, whether its type and then its range hold, what it must be)
        for name, ok, need in (
            ("trials", integer(self.trials) and 1 <= self.trials <= MAX_TRIALS,
             f"an integer in [1, {MAX_TRIALS}]"),
            ("n_range", pair and 2 <= n_range[0] <= n_range[1], "two integers with 2 <= lo <= hi"),
            ("seed", integer(self.seed) and self.seed >= 0, "a non-negative integer"),
            ("concentration", isinstance(self.concentration, Real)
             and 0.0 < self.concentration < np.inf, "positive and finite"),
            ("rel_tol", isinstance(self.rel_tol, Real) and 0.0 < self.rel_tol < 1.0, "in (0, 1)"),
            ("subjects", isinstance(self.subjects, tuple) and len(self.subjects) > 0,
             "a non-empty tuple of subject names"),
        ):
            if not ok:
                raise ConfigInvalid(f"{name} must be {need}, got {getattr(self, name)!r}")
        unknown = [s for s in self.subjects if s not in SUBJECTS and s != "all"]
        if unknown:
            raise ConfigInvalid(f"unknown subjects {unknown}; valid: {list(SUBJECTS)}")

    def to_dict(self) -> dict:
        return _json_fields(self)


@dataclass(frozen=True)
class Witness:
    p: tuple[float, ...]
    q: tuple[float, ...]
    s: Optional[float] = None
    t: Optional[float] = None

    def to_dict(self) -> dict:
        return _json_fields(self)


@dataclass(frozen=True)
class CheckResult:
    kind: str  # "residual" (pass iff <= tol) or "slack" (pass iff >= -tol)
    attempts: int
    passes: int
    worst_slack: float
    witness: Optional[Witness] = None

    def to_dict(self) -> dict:
        return _json_fields(self)


@dataclass(frozen=True)
class VerificationReport:
    config: VerifyConfig
    checks: dict[str, CheckResult]
    wall_time: float

    @property
    def all_passed(self) -> bool:
        return all(c.passes == c.attempts for c in self.checks.values())

    def to_dict(self, include_timing: bool = False) -> dict:
        out = _json_fields(self, skip=() if include_timing else {"wall_time"})
        return {"seed": out["config"]["seed"], **out}

    def to_json(self, include_timing: bool = False) -> str:
        # wall_time is excluded by default so identical configurations
        # serialize to byte-identical reports
        return json.dumps(self.to_dict(include_timing), ensure_ascii=False)


# --------------------------------------------------------------------------
# check construction


class _Values(ms._Values):
    """The measure values of one block of pairs, and its family sweeps: a
    name of :data:`_SWEEPS` holds one call of a family's kernel over an
    ``s`` grid, one row per ``s``.  No entry is derived from another, so the
    two sides of a check stay independent."""

    def terms(self, key: str) -> tuple[float, np.ndarray]:
        if key not in _SWEEPS:
            return super().terms(key)
        family, s, pair = _SWEEPS[key]
        return 1.0, _FAMILIES[family].terms(np.array(s), *pair(self.P, self.Q))


#: name: (family, s grid, the pair its kernel reads from (P, Q)).  A family's
#: own name holds the harness grid where its generator is convex; two more
#: sweeps hold the other sides of the phi swap duality and of the omega-adj
#: midpoint substitution
_SWEEPS = {
    f.value: (f, tuple(s for s in PARAM_GRID if in_convex_range(f, s)), lambda P, Q: (P, Q))
    for f in Family
}
_SWEEPS["phi(1-s):qp"] = (Family.PHI, tuple(1.0 - s for s in PARAM_GRID), lambda P, Q: (Q, P))
_SWEEPS["phi:mid"] = (Family.PHI, PARAM_GRID, lambda P, Q: ((P + Q) / 2.0, Q))


@dataclass(frozen=True)
class _Check:
    id: str
    kind: str  # "residual" | "slack"
    fn: Callable[[_Values], np.ndarray]
    # the curvature-ratio record of a sandwich check, which :func:`run`
    # evaluates through its plan's :class:`_Sandwiches`
    pair: Optional[_Pair] = None


def _scaled_residual(lhs, rhs):
    return np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _residual(id: str, lhs: Callable, rhs: Callable) -> _Check:
    return _Check(id, "residual", lambda v: _scaled_residual(lhs(v), rhs(v)))


def _identity_checks() -> list[_Check]:
    return [_residual(f"identity/{name}", lhs, rhs) for name, lhs, rhs in ms._IDENTITIES] + [
        _residual(f"identity/symmetric/{k}", lambda v, k=k: v[k], lambda v, k=k: v[k + ":qp"])
        for k in ("psi", "j", "js", "agt", "delta")
    ]


# family(s) = factor * measure: the classical measures recovered at special s
_PARTICULAR_CASES = (
    ("phi(-1)=chi2(Q||P)/2", "phi", -1.0, "chi2:qp", 0.5),
    ("phi(0)=K(Q||P)", "phi", 0.0, "kl:qp", 1.0),
    ("phi(1/2)=4h", "phi", 0.5, "hellinger", 4.0),
    ("phi(1)=K(P||Q)", "phi", 1.0, "kl", 1.0),
    ("phi(2)=chi2(P||Q)/2", "phi", 2.0, "chi2", 0.5),
    ("omega(-1)=delta/4", "omega", -1.0, "delta", 0.25),
    ("omega-adj(-1)=delta/4", "omega-adj", -1.0, "delta", 0.25),
    ("omega(0)=F(P||Q)", "omega", 0.0, "rjs", 1.0),
    ("omega(1)=G(P||Q)", "omega", 1.0, "rag", 1.0),
    ("omega(2)=chi2(Q||P)/8", "omega", 2.0, "chi2:qp", 0.125),
    ("omega-adj(0)=F(Q||P)", "omega-adj", 0.0, "rjs:qp", 1.0),
    ("omega-adj(1)=G(Q||P)", "omega-adj", 1.0, "rag:qp", 1.0),
    ("omega-adj(2)=chi2(P||Q)/8", "omega-adj", 2.0, "chi2", 0.125),
    ("zeta(0)=delta", "zeta", 0.0, "delta", 1.0),
    ("zeta-adj(0)=delta", "zeta-adj", 0.0, "delta", 1.0),
    ("zeta(1)=D(P||Q)", "zeta", 1.0, "rjd", 1.0),
    ("zeta(2)=chi2(P||Q)/2", "zeta", 2.0, "chi2", 0.5),
    ("zeta-adj(1)=D(Q||P)", "zeta-adj", 1.0, "rjd:qp", 1.0),
    ("zeta-adj(2)=chi2(Q||P)/2", "zeta-adj", 2.0, "chi2:qp", 0.5),
)


def _particular_check(name: str, family: str, s: float, measure: str, factor: float) -> _Check:
    row = _SWEEPS[family][1].index(s)
    return _residual(f"family/particular/{name}", lambda v: v[family][row],
                     lambda v: factor * v[measure])


def _family_checks() -> list[_Check]:
    checks = [_particular_check(*case) for case in _PARTICULAR_CASES]
    checks += [
        _Check(f"family/{name}", "residual",
               lambda v, a=a, b=b: _scaled_residual(v[a], v[b]).max(axis=0))
        for name, a, b in (("phi-swap-duality", "phi", "phi(1-s):qp"),
                           ("omega-adj-midpoint-substitution", "omega-adj", "phi:mid"))
    ]
    checks += [
        _Check(f"family/nonneg/{f.value}", "slack", lambda v, k=f.value: v[k].min(axis=0))
        for f in Family
    ]
    return checks


#: the sandwich checks of one pair of generator kinds: their ``rows`` in the
#: check list, their generators' rows ``num`` and ``den`` in the spec table,
#: the index ``ratio`` of each one's record in ``ratios``, the group's distinct
#: records (a tuple), and their :meth:`bounds._Pair.verdict` ``direction`` (0
#: where there is none) and ``sign``
_Group = namedtuple("_Group", "rows num den ratio ratios direction sign")
#: a group's checks proven on an envelope (:meth:`_Sandwiches.prove`)
_Family = namedtuple("_Family", "rows num den direction sign m M numeric")


def _frozen(a) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


class _Sandwiches:
    """The sandwich checks of a subject set, from each check's curvature-ratio
    record (None for other checks).

    Holds the spec table ``specs`` (each generator kind's specs together)
    with its :func:`log_d2` ``records`` and ``stacks`` (one stacked spec per
    kind), and per pair of generator kinds a :data:`_Group`; every array is
    read-only.  A group is evaluated as one array step: groups of a few dozen
    checks keep the ``(checks x rows)`` temporaries small.
    """

    def __init__(self, pairs: list[Optional[_Pair]]):
        specs = dict.fromkeys(spec for pair in pairs if pair for spec in (pair.num, pair.den))
        self.specs = tuple(sorted(specs, key=lambda spec: spec.gen.value))
        self.records = _frozen(np.array([log_d2(spec) for spec in self.specs]).reshape(-1, 6))
        self.stacks = tuple(GeneratorSpec(gen, _frozen([spec.s for spec in specs]))
                            for gen, specs in groupby(self.specs, lambda spec: spec.gen))
        index = {spec: i for i, spec in enumerate(self.specs)}
        members = {}
        for k, pair in enumerate(pairs):
            if pair is not None:
                members.setdefault((pair.num.gen, pair.den.gen), []).append(k)
        groups = []
        for ks in members.values():
            distinct = {}
            ratio = [distinct.setdefault(pairs[k], len(distinct)) for k in ks]
            rows = [(index[pairs[k].num], index[pairs[k].den]) for k in ks]
            verdicts = zip(*(pair.verdict() for pair in distinct))
            groups.append(_Group(*map(_frozen, (ks, *zip(*rows), ratio)), tuple(distinct),
                                 *map(_frozen, verdicts)))
        self.groups = tuple(groups)

    def prove(self, lo: float, hi: float) -> list:
        """Per :data:`_Group`, a :data:`_Family` on the envelope [lo, hi] of
        every block's ratios: each check's ``direction`` (0 where not
        monotone or where g has a zero; +1 on a zero-width envelope) and
        ``sign`` (of g at lo): its record's verdict, or the record's scalar
        :class:`_Ratio` where it has none or [lo, hi] leaves :data:`_SPAN`.
        ``m`` and ``M`` are the flat rows (4 spec + slot) of the bounds each
        constant divides: at r (m) and R (M) where g rises, else the
        reverse; a lower bound of |g| (numerator's lower over denominator's
        upper) for m if g > 0 and M if g < 0.  ``numeric`` lists the
        unproven ``(check, record)``."""
        families, inside = [], _SPAN[0] <= lo <= hi <= _SPAN[1]
        for group in self.groups:
            direction, sign = group.direction.copy(), group.sign.copy()
            for k in np.flatnonzero((direction == 0) | (not inside)).tolist():
                g = _Ratio(group.ratios[k], lo, hi)
                direction[k], sign[k] = g.direction() if lo < hi else 1, g.ends[0].s
            direction = (direction if lo < hi else np.ones_like(direction))[group.ratio]
            sign = sign[group.ratio]
            end, neg = (direction <= 0).astype(int), 2 * (sign < 0)
            num, den = 4 * group.num, 4 * group.den
            families.append(_Family(
                group.rows, group.num, group.den, direction, sign[:, None],
                (num + neg + end, den + 2 - neg + end), (num + 3 - neg - end, den + 1 + neg - end),
                [(c, group.ratios[group.ratio[c]])
                 for c in np.flatnonzero(direction == 0).tolist()],
            ))
        return families

    def table(self, P: np.ndarray, Q: np.ndarray) -> tuple:
        """``(r, R, bounds, div)`` of a block of pairs: each row's ratio
        envelope [r, R] and, per spec, ``bounds`` on |f''| at every r and R in
        the slots ``lo_r, lo_R, hi_r, hi_R`` (one :func:`log_curvatures` call,
        padded as ``exp(L) (1 -+ 2e)``) and its f-divergence ``div`` on every
        row (one compensated sum per generator kind, over a stacked ``s``).
        Every value is bit-for-bit the single spec's."""
        ratios = P / Q
        r, R = ratios.min(axis=1), ratios.max(axis=1)
        L, _, e = log_curvatures(self.records, np.concatenate([r, R]))
        with np.errstate(over="ignore"):
            mag = np.exp(L)
        # the relative padding needs a normal exp(L); past it widen to 0, max / 2, 2 * tiny
        lo = np.minimum(mag * (1.0 - 2.0 * e), 0.5 * _HUGE) * (mag >= _TINY)
        hi = np.maximum(mag * (1.0 + 2.0 * e), 2.0 * _TINY)
        bounds = np.concatenate([lo, hi], axis=1).reshape(len(self.specs), 4, P.shape[0])
        div = [np.empty((0, P.shape[0]))] + [csiszar_bulk(stack, P, Q) for stack in self.stacks]
        return r, R, bounds, np.concatenate(div)

    def slacks(self, P: np.ndarray, Q: np.ndarray, families: list):
        """``(family, m, M, slack)`` per :data:`_Family` of ``families``
        (:meth:`prove`), one at a time, as ``(checks x rows)`` arrays over
        the block's rows: the sandwich constants of each check on each row's
        [r, R], for a ratio proven monotone quotients of the padded bounds at
        its ends, so ``m <= inf g`` and ``M >= sup g`` by construction,
        elsewhere each row's enclosure by the record's :class:`_Ratio`; and the
        normalized slack min(C1 - m C2, M C2 - C1) / max(1, |C1|)."""
        r, R, bounds, div = self.table(P, Q)
        bounds = bounds.reshape(-1, r.shape[0])
        for family in families:
            with np.errstate(divide="ignore", over="ignore"):
                m, M = (family.sign * (bounds.take(a, axis=0) / bounds.take(b, axis=0))
                        for a, b in (family.m, family.M))
            for k, pair in family.numeric:
                for i in range(r.shape[0]):
                    m[k, i], M[k, i], _ = _Ratio(pair, float(r[i]), float(R[i])).extrema()
            c1, c2 = div.take(family.num, axis=0), div.take(family.den, axis=0)
            yield family, m, M, np.minimum(c1 - m * c2, M * c2 - c1) / np.maximum(1.0, np.abs(c1))


def sandwich_slack_bulk(
    family: InequalityFamily, s: float, t: float, P: np.ndarray, Q: np.ndarray
) -> np.ndarray:
    """Per-row normalized sandwich slack min(C1 - m C2, M C2 - C1) / max(1, |C1|).

    The rows form one block, ``P`` and ``Q`` non-empty 2-D arrays of one
    shape: endpoint constants are used only after the curvature ratio is
    proven monotone on the rows' pooled ratio envelope; otherwise each row
    takes its own enclosure, as :func:`numeric_mM` gives it.
    """
    P, Q = np.asarray(P), np.asarray(Q)
    if P.ndim != 2 or P.shape != Q.shape or not P.size:
        raise InvalidArgument(f"P and Q must be non-empty 2-D arrays of one shape, "
                              f"got shapes {P.shape} and {Q.shape}")
    sandwiches = _Sandwiches([_pair(family, s, t)])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = P / Q  # a zero mass gives an end that prove refuses
    (*_, slack), = sandwiches.slacks(P, Q, sandwiches.prove(ratios.min(), ratios.max()))
    return slack[0]


def _sandwich_check(id: str, family: InequalityFamily, s: float, t: float) -> _Check:
    return _Check(id, "slack", lambda v: sandwich_slack_bulk(family, s, t, v.P, v.Q),
                  _pair(family, s, t))


def _corollary_checks() -> list[_Check]:
    return [_sandwich_check(f"corollary/{c.name}", c.family, c.s, c.t) for c in corollary_table()]


def _bounds_grid_checks() -> list[_Check]:
    return [
        _sandwich_check(f"bounds-grid/{family.value}/s={s:g},t={t:g}", family, s, t)
        for family in InequalityFamily
        for s, t in region_grid(family)
    ]


_BUILDERS = {"identities": _identity_checks, "families": _family_checks,
             "corollaries": _corollary_checks, "bounds-grid": _bounds_grid_checks}


def _build_checks(subjects: tuple[str, ...]) -> list[_Check]:
    wanted = set(subjects)
    if "all" in wanted:
        wanted |= set(DEFAULT_SUBJECTS)
    return [check for subject, build in _BUILDERS.items() if subject in wanted for check in build()]


@lru_cache
def _plan(subjects: tuple[str, ...]) -> tuple:
    """What no sample changes, built on first use: the check tuple, its
    plain checks' indices, the :class:`_Values` entries these read (found
    by running them once on one pair) and the others' :class:`_Sandwiches`."""
    checks = tuple(_build_checks(subjects))
    plain = _frozen(np.array([k for k, check in enumerate(checks) if check.pair is None], int))
    probe = _Values(*np.full((2, 1, 2), 0.5))
    for k in plain.tolist():
        checks[k].fn(probe)
    return checks, plain, tuple(probe), _Sandwiches([check.pair for check in checks])


# --------------------------------------------------------------------------
# the harness


def _sample_trials(config: VerifyConfig):
    """The sampled pairs, grouped by simplex size.

    Every trial's size is drawn from one stream keyed by ``(seed,)``.  The
    ``k`` trials of size ``n`` then take one batched Dirichlet draw of
    ``2 k`` rows from the stream keyed by ``(seed, n)``: the first ``k`` rows
    are P, the last ``k`` are Q, in trial order, and rejected rows are
    redrawn in place (:func:`simplex._draw_rows`).  Returns ``(idx, P, Q)``
    per size in increasing size order: the trial indices of the block
    (increasing) and its stacked rows."""
    lo, hi = config.n_range
    sizes = np.random.default_rng([config.seed]).integers(lo, hi + 1, size=config.trials)
    blocks = []
    for n in np.unique(sizes).tolist():
        idx = np.flatnonzero(sizes == n)
        rows = simplex._draw_rows(
            np.random.default_rng([config.seed, n]), np.full(n, config.concentration),
            2 * idx.shape[0], simplex.EPS_MASS, simplex.MAX_REJECTIONS,
        )
        blocks.append((idx, rows[: idx.shape[0]], rows[idx.shape[0]:]))
    return blocks


class _Tally:
    """Pass counts and worst values of all checks, reduced block by block.

    Residual checks are keyed negated, so that every check's worst value is
    the first-index ``argmin`` over all trials, as if the blocks were one
    array in trial order: NaN is worse than any number, and ties go to the
    lowest trial.  Each block keeps every check's own first-index ``argmin``
    (:meth:`add`), and :meth:`worst` takes one more over these candidates in
    trial order.
    """

    def __init__(self, kinds, rel_tol: float, blocks: int):
        self.sign = np.where(np.array(kinds) == "residual", -1.0, 1.0)
        self.rel_tol = rel_tol
        self.passes = np.zeros(len(kinds), dtype=np.int64)
        # per check and block: the keyed value, trial and row of its argmin
        self.keyed = np.empty((len(kinds), blocks))
        self.trial, self.row = np.empty((2, len(kinds), blocks), dtype=np.int64)

    def add(self, block: int, idx: np.ndarray, values: np.ndarray, checks: np.ndarray) -> None:
        """Reduce one block: ``values[c, j]`` is check ``checks[c]`` on the
        pair of trial ``idx[j]`` (``idx`` increasing).  Every check is added
        once per block."""
        keyed = values * self.sign[checks][:, None]
        self.passes[checks] += np.count_nonzero(keyed >= -self.rel_tol, axis=1)
        j = np.argmin(keyed, axis=1)
        self.keyed[checks, block] = keyed[np.arange(len(checks)), j]
        self.trial[checks, block] = idx[j]
        self.row[checks, block] = j

    def worst(self) -> tuple[np.ndarray, ...]:
        """Per check, ``(value, trial, block, row)`` of its worst trial, the
        value as computed (the sign of a zero included)."""
        order = np.argsort(self.trial, axis=1)
        c = np.arange(order.shape[0])
        b = order[c, np.argmin(np.take_along_axis(self.keyed, order, axis=1), axis=1)]
        return self.keyed[c, b] * self.sign, self.trial[c, b], b, self.row[c, b]


def _shrink_witness(check: _Check, p: np.ndarray, q: np.ndarray, rel_tol: float) -> Witness:
    """Contract a failing pair toward uniform while it keeps failing."""
    def fails(a, b):
        v = float(check.fn(_Values(a[None, :], b[None, :]))[0])
        return v > rel_tol if check.kind == "residual" else v < -rel_tol

    u = np.full(p.shape, 1.0 / p.shape[0])
    for _ in range(64):
        p2, q2 = (p + u) / 2.0, (q + u) / 2.0
        if not fails(p2, q2):
            break
        p, q = p2, q2
    s, t = (None, None) if check.pair is None else (check.pair.num.s, check.pair.den.s)
    return Witness(tuple(p.tolist()), tuple(q.tolist()), s, t)


def run(config: VerifyConfig) -> VerificationReport:
    """Execute every selected check on every sampled pair.

    The loop over size blocks is the outer one: the other checks of a block
    read one shared :class:`_Values`, and its sandwich checks one table of
    the plan's :class:`_Sandwiches`, proven on the envelope of all blocks.
    Violations are recorded (with a shrunk witness), never raised.
    """
    start = time.perf_counter()
    blocks = _sample_trials(config)
    checks, plain, keys, sandwiches = _plan(tuple(config.subjects))
    lo = min(float((P / Q).min()) for _, P, Q in blocks)
    hi = max(float((P / Q).max()) for _, P, Q in blocks)
    families = sandwiches.prove(lo, hi)
    tally = _Tally([check.kind for check in checks], config.rel_tol, len(blocks))
    for b, (idx, P, Q) in enumerate(blocks):
        shared = _Values(P, Q, keys)
        values = np.empty((plain.shape[0], idx.shape[0]))
        for row, k in enumerate(plain.tolist()):
            values[row] = checks[k].fn(shared)
        tally.add(b, idx, values, plain)
        for family, _, _, slacks in sandwiches.slacks(P, Q, families):
            tally.add(b, idx, slacks, family.rows)
    worst, _, block, row = tally.worst()
    results: dict[str, CheckResult] = {}
    for k, (check, passes) in enumerate(zip(checks, tally.passes.tolist())):
        witness = None
        if passes < config.trials:
            _, P, Q = blocks[block[k]]
            witness = _shrink_witness(check, P[row[k]], Q[row[k]], config.rel_tol)
        results[check.id] = CheckResult(check.kind, config.trials, passes, float(worst[k]), witness)
    return VerificationReport(config, results, time.perf_counter() - start)


# --------------------------------------------------------------------------
# independent oracles


_LN2 = np.log(2.0)
_LN4 = 2.0 * _LN2


def _log_curvature(spec: GeneratorSpec, xs, lx, lx1, out, scratch):
    """ln f''(x) on the grid, written into ``out``, from an independent
    transcription of the closed forms (u = (x+1)/2, v = (x+1)/(2x)):

        PHI      x^(s-2)                      PSI   v^(s-2) / (4 x^3)
        UPSILON  u^(s-2) / 4                  XI    u^(s-3) (s x + 4 - s) / 4
        VARSIGMA v^(s-3) ((4-s) x + s) / (4 x^4)

    Everything runs through the two preallocated buffers: repeated fresh
    temporaries of this size would spend more time in the page allocator
    than in the arithmetic.  Returns False when a linear factor is
    non-positive somewhere (f'' < 0, so the log form does not exist)."""
    s = spec.s
    g = spec.gen
    if g.name == "PHI":
        np.multiply(lx, s - 2.0, out=out)
        return True
    if g.name == "PSI":
        np.subtract(lx1, lx, out=out)
        out -= _LN2
        out *= s - 2.0
        np.multiply(lx, 3.0, out=scratch)
        out -= scratch
        out -= _LN4
        return True
    if g.name == "UPSILON":
        np.subtract(lx1, _LN2, out=out)
        out *= s - 2.0
        out -= _LN4
        return True
    if g.name == "XI":
        np.multiply(xs, s, out=scratch)
        scratch += 4.0 - s
        if not np.all(scratch > 0.0):
            return False
        np.log(scratch, out=scratch)
        np.subtract(lx1, _LN2, out=out)
        out *= s - 3.0
        out += scratch
        out -= _LN4
        return True
    if g.name == "VARSIGMA":
        np.multiply(xs, 4.0 - s, out=scratch)
        scratch += s
        if not np.all(scratch > 0.0):
            return False
        np.log(scratch, out=scratch)
        np.subtract(lx1, lx, out=out)
        out -= _LN2
        out *= s - 3.0
        out += scratch
        np.multiply(lx, 4.0, out=scratch)
        out -= scratch
        out -= _LN4
        return True
    raise KeyError(spec.gen)


_WORKSPACE = threading.local()


def _grid_workspace(points: int) -> list:
    """Per-thread scratch rows for the dense scan, as ``[idx, rows, held]``.

    A fresh 0.8 MB temporary per vector op costs more in page faults than
    the arithmetic does; reusing warm buffers keeps the oracle cheap while
    staying thread-safe (each thread owns its rows).  ``held`` is the
    ``(r, R)`` whose grid, ln x and ln(1+x) the first three rows hold."""
    cache = _WORKSPACE.__dict__.setdefault("cache", {})
    if points not in cache:
        cache[points] = [np.arange(points, dtype=np.float64), np.empty((6, points)), None]
    return cache[points]


def brute_force_mM(
    num: GeneratorSpec, den: GeneratorSpec, r: float, R: float, points: int
) -> tuple[float, float]:
    """Plain dense-grid min/max of the curvature ratio; no refinement.

    Linear spacing, intentionally simpler and on a different discretization
    and algebraic path than the engine's enclosure: the ratio is scanned in
    log space (the extrema commute with the monotone exp), falling back to
    direct evaluation when the numerator curvature changes sign.  Use
    ``points >= 100_000`` for oracle duty.  Consecutive calls on one
    ``[r, R]`` (per thread) build its grid once.
    """
    if not 0.0 < r <= R < np.inf:
        raise InvalidArgument(f"need 0 < r <= R < inf, got [{r}, {R}]")
    simplex._require_integer("points", points, 2, ConfigInvalid)
    idx, work, held = workspace = _grid_workspace(points)
    xs, lx, lx1, lden, out, scratch = work
    if held != (r, R):
        # _log_curvature and the fallback below only read these three rows
        workspace[2] = None
        np.multiply(idx, (R - r) / (points - 1), out=xs)
        xs += r
        xs[0] = r
        xs[-1] = R
        np.log(xs, out=lx)
        np.add(xs, 1.0, out=lx1)
        np.log(lx1, out=lx1)
        workspace[2] = (r, R)
    if not _log_curvature(den, xs, lx, lx1, lden, scratch):
        raise DegenerateDenominator(
            f"{den.gen.value}(s={den.s}) non-positive on [{r}, {R}]"
        )
    if _log_curvature(num, xs, lx, lx1, out, scratch):
        out -= lden
        return float(np.exp(out.min())), float(np.exp(out.max()))
    np.exp(lden, out=lden)
    gs = gen_d2(num, xs) / lden
    return float(gs.min()), float(gs.max())


@dataclass(frozen=True)
class TightnessReport:
    family: InequalityFamily
    s: float
    t: float
    min_slack_low: float
    min_slack_high: float
    pairs_evaluated: int


def tightness_scan(
    family: InequalityFamily,
    s: float,
    t: float,
    trials: int,
    seed: int,
    *,
    n: int = 3,
    concentration: float = 1.0,
    shrink_levels: int = 8,
) -> TightnessReport:
    """Empirical sharpness of the sandwich at in-region (s, t).

    Each pair of :func:`simplex.sample_pair_matrix` (``TooShort`` for n < 2,
    ``ValueError`` for a non-finite ``concentration``) and its
    ``shrink_levels`` geometric contractions toward the uniform pair are
    evaluated; both normalized slacks approach zero as the pair degenerates
    (the ratio C1/C2 tends to the curvature ratio at 1 while [r, R]
    collapses onto 1), so the scan probes the tight limit.  Each pair's
    constants are its :func:`closed_form_mM` certificate's.
    """
    simplex._require_integer("trials", trials, 1, ConfigInvalid)
    simplex._require_integer("shrink_levels", shrink_levels, 1, ConfigInvalid)
    if not in_region(family, s, t):
        raise RegionViolation(
            f"(s={s}, t={t}) lies outside every region of family {family.value}"
        )
    num, den = family_generators(family, s, t)
    P, Q = simplex.sample_pair_matrix(n, trials, seed, concentration)
    u = np.full(n, 1.0 / n)
    min_low = min_high = np.inf
    count = 0
    for p, q in zip(P, Q):
        for _ in range(shrink_levels):
            ratios = p / q
            r, R = float(ratios.min()), float(ratios.max())
            if r < R:
                cert = closed_form_mM(family, s, t, r, R)
                c1 = float(csiszar_bulk(num, p, q))
                c2 = float(csiszar_bulk(den, p, q))
                if c2 > 1e-300:
                    min_low = min(min_low, (c1 - cert.m * c2) / c2)
                    min_high = min(min_high, (cert.M * c2 - c1) / c2)
                    count += 1
            p, q = (p + u) / 2.0, (q + u) / 2.0
    return TightnessReport(family, s, t, float(min_low), float(min_high), count)
