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

Trials are grouped by simplex size into blocks, and the loop over blocks is
the outer one.  Before it, the curvature ratio of each distinct sandwich
check is proven monotone once, on the envelope of all blocks' ratios; a
ratio proven monotone there is monotone on every block and takes outward
bounds of its endpoint values, read from the log-domain curvature records,
and a ratio whose proof does not close takes each row's own
:func:`numeric_mM` enclosure.  The sandwich checks of one block share one
table of generator values (:class:`_BlockTable`), evaluated once per block
along a stacked ``s`` axis, and the checks of one inequality family take
one array step over ``(checks x rows)`` indexed into it.  The other checks
of a block read one table of measure values and family ``s`` sweeps
(:class:`_Values`), so a value that several checks read is summed once.
Pass counts and worst values of all checks are reduced block by block
(:class:`_Tally`) with the first-index rule of a full-array
``argmax``/``argmin``.

:func:`brute_force_mM` is the deliberately plain oracle for the bound
engine - a dense linear grid with no refinement, on a different
discretization than the engine's cell proofs - so the two can
cross-validate each other.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import measures as ms
from . import simplex
from .bounds import (
    PARAM_GRID,
    SLACK_REL_TOL,
    _Ratio,
    InequalityFamily,
    closed_form_mM,
    corollary_table,
    family_generators,
    in_region,
    log_curvatures,
    numeric_mM,
    region_grid,
)
from .errors import ConfigInvalid, DegenerateDenominator, RegionViolation
from .families import _FAMILIES, Family, in_convex_range, phi_s
from .generators import GeneratorSpec, csiszar_bulk, gen_d2

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
        if not (1 <= self.trials <= MAX_TRIALS):
            raise ConfigInvalid(f"trials must be in [1, {MAX_TRIALS}], got {self.trials}")
        lo, hi = self.n_range
        if not (2 <= lo <= hi):
            raise ConfigInvalid(f"n_range must satisfy 2 <= lo <= hi, got {self.n_range}")
        if not (self.concentration > 0 and np.isfinite(self.concentration)):
            raise ConfigInvalid(
                f"concentration must be positive and finite, got {self.concentration}"
            )
        if not (0.0 < self.rel_tol < 1.0):
            raise ConfigInvalid(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        unknown = [s for s in self.subjects if s not in SUBJECTS and s != "all"]
        if unknown:
            raise ConfigInvalid(f"unknown subjects {unknown}; valid: {list(SUBJECTS)}")
        if not self.subjects:
            raise ConfigInvalid("subjects must not be empty")

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "n_range": list(self.n_range),
            "seed": self.seed,
            "concentration": self.concentration,
            "rel_tol": self.rel_tol,
            "subjects": list(self.subjects),
        }


@dataclass(frozen=True)
class Witness:
    p: tuple[float, ...]
    q: tuple[float, ...]
    s: Optional[float] = None
    t: Optional[float] = None

    def to_dict(self) -> dict:
        return {"p": list(self.p), "q": list(self.q), "s": self.s, "t": self.t}


@dataclass(frozen=True)
class CheckResult:
    kind: str  # "residual" (pass iff <= tol) or "slack" (pass iff >= -tol)
    attempts: int
    passes: int
    worst_slack: float
    witness: Optional[Witness] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "attempts": self.attempts,
            "passes": self.passes,
            "worst_slack": self.worst_slack,
            "witness": self.witness.to_dict() if self.witness else None,
        }


@dataclass(frozen=True)
class VerificationReport:
    config: VerifyConfig
    checks: dict[str, CheckResult]
    wall_time: float

    @property
    def all_passed(self) -> bool:
        return all(c.passes == c.attempts for c in self.checks.values())

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_timing: bool = False) -> str:
        # wall_time is excluded by default so identical configurations
        # serialize to byte-identical reports
        return json.dumps(self.to_dict(include_timing), ensure_ascii=False)


# --------------------------------------------------------------------------
# check construction


class _Values(ms._Values):
    """The measure values of one block of pairs, and its family sweeps: a
    family's name (``"phi"`` ... ``"zeta-adj"``) holds one call of its kernel
    over its ``s`` grid (:data:`_SWEEPS`), one row per ``s``.  No entry is
    derived from another, so the two sides of a check stay independent."""

    def __missing__(self, key: str) -> np.ndarray:
        if key not in _SWEEPS:
            return super().__missing__(key)
        kernel = _FAMILIES[Family(key)].kernel
        value = self[key] = kernel(np.array(_SWEEPS[key]), self.P, self.Q)
        return value


# each family's s grid: the harness grid where its generator is convex
_SWEEPS = {
    f.value: tuple(s for s in PARAM_GRID if in_convex_range(f, s)) for f in Family
}


@dataclass(frozen=True)
class _Check:
    id: str
    kind: str  # "residual" | "slack"
    fn: Callable[[_Values], np.ndarray]
    # (numerator, denominator) of a sandwich check, which :func:`run`
    # evaluates by family from the block table
    gens: Optional[tuple[GeneratorSpec, GeneratorSpec]] = None


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
    row = _SWEEPS[family].index(s)
    return _residual(f"family/particular/{name}", lambda v: v[family][row],
                     lambda v: factor * v[measure])


def _family_checks() -> list[_Check]:
    checks = [_particular_check(*case) for case in _PARTICULAR_CASES]
    grid = np.array(PARAM_GRID)

    def duality(v):
        return _scaled_residual(v["phi"], phi_s(1.0 - grid, v.Q, v.P)).max(axis=0)

    def midpoint(v):
        return _scaled_residual(v["omega-adj"], phi_s(grid, (v.P + v.Q) / 2.0, v.Q)).max(axis=0)

    checks.append(_Check("family/phi-swap-duality", "residual", duality))
    checks.append(_Check("family/omega-adj-midpoint-substitution", "residual", midpoint))
    checks += [
        _Check(f"family/nonneg/{name}", "slack", lambda v, k=name: v[k].min(axis=0))
        for name in _SWEEPS
    ]
    return checks


class _Group:
    """The sandwich checks of one inequality family, as arrays over the checks.

    ``rows`` are the checks' positions in the run's check list, ``num`` and
    ``den`` the rows of their generators in the spec table a
    :class:`_BlockTable` evaluates, and, once :meth:`prove` has run,
    ``direction`` and ``sign`` the monotonicity proof (0 where it does not
    close) and the sign of each curvature ratio on the envelope it was given.
    """

    def __init__(self, rows, ratios, index: dict[GeneratorSpec, int]):
        self.rows = np.array(rows)
        self.ratios = ratios
        self.num = np.array([index[num] for num, _ in ratios])
        self.den = np.array([index[den] for _, den in ratios])

    def prove(self, lo: float, hi: float, proofs: dict) -> None:
        """Prove each ratio monotone on [lo, hi], once per distinct ratio
        across every group sharing ``proofs``; on a zero-width [lo, hi]
        every ratio counts as increasing.  ``m`` and ``M`` then index the
        :class:`_BlockTable` bounds each constant divides: at r (m) and R (M)
        where g rises, else the reverse; a lower bound of |g| (numerator's
        lower over denominator's upper) for m if g > 0 and M if g < 0."""
        for ratio in self.ratios:
            if ratio not in proofs:
                g = _Ratio(*ratio, lo, hi)
                proofs[ratio] = g.direction() if lo < hi else 1, g.ends[0].s
        self.direction, self.sign = map(np.array, zip(*map(proofs.get, self.ratios)))
        end, neg = (self.direction <= 0).astype(int), 2 * (self.sign < 0)
        self.m = (self.num, neg + end), (self.den, 2 - neg + end)
        self.M = (self.num, 3 - neg - end), (self.den, 1 + neg - end)


def _sandwich_groups(
    ratios: list[Optional[tuple[GeneratorSpec, GeneratorSpec]]],
) -> tuple[list[GeneratorSpec], list[_Group]]:
    """The spec table and the per-family groups of the sandwich checks.

    ``ratios[k]`` is check k's ``(num, den)`` pair, or None for a check
    that is not a sandwich check.  The generator kinds of a ratio name its
    inequality family."""
    index: dict[GeneratorSpec, int] = {}
    members: dict[tuple, list[int]] = {}
    for k, ratio in enumerate(ratios):
        if ratio is not None:
            for spec in ratio:
                index.setdefault(spec, len(index))
            members.setdefault((ratio[0].gen, ratio[1].gen), []).append(k)
    groups = [_Group(ks, [ratios[k] for k in ks], index) for ks in members.values()]
    return list(index), groups


class _BlockTable:
    """Generator values shared by the sandwich checks of one block of pairs.

    Holds the block's rows ``P``, ``Q``, each row's ratio envelope
    ``[r, R]``, the block's pooled envelope ``[lo, hi]`` and, per spec of
    the run's spec table, its f-divergence on every row (one compensated
    sum per generator kind, over a stacked ``s``) and ``bounds`` on |f''|
    at every ``r`` and ``R`` in the slots ``lo_r, lo_R, hi_r, hi_R`` (one
    :func:`log_curvatures` call, padded as ``exp(L) (1 -+ 2e)``).  Every
    value is bit-for-bit the single spec's.  A group of checks reads these
    rows by index, in one array step over ``(checks x rows)``.
    """

    def __init__(self, P: np.ndarray, Q: np.ndarray, specs: list[GeneratorSpec]):
        self.P, self.Q = P, Q
        ratios = P / Q
        self.r, self.R = ratios.min(axis=1), ratios.max(axis=1)
        self.lo, self.hi = float(self.r.min()), float(self.R.max())
        L, _, e = log_curvatures(specs, np.concatenate([self.r, self.R]))
        with np.errstate(over="ignore"):
            mag = np.exp(L)
        # the relative padding needs a normal exp(L); past it widen to 0, max / 2, 2 * tiny
        lo = np.minimum(mag * (1.0 - 2.0 * e), 0.5 * _HUGE) * (mag >= _TINY)
        hi = np.maximum(mag * (1.0 + 2.0 * e), 2.0 * _TINY)
        self.bounds = np.concatenate([lo, hi], axis=1).reshape(len(specs), 4, P.shape[0])
        self.div = np.empty((len(specs), P.shape[0]))
        for gen in dict.fromkeys(spec.gen for spec in specs):
            rows = [i for i, spec in enumerate(specs) if spec.gen is gen]
            stack = GeneratorSpec(gen, np.array([specs[i].s for i in rows]))
            self.div[rows] = csiszar_bulk(stack, P, Q)

    def constants(self, group: _Group) -> tuple[np.ndarray, np.ndarray]:
        """Sandwich constants m, M of each check's curvature ratio on each
        row's [r, R], as ``(checks x rows)`` arrays: for a ratio proven
        monotone (:meth:`_Group.prove`), quotients of the padded bounds at
        its ends, so ``m <= inf g`` and ``M >= sup g`` by construction;
        elsewhere each row's :func:`numeric_mM` enclosure."""
        b, sign = self.bounds, group.sign[:, None]
        with np.errstate(divide="ignore", over="ignore"):
            m, M = (sign * (b[num] / b[den]) for num, den in (group.m, group.M))
        for k in np.flatnonzero(group.direction == 0):
            for i in range(self.r.shape[0]):
                m[k, i], M[k, i] = numeric_mM(*group.ratios[k], float(self.r[i]), float(self.R[i]))
        return m, M

    def slack(self, group: _Group) -> np.ndarray:
        """Normalized sandwich slack of each check on each row."""
        m, M = self.constants(group)
        c1, c2 = self.div[group.num], self.div[group.den]
        return np.minimum(c1 - m * c2, M * c2 - c1) / np.maximum(1.0, np.abs(c1))


def sandwich_slack_bulk(
    family: InequalityFamily, s: float, t: float, P: np.ndarray, Q: np.ndarray
) -> np.ndarray:
    """Per-row normalized sandwich slack min(C1 - m C2, M C2 - C1) / max(1, |C1|).

    The rows form one block: endpoint constants are used only after the
    curvature ratio is proven monotone on the rows' pooled ratio
    envelope; otherwise each row falls back to :func:`numeric_mM`.
    """
    specs, (group,) = _sandwich_groups([family_generators(family, s, t)])
    table = _BlockTable(P, Q, specs)
    group.prove(table.lo, table.hi, {})
    return table.slack(group)[0]


def _sandwich_check(id: str, family: InequalityFamily, s: float, t: float) -> _Check:
    return _Check(id, "slack", lambda v: sandwich_slack_bulk(family, s, t, v.P, v.Q),
                  gens=family_generators(family, s, t))


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
    lowest trial.  ``worst`` keeps the value as computed (the sign of a
    zero included); ``block`` and ``row`` locate its pair.
    """

    def __init__(self, kinds, rel_tol: float):
        n = len(kinds)
        self.sign = np.where(np.array(kinds) == "residual", -1.0, 1.0)
        self.rel_tol = rel_tol
        self.passes = np.zeros(n, dtype=np.int64)
        self.worst = np.full(n, np.nan)
        self.trial = np.full(n, -1)
        self.block = np.full(n, -1)
        self.row = np.full(n, -1)

    def add(self, block: int, idx: np.ndarray, values: np.ndarray, checks: np.ndarray) -> None:
        """Reduce one block: ``values[c, j]`` is check ``checks[c]`` on the
        pair of trial ``idx[j]`` (``idx`` increasing)."""
        sign = self.sign[checks]
        keyed = values * sign[:, None]
        self.passes[checks] += np.count_nonzero(keyed >= -self.rel_tol, axis=1)
        j = np.argmin(keyed, axis=1)
        c = np.arange(len(checks))
        v, i = keyed[c, j], idx[j]
        w, t = self.worst[checks] * sign, self.trial[checks]
        v_nan, w_nan = np.isnan(v), np.isnan(w)
        beats = (t < 0) | np.where(
            w_nan, v_nan & (i < t), v_nan | (v < w) | ((v == w) & (i < t))
        )
        won = checks[beats]
        self.worst[won] = values[c, j][beats]
        self.trial[won] = i[beats]
        self.block[won] = block
        self.row[won] = j[beats]


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
    s, t = (None, None) if check.gens is None else (spec.s for spec in check.gens)
    return Witness(tuple(p.tolist()), tuple(q.tolist()), s, t)


def run(config: VerifyConfig) -> VerificationReport:
    """Execute every selected check on every sampled pair.

    Each sandwich check's curvature ratio is proven monotone once, on the
    envelope of all blocks.  The loop over size blocks is then the outer
    one: the other checks of a block read one shared :class:`_Values`, and
    its sandwich checks one shared :class:`_BlockTable`, one inequality
    family per array step, dropped before the next block's is built.
    Violations are recorded (with a shrunk witness), never raised.
    """
    start = time.perf_counter()
    blocks = _sample_trials(config)
    checks = _build_checks(config.subjects)
    plain = np.array([k for k, check in enumerate(checks) if check.gens is None], dtype=int)
    specs, groups = _sandwich_groups([check.gens for check in checks])
    lo = min(float((P / Q).min()) for _, P, Q in blocks)
    hi = max(float((P / Q).max()) for _, P, Q in blocks)
    proofs: dict = {}
    for group in groups:
        group.prove(lo, hi, proofs)
    tally = _Tally([check.kind for check in checks], config.rel_tol)
    for b, (idx, P, Q) in enumerate(blocks):
        shared = _Values(P, Q)
        values = np.empty((plain.shape[0], idx.shape[0]))
        for row, k in enumerate(plain):
            values[row] = checks[k].fn(shared)
        tally.add(b, idx, values, plain)
        table = _BlockTable(P, Q, specs)
        for group in groups:
            tally.add(b, idx, table.slack(group), group.rows)
        del table
    results: dict[str, CheckResult] = {}
    for k, check in enumerate(checks):
        passes = int(tally.passes[k])
        witness = None
        if passes < config.trials:
            _, P, Q = blocks[tally.block[k]]
            j = tally.row[k]
            witness = _shrink_witness(check, P[j], Q[j], config.rel_tol)
        results[check.id] = CheckResult(
            check.kind, config.trials, passes, float(tally.worst[k]), witness
        )
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
    points >= 1e5 for oracle duty.  Consecutive calls on one ``[r, R]``
    (per thread) build its grid once.
    """
    if not 0.0 < r <= R < np.inf:
        raise ValueError(f"need 0 < r <= R < inf, got [{r}, {R}]")
    if points < 2:
        raise ConfigInvalid(f"need at least 2 points, got {points}")
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
    if trials < 1:
        raise ConfigInvalid(f"trials must be >= 1, got {trials}")
    if shrink_levels < 1:
        raise ConfigInvalid(f"shrink_levels must be >= 1, got {shrink_levels}")
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
