"""Seeded request streams for the three workloads.

Everything here depends only on the workload seed and on constants
transcribed into this file, never on the divbound package, so the request
set cannot change when the program does.  Each workload is a finite pool of
requests that the worker cycles through in whole passes; see ``run.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from oracles import certify_extrema

#: the (s, t) validation grid of the catalog, transcribed
PARAM_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
MEASURE_KINDS = (
    "chi2", "kl", "rjs", "rag", "rjd", "psi", "j", "js", "agt", "delta", "bhat",
    "hellinger",
)
MEASURE_IDS = MEASURE_KINDS + tuple(f"{k}:qp" for k in MEASURE_KINDS)
FAMILY_NAMES = ("phi", "omega", "omega-adj", "zeta", "zeta-adj")
COMPUTE_NAMES = MEASURE_IDS + FAMILY_NAMES
INEQUALITY_FAMILIES = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X")
VERIFY_SUBJECTS = ("identities", "families", "corollaries", "bounds-grid")
VERIFY_TRIALS = 1000

# Pool sizes.  compute-large: one pass over 40 file pairs costs 3 to 5 s
# at the parent commit, so a run holds several whole passes.
# certify-intervals: 2000 requests, 100 of them edge requests.
COMPUTE_POOL = 40
COMPUTE_N_RANGE = (10, 100_000)
CERTIFY_POOL = 2000
EDGE_EVERY = 20
TINY_COMPUTE_POOL = 6
TINY_COMPUTE_N_RANGE = (10, 1000)
TINY_CERTIFY_POOL = 60
# verify-harness: three harness seeds, each run about five times in 30 s
VERIFY_POOL = 3


def stratified_sizes(count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes, one at the centre of each equal stratum of log n.

    A stratified design keeps the size mix (and with it the latency
    percentiles) the same for every seed; the seed decides which request
    gets which size.
    """
    a, b = np.log10(lo), np.log10(hi)
    return [int(round(10 ** (a + (b - a) * (i + 0.5) / count))) for i in range(count)]


def _masses(rng, n: int) -> list[float]:
    # log-normal weights: every mass is far above the 1e-12 positivity floor
    w = np.exp(rng.normal(0.0, 1.0, n))
    return (w / w.sum()).tolist()


def _write(path: Path, masses: list[float]) -> None:
    if path.suffix == ".json":
        path.write_text("[" + ",".join(map(repr, masses)) + "]", encoding="utf-8")
    else:
        path.write_text("\n".join(map(repr, masses)) + "\n", encoding="utf-8")


def compute_requests(seed: int, workdir: Path, tiny: bool = False) -> list[dict]:
    """P/Q file pairs with log-uniform sizes, alternating JSON and CSV.

    Names rotate through the 24 measure ids and the 5 family names; family
    requests cycle through the grid values of ``s``, limit branches 0 and 1
    first.  Returns one dict per request with the argv for ``divbound``
    and the masses the oracle needs.
    """
    rng = np.random.default_rng([seed, 1])
    count = TINY_COMPUTE_POOL if tiny else COMPUTE_POOL
    sizes = stratified_sizes(count, *(TINY_COMPUTE_N_RANGE if tiny else COMPUTE_N_RANGE))
    # formats alternate along the size order, so every seed parses the same
    # amount of JSON and CSV
    formats = [".json" if rank % 2 == 0 else ".csv" for rank in range(count)]
    order = rng.permutation(count)
    first = int(rng.integers(len(COMPUTE_NAMES)))
    rest = [s for s in PARAM_GRID if s not in (0.0, 1.0)]
    s_cycle = [0.0, 1.0] + [rest[i] for i in rng.permutation(len(rest))]
    requests = []
    family_count = 0
    for i, rank in enumerate(order):
        n, ext = sizes[rank], formats[rank]
        name = COMPUTE_NAMES[(first + i) % len(COMPUTE_NAMES)]
        p, q = _masses(rng, n), _masses(rng, n)
        p_path, q_path = workdir / f"p{i}{ext}", workdir / f"q{i}{ext}"
        _write(p_path, p)
        _write(q_path, q)
        argv = ["compute", name, "--p", str(p_path), "--q", str(q_path)]
        s = None
        if name in FAMILY_NAMES:
            s = s_cycle[family_count % len(s_cycle)]
            family_count += 1
            argv += ["--s", repr(s)]
        requests.append({"argv": argv, "name": name, "s": s, "n": n, "p": p, "q": q})
    return requests


def _edge_request(rng) -> dict:
    """A request far outside the validation grid whose true extrema are
    finite doubles (checked by the benchmark's own oracle)."""
    while True:
        family = INEQUALITY_FAMILIES[int(rng.integers(len(INEQUALITY_FAMILIES)))]
        s = float(rng.uniform(-40.0, 40.0))
        # family X's denominator is the XI generator, convex only for t in [0, 4]
        t = float(rng.uniform(0.0, 4.0) if family == "X" else rng.uniform(-40.0, 40.0))
        r = float(10 ** rng.uniform(-12.0, 0.0))
        R = float(10 ** rng.uniform(0.0, 12.0))
        if certify_extrema(family, s, t, r, R) is not None:
            return {"family": family, "s": s, "t": t, "r": r, "R": R, "edge": True}


def certify_requests(seed: int, tiny: bool = False) -> list[dict]:
    """Normal requests on the grid of every family, plus a fixed share of
    edge requests at seeded positions.  Edge requests are kept even though
    some of them make the program fail: they count in the fail ratio."""
    rng = np.random.default_rng([seed, 2])
    count = TINY_CERTIFY_POOL if tiny else CERTIFY_POOL
    edge_at = set(rng.choice(count, size=count // EDGE_EVERY, replace=False).tolist())
    x_grid = [v for v in PARAM_GRID if 0.0 <= v <= 4.0]
    # normal requests take the families in turn, so each has the same share
    turn = int(rng.integers(len(INEQUALITY_FAMILIES)))
    requests = []
    for i in range(count):
        if i in edge_at:
            requests.append(_edge_request(rng))
            continue
        family = INEQUALITY_FAMILIES[turn % len(INEQUALITY_FAMILIES)]
        turn += 1
        s = PARAM_GRID[int(rng.integers(len(PARAM_GRID)))]
        t_grid = x_grid if family == "X" else PARAM_GRID
        t = t_grid[int(rng.integers(len(t_grid)))]
        r = float(10 ** rng.uniform(-3.0, 0.0))
        R = float(10 ** rng.uniform(0.0, 3.0))
        requests.append({"family": family, "s": s, "t": t, "r": r, "R": R, "edge": False})
    return requests


def verify_requests(seed: int) -> list[dict]:
    """Harness configurations with seeds ``seed`` to ``seed + VERIFY_POOL - 1``."""
    return [{"trials": VERIFY_TRIALS, "seed": seed + i, "subjects": list(VERIFY_SUBJECTS)}
            for i in range(VERIFY_POOL)]


def worker_inputs(workload: str, requests: list[dict]) -> list:
    """What the worker loads: only what the program is given."""
    if workload == "compute-large":
        return [r["argv"] for r in requests]
    if workload == "certify-intervals":
        return [[r["family"], r["s"], r["t"], r["r"], r["R"]] for r in requests]
    return requests
