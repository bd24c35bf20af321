"""Print the six output digests that pin divbound's verify and certify outputs.

Each digest is the sha256 of the concatenated stdout of a series of runs,
in order, made in this process:

* ``divbound verify --trials 1000 --seed S`` for S = 1..40, with the default
  subjects and with ``--subjects all,bounds-grid``;
* the witness runs ``verify --rel-tol 1e-300 --trials 200 --n-range 2:6``
  for S = 1..5, with both subject sets (these exit 2, as checks fail);
* ``closed_form_mM(...).to_json()`` plus a newline for every request of the
  certify-intervals workload (``benchmark/workloads.certify_requests``) of
  seeds 1 and 3.

A change that keeps these digests keeps every verify report and every
certificate of those runs byte for byte.  Usage, from the repository root:

    python tools/digests.py            # print the six digests
    python tools/digests.py --check    # also exit 1 naming each one that
                                       # differs from RECORDED
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark's sources

from divbound import cli  # noqa: E402
from divbound.bounds import InequalityFamily, closed_form_mM  # noqa: E402
from workloads import certify_requests  # noqa: E402  (read only: the request streams)

SUBJECTS = {"default": [], "all,bounds-grid": ["--subjects", "all,bounds-grid"]}
#: the digests of the outputs as they stand, which a change must keep
RECORDED = {
    "verify seeds 1-40, default":
        "cdec2ce80365e80c748e3e7d70e264f500a55aa979ed1856900c7e774882a585",
    "verify seeds 1-40, all,bounds-grid":
        "c9b86d8e8b55dea10913e8ffa12824f9617178c01c81e5d8901b0e0c002f55f7",
    "witness seeds 1-5, default":
        "be7714bfdc3281c94a0e09749920d6033134757b8bcc644634afc5507c3a7523",
    "witness seeds 1-5, all,bounds-grid":
        "0a49ce075533281b8ff6053d9a677358998db1c394ea115ba224c04daf28e922",
    "certify-intervals seed 1":
        "b9875416c13688b939f98af44a3302b58f7ec6eb75c9582d266dd06727061450",
    "certify-intervals seed 3":
        "d9dc943083b34eb05ba32b45d27738e5b48d9a940204c3001fef75edb580ca96",
}


def _stdout(argv: list[str]) -> str:
    """``cli.main(argv)``'s stdout; its stderr (the wall time) and exit code
    are not part of the digest."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cli.main(argv)
    return out.getvalue()


def _digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def _certificates(seed: int):
    for req in certify_requests(seed):
        family = InequalityFamily(req["family"])
        yield closed_form_mM(family, req["s"], req["t"], req["r"], req["R"]).to_json() + "\n"


def digests():
    """``(name, digest)`` of each series, in order."""
    for name, extra in SUBJECTS.items():
        runs = (_stdout(["verify", "--trials", "1000", "--seed", str(seed), *extra])
                for seed in range(1, 41))
        yield f"verify seeds 1-40, {name}", _digest(runs)
    for name, extra in SUBJECTS.items():
        runs = (_stdout(["verify", "--rel-tol", "1e-300", "--trials", "200", "--n-range", "2:6",
                         "--seed", str(seed), *extra]) for seed in range(1, 6))
        yield f"witness seeds 1-5, {name}", _digest(runs)
    for seed in (1, 3):
        yield f"certify-intervals seed {seed}", _digest(_certificates(seed))


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: python tools/digests.py [--check]", file=sys.stderr)
        return 2
    differ = []
    for name, digest in digests():
        print(f"{name}: {digest}")
        if digest != RECORDED[name]:
            differ.append(name)
    if argv and differ:
        print(f"differ from the recorded digests: {'; '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
