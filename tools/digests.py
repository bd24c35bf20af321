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

    python tools/digests.py
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


def main() -> None:
    for name, extra in SUBJECTS.items():
        runs = (_stdout(["verify", "--trials", "1000", "--seed", str(seed), *extra])
                for seed in range(1, 41))
        print(f"verify seeds 1-40, {name}: {_digest(runs)}")
    for name, extra in SUBJECTS.items():
        runs = (_stdout(["verify", "--rel-tol", "1e-300", "--trials", "200", "--n-range", "2:6",
                         "--seed", str(seed), *extra]) for seed in range(1, 6))
        print(f"witness seeds 1-5, {name}: {_digest(runs)}")
    for seed in (1, 3):
        print(f"certify-intervals seed {seed}: {_digest(_certificates(seed))}")


if __name__ == "__main__":
    main()
