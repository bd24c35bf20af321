"""The benchmark's own oracles.

Nothing here imports divbound: the references are independent
transcriptions of the documented formulas, so a change to the program
cannot change the verdicts.

* compute-large: every measure and family value as a ``math.fsum`` over
  terms written out element by element.
* certify-intervals: the curvature ratio g = f1''/f2'' scanned in the log
  domain on a log-spaced grid that includes both endpoints.
* verify-harness: the 686 check ids of the full harness, recorded once in
  ``verify_check_ids.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

#: compute-large: |value - reference| <= VALUE_TOL * max(1, scale), where
#: scale is the sum of |terms| times the outer factor (the sum's condition)
VALUE_TOL = 1e-12
#: certify-intervals: relative slack on m <= min g and M >= max g.  Both the
#: program and the oracle evaluate g to within about 1e-13 relative at the
#: edge parameters (|s| <= 40, ratios within 1e+-12); misplaced extrema
#: are far larger than this.
CERT_REL_TOL = 1e-10
#: oracle grid size; deliberately not the program's 4097-point scan
CERT_GRID = 3001
#: an extremum counts as a finite double when |ln g| stays below this
LOG_LIMIT = 700.0

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)

# --------------------------------------------------------------------------
# compute-large: fsum references

_log = math.log
_sqrt = math.sqrt


def _measure_terms(kind: str, p, q):
    """(terms, factor) with value = factor * fsum(terms)."""
    if kind == "chi2":
        return [(a - b) * (a - b) / b for a, b in zip(p, q)], 1.0
    if kind == "kl":
        return [a * _log(a / b) for a, b in zip(p, q)], 1.0
    if kind == "rjs":
        return [a * _log(2.0 * a / (a + b)) for a, b in zip(p, q)], 1.0
    if kind == "rag":
        return [(a + b) / 2.0 * _log((a + b) / (2.0 * a)) for a, b in zip(p, q)], 1.0
    if kind == "rjd":
        return [(a - b) * _log((a + b) / (2.0 * b)) for a, b in zip(p, q)], 1.0
    if kind == "psi":
        return [(a - b) * (a - b) * (a + b) / (a * b) for a, b in zip(p, q)], 1.0
    if kind == "j":
        return [(a - b) * _log(a / b) for a, b in zip(p, q)], 1.0
    if kind == "js":
        return [
            a * _log(2.0 * a / (a + b)) + b * _log(2.0 * b / (a + b)) for a, b in zip(p, q)
        ], 0.5
    if kind == "agt":
        return [
            (a + b) / 2.0 * _log((a + b) * (a + b) / (4.0 * a * b)) for a, b in zip(p, q)
        ], 0.5
    if kind == "delta":
        return [(a - b) * (a - b) / (a + b) for a, b in zip(p, q)], 1.0
    if kind == "bhat":
        return [_sqrt(a * b) for a, b in zip(p, q)], 1.0
    if kind == "hellinger":
        return [(_sqrt(a) - _sqrt(b)) ** 2 for a, b in zip(p, q)], 0.5
    raise KeyError(kind)


def _family_terms(family: str, s: float, p, q):
    """(terms, offset, factor) with value = factor * (fsum(terms) - offset)."""
    if family.endswith("-adj"):
        family, p, q = family[:-4], q, p
    if family == "phi":
        if s == 0.0:
            return (_measure_terms("kl", q, p)[0], 0.0, 1.0)
        if s == 1.0:
            return (_measure_terms("kl", p, q)[0], 0.0, 1.0)
        return [a ** s * b ** (1.0 - s) for a, b in zip(p, q)], 1.0, 1.0 / (s * (s - 1.0))
    if family == "omega":
        if s == 0.0:
            return (_measure_terms("rjs", p, q)[0], 0.0, 1.0)
        if s == 1.0:
            return (_measure_terms("rag", p, q)[0], 0.0, 1.0)
        return (
            [a * ((a + b) / (2.0 * a)) ** s for a, b in zip(p, q)], 1.0, 1.0 / (s * (s - 1.0))
        )
    if family == "zeta":
        if s == 1.0:
            return (_measure_terms("rjd", p, q)[0], 0.0, 1.0)
        return [(a - b) * ((a + b) / (2.0 * b)) ** (s - 1.0) for a, b in zip(p, q)], 0.0, 1.0 / (s - 1.0)
    raise KeyError(family)


def compute_reference(name: str, s, p, q) -> tuple[float, float]:
    """(reference value, tolerance scale) for one ``divbound compute`` request."""
    base, _, suffix = name.partition(":")
    if suffix == "qp":
        p, q = q, p
    if s is None:
        terms, factor = _measure_terms(base, p, q)
        offset = 0.0
    else:
        terms, offset, factor = _family_terms(base, s, p, q)
    value = factor * (math.fsum(terms) - offset)
    scale = abs(factor) * (math.fsum(map(abs, terms)) + abs(offset))
    return value, scale


def check_compute(exit_code: int, output: str, reference: tuple[float, float]) -> str | None:
    """None when the CLI printed the reference value, else why not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        value = float(output.strip())
    except ValueError:
        return "unparsable output"
    if not math.isfinite(value):
        return "non-finite value"
    ref, scale = reference
    if abs(value - ref) > VALUE_TOL * max(1.0, scale):
        return "value rejected by the oracle"
    return None


# --------------------------------------------------------------------------
# certify-intervals: log-domain curvature-ratio scan

#: numerator and denominator generator of each inequality family
FAMILY_GENERATORS = {
    "I": ("PSI", "PHI"),
    "II": ("UPSILON", "PHI"),
    "III": ("XI", "PHI"),
    "IV": ("VARSIGMA", "PHI"),
    "V": ("UPSILON", "PSI"),
    "VI": ("XI", "PSI"),
    "VII": ("VARSIGMA", "PSI"),
    "VIII": ("XI", "UPSILON"),
    "IX": ("VARSIGMA", "UPSILON"),
    "X": ("VARSIGMA", "XI"),
}


def log_curvature(gen: str, s: float, x, lx, lu):
    """(sign, ln|f''|) of a generator on the grid, from the forms

        PHI      x^(s-2)                      PSI   v^(s-2) / (4 x^3)
        UPSILON  u^(s-2) / 4                  XI    u^(s-3) (s x + 4 - s) / 4
        VARSIGMA v^(s-3) ((4-s) x + s) / (4 x^4)

    with u = (x+1)/2, v = u/x, ``lx`` = ln x and ``lu`` = ln u.
    """
    one = np.ones_like(x)
    if gen == "PHI":
        return one, (s - 2.0) * lx
    if gen == "PSI":
        return one, (s - 2.0) * (lu - lx) - 3.0 * lx - _LN4
    if gen == "UPSILON":
        return one, (s - 2.0) * lu - _LN4
    if gen == "XI":
        lin = s * x + (4.0 - s)
        with np.errstate(divide="ignore"):
            return np.sign(lin), (s - 3.0) * lu + np.log(np.abs(lin)) - _LN4
    if gen == "VARSIGMA":
        lin = (4.0 - s) * x + s
        with np.errstate(divide="ignore"):
            return np.sign(lin), (s - 3.0) * (lu - lx) + np.log(np.abs(lin)) - _LN4 - 4.0 * lx
    raise KeyError(gen)


def certify_extrema(family: str, s: float, t: float, r: float, R: float):
    """(min g, max g) over a log-spaced grid on [r, R], or None when the
    denominator curvature is not positive or an extremum is not a finite
    normal double."""
    lx = np.linspace(math.log(r), math.log(R), CERT_GRID)
    x = np.exp(lx)
    x[0], x[-1] = r, R
    lu = np.log1p(x) - _LN2
    num, den = FAMILY_GENERATORS[family]
    sign_d, log_d = log_curvature(den, t, x, lx, lu)
    if not np.all(sign_d > 0):
        return None
    sign_n, log_n = log_curvature(num, s, x, lx, lu)
    lg = log_n - log_d
    if not np.all(np.isfinite(lg[sign_n != 0])) or lg.max() > LOG_LIMIT:
        return None
    g = sign_n * np.exp(lg)
    i, j = int(np.argmin(g)), int(np.argmax(g))
    for k in (i, j):
        if sign_n[k] != 0 and lg[k] < -LOG_LIMIT:
            return None
    return float(g[i]), float(g[j])


def check_certificate(m: float, M: float, extrema: tuple[float, float]) -> str | None:
    """None when m <= min g and M >= max g on the oracle grid and both are
    finite; otherwise "unsound certificate" (a bound on the wrong side of
    the oracle, or NaN) or "non-finite certificate" (sound but infinite)."""
    lo, hi = extrema
    if not (m <= lo + CERT_REL_TOL * abs(lo) and M >= hi - CERT_REL_TOL * abs(hi)):
        return "unsound certificate"
    if not (math.isfinite(m) and math.isfinite(M)):
        return "non-finite certificate"
    return None


# --------------------------------------------------------------------------
# verify-harness: the check ids present when the benchmark was defined

CHECK_IDS_FILE = Path(__file__).with_name("verify_check_ids.json")


def ids_digest(ids) -> str:
    return hashlib.sha256("\n".join(sorted(ids)).encode()).hexdigest()


def expected_ids_digest() -> str:
    ids = json.loads(CHECK_IDS_FILE.read_text(encoding="utf-8"))
    if len(ids) != 686:
        raise ValueError(f"{CHECK_IDS_FILE.name} holds {len(ids)} ids, expected 686")
    return ids_digest(ids)


def check_report(all_passed: bool, digest: str, finite: bool, expected: str) -> str | None:
    """None when a harness report passed every one of the recorded checks."""
    if not all_passed:
        return "a harness check failed"
    if digest != expected:
        return "check ids differ from the recorded 686"
    if not finite:
        return "non-finite worst slack"
    return None
