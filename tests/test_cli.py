import json
import warnings

import numpy as np
import pytest

from conftest import dense_log_extrema
from divbound import bounds, cli
from divbound.bounds import InequalityFamily, family_generators
from divbound.measures import (
    MeasureId,
    MeasureKind,
    evaluate,
    kl,
    rel_ag,
    rel_j,
    rel_js,
    triangular,
)
from divbound.simplex import validate

WORKED_P, WORKED_Q = np.array([0.5, 0.5]), np.array([0.25, 0.75])

# the classical measure each family takes at s = 0 and at s = 1
CLASSICAL_AT = {
    ("phi", 0): kl(WORKED_Q, WORKED_P),
    ("omega", 0): rel_js(WORKED_P, WORKED_Q),
    ("omega-adj", 0): rel_js(WORKED_Q, WORKED_P),
    ("zeta", 0): triangular(WORKED_P, WORKED_Q),
    ("zeta-adj", 0): triangular(WORKED_P, WORKED_Q),
    ("phi", 1): kl(WORKED_P, WORKED_Q),
    ("omega", 1): rel_ag(WORKED_P, WORKED_Q),
    ("omega-adj", 1): rel_ag(WORKED_Q, WORKED_P),
    ("zeta", 1): rel_j(WORKED_P, WORKED_Q),
    ("zeta-adj", 1): rel_j(WORKED_Q, WORKED_P),
}


@pytest.fixture
def pair_files(tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.csv"
    p.write_text("[0.5, 0.5]")
    q.write_text("0.25\n0.75\n")
    return str(p), str(q)


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_chi2_text(self, capsys, pair_files):
        p, q = pair_files
        code, out, _ = invoke(capsys, "compute", "chi2", "--p", p, "--q", q)
        assert code == 0
        assert out == "0.3333333333333333\n"

    def test_orientation_suffix(self, capsys, pair_files):
        p, q = pair_files
        code, out, _ = invoke(capsys, "compute", "chi2:qp", "--p", p, "--q", q)
        assert code == 0
        assert out == "0.25\n"

    def test_json_format(self, capsys, pair_files):
        p, q = pair_files
        code, out, _ = invoke(capsys, "compute", "kl", "--p", p, "--q", q,
                              "--format", "json")
        data = json.loads(out)
        assert data["name"] == "kl" and data["s"] is None
        assert abs(data["value"] - 0.14384103622589042) < 1e-15

    def test_csv_format(self, capsys, pair_files):
        p, q = pair_files
        code, out, _ = invoke(capsys, "compute", "delta", "--p", p, "--q", q,
                              "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "name,s,value"

    def test_family_needs_s(self, capsys, pair_files):
        p, q = pair_files
        code, _, err = invoke(capsys, "compute", "phi", "--p", p, "--q", q)
        assert code == 1
        assert "--s" in err

    def test_family_value(self, capsys, pair_files):
        p, q = pair_files
        code, out, _ = invoke(capsys, "compute", "phi", "--s", "2", "--p", p, "--q", q)
        assert code == 0
        assert abs(float(out) - 1.0 / 6.0) < 1e-14

    def test_family_zero_on_equal(self, capsys, pair_files):
        p, _ = pair_files
        code, out, _ = invoke(capsys, "compute", "phi", "--s", "0.5",
                              "--p", p, "--q", p)
        assert code == 0
        assert float(out) == 0.0

    def test_zeta_non_convex_warning(self, capsys, pair_files):
        p, q = pair_files
        code, out, err = invoke(capsys, "compute", "zeta", "--s", "9",
                                "--p", p, "--q", q)
        assert code == 0
        assert "non-convex" in err
        assert float(out) > 0.0

    def test_unknown_name(self, capsys, pair_files):
        p, q = pair_files
        code, _, err = invoke(capsys, "compute", "nope", "--p", p, "--q", q)
        assert code == 1 and "unknown" in err

    def test_bad_suffix_is_one_error_for_measures_and_families(self, capsys, pair_files):
        p, q = pair_files
        results = [invoke(capsys, "compute", name, "--s", "1", "--p", p, "--q", q)
                   for name in ("phi:xx", "kl:xx")]
        assert results[0] == results[1] == (1, "", "error: unknown orientation suffix 'xx'\n")

    def test_invalid_distribution_names_index(self, capsys, tmp_path, pair_files):
        bad = tmp_path / "bad.json"
        bad.write_text("[0.0, 1.0]")
        _, q = pair_files
        code, _, err = invoke(capsys, "compute", "kl", "--p", str(bad), "--q", q)
        assert code == 1
        assert "index 0" in err

    def test_missing_file(self, capsys, pair_files):
        _, q = pair_files
        code, _, err = invoke(capsys, "compute", "kl", "--p", "/nonexistent", "--q", q)
        assert code == 1

    def test_overflowing_term_is_an_input_error(self, capsys, tmp_path):
        # both inputs are valid, but q_i (p_i/q_i)^40 overflows for the second mass
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text("[0.5, 0.5]")
        q.write_text("[0.999999999998, 2e-12]")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning reaches stderr
            code, out, err = invoke(capsys, "compute", "phi", "--s", "40",
                                    "--p", str(p), "--q", str(q))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "overflows" in err

    # one ulp or less away from the removable points; argparse needs the
    # --s=VALUE spelling for a negative value
    @pytest.mark.parametrize(
        "s_arg,s0",
        [("--s=1e-17", 0), ("--s=-1e-17", 0), ("--s=1.0000000000000002", 1),
         ("--s=0.9999999999999999", 1)],
    )
    @pytest.mark.parametrize("family", ["phi", "omega", "omega-adj", "zeta", "zeta-adj"])
    def test_family_next_to_removable_point(self, capsys, pair_files, family, s_arg, s0):
        p, q = pair_files
        code, out, _ = invoke(capsys, "compute", family, s_arg, "--p", p, "--q", q)
        assert code == 0
        assert float(out) == pytest.approx(CLASSICAL_AT[family, s0], rel=1e-14)

    def test_normalize_flag(self, capsys, tmp_path, pair_files):
        raw = tmp_path / "raw.csv"
        raw.write_text("2\n2\n")
        _, q = pair_files
        code, out, _ = invoke(capsys, "compute", "chi2", "--normalize",
                              "--p", str(raw), "--q", q)
        assert code == 0
        assert out == "0.3333333333333333\n"


class TestBounds:
    def test_explicit_interval(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--family", "I", "--s", "2",
                              "--t", "2", "--r", "1", "--R", "1")
        assert code == 0
        data = json.loads(out)
        # the ratio 1/4 at x = 1, padded outward by its rounding allowance
        assert data["m"] <= 0.25 <= data["M"]
        assert data["M"] - data["m"] <= 1e-13 * 0.25
        assert data["region_ok"] is True

    def test_pair_adds_sandwich(self, capsys, pair_files):
        p, q = pair_files
        code, out, _ = invoke(capsys, "bounds", "--family", "II", "--s", "2",
                              "--t", "1", "--p", p, "--q", q)
        data = json.loads(out)
        assert abs(data["m"] - 1.0 / 6.0) < 1e-14
        assert abs(data["M"] - 0.5) < 1e-14
        assert data["sandwich"]["passed"] is True

    def test_pair_normalize_flag(self, capsys, tmp_path, pair_files):
        # --p/--q load their pair as compute does, --normalize included
        p, q = tmp_path / "p2.json", tmp_path / "q2.csv"
        p.write_text("[2, 2]")
        q.write_text("1\n3\n")
        args = ("bounds", "--family", "II", "--s", "2", "--t", "1")
        code, out, _ = invoke(capsys, *args, "--p", str(p), "--q", str(q), "--normalize")
        assert code == 0
        assert out == invoke(capsys, *args, "--p", pair_files[0], "--q", pair_files[1])[1]
        code, _, err = invoke(capsys, *args, "--p", str(p), "--q", str(q))
        assert code == 1 and "error" in err

    def test_strict_region_violation_exit_3(self, capsys):
        code, _, err = invoke(capsys, "bounds", "--family", "I", "--s", "0",
                              "--t", "0", "--r", "0.5", "--R", "2",
                              "--strict-closed-form")
        assert code == 3
        assert "region" in err.lower()

    def test_erratum_flag_surfaces(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--family", "IX", "--s", "1",
                              "--t", "0", "--r", "0.5", "--R", "2")
        data = json.loads(out)
        assert code == 0 and data["erratum"]

    @pytest.mark.parametrize("argv,what", [
        # the true M, about exp(5235), overflows
        (("--family", "I", "--s", "400", "--t", "0", "--r", "1e-6", "--R", "1e6"),
         "overflows double precision"),
        # the true M is about exp(976)
        (("--family", "V", "--s", "300", "--t", "-300", "--r", "0.01", "--R", "100"),
         "overflows double precision"),
        # g(1e200) is about exp(-925.8), below the least double
        (("--family", "V", "--s", "0", "--t", "-2000", "--r", "1e200", "--R", "1e200"),
         "underflows double precision"),
    ])
    def test_unrepresentable_constants_are_an_input_error(self, capsys, argv, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning reaches stderr
            code, out, err = invoke(capsys, "bounds", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and what in err

    @pytest.mark.parametrize("argv", [
        # curvatures beyond double range, extrema about 9.36e-08 and 8.13e+288
        ("--family", "I", "--s=38.5196925608098", "--t=-4.0601865298986155",
         "--r", "1.0443060000715921e-09", "--R", "9109.32691455385"),
        # the denominator curvature underflows but is positive
        ("--family", "VII", "--s=-25.790162686137208", "--t=-35.49214754779693",
         "--r", "3.100755709662614e-11", "--R", "908181114707.8119"),
    ])
    def test_constants_past_the_curvature_range_are_certified(self, capsys, argv):
        code, out, err = invoke(capsys, "bounds", *argv)
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["source"] == "numeric" and not data["region_ok"]
        num, den = family_generators(InequalityFamily(data["family"]), data["s"], data["t"])
        lo, hi = dense_log_extrema(num, den, data["r"], data["R"])
        assert data["m"] <= lo + 1e-12 * abs(lo) and data["M"] >= hi - 1e-12 * abs(hi)
        assert data["m"] == pytest.approx(lo, rel=1e-6) and data["M"] == pytest.approx(hi, rel=1e-6)

    @pytest.mark.parametrize("argv,source", [
        # printed_mM's e ** (t + 2) underflows to 0 and its division raised
        # ZeroDivisionError; the ratio is proven decreasing
        (("--family", "IV", "--s=0.07603497704644013", "--t=35.03920573942102",
          "--r", "1.287862906509099e-09", "--R", "53832.526546420755"), "closed-form"),
        # in-region edge requests that raised NonFiniteValue: the printed text
        # overflows (V, II), PHI's curvature underflows at r (I), PHI's
        # curvature overflows at R, where g is 4e-284 (II); the log-domain
        # record holds the end values of all three
        (("--family", "V", "--s=23.468782520666977", "--t=32.93434228712755",
          "--r", "0.03470652065124331", "--R", "460995591592.7579"), "closed-form"),
        (("--family", "I", "--s=-15.534548598688449", "--t=38.152259363999775",
          "--r", "9.561872738525603e-12", "--R", "442.1531700854481"), "closed-form"),
        (("--family", "II", "--s=10.194273501535207", "--t=35.85994201596016",
          "--r", "9.549976844090945e-07", "--R", "83323943598.75293"), "closed-form"),
    ])
    def test_in_region_edge_requests_are_certified(self, capsys, argv, source):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, "bounds", *argv)
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["region_ok"] and data["source"] == source and data["erratum"]
        num, den = family_generators(InequalityFamily(data["family"]), data["s"], data["t"])
        lo, hi = dense_log_extrema(num, den, data["r"], data["R"])
        assert data["m"] <= lo + 1e-12 * abs(lo) and data["M"] >= hi - 1e-12 * abs(hi)
        assert data["m"] >= lo - 1e-11 * abs(lo) and data["M"] <= hi + 1e-11 * abs(hi)

    def test_pair_certifies_once(self, capsys, pair_files, monkeypatch):
        calls = []
        certify = bounds.closed_form_mM

        def counted(*args, **kwargs):
            calls.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(bounds, "closed_form_mM", counted)
        monkeypatch.setattr(cli, "closed_form_mM", counted)
        p, q = pair_files
        code, out, _ = invoke(capsys, "bounds", "--family", "II", "--s", "2",
                              "--t", "1", "--p", p, "--q", q)
        assert code == 0 and json.loads(out)["sandwich"]["passed"]
        assert len(calls) == 1
        calls.clear()
        code, out, err = invoke(capsys, "bounds", "--family", "I", "--s", "0", "--t", "0",
                                "--p", p, "--q", q, "--strict-closed-form")
        assert code == 3 and out == "" and "region" in err.lower()
        assert len(calls) == 1

    def test_needs_interval_or_pair(self, capsys):
        code, _, err = invoke(capsys, "bounds", "--family", "I", "--s", "2", "--t", "2")
        assert code == 1

    def test_text_format(self, capsys, pair_files):
        p, q = pair_files
        code, out, _ = invoke(capsys, "bounds", "--family", "II", "--s", "2",
                              "--t", "1", "--p", p, "--q", q, "--format", "text")
        assert code == 0
        m = float(next(line for line in out.splitlines() if line.startswith("m = "))[4:])
        # x/4 at x = 2/3, padded outward by its rounding allowance
        assert m <= 1.0 / 6.0 and 1.0 / 6.0 - m <= 1e-13 / 6.0
        assert "sandwich: " in out and "(pass)" in out


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, err = invoke(capsys, "verify", "--trials", "25", "--seed", "5",
                                "--subjects", "identities")
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == 5
        assert all(c["passes"] == c["attempts"] for c in data["checks"].values())
        assert "wall time" in err

    def test_zero_trials_exit_1(self, capsys):
        code, _, err = invoke(capsys, "verify", "--trials", "0")
        assert code == 1

    def test_non_finite_concentration_exit_1(self, capsys):
        code, out, err = invoke(capsys, "verify", "--trials", "3", "--concentration", "inf")
        assert code == 1 and out == ""
        assert "concentration must be positive and finite, got inf" in err

    def test_byte_identical_reports(self, capsys):
        args = ("verify", "--trials", "40", "--seed", "9",
                "--subjects", "identities,families")
        _, out1, _ = invoke(capsys, *args)
        _, out2, _ = invoke(capsys, *args)
        assert out1.encode() == out2.encode()

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVBOUND_SEED", "123")
        code, out, _ = invoke(capsys, "verify", "--trials", "5",
                              "--subjects", "identities")
        assert json.loads(out)["seed"] == 123

    def test_bad_env_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVBOUND_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--trials", "5", "--subjects", "identities"])
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert "error: argument --seed: invalid int value: 'abc'" in err
        assert "Traceback" not in err
        # an explicit --seed wins over the variable
        code, out, _ = invoke(capsys, "verify", "--trials", "5", "--seed", "7",
                              "--subjects", "identities")
        assert code == 0 and json.loads(out)["seed"] == 7

    def test_violation_exit_2(self, capsys):
        # unattainable tolerance cannot be requested (rel_tol must be < 1),
        # so drive the exit path with a tolerance tight enough to fail
        code, out, _ = invoke(capsys, "verify", "--trials", "30", "--seed", "2",
                              "--subjects", "identities", "--rel-tol", "1e-300")
        assert code == 2
        data = json.loads(out)
        assert any(c["passes"] < c["attempts"] for c in data["checks"].values())
        assert any(c["witness"] for c in data["checks"].values())

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--trials", "10", "--seed", "0",
                              "--subjects", "identities", "--format", "text")
        assert code == 0
        assert out.splitlines()[0].startswith("pass")


class TestCatalog:
    def test_text_contains_family_listing(self, capsys):
        code, out, _ = invoke(capsys, "catalog")
        assert code == 0
        assert "(34): Ω_s(Q||P) vs Φ_t(P||Q)" in out

    def test_json_counts(self, capsys):
        code, out, _ = invoke(capsys, "catalog", "--format", "json")
        data = json.loads(out)
        assert len(data["measures"]) == 12
        assert len(data["families"]) == 5
        assert len(data["inequality_families"]) == 17  # one entry per branch tag
        assert len(data["corollaries"]) >= 25

    def test_stable_output(self, capsys):
        _, a, _ = invoke(capsys, "catalog", "--format", "json")
        _, b, _ = invoke(capsys, "catalog", "--format", "json")
        assert a == b

    def test_ignores_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVBOUND_SEED", "abc")
        code, out, err = invoke(capsys, "catalog")
        assert code == 0 and out and err == ""

    def test_csv_smoke(self, capsys):
        code, out, _ = invoke(capsys, "catalog", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "section,name,detail"


class TestExitCodes:
    def test_usage_error_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


# content of a malformed P file, and whether the parser (not validation)
# rejects it, in which case the message names the format after the file
MALFORMED = {
    "nested": ("[[0.5], [0.5]]", True),
    "null": ("[null, 1.0]", True),
    "strings": ('["0.5", "0.5"]', True),
    "true": ("[true, 0.5]", True),
    "object": ('{"a": 1}', True),
    "trailing-comma": ("[0.5, 0.5,]", True),
    "two-on-a-line": ("0.5 0.5\n", True),
    "unterminated": ("[0.5, 0.5", True),
    "empty-file": ("", False),
    "empty-array": ("[]", False),
    "nan": ("nan\n0.5\n", False),
    "overflow": ("[1e400, 0.5]", False),
    "single-number": ("1.0\n", False),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("command", ["compute", "bounds"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_error_line_exit_1(self, capsys, tmp_path, pair_files, command, case):
        text, parse_error = MALFORMED[case]
        bad = tmp_path / f"{case}.txt"
        bad.write_text(text)
        _, q = pair_files
        if command == "compute":
            argv = ("compute", "kl", "--p", str(bad), "--q", q)
        else:
            argv = ("bounds", "--family", "II", "--s", "2", "--t", "1",
                    "--p", str(bad), "--q", q)
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert err.startswith(f"error: {bad}: ")
        assert err.startswith(f"error: {bad}: not ") == parse_error

    def test_bad_value_names_the_q_file(self, capsys, tmp_path, pair_files):
        p, _ = pair_files
        q = tmp_path / "q.csv"
        q.write_text("0.25\nabc\n")
        code, _, err = invoke(capsys, "compute", "kl", "--p", p, "--q", str(q))
        assert code == 1
        assert err == f"error: {q}: not CSV with one number per line: line 2 is 'abc'\n"

    def test_invalid_masses_name_the_q_file(self, capsys, tmp_path, pair_files):
        p, _ = pair_files
        q = tmp_path / "q.json"
        q.write_text("[0.7, 0.7]")
        code, out, err = invoke(capsys, "compute", "kl", "--p", p, "--q", str(q))
        assert (code, out) == (1, "")
        assert err == f"error: {q}: masses sum to 1.4, deviating from 1 by more than 1e-09\n"


class TestBenchmarkStyleFiles:
    def test_every_layout_prints_the_oracle_value(self, capsys, tmp_path):
        # log-normal masses written with repr, as the benchmark writes them
        rng = np.random.default_rng(5)
        paths, tokens = {}, {}
        for side in ("p", "q"):
            w = np.exp(rng.normal(0.0, 1.0, 2000))
            tokens[side] = [repr(m) for m in (w / w.sum()).tolist()]
            layouts = {
                "compact.json": "[" + ",".join(tokens[side]) + "]",
                "pretty.json": json.dumps([float(t) for t in tokens[side]], indent=2),
                "lines.csv": "\n".join(tokens[side]) + "\n",
            }
            for name, text in layouts.items():
                paths[side, name] = tmp_path / f"{side}-{name}"
                paths[side, name].write_text(text)
        oracle = {side: validate(np.array([float(t) for t in tokens[side]])) for side in tokens}
        for kind in ("kl", "chi2", "hellinger"):
            expected = repr(evaluate(MeasureId(MeasureKind(kind)), oracle["p"], oracle["q"])) + "\n"
            for name in ("compact.json", "pretty.json", "lines.csv"):
                code, out, err = invoke(capsys, "compute", kind, "--p", str(paths["p", name]),
                                        "--q", str(paths["q", name]))
                assert (code, out, err) == (0, expected, "")


class TestParserCache:
    def test_each_call_reads_divbound_seed(self, capsys, monkeypatch):
        for value in ("11", "12"):
            monkeypatch.setenv("DIVBOUND_SEED", value)
            _, out, _ = invoke(capsys, "verify", "--trials", "5", "--subjects", "identities")
            assert json.loads(out)["seed"] == int(value)
        monkeypatch.delenv("DIVBOUND_SEED")
        _, out, _ = invoke(capsys, "verify", "--trials", "5", "--subjects", "identities")
        assert json.loads(out)["seed"] == 0

    def test_version_then_compute(self, capsys, pair_files):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("divbound ")
        p, q = pair_files
        code, out, _ = invoke(capsys, "compute", "chi2", "--p", p, "--q", q)
        assert code == 0 and out == "0.3333333333333333\n"

    def test_built_once_per_process(self, capsys, monkeypatch, pair_files):
        builds = []
        build = cli._build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "_build_parser", counting)
        p, q = pair_files
        invoke(capsys, "compute", "chi2", "--p", p, "--q", q)
        invoke(capsys, "catalog")
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])
        invoke(capsys, "compute", "kl", "--p", p, "--q", q)
        assert len(builds) == 1
