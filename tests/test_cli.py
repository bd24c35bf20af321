import json
import warnings

import numpy as np
import pytest

from divbound import cli
from divbound.measures import kl, rel_ag, rel_j, rel_js, triangular

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
        assert data["m"] == data["M"] == 0.25
        assert data["region_ok"] is True

    def test_pair_adds_sandwich(self, capsys, pair_files):
        p, q = pair_files
        code, out, _ = invoke(capsys, "bounds", "--family", "II", "--s", "2",
                              "--t", "1", "--p", p, "--q", q)
        data = json.loads(out)
        assert abs(data["m"] - 1.0 / 6.0) < 1e-14
        assert abs(data["M"] - 0.5) < 1e-14
        assert data["sandwich"]["passed"] is True

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

    @pytest.mark.parametrize("argv", [
        # the printed catalog text overflows Python float arithmetic
        ("--family", "I", "--s", "400", "--t", "0", "--r", "1e-6", "--R", "1e6"),
        # r == R goes to the scalar curvature, whose exp overflows
        ("--family", "V", "--s", "0", "--t", "-2000", "--r", "1e200", "--R", "1e200"),
    ])
    def test_overflowing_constants_are_an_input_error(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning reaches stderr
            code, out, err = invoke(capsys, "bounds", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "overflows double precision" in err

    def test_needs_interval_or_pair(self, capsys):
        code, _, err = invoke(capsys, "bounds", "--family", "I", "--s", "2", "--t", "2")
        assert code == 1

    def test_text_format(self, capsys, pair_files):
        p, q = pair_files
        code, out, _ = invoke(capsys, "bounds", "--family", "II", "--s", "2",
                              "--t", "1", "--p", p, "--q", q, "--format", "text")
        assert code == 0 and "m = 0.16666666666666666" in out


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
