import json
import warnings

import numpy as np
import pytest

from divbound import simplex
from divbound.errors import (
    LengthMismatch,
    NonPositiveMass,
    NotNormalized,
    SamplingExhausted,
    TooShort,
)
from divbound.simplex import (
    Distribution,
    load_distribution,
    normalize,
    parse_masses,
    ratio_bounds,
    sample_pair,
    sample_pair_matrix,
    validate,
)


class TestValidate:
    def test_uniform(self):
        d = validate([0.5, 0.5])
        assert d.n == 2
        np.testing.assert_array_equal(d.masses, [0.5, 0.5])

    def test_skewed(self):
        assert validate([0.25, 0.75]).n == 2

    def test_sum_beyond_tolerance(self):
        # sum is 1.0000002, off by 2e-7 > 1e-9
        with pytest.raises(NotNormalized):
            validate([0.5, 0.5000002])

    def test_zero_mass_rejected(self):
        with pytest.raises(NonPositiveMass) as exc:
            validate([0.0, 1.0])
        assert exc.value.index == 0

    def test_negative_mass_rejected(self):
        with pytest.raises(NonPositiveMass) as exc:
            validate([0.3, -0.1, 0.8])
        assert exc.value.index == 1

    def test_too_short(self):
        with pytest.raises(TooShort):
            validate([1.0])

    def test_no_silent_renormalization(self):
        with pytest.raises(NotNormalized):
            validate([0.3, 0.3, 0.39])

    def test_explicit_normalize(self):
        d = normalize([3.0, 1.0])
        np.testing.assert_allclose(d.masses, [0.75, 0.25], rtol=0, atol=1e-15)

    def test_custom_tolerances(self):
        assert validate([0.5, 0.5002], eps_sum=1e-3).n == 2

    def test_idempotent(self):
        d = validate([0.2, 0.3, 0.5])
        d2 = validate(d.masses)
        np.testing.assert_array_equal(d.masses, d2.masses)

    def test_masses_read_only(self):
        d = validate([0.5, 0.5])
        with pytest.raises(ValueError):
            d.masses[0] = 0.9

    @pytest.mark.parametrize("make", [
        lambda: (0.25, 0.75),
        lambda: np.array([0.25, 0.75]),
        lambda: np.array([0.25, 0.75], dtype=np.float32),
        lambda: (x for x in [0.25, 0.75]),
        lambda: {0.25: "a", 0.75: "b"},
    ])
    def test_any_iterable_accepted(self, make):
        np.testing.assert_array_equal(validate(make()).masses, [0.25, 0.75])
        np.testing.assert_array_equal(normalize(make()).masses, [0.25, 0.75])

    @pytest.mark.parametrize("raw", [0.5, np.float64(0.5), np.array(0.5), None])
    def test_non_iterable_rejected(self, raw):
        with pytest.raises(TypeError):
            validate(raw)
        with pytest.raises(TypeError):
            normalize(raw)

    def test_direct_construction_checks(self):
        with pytest.raises(NonPositiveMass):
            Distribution(np.array([1.0, 0.0]))


class TestRatioBounds:
    def test_worked_example(self):
        rb = ratio_bounds(validate([0.5, 0.5]), validate([0.25, 0.75]))
        assert rb.r == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert rb.R == pytest.approx(2.0, abs=1e-15)

    def test_identical_pair(self):
        d = validate([0.3, 0.7])
        rb = ratio_bounds(d, d)
        assert rb.r == rb.R == 1.0

    def test_extreme(self):
        rb = ratio_bounds(validate([0.1, 0.9]), validate([0.9, 0.1]))
        assert rb.r == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert rb.R == pytest.approx(9.0, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ratio_bounds(validate([0.5, 0.5]), validate([0.2, 0.3, 0.5]))

    def test_straddles_one_on_samples(self):
        for i in range(50):
            P, Q = sample_pair(5, seed=1234 + i, concentration=0.5)
            rb = ratio_bounds(P, Q)
            assert rb.r <= 1.0 <= rb.R


class TestSamplePair:
    def test_valid_output(self):
        P, Q = sample_pair(2, seed=0, concentration=1.0)
        validate(P.masses)
        validate(Q.masses)

    def test_deterministic(self):
        a = sample_pair(4, seed=99, concentration=0.7)
        b = sample_pair(4, seed=99, concentration=0.7)
        np.testing.assert_array_equal(a[0].masses, b[0].masses)
        np.testing.assert_array_equal(a[1].masses, b[1].masses)

    def test_seeds_differ(self):
        a = sample_pair(3, seed=1)
        b = sample_pair(3, seed=2)
        assert not np.array_equal(a[0].masses, b[0].masses)

    def test_n_too_small(self):
        with pytest.raises(TooShort):
            sample_pair(1, seed=0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_matrix_n_too_small(self, n):
        with pytest.raises(TooShort):
            sample_pair_matrix(n, 3, seed=0)

    def test_bad_concentration(self):
        with pytest.raises(ValueError):
            sample_pair(2, seed=0, concentration=0.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_concentration(self, value):
        with pytest.raises(ValueError, match=f"got {value}"):
            sample_pair(2, seed=0, concentration=value)
        with pytest.raises(ValueError, match=f"got {value}"):
            sample_pair_matrix(2, 3, seed=0, concentration=value)

    def test_rejection_budget(self):
        # with the rejection threshold at 0.9 no 2-simplex draw can pass
        with pytest.raises(SamplingExhausted):
            sample_pair(2, seed=0, eps_mass=0.9, max_rejections=5)

    def test_matrix_rows_match_streams(self):
        P, Q = sample_pair_matrix(3, 4, seed=77)
        assert P.shape == Q.shape == (4, 3)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(Q.sum(axis=1), 1.0, atol=1e-12)
        # row streams are keyed by (seed, i): chunking cannot change content
        P2, Q2 = sample_pair_matrix(3, 2, seed=77)
        np.testing.assert_array_equal(P[:2], P2)
        np.testing.assert_array_equal(Q[:2], Q2)

    def test_matrix_rows_are_unbatched_draws(self):
        # each row is drawn alone and redrawn alone until every mass passes;
        # at concentration 0.05 and n = 10 some draws are redrawn
        alpha = np.full(10, 0.05)
        P, Q = sample_pair_matrix(10, 30, seed=5, concentration=0.05)
        redrawn = 0
        for i in range(30):
            rng = np.random.default_rng([5, i])
            for row in (P[i], Q[i]):
                x = rng.dirichlet(alpha)
                while not np.all(x > 1e-12):
                    redrawn += 1
                    x = rng.dirichlet(alpha)
                np.testing.assert_array_equal(row, x)
        assert redrawn > 0


class TestDistributionFiles:
    def test_json_array(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps([0.5, 0.5]))
        assert load_distribution(f).n == 2

    def test_csv_one_per_line(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("0.25\n0.75\n")
        np.testing.assert_array_equal(load_distribution(f).masses, [0.25, 0.75])

    def test_renormalize_flag(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("2\n6\n")
        d = load_distribution(f, renormalize=True)
        np.testing.assert_allclose(d.masses, [0.25, 0.75], atol=1e-15)

    def test_parse_rejects_non_array_json(self):
        with pytest.raises(ValueError):
            parse_masses('{"a": 1}')

    def test_invalid_content(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0.5\nnot-a-number\n")
        with pytest.raises(ValueError):
            load_distribution(f)

    def test_parse_returns_float64_array(self):
        for text in ("[0.25, 0.75]", "0.25\n0.75\n"):
            a = parse_masses(text)
            assert isinstance(a, np.ndarray) and a.dtype == np.float64
            np.testing.assert_array_equal(a, [0.25, 0.75])

    @pytest.mark.parametrize("text", [
        "[\n  0.25,\n  0.75\n]\n",          # pretty-printed JSON
        "[\r\n  0.25,\r\n  0.75\r\n]\r\n",  # ... with \r\n line ends
        "0.25\r\n0.75\r\n",
        "\n\n0.25\n\n\n0.75\n\n",            # blank lines are skipped
        "  0.25  \n\t0.75\n",                 # surrounding whitespace on a line
        "0.25\n0.75",                         # no trailing newline
    ])
    def test_accepted_layouts(self, text):
        np.testing.assert_array_equal(parse_masses(text), [0.25, 0.75])

    @pytest.mark.parametrize("text, fmt, where", [
        ("[[0.5], [0.5]]", "JSON", "item 1 is '[0.5]'"),
        ("[null, 1.0]", "JSON", "item 1 is 'null'"),
        ('["0.5", "0.5"]', "JSON", "item 1 is '\"0.5\"'"),
        ("[0.5, true]", "JSON", "item 2 is 'true'"),
        ("[0.5, 0.5,]", "JSON", "item 3 is ''"),
        ("[0.5, , 0.5]", "JSON", "item 2 is ''"),  # numpy alone reads -1.0 here
        ("[0.5 0.5]", "JSON", "item 1 is '0.5 0.5'"),
        ("[0.5, 0.5", "JSON", "unterminated array"),
        ('{"a": 1}', "JSON", "JSON object"),
        ("0.5\n\n0.5 0.5\n", "CSV", "line 3 is '0.5 0.5'"),
        ("0.5 0.5\n\n0.5\n", "CSV", "line 1 is '0.5 0.5'"),
        ("0.5,\n0.5\n", "CSV", "line 1 is '0.5,'"),
        ("0.5\nnot-a-number\n", "CSV", "line 2 is 'not-a-number'"),
    ])
    def test_malformed_names_file_format_and_place(self, tmp_path, text, fmt, where):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_distribution(f)
        message = str(exc.value)
        assert message.startswith(f"{f}: not ")
        assert fmt in message and where in message

    def test_long_offending_line_is_shortened(self):
        with pytest.raises(ValueError, match=r"line 1 is '0\.5,0\.5.*\.\.\.'$"):
            parse_masses(",".join(["0.5"] * 1000) + "\n")

    def test_undecodable_file_names_the_file(self, tmp_path):
        f = tmp_path / "bin.csv"
        f.write_bytes(b"\xff\xfe0.5\n")
        with pytest.raises(ValueError, match=f"^{f}: 'utf-8' codec"):
            load_distribution(f)

    @pytest.mark.parametrize("text, error", [
        ("", TooShort), ("[]", TooShort), ("[ \n ]", TooShort), (" \n\t\n", TooShort),
        ("0.5", TooShort), ("nan\n0.5\n", NonPositiveMass), ("[1e400, 0.5]", NotNormalized),
    ])
    def test_empty_single_and_non_finite_fail_validation(self, tmp_path, text, error):
        # numpy reads blank text as [-1.0]; the loader must not
        f = tmp_path / "f.txt"
        f.write_text(text)
        with pytest.raises(error) as exc:
            load_distribution(f)
        assert str(exc.value).startswith(f"{f}: ")
        if error is NonPositiveMass:
            assert (exc.value.index, exc.value.threshold) == (0, simplex.EPS_MASS)

    @pytest.mark.parametrize("text", ["[0.5, 0.5, junk]", "0.5\n0.5\nabc\n"])
    def test_numpy_that_only_warns_on_unmatched_data(self, tmp_path, monkeypatch, text):
        # older numpy warns (hidden by default) and returns what it read
        # before the unmatched data; the file must still be refused
        def fromstring(text, sep):
            values = []
            for token in text.split(sep):
                try:
                    values.append(float(token))
                except ValueError:
                    warnings.warn("string or file could not be read to its end "
                                  "due to unmatched data", DeprecationWarning)
                    break
            return np.array(values)

        monkeypatch.setattr(simplex.np, "fromstring", fromstring)
        assert not simplex._unmatched_data_raises()
        monkeypatch.setattr(simplex, "_UNMATCHED_RAISES", False)
        f = tmp_path / "cut.txt"
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(ValueError, match=f"^{f}: not .* is '(junk|abc)'$"):
                load_distribution(f)
        assert list(parse_masses("[0.25, 0.75]")) == [0.25, 0.75]


def _layouts(masses, crlf, blank_after, trailing_newline):
    """The three file layouts of ``masses`` and the tokens each one holds."""
    tokens = [repr(m) for m in masses]
    nl = "\r\n" if crlf else "\n"
    compact = "[" + ",".join(tokens) + "]"
    pretty = "[" + nl + ("," + nl).join("    " + t for t in tokens) + nl + "]" + nl
    lines = []
    for i, t in enumerate(tokens):
        lines.append(t)
        lines.extend([""] * blank_after.get(i, 0))
    csv = nl.join(lines) + (nl if trailing_newline else "")
    return tokens, (compact, pretty, csv)


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


class TestLoaderProperties:
    """Every layout loads the doubles that ``float()`` gives for its tokens."""

    def _strategy(self, st, masses):
        return st.tuples(
            masses,
            st.booleans(),
            st.dictionaries(st.integers(0, 40), st.integers(1, 3), max_size=4),
            st.booleans(),
        )

    def test_parse_is_bit_identical_to_float(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        # positive doubles over the whole range, subnormals included
        doubles = st.floats(min_value=5e-324, allow_infinity=False, allow_nan=False)

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(self._strategy(st, st.lists(doubles, min_size=1, max_size=40)))
        def check(case):
            tokens, texts = _layouts(*case)
            oracle = np.array([float(tok) for tok in tokens])
            for text in texts:
                assert _bits(parse_masses(text)) == _bits(oracle)

        check()

    def test_load_is_bit_identical_to_float(self, tmp_path_factory):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        weights = st.lists(st.floats(1e-4, 1e4), min_size=2, max_size=40)
        masses = weights.map(lambda w: (np.asarray(w) / np.sum(w)).tolist())
        folder = tmp_path_factory.mktemp("layouts")

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(self._strategy(st, masses))
        def check(case):
            tokens, texts = _layouts(*case)
            oracle = np.array([float(tok) for tok in tokens])
            hyp.assume(abs(oracle.sum() - 1.0) <= 1e-9)
            for i, text in enumerate(texts):
                f = folder / f"m{i}.txt"
                f.write_bytes(text.encode())  # keep \r\n as written
                assert _bits(load_distribution(f).masses) == _bits(oracle)

        check()
