"""The exact-number boundary: one grammar for Python, JSON and CLI input.

Every malformed entry must be rejected with a ``ParseError`` (exit 2 on the
command line), never accepted, rounded, or let through as a traceback.  The
grammar is restated here independently of the package:
``[+-]?[0-9]+(/[0-9]+)?``, ASCII only, surrounding ASCII blanks ignored,
nonzero denominator.
"""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammacert import EntryError, GammaCertError, GammaVector, ParseError, SymmetricPolynomial
from gammacert.cli import main
from gammacert.jsonio import loads_vector
from gammacert.polycore import rational_vector

GRAMMAR = re.compile(r"([+-]?[0-9]+)(/([0-9]+))?")
BLANKS = " \t\n\r\v\f"
GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "bench" / "cli_expected.json").read_text())


def oracle_entry(value):
    """The Fraction an entry denotes, or None if the boundary must reject it."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        return None
    match = GRAMMAR.fullmatch(value.strip(BLANKS))
    if match is None or (match.group(3) is not None and int(match.group(3)) == 0):
        return None
    return Fraction(int(match.group(1)), int(match.group(3) or 1))


def oracle_vector(values):
    entries = [oracle_entry(v) for v in values]
    return None if None in entries else entries


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestConstructors:
    @pytest.mark.parametrize(
        "entries",
        [("0.5", "1e1"), (True, 1), (1, False), ("1/0", 1), ("1", "٣"), ("1_0", 1), (" 3", 1), ("1" * 5000, 1)],
    )
    def test_only_the_grammar_is_accepted(self, entries):
        with pytest.raises(EntryError) as err:
            GammaVector(2, entries)
        assert isinstance(err.value, ParseError) and isinstance(err.value, TypeError)
        assert "entry" in str(err.value)

    def test_blanks_signs_and_reduction(self):
        assert GammaVector(2, (" +2/6\t", "-0")).gamma == (Fraction(1, 3), Fraction(0))

    def test_fractions_pass_through_uncopied(self):
        entries = (Fraction(1, 2), Fraction(3))
        assert rational_vector(entries) is entries
        assert GammaVector(2, entries).gamma is entries


class TestCliBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--lc", "1,1/0,1"],
            ["gamma", "--to-h", "--n", "2", "1,٣"],
            ["check", "--transfer", "--n", "2", "1,0.5"],
            ["check", "--lc", "1," + "1" * 5000],
        ],
    )
    def test_malformed_entry_exits_2(self, argv):
        code, out, err = run_quiet(argv)
        assert (code, out) == (2, "")
        assert "entry 1" in err

    @pytest.mark.parametrize(
        "payload",
        ['{"kind":"gamma","n":true,"coeffs":["1"]}', '{"kind":"gamma","n":"2","coeffs":["1","1"]}'],
        ids=["n-true", "n-string"],
    )
    def test_json_n_must_be_an_integer(self, payload, monkeypatch):
        with pytest.raises(ParseError):
            loads_vector(payload)
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert run_quiet(["gamma", "--to-h", "--file", "-"])[:2] == (2, "")

    @pytest.mark.parametrize(
        "text",
        ['{"kind":"gamma","n":0,"coeffs":"1"}', '{"n":' + "1" * 5000 + "}", "[" * 100_000],
        ids=["coeffs-string", "over-long-integer", "over-deep-nesting"],
    )
    def test_malformed_json_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            loads_vector(text)


class TestCliIntegers:
    """Integer options and positionals take ``[+-]?[0-9]+`` only: no other
    scripts' digits, no ``_`` separators, no blanks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--to-h", "--n", "٢", "1,1"],
            ["check", "--ulc", "٣", "1,3,3,1"],
            ["sweep", "--suite", "oracle", "--max-n", "٣"],
            ["coeffs", "1_6", "5"],
            ["diagonal", "6", "2", " 1"],
            ["certify", "٦", "2", "2"],
        ],
        ids=["--n", "--ulc", "--max-n", "coeffs-positional", "diagonal-positional", "certify-positional"],
    )
    def test_non_ascii_integer_exits_2(self, argv):
        code, out, err = run_quiet(argv)
        assert (code, out) == (2, "")
        assert "invalid integer value" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["sweep", "--suite", "paths", "--max-n", "-1"], "--max-n"),
            (["sweep", "--max-n", "-8"], "--max-n"),
            (["sweep", "--suite", "oracle", "--max-n", "-3"], "--max-n"),
        ],
    )
    def test_negative_bound_exits_2(self, argv, option):
        code, out, err = run_quiet(argv)
        assert (code, out) == (2, "")
        assert f"{option} must be nonnegative" in err

    def test_max_n_zero_is_honoured(self):
        code, out, _ = run_quiet(["sweep", "--suite", "paths", "--max-n", "0"])
        assert code == 0
        assert out.startswith("path-identities(n<=0): ")


class TestNonUtf8Input:
    BYTES = b'\xff\xfe{"kind":"h","n":2,"coeffs":[1,2,1]}'

    def test_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(self.BYTES)
        code, out, err = run_quiet(["check", "--lc", "--file", str(path)])
        assert (code, out) == (2, "")
        assert "not UTF-8" in err

    def test_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(self.BYTES), encoding="utf-8"))
        code, out, err = run_quiet(["check", "--lc", "--file", "-"])
        assert (code, out) == (2, "")
        assert "stdin is not UTF-8" in err


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_readme_commands_byte_identical(case, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(case.get("stdin", "")))
    code, out, _ = run_quiet(case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


TOKENS = st.one_of(
    st.fractions(max_denominator=30).map(lambda f: f"{f.numerator}/{f.denominator}"),
    st.integers(-30, 30).map(str),
    st.text(alphabet="0123456789/+-. e_٣\t ", max_size=6),
)
INLINE = st.one_of(st.lists(TOKENS, min_size=1, max_size=6).map(",".join), st.text(max_size=20))


@settings(max_examples=100, deadline=None)
@given(INLINE)
def test_check_lc_fuzz(text):
    code, _, _ = run_quiet(["check", "--lc", "--", text])
    values = oracle_vector(text.split(","))
    if values is None or any(v < 0 for v in values):
        assert code == 2
    else:
        lc = all(values[i] ** 2 >= values[i - 1] * values[i + 1] for i in range(1, len(values) - 1))
        assert code == (0 if lc else 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), INLINE)
def test_gamma_to_h_fuzz(n, text):
    code, out, _ = run_quiet(["gamma", "--to-h", "--n", str(n), "--", text])
    gamma = oracle_vector(text.split(","))
    if gamma is None or len(gamma) != n // 2 + 1:
        assert (code, out) == (2, "")
    else:
        h = [
            sum(comb(n - 2 * j, i - j) * g for j, g in enumerate(gamma) if 0 <= i - j <= n - 2 * j)
            for i in range(n + 1)
        ]
        assert code == 0
        assert [Fraction(v) for v in out.strip().removeprefix("h = ").split(",")] == h


JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6), TOKENS)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
PAYLOAD = st.fixed_dictionaries(
    {},
    optional={
        "schema": st.just("1") | JSON_VALUE,
        "kind": st.sampled_from(["h", "gamma"]) | JSON_VALUE,
        "n": st.integers(-1, 6) | JSON_VALUE,
        "coeffs": st.lists(st.integers(-5, 5) | JSON_LEAF, max_size=7) | JSON_VALUE,
    },
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(PAYLOAD.map(json.dumps), st.text(max_size=30)))
def test_loads_vector_fuzz(text):
    try:
        vec = loads_vector(text)
    except GammaCertError:
        return  # a clean rejection; any other exception fails the test
    payload = json.loads(text)
    assert isinstance(payload["n"], int) and not isinstance(payload["n"], bool)
    assert oracle_vector(payload["coeffs"]) == list(vec.h if isinstance(vec, SymmetricPolynomial) else vec.gamma)



SMALL = st.integers(-3, 12).map(str)
INTEGER_ARGV = st.one_of(
    st.tuples(st.just("coeffs"), SMALL, SMALL, st.sampled_from([[], ["--regrouped"], ["--zeros"]])),
    st.tuples(st.just("diagonal"), SMALL, SMALL, SMALL, st.sampled_from([[], ["--even"], ["--odd"]])),
    st.tuples(st.just("certify"), SMALL, SMALL, SMALL, st.sampled_from([[], ["--formula-only"], ["--ascii"]])),
)


@settings(max_examples=100, deadline=None)
@given(INTEGER_ARGV, st.sampled_from([[], ["--json"]]))
def test_integer_subcommands_fuzz(parts, json_flag):
    """coeffs, diagonal and certify on small integers: a verdict or a clean
    input error (no output, exit 2), never exit 3 or a traceback."""
    *head, flags = parts
    argv = [*head, *flags, *json_flag]
    code, out, _ = run_quiet(argv)
    assert code in (0, 1, 2), argv
    assert (code == 2) == (out == ""), argv


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([["check", "--lc"], ["check", "--transfer"], ["gamma", "--to-h"], ["gamma", "--to-gamma"]]),
    st.one_of(PAYLOAD.map(json.dumps), st.text(max_size=40)),
)
def test_file_input_fuzz(command, text):
    """Any text in a --file: a result or a clean input error, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_quiet([*command, "--file", str(path)])
    assert code in (0, 1, 2), (command, text)
    assert (code == 2) == (out == ""), (command, text)
