"""Wire formats: exact rational strings, payload round trips, determinism."""

import json
import sys
from fractions import Fraction

import pytest

from gammacert import GammaVector, ParseError, PathConfig, SymmetricPolynomial, build_certificate, coeff_table, diagonal
from gammacert.jsonio import (
    certificate_payload,
    diagonal_payload,
    dumps,
    format_rational,
    parse_vector_payload,
    table_payload,
    vector_payload,
)
from gammacert.polycore import parse_rational


class TestRationals:
    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(8, 2)) == "4"
        assert format_rational(5) == "5"

    def test_parse(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("+2/6") == Fraction(1, 3)

    def test_rejects_floats_and_junk(self):
        for bad in ("1.5", "a/b", "", "1/2/3", "2e3"):
            with pytest.raises(ParseError):
                parse_rational(bad)

    def test_round_trip(self):
        for f in (Fraction(0), Fraction(22, 7), Fraction(-9, 5), Fraction(10**30, 7)):
            assert parse_rational(format_rational(f)) == f

    def test_past_the_interpreter_digit_cap(self):
        # str() refuses an int of more than 4,300 digits; the format does not,
        # and the cap stays where it was.
        cap = sys.get_int_max_str_digits()
        for value in (10**4000 - 1, 10**4000, 10**8000 + 7, -(10**12345) - 10**4000 + 1, 7**20000):
            text = format_rational(value)
            assert read_decimal(text) == value and text.lstrip("-")[0] != "0"
        huge = Fraction(-(3**30000), 2**40001)
        numerator, denominator = format_rational(huge).split("/")
        assert Fraction(read_decimal(numerator), read_decimal(denominator)) == huge
        assert sys.get_int_max_str_digits() == cap


def read_decimal(text: str) -> int:
    """An int from its decimal digits, 4,000 at a time, under the digit cap."""
    digits = text.lstrip("-")
    value = 0
    for start in range(0, len(digits), 4000):
        chunk = digits[start:start + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


class TestVectorPayloads:
    def test_h_round_trip(self):
        p = SymmetricPolynomial(6, (1, 6, 15, 20, 15, 6, 1))
        payload = vector_payload(p)
        assert payload == {
            "schema": "1",
            "kind": "h",
            "n": 6,
            "coeffs": ["1", "6", "15", "20", "15", "6", "1"],
        }
        assert parse_vector_payload(payload) == p

    def test_gamma_round_trip_with_fractions(self):
        g = GammaVector(5, (Fraction(1, 2), 0, Fraction(-3, 7)))
        assert parse_vector_payload(vector_payload(g)) == g

    def test_kind_mismatch(self):
        payload = vector_payload(GammaVector(4, (1, 2, 3)))
        with pytest.raises(ParseError):
            parse_vector_payload(payload, "h")

    def test_schema_checked(self):
        payload = vector_payload(GammaVector(4, (1, 2, 3)))
        payload["schema"] = "99"
        with pytest.raises(ParseError):
            parse_vector_payload(payload)

    def test_integer_coeffs_accepted_floats_rejected(self):
        good = {"schema": "1", "kind": "gamma", "n": 4, "coeffs": [1, 2, "3/2"]}
        assert parse_vector_payload(good) == GammaVector(4, (1, 2, Fraction(3, 2)))
        bad = {"schema": "1", "kind": "gamma", "n": 4, "coeffs": [1, 2.5, 3]}
        with pytest.raises(ParseError):
            parse_vector_payload(bad)


class TestTablePayload:
    def test_structure_and_determinism(self):
        table = coeff_table(6, 1)
        payload = table_payload(table)
        assert payload["schema"] == "1"
        assert payload["n"] == 6 and payload["i"] == 1
        entries = {(j, k): int(v) for j, k, v in payload["entries"]}
        assert entries[(0, 0)] == 21 and entries[(0, 2)] == -1
        assert dumps(payload) == dumps(table_payload(coeff_table(6, 1)))

    def test_graded_entry_order(self):
        payload = table_payload(coeff_table(6, 2))
        keys = [(j, k) for j, k, _ in payload["entries"]]
        assert keys == sorted(keys, key=lambda jk: (jk[0] + jk[1], jk[1] - jk[0]))


class TestOtherPayloads:
    def test_diagonal_payload(self):
        payload = diagonal_payload(diagonal(16, 5, 3))
        assert payload["values"] == ["825", "1177", "-182", "-1820"]
        assert payload["tail_sign_ok"] is True
        assert payload["total"] == "0"

    def test_certificate_payload(self):
        payload = certificate_payload(build_certificate(PathConfig(6, 2, 2)))
        assert payload["total"] == "28"
        assert payload["avoiding_term"] == "27"
        assert payload["boundary_terms"] == [[[2, 0], [4, 0], "1"]]
        assert payload["contributing_paths"] == 15

    def test_dumps_is_valid_compact_json(self):
        payload = certificate_payload(build_certificate(PathConfig(6, 2, 2)))
        text = dumps(payload)
        assert json.loads(text)["total"] == "28"
        assert "\n" not in text and ": " not in text
