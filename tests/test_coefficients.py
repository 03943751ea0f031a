"""Quadratic-form coefficients: golden tables, sign structure, Abel sums."""

import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from math import comb, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammacert import coefficients, errors, polycore, sweeps
from gammacert.jsonio import table_payload
from gammacert import (
    CoeffTable,
    DegenerateFactorError,
    EntryError,
    GammaVector,
    HypothesisError,
    InternalCheckError,
    RangeError,
    SymmetricPolynomial,
    abel_check,
    check_diagonal_factorization,
    coeff_table,
    diagonal,
    diagonal_sum,
    gamma_to_h,
    h_to_gamma,
    is_unimodal,
    quad_coeff,
    quad_coeff_oracle,
    sign_quadratic,
)

# Quadratic forms for n = 6 (degree-3 gamma vector), all three interior i.
N6_I1 = {(0, 0): 21, (0, 1): 8, (1, 1): 1, (0, 2): -1}
N6_I2 = {(0, 0): 105, (0, 1): 64, (1, 1): 10, (0, 2): 18, (1, 2): 6, (2, 2): 1, (0, 3): -6, (1, 3): -1}
N6_I3 = {
    (0, 0): 175, (0, 1): 120, (1, 1): 20, (0, 2): 50, (1, 2): 16, (2, 2): 3,
    (0, 3): 40, (1, 3): 12, (2, 3): 4, (3, 3): 1,
}

# n = 8, i = 3.
N8_I3 = {
    (0, 0): 1176, (0, 1): 700, (1, 1): 105, (0, 2): 210, (1, 2): 64, (0, 3): 56,
    (2, 2): 10, (1, 3): 18, (2, 3): 6, (3, 3): 1, (0, 4): -28, (1, 4): -6, (2, 4): -1,
}

# n = 16, i = 5: the 25 coefficients with index sum <= 8, zeros included.
N16_I5_DISPLAY = {
    (0, 0): 4504864, (0, 1): 2186184, (1, 1): 273273, (0, 2): 492492,
    (1, 2): 128128, (0, 3): 94640, (2, 2): 15730, (1, 3): 26390, (0, 4): 10920,
    (2, 3): 6930, (1, 4): 3822, (0, 5): -2184, (3, 3): 825, (2, 4): 1177,
    (1, 5): -182, (0, 6): -1820, (3, 4): 320, (2, 5): 44, (1, 6): -364,
    (0, 7): 0, (4, 4): 36, (3, 5): 30, (2, 6): -66, (1, 7): 0, (0, 8): 0,
}
# The table continues past index sum 8; these were computed with the oracle.
N16_I5_HIGH = {(4, 5): 10, (3, 6): -10, (5, 5): 1, (4, 6): -1, (5, 6): 0, (6, 6): 0}


def assert_table_matches(n, i, golden):
    table = coeff_table(n, i)
    for (j, k), value in golden.items():
        assert table.value(j, k) == value, (n, i, j, k)
    for (j, k), value in table.entries.items():
        if (j, k) not in golden:
            assert value == 0, f"unexpected nonzero entry {(j, k)} = {value}"


class TestGoldenTables:
    def test_n6_all_interior_i(self):
        assert_table_matches(6, 1, N6_I1)
        assert_table_matches(6, 2, N6_I2)
        assert_table_matches(6, 3, N6_I3)

    def test_n6_symmetry_of_the_h_side(self):
        assert coeff_table(6, 4).entries == coeff_table(6, 2).entries
        assert coeff_table(6, 5).entries == coeff_table(6, 1).entries

    def test_n8_table(self):
        assert_table_matches(8, 3, N8_I3)
        assert quad_coeff(8, 3, 0, 4) == -28

    def test_n16_displayed_values(self):
        for (j, k), value in N16_I5_DISPLAY.items():
            assert quad_coeff(16, 5, j, k) == value, (j, k)

    def test_n16_values_past_the_display(self):
        for (j, k), value in N16_I5_HIGH.items():
            assert quad_coeff(16, 5, j, k) == value, (j, k)

    def test_spot_values(self):
        assert quad_coeff(6, 1, 0, 0) == 21
        assert quad_coeff(6, 1, 0, 2) == -1
        assert quad_coeff(16, 5, 1, 5) == -182
        assert quad_coeff_oracle(6, 2, 1, 1) == 10
        assert quad_coeff_oracle(8, 3, 0, 4) == -28
        assert quad_coeff_oracle(6, 3, 3, 3) == 1

    def test_table_is_frozen(self):
        # The entries are a read-only view over a copy: neither writing
        # through them nor changing the mapping the table was built from
        # changes a value.
        table = coeff_table(6, 2)
        with pytest.raises(TypeError, match="does not support item assignment"):
            table.entries[(0, 0)] = 0
        assert (table.value(0, 0), table.diagonals()[0].values) == (105, (105,))
        source = dict(N6_I1)
        built = CoeffTable(6, 1, source)
        source[(0, 0)] = 0
        assert built.entries == N6_I1 and built.value(0, 0) == 21

    def test_evaluate_is_exact(self):
        table = coeff_table(6, 2)
        assert table.evaluate([1, 2, 3, 4]) == 340
        assert table.evaluate(["1/2", Fraction(2), 3, 4]) == Fraction(729, 4)
        with pytest.raises(EntryError, match="entry 0 must be exact"):
            table.evaluate([1.5, 2, 3, 4])

    def test_range_errors(self):
        with pytest.raises(RangeError):
            quad_coeff(6, 0, 0, 0)
        with pytest.raises(RangeError):
            quad_coeff(6, 6, 0, 0)
        with pytest.raises(RangeError):
            quad_coeff(6, 2, 2, 1)
        with pytest.raises(RangeError):
            coeff_table(1, 1)


class TestWorkLimit:
    """``coeff_table``, ``diagonal``, ``diagonal_sum`` and ``quad_coeff``
    refuse more than ``errors.WORK_LIMIT`` of basis triples and coefficients
    before computing anything: with m = min(i, n-i), m^2/2 + 400m for each of
    min(2 * count, kmax + 1) triples and 1000 + 8m for each of the count
    coefficients.  ``quad_coeff_oracle`` refuses its expansion's cost."""

    def test_limit_is_exact_on_both_sides(self, monkeypatch):
        # (8, 3): m = 3 and kmax = 4, so a triple is 4 + 1200 and a
        # coefficient 1024.  The 15-entry table reads 5 triples (work
        # 6020 + 15360), the 3-slot even level-2 diagonal 5 (6020 + 3072).
        monkeypatch.setattr(errors, "WORK_LIMIT", 21_380)
        assert len(coeff_table(8, 3).entries) == 15
        monkeypatch.setattr(errors, "WORK_LIMIT", 21_379)
        with pytest.raises(RangeError, match="work 21380 is above the limit of 21379"):
            coeff_table(8, 3)
        monkeypatch.setattr(errors, "WORK_LIMIT", 9_092)
        assert diagonal(8, 3, 2).values == (10, 18, -28)
        monkeypatch.setattr(errors, "WORK_LIMIT", 9_091)
        with pytest.raises(RangeError, match="work 9092 is above the limit of 9091"):
            diagonal(8, 3, 2)
        # One coefficient is 2 triples and 1024; the oracle's 25 terms cost
        # 500 + 16 each.
        monkeypatch.setattr(errors, "WORK_LIMIT", 3_432)
        assert quad_coeff(8, 3, 0, 4) == -28
        monkeypatch.setattr(errors, "WORK_LIMIT", 3_431)
        with pytest.raises(RangeError, match="work 3432 is above the limit of 3431"):
            quad_coeff(8, 3, 0, 4)
        # The sign functions are charged the one coefficient each derives B from.
        for call in (lambda: sign_quadratic(8, 3, 1), lambda: check_diagonal_factorization(8, 3, 1, 1)):
            monkeypatch.setattr(errors, "WORK_LIMIT", 3_432)
            assert call()
            monkeypatch.setattr(errors, "WORK_LIMIT", 3_431)
            with pytest.raises(RangeError, match="work 3432 is above the limit of 3431"):
                call()
        monkeypatch.setattr(errors, "WORK_LIMIT", 12_900)
        assert quad_coeff_oracle(8, 3, 0, 4) == -28
        monkeypatch.setattr(errors, "WORK_LIMIT", 12_899)
        with pytest.raises(RangeError, match="work 12900 is above the limit of 12899"):
            quad_coeff_oracle(8, 3, 0, 4)
        # diagonal_sum charges its pairs like diagonal: (2, 3) and (1, 4),
        # 4 triples and 2 coefficients.
        monkeypatch.setattr(errors, "WORK_LIMIT", 6_864)
        assert diagonal_sum(8, 3, 5) == 0
        monkeypatch.setattr(errors, "WORK_LIMIT", 6_863)
        with pytest.raises(RangeError, match="work 6864 is above the limit of 6863"):
            diagonal_sum(8, 3, 5)

    def test_default_limit(self):
        assert len(coeff_table(450, 225).entries) == 25_651  # 9.8e7; 0.03 s
        coefficients._check_coefficients(1088, 544, 148_785)  # the largest table at i = n/2: 9.96e8
        with pytest.raises(RangeError, match="149331 coefficient.* at n=1090, i=545: work 1000529712 is above"):
            coeff_table(1090, 545)
        assert len(diagonal(43_920, 21_960, 1).values) == 2  # 4 triples: 9.9997e8
        with pytest.raises(RangeError, match="above the limit"):
            diagonal(43_922, 21_961, 1)
        with pytest.raises(RangeError, match="above the limit"):
            quad_coeff(62_444, 31_222, 0, 0)  # 2 triples, from n = 62,444 on

    def test_single_coefficients_refused_before_any_binomial(self, monkeypatch):
        # Unbounded, these took 2.1 s and 6.5 s.
        computed = []
        for module in (polycore, coefficients):  # the basis kernel and the expansion oracle
            monkeypatch.setattr(module, "binomial", lambda n, k: computed.append((n, k)) or comb(n, k))
        with pytest.raises(RangeError, match="above the limit"):
            quad_coeff(2 * 10**5, 10**5, 0, 0)
        with pytest.raises(RangeError, match="expansion oracle at n=2000: work 4509004500 is above the limit"):
            quad_coeff_oracle(2000, 1000, 0, 0)
        with pytest.raises(RangeError, match="above the limit"):
            diagonal_sum(2 * 10**5, 10**5, 0)
        with pytest.raises(RangeError, match="above the limit"):
            sign_quadratic(2 * 10**5, 10**5, 1)
        with pytest.raises(RangeError, match="above the limit"):
            check_diagonal_factorization(2 * 10**5, 10**5, 1, 1)
        assert computed == []
        # Served, slot j's binomials are computed once: 13 calls for 9
        # distinct pairs (sign_quadratic's slot 0 and square coefficient,
        # then slot 1 and its coefficient).
        assert check_diagonal_factorization(16, 5, 3, 1)
        assert (len(computed), len(set(computed))) == (13, 9)


    def test_diagonals_refused_before_listing_a_pair(self):
        # 250,001 pairs each; listing them first took 30 MB.
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match="250001 coefficient"):
                diagonal(10**6, 5 * 10**5, 25 * 10**4)
            with pytest.raises(RangeError, match="250001 coefficient"):
                diagonal_sum(10**6, 5 * 10**5, 5 * 10**5)
            assert tracemalloc.get_traced_memory()[1] < 10**6
        finally:
            tracemalloc.stop()


class TestOracleAgreement:
    def test_formula_equals_expansion(self):
        for n in range(2, 15):
            for i in range(1, n):
                for k in range(n // 2 + 1):
                    for j in range(k + 1):
                        assert quad_coeff(n, i, j, k) == quad_coeff_oracle(n, i, j, k), (n, i, j, k)

    def test_vanishing_beyond_i_plus_one(self):
        for n in (6, 9, 12):
            for i in range(1, n // 2 + 1):
                for k in range(i + 2, n // 2 + 1):
                    for j in range(k + 1):
                        assert quad_coeff(n, i, j, k) == 0
        # At k = i+1 only -C(n-2a, i-a-1) survives, and not at the boundary n <= 2i+1.
        tails = 0
        for n in range(2, 61):
            for i in range(1, n // 2 + 1):
                for a in range(i + 2):
                    expected = -_binom(n - 2 * a, i - a - 1) if n >= 2 * i + 2 else 0
                    assert quad_coeff(n, i, a, i + 1) == expected, (n, i, a)
                    tails += 1
        assert tails == 11_255

    def test_reconstruction_against_transform(self):
        # Plugging any gamma vector into the table reproduces the raw
        # difference computed through the forward transform.
        import random

        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 12)
            i = rng.randint(1, n - 1)
            g = GammaVector(
                n, tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n // 2 + 1))
            )
            h = gamma_to_h(g).h
            direct = h[i] * h[i] - h[i - 1] * h[i + 1]
            assert coeff_table(n, i).evaluate(g.gamma) == direct


    def test_kernel_equals_expansion_at_large_forms(self):
        # Pairs past kmax, and past n//2 where no gamma exists, give 0.
        for n, i in ((60, 30), (61, 20), (120, 7), (200, 100)):
            kmax = coefficients._kmax(n, i)
            pairs = [(0, 0), (0, 1), (1, 3), (2, 2), (0, kmax), (kmax // 2, kmax), (kmax, kmax),
                     (0, kmax + 1), (kmax - 1, kmax + 1), (kmax + 1, kmax + 1), (3, n // 2 + 2)]
            expected = [quad_coeff_oracle(n, i, j, k) for j, k in pairs]
            assert list(coefficients._values(n, i, pairs)) == expected, (n, i)
            assert expected[-4:] == [0, 0, 0, 0] and expected[4] != 0, (n, i)

    def test_table_computes_each_basis_triple_once(self, monkeypatch):
        # One triple C(n-2j, i-j+d), d = -1, 0, 1, per index j <= kmax; a
        # table computed entry by entry takes about 3 (kmax+1)^2.
        computed, real = [], polycore.binomial
        monkeypatch.setattr(polycore, "binomial", lambda n, k: computed.append((n, k)) or real(n, k))
        for n, i in ((10, 2), (16, 5), (30, 15), (31, 10)):
            computed.clear()
            table = coeff_table(n, i)
            assert len(computed) == len(set(computed)) == 3 * (table.kmax + 1), (n, i)


class TestDiagonals:
    def test_n16_even_level_three(self):
        diag = diagonal(16, 5, 3, "even")
        assert diag.values == (825, 1177, -182, -1820)
        assert diag.pairs == ((3, 3), (2, 4), (1, 5), (0, 6))
        assert diag.tail_sign_ok
        assert diag.total == 0

    def test_n16_odd_level_three(self):
        diag = diagonal(16, 5, 3, "odd")
        assert diag.pairs == ((2, 3), (1, 4), (0, 5))
        assert diag.values == (6930, 3822, -2184)
        assert diag.tail_sign_ok

    def test_small_even_diagonals(self):
        assert diagonal(6, 2, 1, "even").values == (10, 18)
        assert diagonal(8, 3, 2, "even").values == (10, 18, -28)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            diagonal(16, 5, 4, "even")  # 2l > i+1
        with pytest.raises(RangeError):
            diagonal(16, 5, 0, "even")
        with pytest.raises(RangeError):
            diagonal(16, 5, 3, "sideways")

    def test_tail_sign_sweep(self):
        # Guaranteed for 2i <= n; holds empirically for mirrored i as well.
        for n in range(2, 21):
            for i in range(1, n):
                for l in range(1, (i + 1) // 2 + 1):
                    assert diagonal(n, i, l, "even").tail_sign_ok, (n, i, l, "even")
                    assert diagonal(n, i, l, "odd").tail_sign_ok, (n, i, l, "odd")

    def test_table_diagonals_in_index_sum_then_spread_order(self):
        for n in range(2, 17):
            for i in range(1, n):
                table = coeff_table(n, i)
                diags = table.diagonals()
                assert [d.index_sum for d in diags] == list(range(2 * table.kmax + 1))
                listed = [pair for d in diags for pair in d.pairs]
                assert sorted(listed) == sorted(table.entries) and len(set(listed)) == len(listed)
                assert listed == sorted(listed, key=lambda p: (p[0] + p[1], p[1] - p[0]))
                for d in diags:
                    assert d.values == tuple(table.entries[p] for p in d.pairs)
                    running = 0
                    for value, prefix in zip(d.values, d.prefix_sums, strict=True):
                        running += value
                        assert prefix == running
                payload = table_payload(table, True)
                assert payload["entries"] == [[j, k, str(c)] for d in diags for (j, k), c in zip(d.pairs, d.values)]
                assert payload["regrouped"] == [
                    {
                        "index_sum": d.index_sum,
                        "pairs": [list(p) for p in d.pairs],
                        "values": [str(v) for v in d.values],
                        "prefix_sums": [str(a) for a in d.prefix_sums],
                    }
                    for d in diags
                ]

    def test_diagonal_is_the_table_diagonal(self):
        for n in range(2, 17):
            for i in range(1, n):
                table = coeff_table(n, i)
                diags = table.diagonals()
                for l in range(1, (i + 1) // 2 + 1):
                    for parity in ("even", "odd"):
                        diag = diagonal(n, i, l, parity)
                        s = 2 * l if parity == "even" else 2 * l - 1
                        if s <= 2 * table.kmax:
                            assert diag == diags[s], (n, i, l, parity)
                        else:
                            assert diag.pairs == diag.values == (), (n, i, l, parity)
                        assert all(k <= n // 2 for _, k in diag.pairs)


class TestSignQuadratic:
    def test_even_golden(self):
        quad = sign_quadratic(6, 3, 1)
        assert (quad.a, quad.b) == (-10, 90)
        assert quad.a == -4 * (6 - 6) ** 2 - 2 * (6 - 2) - 2

    def test_odd_golden(self):
        quad = sign_quadratic(6, 3, 1, "odd")
        assert (quad.a, quad.b) == (-12, 144)

    def test_signs_over_admissible_range(self):
        for n in range(2, 26):
            for i in range(1, n // 2 + 1):
                for l in range(1, (i + 1) // 2 + 1):
                    for parity in ("even", "odd"):
                        quad = sign_quadratic(n, i, l, parity)
                        assert quad.a < 0 < quad.b

    def test_rejects_out_of_range(self):
        with pytest.raises(RangeError):
            sign_quadratic(6, 4, 1)  # 2i > n
        with pytest.raises(RangeError):
            sign_quadratic(6, 3, 3)  # 2l > i+1

    def test_closed_forms_proved_for_every_n(self):
        """The cleared factorization identity, proved for all integers.

        Dividing c[a,b] by C(n-2a, i-a) C(n-2b, i-b) turns the neighbouring
        binomials into ratios, C(m, k-1)/C(m, k) = k/(m-k+1) and
        C(m, k+1)/C(m, k) = (m-k)/(k+1); clearing the four factors
        F = (n-i-a+1)(i-b+1)(i-a+1)(n-i-b+1) then leaves

            2F - (i-a)(n-i-b)(i-a+1)(n-i-b+1) - (n-i-a)(i-b)(n-i-a+1)(i-b+1),

        which must be A j^2 + B (even) or A j(j+1) + B (odd).  Slot j's pair
        is linear in l and j, so both sides are polynomials of degree <= 4 in
        each of n, i, l and j, and so is their difference.  A polynomial of
        degree <= 4 in each variable that vanishes on a grid of five values
        per variable is zero (Alon, "Combinatorial Nullstellensatz", 1999,
        Lemma 2.1): the 625 exact evaluations per parity below prove the
        identity for every n, i, l and j.
        """
        for parity in ("even", "odd"):
            for n, i, l, j in product(range(5), repeat=4):
                (a, b), _, _ = coefficients._slot_form(n, i, l, j, parity)
                big_f = (n - i - a + 1) * (i - b + 1) * (i - a + 1) * (n - i - b + 1)
                cleared = (
                    2 * big_f
                    - (i - a) * (n - i - b) * (i - a + 1) * (n - i - b + 1)
                    - (n - i - a) * (i - b) * (n - i - a + 1) * (i - b + 1)
                )
                a_coef, b_coef = coefficients._closed_forms(n, i, l, parity)
                spread = j * j if parity == "even" else j * (j + 1)
                assert cleared == a_coef * spread + b_coef, (parity, n, i, l, j)


class TestFactorization:
    def test_clean_instances(self):
        assert check_diagonal_factorization(16, 5, 3, 1)
        assert check_diagonal_factorization(16, 5, 3, 2)  # recovers -182 exactly
        assert check_diagonal_factorization(6, 2, 1, 1)

    def test_tail_slot_is_degenerate_not_an_identity(self):
        # At (16,5,3,3) the factor i-l-j+1 vanishes: the displayed identity is
        # 0/0 there, and the carve-out asserts the sign of c[0,6] directly.
        with pytest.raises(DegenerateFactorError) as err:
            check_diagonal_factorization(16, 5, 3, 3)
        assert ("i-l-j+1", 0) in err.value.factors
        assert quad_coeff(16, 5, 0, 6) == -1820 < 0

    def test_value_recovered(self):
        # Recompute 1177 = c[2,4] at (n,i)=(16,5) through the factorization.
        quad = sign_quadratic(16, 5, 3)
        from gammacert import binomial

        numerator = binomial(12, 3) * binomial(8, 1) * quad.at(1)
        denominator = (16 - 3 + 1 - 5 + 1) * (5 - 3 - 1 + 1) * (5 - 3 + 1 + 1) * (16 - 3 - 1 - 5 + 1)
        assert Fraction(numerator, denominator) == 1177

    def test_degenerate_factor_reported(self):
        with pytest.raises(DegenerateFactorError) as err:
            check_diagonal_factorization(8, 3, 2, 2)  # l + j = i + 1
        assert ("i-l-j+1", 0) in err.value.factors
        # and the coefficient there is genuinely negative (n >= 2i+2)
        assert quad_coeff(8, 3, 0, 4) == -28 < 0

    def test_degenerate_boundary_zero(self):
        # At n = 2i the same degeneracy forces the coefficient to vanish.
        with pytest.raises(DegenerateFactorError):
            check_diagonal_factorization(6, 3, 2, 2)
        assert quad_coeff(6, 3, 1, 5) == 0

    def test_sign_agreement_in_clean_range(self):
        for n in range(2, 21):
            for i in range(1, n // 2 + 1):
                for l in range(1, (i + 1) // 2 + 1):
                    quad = sign_quadratic(n, i, l)
                    for j in range(1, l + 1):
                        try:
                            assert check_diagonal_factorization(n, i, l, j)
                        except DegenerateFactorError:
                            continue
                        c = quad_coeff(n, i, l - j, l + j)
                        assert (c > 0) == (quad.at(j) > 0) and (c < 0) == (quad.at(j) < 0)


def _binom(top, k):
    return comb(top, k) if 0 <= k <= top else 0


def _parity_terms(n, i, l, j, parity):
    """The factorization of slot j written out per parity: the index pair,
    the four named factors and the binomial product."""
    if parity == "even":
        pair = (l - j, l + j)
        factors = [
            ("n-l+j-i+1", n - l + j - i + 1),
            ("i-l-j+1", i - l - j + 1),
            ("i-l+j+1", i - l + j + 1),
            ("n-l-j-i+1", n - l - j - i + 1),
        ]
        binoms = _binom(n - 2 * l + 2 * j, i - l + j) * _binom(n - 2 * l - 2 * j, i - l - j)
    else:
        pair = (l - 1 - j, l + j)
        factors = [
            ("n-i-l+j+2", n - i - l + j + 2),
            ("i-l-j+1", i - l - j + 1),
            ("i-l+j+2", i - l + j + 2),
            ("n-i-l-j+1", n - i - l - j + 1),
        ]
        binoms = _binom(n - 2 * l + 2 * j + 2, i - l + j + 1) * _binom(n - 2 * l - 2 * j, i - l - j)
    return pair, factors, binoms


def test_slot_form_matches_parity_formulas():
    """Every admissible slot with n <= 30: the package's verdict, or its
    degenerate factors, agree with the per-parity formulas above."""
    slots = degenerate = 0
    for n in range(1, 31):
        for i in range(n // 2 + 1):
            for l in range(1, (i + 1) // 2 + 1):
                for parity, js in (("even", range(1, l + 1)), ("odd", range(l))):
                    quad = sign_quadratic(n, i, l, parity)
                    pairs = diagonal(n, i, l, parity).pairs
                    for j in js:
                        pair, factors, binoms = _parity_terms(n, i, l, j, parity)
                        if j < len(pairs):  # slots past kmax are not listed
                            assert pairs[j] == pair
                        bad = [(name, value) for name, value in factors if value <= 0]
                        slots += 1
                        if bad:
                            degenerate += 1
                            assert parity == "even", (n, i, l, j)  # odd factors are all >= 1
                            with pytest.raises(DegenerateFactorError) as err:
                                check_diagonal_factorization(n, i, l, j, parity)
                            assert err.value.factors == bad
                        else:
                            cleared = Fraction(binoms * quad.at(j), prod(value for _, value in factors))
                            assert cleared == quad_coeff(n, i, *pair), (n, i, l, j, parity)
                            assert check_diagonal_factorization(n, i, l, j, parity) is True
    assert (slots, degenerate) == (3432, 120)


class TestDiagonalSum:
    def test_golden(self):
        assert diagonal_sum(6, 2, 2) == 28
        assert diagonal_sum(16, 5, 6) == 0
        assert diagonal_sum(6, 1, 3) == 0

    def test_nonnegative_small_sweep(self):
        for n in range(2, 21):
            for i in range(1, n // 2 + 1):
                for r in range(0, 2 * i + 3):
                    assert diagonal_sum(n, i, r) >= 0

    def test_vanishing_above_i_when_n_large_enough(self):
        for n in range(2, 21):
            for i in range(1, n // 2 + 1):
                if n >= 2 * i + 2:
                    for r in range(i + 1, 2 * i + 3):
                        assert diagonal_sum(n, i, r) == 0

    def test_boundary_positives_regression(self):
        # At i = floor(n/2) the sums above i need not vanish; these values
        # pin the boundary behavior.
        assert diagonal_sum(2, 1, 2) == 1
        assert diagonal_sum(4, 2, 3) == 4
        assert diagonal_sum(6, 3, 4) == 15

    def test_equals_the_sum_over_every_pair(self):
        # The table's pairs leave out only pairs whose coefficient is zero.
        for n in range(2, 31):
            for i in range(1, n // 2 + 1):
                for r in range(0, 2 * i + 3):
                    assert diagonal_sum(n, i, r) == sum(quad_coeff(n, i, j, r - j) for j in range(r // 2 + 1))

    def test_sums_at_most_kmax_plus_one_coefficients(self, monkeypatch):
        # Each of the kmax + 1 gamma indices costs at most one basis triple.
        computed, real = [], polycore.binomial
        monkeypatch.setattr(polycore, "binomial", lambda n, k: computed.append((n, k)) or real(n, k))
        kmax = coeff_table(10, 2).kmax
        for r in (0, 3, 6, 2 * kmax, 10**6):
            computed.clear()
            assert diagonal_sum(10, 2, r) >= 0
            assert len(computed) <= 3 * (kmax + 1)
        assert computed == []  # r = 10**6 lies past every pair

    def test_range_errors(self):
        with pytest.raises(RangeError):
            diagonal_sum(6, 0, 1)
        with pytest.raises(RangeError):
            diagonal_sum(6, 4, 1)
        with pytest.raises(RangeError):
            diagonal_sum(6, 2, -1)


class TestAbel:
    def test_zero_total_diagonal_with_flat_weights(self):
        report = abel_check((825, 1177, -182, -1820), (1, 1, 1, 1))
        assert report.total == 0
        assert report.prefix_sums == (825, 2002, 1820, 0)

    def test_tiny(self):
        report = abel_check((1, -1), (5, 2))
        assert report.total == 3
        assert report.terms == (3, 0)

    def test_hypothesis_failures_named(self):
        with pytest.raises(HypothesisError) as err:
            abel_check((-1, 2), (2, 1))
        assert err.value.hypothesis == "tail-sign"
        with pytest.raises(HypothesisError) as err:
            abel_check((1, -1), (1, 2))
        assert err.value.hypothesis == "b-decreasing"
        with pytest.raises(HypothesisError) as err:
            abel_check((2, -1), (1, -1))
        assert err.value.hypothesis == "b-nonnegative"
        with pytest.raises(HypothesisError) as err:
            abel_check((1, -2), (2, 1))
        assert err.value.hypothesis == "sum-nonnegative"

    def test_length_mismatch(self):
        with pytest.raises(RangeError):
            abel_check((1,), (1, 2))

    def test_refused_above_the_work_limit(self, monkeypatch):
        """Each entry is charged 6000, plus 2 a bit of the two lcms (L bits),
        plus S (S + L) // 512, S = L + 2 plus the largest numerator-over-
        denominator bit excess of a and of b.  The limit is exact on both
        sides, and a refused check sums nothing."""
        summed = []
        monkeypatch.setattr(coefficients, "accumulate", lambda xs: summed.append(xs) or accumulate(xs))
        cases = (
            # lcms 12 and 63, L = 4 + 6; S = 12 - 1 + 0 = 11.
            ((Fraction(3, 4), Fraction(-1, 6)), (Fraction(5, 7), Fraction(1, 9)), 2 * (6000 + 20 + 11 * 21 // 512)),
            # L = 1 + 1; S = 4 + 1000 + 1000 for two 1,001-bit integers.
            ((2**1000,), (2**1000,), 6000 + 4 + 2004 * 2006 // 512),
        )
        for a, b, work in cases:
            monkeypatch.setattr(errors, "WORK_LIMIT", work)
            assert abel_check(a, b).total == sum(x * y for x, y in zip(a, b))
            monkeypatch.setattr(errors, "WORK_LIMIT", work - 1)
            summed.clear()
            with pytest.raises(RangeError, match=f"Abel check of {len(a)} entries: work {work} is above"):
                abel_check(a, b)
            assert summed == []

    def test_long_denominators_refused_at_once(self):
        # 2,000 entries with independent 32-bit denominators ran for 33.7 s
        # unbounded; each growth of the lcm is charged, so they cost only
        # the lcm of the first few hundred.
        rng = random.Random(26)
        a = tuple(Fraction(rng.getrandbits(16), rng.getrandbits(32) | 1 << 31) for _ in range(2000))
        b = tuple(sorted(a, reverse=True))
        start = time.perf_counter()
        with pytest.raises(RangeError, match="Abel check of 2000 entries"):
            abel_check(a, b)
        assert time.perf_counter() - start < 0.1

    def test_megabit_denominators_refused_before_their_gcd(self, monkeypatch):
        """Two independent 1,000,000-bit denominators: their lcm is a gcd of
        two 1,000,000-bit numbers, which ran for 1.4 to 1.7 s before the Abel
        check was refused.  It is charged first, 10**12 / 256, so only the
        lcm of 1 and the first runs.  The transforms refuse the same pair at
        the first denominator, whose lcm alone is charged above the limit."""
        rng = random.Random(27)
        d1, d2 = (rng.getrandbits(10**6) | 1 << (10**6 - 1) | 1 for _ in range(2))
        a = (Fraction(1, d1), Fraction(1, d2))
        lcms, real = [], polycore.math.lcm
        monkeypatch.setattr(polycore.math, "lcm", lambda x, y: lcms.append(x) or real(x, y))
        calls = (
            (lambda: abel_check(a, (1, 1)), "the Abel check of 2 entries: work 3906250000 is above"),
            (lambda: gamma_to_h(GammaVector(2, a)), "a gamma vector of n=2: work 7812625024 is above"),
            (lambda: h_to_gamma(SymmetricPolynomial(2, a + a[:1])), "an h vector of n=2: work 7812625024 is above"),
        )
        for call, message in calls:
            lcms.clear()
            start = time.perf_counter()
            with pytest.raises(RangeError, match=message):
                call()
            assert time.perf_counter() - start < 0.1
            assert lcms == [1]

    def test_integer_kernel_matches_the_fraction_oracle(self):
        """3,000 seeded pairs of sizes 0 to 12, with integer, one-digit and
        70-bit denominators, some entries as strings, most of them then broken
        in one hypothesis or in length: every report, and every error's type,
        message and hypothesis, equal those of ``fraction_abel``."""
        rng = random.Random(25)
        outcomes = Counter()
        for k in range(3000):
            size = k % 13
            a, b = _abel_pair(rng, size, max_den=(1, 8, 2**70)[k % 3])
            broken = rng.randrange(6)
            if broken == 1 and size >= 2:
                a[rng.randrange(size - 1)] = -a[-1] - 1  # a negative entry before the last
            elif broken == 2 and size >= 2:
                rng.shuffle(b)
            elif broken == 3 and size:
                b[-1] = -b[-1] - 1
            elif broken == 4 and size:
                a[0] -= sum(a, Fraction(0)) + Fraction(1, rng.randint(1, 9))
            elif broken == 5:
                b = b[1:]
            a = [str(x) if rng.random() < 0.2 else x for x in a]
            expected, got = _abel_outcome(fraction_abel, a, b), _abel_outcome(abel_check, a, b)
            assert got == expected, (a, b)
            outcomes[(got[2] or got[0].__name__) if isinstance(got, tuple) else "served"] += 1
        hypotheses = {"tail-sign", "b-decreasing", "b-nonnegative", "sum-nonnegative"}
        assert outcomes.keys() == {"served", "RangeError", *hypotheses}
        assert outcomes["served"] > 900 and min(outcomes.values()) > 300, outcomes


@st.composite
def abel_ratios(draw, size):
    """``size`` fractions whose denominators are 1, one shared, independent
    and below 10, or independent of 64 to 128 bits."""
    kind = draw(st.sampled_from(["integer", "shared", "small", "long"]))
    if kind in ("integer", "shared"):
        dens = [1 if kind == "integer" else draw(st.integers(2, 2**64))] * size
    else:
        low, high = (1, 9) if kind == "small" else (2**63, 2**128)
        dens = draw(st.lists(st.integers(low, high), min_size=size, max_size=size))
    return [Fraction(draw(st.integers(-(2**80), 2**80)), d) for d in dens]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10).flatmap(lambda size: st.tuples(abel_ratios(size), abel_ratios(size), st.booleans())))
def test_abel_charge_is_the_per_entry_formula(case):
    """``abel_check`` reads its lcms through ``polycore._charged_lcm``, and
    the largest charge it makes is the per-entry formula, computed here from
    the lcms: 6000 plus 2L plus S (S + L) // 512, L the bits of la and lb
    together, S = L + 2 plus the largest numerator-over-denominator bit
    excess of a and of b, 0 if negative.  a is sorted to tail-sign with a
    nonnegative sum, and b to nonnegative and decreasing, or rising when
    ``rising``; the outcome is ``fraction_abel``'s."""
    a, b, rising = case
    a.sort(reverse=True)
    if a and sum(a) < 0:
        a[0] -= sum(a)
    b = sorted([abs(x) for x in b], reverse=not rising)
    charges = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polycore, "check_work", lambda work, what: charges.append(work))
        got = _abel_outcome(abel_check, a, b)
    bits = lcm(*[x.denominator for x in a]).bit_length() + lcm(*[x.denominator for x in b]).bit_length()
    excess = sum(max([x.numerator.bit_length() - x.denominator.bit_length() for x in v], default=0) for v in (a, b))
    scaled = max(0, bits + 2 + excess)
    assert max(charges) == len(a) * (6000 + 2 * bits + scaled * (scaled + bits) // 512)
    assert got == _abel_outcome(fraction_abel, a, b)


def fraction_abel(a, b):
    """Independent oracle: the summation-by-parts check term by term in
    ``Fraction``, the same hypotheses in the same order."""
    av, bv = polycore.rational_vector(a), polycore.rational_vector(b)
    if len(av) != len(bv):
        raise RangeError(f"length mismatch: {len(av)} vs {len(bv)}")
    if not coefficients._tail_sign_ok(av):
        raise HypothesisError("tail-sign", "a has a positive entry after a negative one")
    for t in range(len(bv) - 1):
        if bv[t] < bv[t + 1]:
            raise HypothesisError("b-decreasing", f"b rises at index {t}")
    if bv and bv[-1] < 0:
        raise HypothesisError("b-nonnegative", f"b ends at {bv[-1]} < 0")
    if sum(av) < 0:
        raise HypothesisError("sum-nonnegative", f"sum(a) = {sum(av)} < 0")
    prefix = list(accumulate(av))
    terms = tuple([prefix[t] * ((bv[t] - bv[t + 1]) if t + 1 < len(bv) else bv[t]) for t in range(len(av))])
    direct = sum((x * y for x, y in zip(av, bv)), Fraction(0))
    assert direct == sum(terms, Fraction(0)) >= 0
    assert is_unimodal(prefix).verdict
    return coefficients.AbelReport(total=direct, prefix_sums=tuple(prefix), terms=terms)


def test_integer_unimodality_matches_its_oracle():
    """``abel_check`` reads unimodality off its integer prefix sums over la.
    On ``sweep_abel_random``-style entries, in tail-sign order or shuffled,
    that verdict is ``is_unimodal``'s on the ``Fraction`` prefix sums."""
    rng = random.Random(29)
    verdicts = Counter()
    for _ in range(3000):
        size = rng.randint(1, 9)
        head = rng.randint(0, size)
        a = [sweeps._random_fraction(rng) for _ in range(head)]
        a += [-sweeps._random_fraction(rng) for _ in range(size - head)]
        if rng.random() < 0.5:
            rng.shuffle(a)
        la = lcm(*[x.denominator for x in a])
        verdict = is_unimodal(list(accumulate(a))).verdict
        assert coefficients._unimodal(list(accumulate([x.numerator * (la // x.denominator) for x in a]))) == verdict, a
        verdicts[verdict] += 1
    assert min(verdicts[True], verdicts[False]) > 500, verdicts


def _abel_pair(rng, size, max_den):
    """A tail-sign a with nonnegative sum and a decreasing nonnegative b."""

    def frac():
        return Fraction(rng.randint(0, 24), rng.randint(1, max_den))

    head = rng.randint(0, size)
    a = [frac() for _ in range(head)] + [-frac() for _ in range(size - head)]
    total = sum(a, Fraction(0))
    if total < 0:
        a[0] -= total
    return a, sorted((frac() for _ in range(size)), reverse=True)


def _abel_outcome(check, a, b):
    try:
        return check(a, b)
    except (HypothesisError, RangeError) as exc:
        return type(exc), str(exc), getattr(exc, "hypothesis", None)


abel_fractions = st.fractions(min_value=0, max_value=20, max_denominator=10)


@given(
    st.lists(abel_fractions, min_size=0, max_size=5),
    st.lists(abel_fractions, min_size=0, max_size=5),
    st.data(),
)
def test_abel_property(head, tail, data):
    a = list(head) + [-v for v in tail]
    total = sum(a, Fraction(0))
    if total < 0:
        a = [a[0] - total] + a[1:] if a else a
    b = sorted(
        data.draw(st.lists(abel_fractions, min_size=len(a), max_size=len(a))), reverse=True
    )
    report = abel_check(a, b)
    assert report.total >= 0
    assert all(t >= 0 for t in report.terms)
    assert report.total == sum((x * y for x, y in zip(a, b)), Fraction(0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: quad_coeff(6, 2, 2, 1),
        lambda: quad_coeff_oracle(6, 2, 2, 1),
        lambda: coeff_table(6, 2).value(2, 1),
        lambda: quad_coeff(6, 2, -1, 0),
        lambda: quad_coeff_oracle(6, 2, -1, 0),
        lambda: coeff_table(6, 2).value(-1, 0),
        lambda: diagonal(6, 2, 1, "sideways"),
        lambda: sign_quadratic(6, 2, 1, "sideways"),
        lambda: check_diagonal_factorization(6, 2, 1, 1, "sideways"),
    ],
    ids=[
        "quad_coeff-j>k", "oracle-j>k", "table-j>k", "quad_coeff-j<0", "oracle-j<0", "table-j<0",
        "diagonal-parity", "sign_quadratic-parity", "factorization-parity",
    ],
)
def test_pair_and_parity_validators(call):
    with pytest.raises(RangeError):
        call()


def _skew_forms(skew):
    """The closed forms (A, B) pass through skew."""

    def patch(monkeypatch):
        real = coefficients._closed_forms
        monkeypatch.setattr(coefficients, "_closed_forms", lambda *args: skew(*real(*args)))

    return patch


def _b_derived_zero(monkeypatch):
    """Slot 0 derives B = 0, and the closed form agrees: its pair is (0, 5),
    whose coefficient vanishes at (n, i) = (6, 3) since 5 > i+1."""
    monkeypatch.setattr(coefficients, "_slot_form", lambda *args: ((0, 5), 1, []))
    _skew_forms(lambda a, b: (a, 0))(monkeypatch)


def _skewed_products(monkeypatch):
    """Each product of the direct integer sum one too large: the by-parts
    side, summed from its own terms, no longer agrees."""
    monkeypatch.setattr(coefficients, "mul", lambda x, y: x * y + 1)


def _no_tail_sign_guard(monkeypatch):
    monkeypatch.setattr(coefficients, "_tail_sign_ok", lambda values: True)


SIGN_CONTEXT = {"n": 6, "i": 3, "l": 1, "parity": "even"}


def _sign(fragment):
    return lambda: sign_quadratic(6, 3, 1), SIGN_CONTEXT, fragment


# One case per InternalCheckError raise site in coefficients.py: the patch,
# then the call, the context the error must carry and a piece of its message.
RAISE_SITES = {
    "sign-b-mismatch": (_skew_forms(lambda a, b: (a, b + 1)), *_sign("B mismatch at n=6, i=3, l=1")),
    "sign-a-negative": (_skew_forms(lambda a, b: (0, b)), *_sign("A = 0 not negative")),
    "sign-b-positive": (_b_derived_zero, *_sign("B = 0 not positive")),
    "abel-identity": (_skewed_products, lambda: abel_check((1, 1, 1), (3, 2, 1)),
                      {"a": (1, 1, 1), "b": (3, 2, 1)}, "summation-by-parts identity broke: 9 != 6"),
    "abel-unimodal": (_no_tail_sign_guard, lambda: abel_check((1, -1, 1), (1, 1, 1)),
                      {"a": (1, -1, 1), "b": (1, 1, 1)}, "prefix sums are not unimodal"),
    "abel-negative": (_no_tail_sign_guard, lambda: abel_check((-1, 1), (2, 1)), {"a": (-1, 1), "b": (2, 1)},
                      "total -1 is negative"),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_internal_check_context(monkeypatch, site):
    patch, call, context, message = RAISE_SITES[site]
    patch(monkeypatch)
    with pytest.raises(InternalCheckError) as err:
        call()
    kind = "sign-violation" if site.startswith("sign") else "abel-violation"
    assert err.value.kind == kind
    assert err.value.context == context
    assert str(err.value).startswith(f"{kind}: {message}")
