"""Quadratic-form coefficients: golden tables, sign structure, Abel sums."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammacert import (
    DegenerateFactorError,
    GammaVector,
    HypothesisError,
    RangeError,
    abel_check,
    check_diagonal_factorization,
    coeff_table,
    diagonal,
    diagonal_sum,
    gamma_to_h,
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

    def test_range_errors(self):
        with pytest.raises(RangeError):
            quad_coeff(6, 0, 0, 0)
        with pytest.raises(RangeError):
            quad_coeff(6, 6, 0, 0)
        with pytest.raises(RangeError):
            quad_coeff(6, 2, 2, 1)
        with pytest.raises(RangeError):
            coeff_table(1, 1)


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
