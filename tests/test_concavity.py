"""Sequence predicates: golden verdicts, witnesses, and the equivalences."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from gammacert import concavity
from gammacert import (
    GammaVector,
    NegativeEntryError,
    RangeError,
    SymmetricPolynomial,
    TransferReport,
    binomial,
    check_transfer,
    check_ulc_transfer,
    gamma_to_h,
    has_internal_zeros,
    is_log_concave,
    is_ultra_log_concave,
    is_unimodal,
    pairwise_log_concave,
)


class TestLogConcave:
    def test_binomial_row(self):
        assert is_log_concave((1, 6, 15, 20, 15, 6, 1)).verdict

    def test_failure_with_witness(self):
        report = is_log_concave((1, 1, 2))
        assert not report.verdict
        assert report.witness == (1,)
        # replay the named inequality
        a = (1, 1, 2)
        i = report.witness[0]
        assert a[i] ** 2 < a[i - 1] * a[i + 1]

    def test_flat_top(self):
        assert is_log_concave((1, 4, 4, 1)).verdict

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError) as err:
            is_log_concave((1, -2, 1))
        assert err.value.index == 1

    def test_short_sequences_vacuous(self):
        assert is_log_concave(()).verdict
        assert is_log_concave((7,)).verdict
        assert is_log_concave((3, 9)).verdict


class TestInternalZeros:
    def test_boundary_zeros_do_not_count(self):
        assert not has_internal_zeros((0, 1, 2, 1, 0)).verdict

    def test_definitional(self):
        report = has_internal_zeros((1, 0, 1))
        assert report.verdict
        assert report.witness == (0, 1, 2)

    def test_lexicographically_first_witness(self):
        report = has_internal_zeros((0, 0, 3, 0, 0, 5, 0))
        assert report.verdict
        assert report.witness == (2, 3, 5)

    def test_negative_entries_allowed(self):
        assert has_internal_zeros((-1, 0, 1)).verdict


class TestUltraLogConcave:
    def test_constant_after_normalizing(self):
        assert is_ultra_log_concave((1, 3, 3, 1), 3).verdict

    def test_order_three_flat_top(self):
        # Normalized sequence (1, 4/3, 4/3, 1) is log-concave: 16/9 >= 4/3.
        report = is_ultra_log_concave((1, 4, 4, 1), 3)
        assert report.verdict
        norm = [Fraction(v, binomial(3, i)) for i, v in enumerate((1, 4, 4, 1))]
        assert is_log_concave(norm).verdict

    def test_no_interior_index(self):
        assert is_ultra_log_concave((1, 1), 5).verdict

    def test_order_too_small(self):
        with pytest.raises(RangeError):
            is_ultra_log_concave((1, 1, 1), 1)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            is_ultra_log_concave((1, -1, 1), 4)

    def test_matches_normalized_log_concavity(self):
        """Verdict and witness are those of plain log-concavity on a_i / C(m, i),
        for every order m up to 40 and every length up to m+1, zeros included."""

        def check(entries, m):
            report = is_ultra_log_concave(entries, m)
            norm = is_log_concave([Fraction(v, binomial(m, i)) for i, v in enumerate(entries)])
            assert (report.verdict, report.witness) == (norm.verdict, norm.witness), (entries, m)

        for entries in product(range(4), repeat=4):
            for m in (3, 4, 6):
                check(entries, m)
        rng = random.Random(20250810)
        for m in range(41):
            for length in range(1, m + 2):
                row = [binomial(m, i) for i in range(length)]
                t = rng.randrange(length)
                check(row, m)  # equality throughout
                check([v + (i == t) for i, v in enumerate(row)], m)
                check([v * (i != t) for i, v in enumerate(row)], m)
                check([v * rng.randint(0, 3) for v in row], m)
                check([rng.randint(0, 3) for _ in range(length)], m)


class TestUnimodal:
    def test_golden(self):
        assert is_unimodal((1, 2, 2, 1)).verdict
        assert not is_unimodal((1, 0, 1)).verdict
        assert is_unimodal((3,)).verdict

    def test_witness_replays(self):
        report = is_unimodal((2, 1, 1, 5))
        assert not report.verdict
        i, j = report.witness
        a = (2, 1, 1, 5)
        assert a[i] > a[i + 1] and a[j] < a[j + 1] and i <= j

    def test_negatives_allowed(self):
        assert is_unimodal((-3, 0, -1)).verdict


class TestPairwise:
    def test_golden(self):
        assert pairwise_log_concave((1, 3, 4, 3, 1)).verdict
        assert not pairwise_log_concave((1, 1, 2)).verdict
        assert pairwise_log_concave((0, 0, 0)).verdict

    def test_against_plain_double_loop(self):
        a = (1, 3, 4, 3, 1)
        ok = all(
            a[i] * a[j - 1] >= a[i - 1] * a[j]
            for i in range(1, len(a))
            for j in range(i, len(a))
        )
        assert ok == pairwise_log_concave(a).verdict

    def test_witness(self):
        report = pairwise_log_concave((1, 1, 2))
        assert report.witness == (1, 2)


def sequences(length, top):
    return product(range(top + 1), repeat=length)


class TestEquivalences:
    def test_pairwise_equals_log_concave_without_internal_zeros(self):
        for length in range(1, 7):
            for a in sequences(length, 4):
                if has_internal_zeros(a).verdict:
                    continue
                assert pairwise_log_concave(a).verdict == is_log_concave(a).verdict, a

    def test_log_concave_implies_unimodal_without_internal_zeros(self):
        for length in range(1, 7):
            for a in sequences(length, 4):
                if has_internal_zeros(a).verdict:
                    continue
                if is_log_concave(a).verdict:
                    assert is_unimodal(a).verdict, a

    def test_ultra_implies_plain_log_concavity(self):
        for length in range(2, 6):
            for a in sequences(length, 3):
                for m in (length - 1, length, length + 2):
                    if is_ultra_log_concave(a, m).verdict:
                        assert is_log_concave(a).verdict, (a, m)


class TestWitnessContract:
    def test_false_verdicts_carry_replayable_witnesses(self):
        # For every predicate: verdict False implies a witness whose named
        # inequality indeed fails on the input.
        import random

        rng = random.Random(3)
        for _ in range(300):
            a = [rng.randint(0, 4) for _ in range(rng.randint(1, 7))]
            lc = is_log_concave(a)
            if not lc.verdict:
                (i,) = lc.witness
                assert a[i] ** 2 < a[i - 1] * a[i + 1]
            iz = has_internal_zeros(a)
            if iz.verdict:
                i, k, j = iz.witness
                assert i < k < j and a[i] != 0 and a[k] == 0 and a[j] != 0
            uni = is_unimodal(a)
            if not uni.verdict:
                i, j = uni.witness
                assert i <= j and a[i] > a[i + 1] and a[j] < a[j + 1]
            pw = pairwise_log_concave(a)
            if not pw.verdict:
                i, j = pw.witness
                assert a[i] * a[j - 1] < a[i - 1] * a[j]
            m = len(a) + 1
            ulc = is_ultra_log_concave(a, m)
            if not ulc.verdict:
                (i,) = ulc.witness
                norm = [Fraction(v, binomial(m, t)) for t, v in enumerate(a)]
                assert norm[i] ** 2 < norm[i - 1] * norm[i + 1]


class TestTransfer:
    def test_all_ones(self):
        report = check_transfer(GammaVector(6, (1, 1, 1, 1)))
        assert report.h.h == tuple(map(Fraction, (1, 7, 20, 29, 20, 7, 1)))
        assert report.hypothesis and report.conclusion and not report.violation

    def test_tent_gamma(self):
        # gamma = (1,2,3,2,1) at n=8 is log-concave (9 >= 4, 4 >= 3) without
        # internal zeros; the image h was computed forward and frozen.
        report = check_transfer(GammaVector(8, (1, 2, 3, 2, 1)))
        assert report.gamma_shape.verdict
        assert not report.gamma_internal_zeros.verdict
        assert report.h.h == tuple(map(Fraction, (1, 10, 43, 100, 133, 100, 43, 10, 1)))
        assert report.hypothesis and report.conclusion and not report.violation

    def test_single_support(self):
        report = check_transfer(GammaVector(4, (0, 0, 1)))
        assert report.h.h == tuple(map(Fraction, (0, 0, 1, 0, 0)))
        assert report.hypothesis and report.conclusion and not report.violation

    def test_negative_gamma_rejected(self):
        with pytest.raises(NegativeEntryError):
            check_transfer(GammaVector(4, (1, -1, 0)))

    def test_hypothesis_can_fail_quietly(self):
        report = check_transfer(GammaVector(6, (1, 0, 1, 0)))  # internal zero
        assert not report.hypothesis
        assert not report.violation


def test_half_h_shape_equals_the_full_vector(monkeypatch):
    """``_transfer`` reads h_0 .. h_{n//2+1} only.  With ``gamma_to_h``
    returning every palindrome over {0..3} of length at most 9, each h shape
    equals the predicate's report on the full vector: kind, verdict and
    witness."""
    h = None
    monkeypatch.setattr(concavity, "gamma_to_h", lambda g: h)
    verdicts = Counter()
    for n in range(9):
        gamma = GammaVector(n, (1,) * (n // 2 + 1))
        for half in product(range(4), repeat=n // 2 + 1):
            h = SymmetricPolynomial(n, half + half[: (n + 1) // 2][::-1])
            lc, ulc = is_log_concave(h.h), is_ultra_log_concave(h.h, n)
            assert check_transfer(gamma).h_shape == lc, h
            assert check_ulc_transfer(gamma).h_shape == ulc, h
            verdicts.update(cases=1, lc=lc.verdict, ulc=ulc.verdict)
    # Most palindromes fail, so the witnesses are compared, not only verdicts.
    assert verdicts == {"cases": 1704, "lc": 344, "ulc": 226}


class TestUlcTransfer:
    def test_all_ones(self):
        report = check_ulc_transfer(GammaVector(6, (1, 1, 1, 1)))
        assert not report.violation

    def test_hypothesis_orders(self):
        report = check_ulc_transfer(GammaVector(8, (1, 2, 3, 2, 1)))
        # gamma checked at order floor(n/2) = 4, h at order n = 8
        assert isinstance(report, TransferReport)
        assert report.gamma_shape.kind == "ultra-log-concave"
        assert not report.violation

    def test_image_is_ulc_when_hypothesis_holds(self):
        g = GammaVector(10, (1, 1, 1, 1, 1, 1))
        report = check_ulc_transfer(g)
        if report.hypothesis:
            h = gamma_to_h(g)
            assert is_ultra_log_concave(h.h, 10).verdict
