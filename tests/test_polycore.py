"""Basis transforms: golden values, independent oracles, round trips."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammacert import errors, polycore
from gammacert import (
    GammaVector,
    RangeError,
    SymmetricPolynomial,
    SymmetryError,
    basis_polynomial,
    binomial,
    gamma_to_h,
    h_to_gamma,
)


def pascal_triangle(rows):
    """Independent binomial oracle: the additive recurrence, nothing shared."""
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[t] + prev[t + 1] for t in range(len(prev) - 1)] + [1])
    return tri


class TestBinomial:
    def test_small_value(self):
        assert binomial(6, 2) == 15

    def test_out_of_range_is_zero(self):
        assert binomial(2, -1) == 0
        assert binomial(2, 3) == 0
        assert binomial(-1, 0) == 0
        assert binomial(-3, -2) == 0

    def test_against_pascal_triangle(self):
        tri = pascal_triangle(40)
        for n in range(41):
            for k in range(n + 1):
                assert binomial(n, k) == tri[n][k]
        assert binomial(16, 5) == tri[16][5] == 4368

    def test_large_is_exact(self):
        # 2**200 divides C(2**200 choose 1) trivially; spot a big middle one.
        assert binomial(200, 100) % 2 == 0
        assert binomial(200, 100) == binomial(199, 99) + binomial(199, 100)


class TestVectors:
    def test_lengths_enforced(self):
        with pytest.raises(RangeError):
            SymmetricPolynomial(3, (1, 2, 1))
        with pytest.raises(RangeError):
            GammaVector(6, (1, 2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GammaVector(2, (1.5, 2))

    def test_string_entries_parse(self):
        g = GammaVector(2, ("1/2", 3))
        assert g.gamma == (Fraction(1, 2), Fraction(3))

    def test_symmetry_violation_names_first_index(self):
        p = SymmetricPolynomial(4, (1, 2, 0, 3, 1))
        assert p.symmetry_violation() == 1
        with pytest.raises(SymmetryError) as err:
            p.check_symmetric()
        assert err.value.index == 1

    def test_equal_halves_of_distinct_objects_are_symmetric(self):
        p = SymmetricPolynomial(4, (Fraction(1, 3), Fraction(2), Fraction(5, 7), Fraction(2), Fraction(1, 3)))
        assert p.h[0] is not p.h[4] and p.h[1] is not p.h[3]
        assert p.symmetry_violation() is None
        p.check_symmetric()

    @pytest.mark.parametrize(
        "n, h, index, message",
        [
            (3, (1, 2, 2, 3), 0, "not symmetric: h_0 = 1 but h_3 = 3"),
            (5, (1, 2, "1/2", "2/3", 2, 1), 2, "not symmetric: h_2 = 1/2 but h_3 = 2/3"),
        ],
        ids=["first-index", "middle-index"],
    )
    def test_mismatch_at_the_ends_of_the_half(self, n, h, index, message):
        p = SymmetricPolynomial(n, h)
        assert p.symmetry_violation() == index
        with pytest.raises(SymmetryError, match=f"^{message}$") as err:
            p.check_symmetric()
        assert err.value.index == index


class TestBasisPolynomial:
    def test_golden_columns(self):
        assert basis_polynomial(6, 1) == (0, 1, 4, 6, 4, 1, 0)
        assert basis_polynomial(4, 2) == (0, 0, 1, 0, 0)
        assert basis_polynomial(8, 1) == (0, 1, 6, 15, 20, 15, 6, 1, 0)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            basis_polynomial(6, 4)
        with pytest.raises(RangeError):
            basis_polynomial(6, -1)

    def test_refused_before_the_binomials(self):
        # basis_polynomial(4000, 0) took a second; (10**5, 0) is refused at once.
        start = time.perf_counter()
        with pytest.raises(RangeError, match=r"the basis polynomial of n=100000, j=0: work \d+ is above"):
            basis_polynomial(10**5, 0)
        assert time.perf_counter() - start < 0.1
        assert len(basis_polynomial(10**5, 49_990)) == 10**5 + 1

    def test_polynomial_identity_at_small_points(self):
        # sum_i coeff_i x^i must equal x^j (1+x)^(n-2j) exactly.
        for n in range(13):
            for j in range(n // 2 + 1):
                coeffs = basis_polynomial(n, j)
                for x in (1, 2, 3):
                    lhs = sum(c * x**i for i, c in enumerate(coeffs))
                    assert lhs == x**j * (1 + x) ** (n - 2 * j)


class TestGammaToH:
    def test_binomial_row(self):
        h = gamma_to_h(GammaVector(6, (1, 0, 0, 0)))
        assert h.h == tuple(map(Fraction, (1, 6, 15, 20, 15, 6, 1)))

    def test_columns_match_basis(self):
        # Unit gamma vectors reproduce the basis columns, so the displayed
        # h_i expressions (e.g. h_3 = 20 g0 + 6 g1 + 2 g2 + g3 at n = 6)
        # follow column by column; every mirrored half, odd n and even, is
        # held against the column view.
        for n in range(0, 41):
            m = n // 2
            for j in range(m + 1):
                unit = tuple(Fraction(int(t == j)) for t in range(m + 1))
                assert gamma_to_h(GammaVector(n, unit)).h == tuple(map(Fraction, basis_polynomial(n, j)))

    def test_n6_h3_row(self):
        h = gamma_to_h(GammaVector(6, (1, 1, 1, 1)))
        assert h.h[3] == 20 + 6 + 2 + 1

    def test_degree_zero(self):
        c = Fraction(5, 7)
        assert gamma_to_h(GammaVector(0, (c,))).h == (c,)

    def test_sums_only_the_first_half(self, monkeypatch):
        # Rows t <= n/2 are summed; the other half is their mirror.
        rows, real = [], polycore.basis_row
        monkeypatch.setattr(polycore, "basis_row", lambda n, t, js: rows.append(t) or real(n, t, js))
        for n in (0, 1, 2, 7, 8, 31):
            rows.clear()
            gamma_to_h(GammaVector(n, tuple(range(1, n // 2 + 2))))
            assert rows == list(range(n // 2 + 1)), n

    def test_output_always_symmetric(self):
        for entries in product((-2, 0, 1, 3), repeat=4):
            h = gamma_to_h(GammaVector(7, tuple(map(Fraction, entries))))
            assert h.symmetry_violation() is None


class TestHToGamma:
    def test_binomial_row_inverts(self):
        g = h_to_gamma(SymmetricPolynomial(6, (1, 6, 15, 20, 15, 6, 1)))
        assert g.gamma == tuple(map(Fraction, (1, 0, 0, 0)))

    def test_derived_pair(self):
        # Forward image of (1,1,0,0) computed first, then inverted.
        assert gamma_to_h(GammaVector(6, (1, 1, 0, 0))).h == tuple(map(Fraction, (1, 7, 19, 26, 19, 7, 1)))
        g = h_to_gamma(SymmetricPolynomial(6, (1, 7, 19, 26, 19, 7, 1)))
        assert g.gamma == tuple(map(Fraction, (1, 1, 0, 0)))

    def test_x_times_cube(self):
        # x(1+x)^3 = x + 3x^2 + 3x^3 + x^4, centered at n = 5.
        assert gamma_to_h(GammaVector(5, (0, 1, 0))).h == tuple(map(Fraction, (0, 1, 3, 3, 1, 0)))
        g = h_to_gamma(SymmetricPolynomial(5, (0, 1, 3, 3, 1, 0)))
        assert g.gamma == tuple(map(Fraction, (0, 1, 0)))

    def test_gamma_entries_may_go_negative(self):
        g = h_to_gamma(SymmetricPolynomial(5, (0, 1, 2, 2, 1, 0)))
        assert g.gamma == tuple(map(Fraction, (0, 1, -1)))

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError) as err:
            h_to_gamma(SymmetricPolynomial(2, (1, 2, 3)))
        assert err.value.index == 0

    def test_round_trip_exhaustive_small(self):
        # Negative and zero entries anywhere, at every n from 0 to 4, where
        # the mirror and the forward substitution have the fewest rows.
        for n in (0, 1, 2, 3, 4, 7):
            m = n // 2
            for entries in product((-1, 0, 2, Fraction(-2, 7)), repeat=m + 1):
                g = GammaVector(n, tuple(map(Fraction, entries)))
                assert h_to_gamma(gamma_to_h(g)) == g


def test_transforms_refuse_work_above_the_limit(monkeypatch):
    # Integer entries of fewer than 1,024 bits cost 3 * n**3, exact on both
    # sides: 3 * 6**3 = 648; h_to_gamma reads h_0 .. h_3.
    g, h = GammaVector(6, (1, 1, 1, 1)), SymmetricPolynomial(6, (1, 7, 20, 29, 20, 7, 1))
    monkeypatch.setattr(errors, "WORK_LIMIT", 648)
    assert gamma_to_h(g) == h and h_to_gamma(h) == g
    monkeypatch.setattr(errors, "WORK_LIMIT", 647)
    with pytest.raises(RangeError, match="a gamma vector of n=6: work 648 is above the limit of 647"):
        gamma_to_h(g)
    with pytest.raises(RangeError, match="an h vector of n=6: work 648 is above the limit of 647"):
        h_to_gamma(h)
    with pytest.raises(SymmetryError):  # the input is checked first
        h_to_gamma(SymmetricPolynomial(6, (1, 7, 20, 29, 20, 7, 2)))


def transform_charge(n, entries, inverse):
    """The largest work the charge of a transform of n with rows ``entries``
    hands ``check_work``."""
    charges = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polycore, "check_work", lambda work, what: charges.append(work))
        polycore._transform_lcms(n, entries, "g", inverse)
    return max(charges)


def test_transforms_charge_entry_size(monkeypatch):
    monkeypatch.setattr(errors, "WORK_LIMIT", 10**30)
    rows = 4
    # Denominators of 101 bits: their lcm has 101 bits too, so both transforms
    # charge 648 + rows**2 * (101 + 8 * 6) * 101 // 512 = 648 + 470.
    g = GammaVector(6, (Fraction(1, 2**100),) * rows)
    assert transform_charge(6, g.gamma, inverse=False) == 1118
    # Its h_0 .. h_3 are 1, 7, 5/4 and 29 over 2**100: the lcm is still 2**100.
    h = gamma_to_h(g)
    assert h.h[:rows] == tuple(Fraction(c, 2**100) for c in (1, 7, 20, 29))
    assert transform_charge(6, h.h[:rows], inverse=True) == 1118
    # Denominators 2**100 and 3**60: the lcm has 196 bits, the longest 101.
    # Forward: 648 + 16 * 244 * 101 // 512; the inverse, whose gammas can
    # carry the whole lcm, 648 + 16 * 244 * 196 // 512.
    mixed = (Fraction(1, 2**100), Fraction(1, 3**60), Fraction(1), Fraction(2))
    assert transform_charge(6, mixed, inverse=False) == 648 + 770
    assert transform_charge(6, mixed, inverse=True) == 648 + 1494
    # A 2,049-bit numerator adds two n**3: 5 * 6**3.
    assert transform_charge(6, (Fraction(2**2048), 1, 1, 1), inverse=False) == 1080
    for limit, served in ((1118, True), (1117, False)):
        monkeypatch.setattr(errors, "WORK_LIMIT", limit)
        if served:
            assert gamma_to_h(g) == h
            assert h_to_gamma(h) == g
        else:
            with pytest.raises(RangeError, match="a gamma vector of n=6: work 1118 is above the limit of 1117"):
                gamma_to_h(g)
            with pytest.raises(RangeError, match="an h vector of n=6: work 1118 is above the limit of 1117"):
                h_to_gamma(h)


def test_round_trip_charged_by_the_common_denominator():
    # gamma_to_h of 256-bit denominators at n = 100 gives an h whose
    # denominators sum to 331,833 bits but whose lcm has 12,778; the sum
    # charged the way back 5.6e11, the lcm 8.4e8, and it runs in about 0.03 s.
    rng = random.Random(100 * 256)
    g = GammaVector(100, tuple(Fraction(rng.getrandbits(256), rng.getrandbits(256) | 1) for _ in range(51)))
    h = gamma_to_h(g)
    assert sum(x.denominator.bit_length() for x in h.h[:51]) > 300_000
    assert transform_charge(100, h.h[:51], inverse=True) <= errors.WORK_LIMIT
    assert h_to_gamma(h) == g


def test_integer_entries_skip_the_lcm(monkeypatch):
    calls, real = [], math.lcm
    monkeypatch.setattr(polycore.math, "lcm", lambda *args: calls.append(args) or real(*args))
    assert gamma_to_h(GammaVector(6, (1, 2, 3, 4))).h[0] == 1
    assert calls == []
    gamma_to_h(GammaVector(6, (Fraction(1, 2), 2, Fraction(3, 2), Fraction(1, 4))))
    assert calls == [(1, 2), (2, 4)]  # 3/2's denominator already divides the lcm


@pytest.mark.parametrize("n", [100, 200])
def test_large_denominators_are_refused_at_once(n):
    # 2,000-digit p/q entries: at n = 100 the expansion ran for 8.3 s and at
    # n = 200 for 75.5 s, each charged as if it had integer entries.
    rng = random.Random(n)
    entries = tuple(Fraction(rng.randrange(10**1999, 10**2000), rng.randrange(10**1999, 10**2000))
                    for _ in range(n // 2 + 1))
    g, h = GammaVector(n, entries), SymmetricPolynomial(n, entries + entries[: (n + 1) // 2][::-1])
    for transform, what in ((gamma_to_h, "a gamma vector"), (h_to_gamma, "an h vector")):
        start = time.perf_counter()
        arg = g if transform is gamma_to_h else h
        with pytest.raises(RangeError, match=f"{what} of n={n}: work \\d+ is above the limit"):
            transform(arg)
        assert time.perf_counter() - start < 0.1


def test_served_sizes():
    # All-ones vectors up to n = 693 (3 * 693**3 < 10**9 < 3 * 694**3), and
    # n = 40 with 60-bit denominators, round trip included.
    assert transform_charge(693, (Fraction(1),) * 347, inverse=False) <= errors.WORK_LIMIT
    with pytest.raises(RangeError, match="a gamma vector of n=694"):
        gamma_to_h(GammaVector(694, (1,) * 348))
    rng = random.Random(40)
    g = GammaVector(40, tuple(Fraction(rng.randrange(2**60), rng.randrange(2**59, 2**60)) for _ in range(21)))
    assert h_to_gamma(gamma_to_h(g)) == g


def fraction_h(n, gamma):
    """Independent forward oracle: every h_i summed in ``Fraction``, no mirror."""
    h = [Fraction(0)] * (n + 1)
    for j, x in enumerate(gamma):
        for i in range(j, n - j + 1):
            h[i] += math.comb(n - 2 * j, i - j) * x
    return tuple(h)


def fraction_gamma(n, h):
    """Independent inverse oracle: forward substitution in ``Fraction``."""
    gamma = []
    for i in range(n // 2 + 1):
        gamma.append(h[i] - sum((math.comb(n - 2 * j, i - j) * x for j, x in enumerate(gamma)), Fraction(0)))
    return tuple(gamma)


@st.composite
def kernel_vectors(draw):
    """n and n//2 + 1 entries, zeros and negatives among them, over integer,
    shared, small independent, long independent or mixed denominators: the
    running lcm stays put for the first two, grows now and then for the third
    and at every entry for the fourth, and the last mixes integers, one
    shared denominator and independent ones."""
    n = draw(st.integers(min_value=0, max_value=30))
    size = n // 2 + 1
    nums = draw(st.lists(st.one_of(st.just(0), st.integers(-(2**80), 2**80)), min_size=size, max_size=size))
    kind = draw(st.sampled_from(["integer", "shared", "small", "long", "mixed"]))
    if kind == "integer":
        dens = [1] * size
    elif kind == "shared":
        dens = [draw(st.integers(min_value=2, max_value=2**200))] * size
    elif kind == "mixed":
        shared = st.just(draw(st.integers(min_value=2, max_value=2**100)))
        dens = draw(st.lists(st.one_of(st.just(1), shared, st.integers(1, 2**70)), min_size=size, max_size=size))
    else:
        lo, hi = (1, 8) if kind == "small" else (2**64, 2**128)
        dens = draw(st.lists(st.integers(min_value=lo, max_value=hi), min_size=size, max_size=size))
    return n, tuple(Fraction(p, q) for p, q in zip(nums, dens))


@given(kernel_vectors())
def test_kernel_matches_the_fraction_oracle(case):
    # gamma_to_h, and h_to_gamma on the h it gives and on an h whose half is
    # the drawn entries, equal the Fraction transforms.
    n, entries = case
    h = gamma_to_h(GammaVector(n, entries)).h
    assert h == fraction_h(n, entries)
    assert all(type(x) is Fraction for x in h)
    assert h_to_gamma(SymmetricPolynomial(n, h)).gamma == entries
    mirrored = entries + entries[: (n + 1) // 2][::-1]
    gamma = h_to_gamma(SymmetricPolynomial(n, mirrored)).gamma
    assert gamma == fraction_gamma(n, mirrored)
    assert all(type(x) is Fraction for x in gamma)


def test_charge_gives_the_running_lcm():
    # Row t of either transform runs over the lcm of the first t + 1
    # denominators; integers and denominators it already holds keep it.
    entries = (Fraction(1), Fraction(1, 2), Fraction(3), Fraction(1, 3), Fraction(5, 6), Fraction(1, 4))
    assert polycore._charged_lcm([x.denominator for x in entries], lambda bits: 0, "g") == [1, 2, 2, 6, 6, 12]
    g = GammaVector(10, entries)
    assert gamma_to_h(g).h == fraction_h(10, entries)
    assert h_to_gamma(gamma_to_h(g)) == g


def test_remainder_charged_before_it_runs():
    # The remainder of a 2,000,000-bit lcm by a 1,000,000-bit denominator,
    # 1.8 s unbounded, is charged (10**6 + 1) * 10**6 // 512 first.
    rng = random.Random(28)
    d1 = rng.getrandbits(2 * 10**6) | 1 << (2 * 10**6 - 1) | 1
    d2 = rng.getrandbits(10**6) | 1 << (10**6 - 1) | 1
    start = time.perf_counter()
    with pytest.raises(RangeError, match="x: work 1953126953 is above"):
        polycore._charged_lcm([d1, d2], lambda bits: 0, "x")
    assert time.perf_counter() - start < 0.1
    # 2d holds d: the remainder of its lcm by d is charged 2 * 600,000 // 512.
    d = rng.getrandbits(600_000) | 1 << 599_999 | 1
    assert polycore._charged_lcm([2 * d, d], lambda bits: 0, "x") == [2 * d, 2 * d]


fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(st.integers(min_value=0, max_value=12), st.data())
def test_round_trip_random_rationals(n, data):
    entries = data.draw(st.lists(fractions_st, min_size=n // 2 + 1, max_size=n // 2 + 1))
    g = GammaVector(n, tuple(entries))
    assert h_to_gamma(gamma_to_h(g)) == g


@given(st.integers(min_value=0, max_value=10), st.data())
def test_transform_is_linear(n, data):
    size = n // 2 + 1
    a = data.draw(st.lists(fractions_st, min_size=size, max_size=size))
    b = data.draw(st.lists(fractions_st, min_size=size, max_size=size))
    ha = gamma_to_h(GammaVector(n, tuple(a)))
    hb = gamma_to_h(GammaVector(n, tuple(b)))
    hsum = gamma_to_h(GammaVector(n, tuple(x + y for x, y in zip(a, b))))
    assert hsum.h == tuple(x + y for x, y in zip(ha.h, hb.h))
