"""The quadratic form h_i^2 - h_{i-1}h_{i+1} in the gamma variables.

Substituting h_i = sum_j C(n-2j, i-j) gamma_j turns each difference
h_i^2 - h_{i-1}h_{i+1} into an integer quadratic form

    h_i^2 - h_{i-1}h_{i+1}  =  sum_{j <= k}  c[j,k] * gamma_j gamma_k,

whose coefficients have the closed form (the j < k coefficient absorbs the
factor 2 of the mixed monomial):

    c[j,j] = C(n-2j, i-j)^2 - C(n-2j, i-j-1) C(n-2j, i-j+1)
    c[j,k] = 2 C(n-2j, i-j) C(n-2k, i-k)
             - C(n-2j, i-j-1) C(n-2k, i-k+1)
             - C(n-2j, i-j+1) C(n-2k, i-k-1)          (j < k)

``quad_coeff`` implements the closed form; ``quad_coeff_oracle`` recomputes
the same number by brute-force expansion of the product of the generic linear
forms, and the two are held equal over wide sweeps by the test suite.

Sign structure along diagonals.  Fix the index sum: the coefficients with
j + k = 2l, ordered by increasing spread (c[l,l], c[l-1,l+1], ..., c[0,2l]),
and those with j + k = 2l - 1, can turn negative only at the tail: once an
entry is strictly negative, every later entry is <= 0 (for 2i <= n and
2l <= i+1).  The mechanism is a factorization

    c[l-j, l+j]  =  binom * binom * (A j^2 + B) / (four positive factors)

where A < 0 and B > 0 depend only on (n, i, l); the odd diagonal factors the
same way with A' j(j+1) + B'.  ``sign_quadratic`` produces (A, B) for either
parity, computing each constant by two independent routes and insisting they
agree; ``check_diagonal_factorization`` verifies the displayed identity in
exact rational arithmetic wherever the denominator factors are positive (the
nonpositive-factor cases are precisely the ones with c = 0 or c < 0 outright,
and callers are told which factor degenerated).

``abel_check`` is the summation-by-parts workhorse: a tail-sign sequence with
nonnegative total, paired against any weakly decreasing nonnegative weights,
has nonnegative dot product, because the prefix sums are unimodal and
nonnegative.  ``diagonal_sum`` supplies the totals it needs: the sum of all
coefficients with fixed index sum r, which is nonnegative for every r (swept
exhaustively in the tests) and is reproduced independently by the lattice
path module as a difference of two path counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Literal, Sequence

from .concavity import is_unimodal
from .errors import DegenerateFactorError, HypothesisError, InternalCheckError, RangeError
from .polycore import binomial, rational_vector

Parity = Literal["even", "odd"]


def _check_table_args(n: int, i: int) -> None:
    if n < 2 or not 1 <= i <= n - 1:
        raise RangeError(f"need n >= 2 and 1 <= i <= n-1; got n={n}, i={i}")


def _check_pair(j: int, k: int) -> None:
    if not 0 <= j <= k:
        raise RangeError(f"need 0 <= j <= k; got j={j}, k={k}")


def _check_parity(parity: str) -> None:
    if parity not in ("even", "odd"):
        raise RangeError(f"parity must be 'even' or 'odd', got {parity!r}")


def quad_coeff(n: int, i: int, j: int, k: int) -> int:
    """Coefficient of gamma_j gamma_k (j <= k) in h_i^2 - h_{i-1}h_{i+1}.

    Vanishes whenever k > i+1; any k >= j >= 0 is accepted.
    """
    _check_table_args(n, i)
    _check_pair(j, k)
    if j == k:
        return binomial(n - 2 * j, i - j) ** 2 - binomial(n - 2 * j, i - j - 1) * binomial(n - 2 * j, i - j + 1)
    return (
        2 * binomial(n - 2 * j, i - j) * binomial(n - 2 * k, i - k)
        - binomial(n - 2 * j, i - j - 1) * binomial(n - 2 * k, i - k + 1)
        - binomial(n - 2 * j, i - j + 1) * binomial(n - 2 * k, i - k - 1)
    )


def _oracle_table(n: int, i: int) -> dict[tuple[int, int], int]:
    """Expand h_i^2 - h_{i-1}h_{i+1} symbolically over the gamma monomials.

    Independent of the closed form on purpose: the three h's are built as
    generic linear forms straight from the basis expansion and multiplied out
    term by term.
    """
    m = n // 2
    row = {t: [binomial(n - 2 * j, t - j) for j in range(m + 1)] for t in (i - 1, i, i + 1)}
    table: dict[tuple[int, int], int] = {}
    for j in range(m + 1):
        for k in range(m + 1):
            jk = (j, k) if j <= k else (k, j)
            table[jk] = table.get(jk, 0) + row[i][j] * row[i][k] - row[i - 1][j] * row[i + 1][k]
    return table


def quad_coeff_oracle(n: int, i: int, j: int, k: int) -> int:
    """Same coefficient as :func:`quad_coeff`, by brute-force expansion."""
    _check_table_args(n, i)
    _check_pair(j, k)
    return _oracle_table(n, i).get((j, k), 0)


@dataclass(frozen=True)
class CoeffTable:
    """All coefficients of one quadratic form, zeros retained explicitly.

    ``entries`` maps (j, k) with j <= k <= kmax to the integer coefficient,
    where kmax = min(min(i, n-i) + 1, floor(n/2)): beyond min(i, n-i)+1
    everything vanishes (the form for i equals the one for n-i entrywise),
    and beyond floor(n/2) there is no gamma variable to attach a monomial to.
    """

    n: int
    i: int
    entries: dict[tuple[int, int], int]

    @property
    def kmax(self) -> int:
        return min(min(self.i, self.n - self.i) + 1, self.n // 2)

    def value(self, j: int, k: int) -> int:
        _check_pair(j, k)
        return self.entries.get((j, k), 0)

    def evaluate(self, gamma: Sequence[Fraction]) -> Fraction:
        """Plug a concrete gamma vector into the quadratic form."""
        total = Fraction(0)
        for (j, k), c in self.entries.items():
            if j < len(gamma) and k < len(gamma):
                total += c * gamma[j] * gamma[k]
        return total

    def diagonal_pairs(self, s: int) -> list[tuple[int, int]]:
        """Index pairs with j + k = s, ordered by increasing spread k - j."""
        lo = (s + 1) // 2
        return [(s - k, k) for k in range(lo, min(s, self.kmax) + 1)]


def coeff_table(n: int, i: int) -> CoeffTable:
    """Tabulate the full quadratic form for (n, i)."""
    _check_table_args(n, i)
    kmax = min(min(i, n - i) + 1, n // 2)
    entries = {(j, k): quad_coeff(n, i, j, k) for k in range(kmax + 1) for j in range(k + 1)}
    return CoeffTable(n, i, entries)


def _tail_sign_ok(values: Sequence[int] | Sequence[Fraction]) -> bool:
    """True iff after the first strictly negative entry everything is <= 0."""
    seen_negative = False
    for v in values:
        if seen_negative and v > 0:
            return False
        if v < 0:
            seen_negative = True
    return True


@dataclass(frozen=True)
class DiagonalSequence:
    """Coefficients with constant index sum, ordered by increasing spread.

    Even parity at level l lists (c[l,l], c[l-1,l+1], ..., c[0,2l]);
    odd parity lists (c[l-1,l], c[l-2,l+1], ..., c[0,2l-1]).
    """

    n: int
    i: int
    l: int
    parity: Parity
    pairs: tuple[tuple[int, int], ...]
    values: tuple[int, ...]

    @property
    def index_sum(self) -> int:
        return 2 * self.l if self.parity == "even" else 2 * self.l - 1

    @property
    def tail_sign_ok(self) -> bool:
        return _tail_sign_ok(self.values)

    @property
    def total(self) -> int:
        return sum(self.values)


def diagonal(n: int, i: int, l: int, parity: Parity = "even") -> DiagonalSequence:
    """Extract one diagonal of the quadratic form.

    Requires 1 <= l and 2l <= i+1 (the range on which the tail-sign property
    is guaranteed for 2i <= n; for larger i the sequence is still returned
    and ``tail_sign_ok`` simply reports what it sees).
    """
    _check_table_args(n, i)
    _check_parity(parity)
    if l < 1 or 2 * l > i + 1:
        raise RangeError(f"need 1 <= l <= (i+1)/2; got l={l}, i={i}")
    if parity == "even":
        pairs = tuple((l - j, l + j) for j in range(l + 1))
    else:
        pairs = tuple((l - 1 - j, l + j) for j in range(l))
    values = tuple(quad_coeff(n, i, j, k) for j, k in pairs)
    return DiagonalSequence(n, i, l, parity, pairs, values)


def diagonal_sum(n: int, i: int, r: int) -> int:
    """Sum of all coefficients with index sum r; requires 1 <= i <= n/2.

    This is the coefficient of u^r in h_i^2 - h_{i-1}h_{i+1} after the
    substitution gamma_j -> u^j, and it is nonnegative for every r >= 0.
    It vanishes for r >= i+1 provided n >= 2i+2; at the boundary i = n/2
    (or i = (n-1)/2) strictly positive values occur, e.g. (n,i,r) = (2,1,2)
    gives 1.
    """
    if r < 0:
        raise RangeError(f"need r >= 0, got {r}")
    if not 1 <= i <= n // 2:
        raise RangeError(f"need 1 <= i <= floor(n/2); got n={n}, i={i}")
    return sum(quad_coeff(n, i, j, r - j) for j in range(r // 2 + 1))


def _check_sign_args(n: int, i: int, l: int) -> None:
    if n < 1 or i < 0 or 2 * i > n or l < 1 or 2 * l > i + 1:
        raise RangeError(f"need n >= 1, 0 <= i <= n/2, 1 <= l <= (i+1)/2; got n={n}, i={i}, l={l}")


@dataclass(frozen=True)
class SignQuadratic:
    """The pair (A, B) whose quadratic decides diagonal coefficient signs.

    Even parity: sign(c[l-j, l+j]) = sign(A j^2 + B) for j >= 1, whenever the
    factorization denominators are positive.  Odd parity: the quadratic is
    A j(j+1) + B, valid from j = 0.  Always A < 0 and B > 0 on the admissible
    range, so each diagonal changes sign at most once, downward.
    """

    n: int
    i: int
    l: int
    parity: Parity
    a: int
    b: int

    def at(self, j: int) -> int:
        if self.parity == "even":
            return self.a * j * j + self.b
        return self.a * j * (j + 1) + self.b


def _even_denominators(n: int, i: int, l: int, j: int) -> list[tuple[str, int]]:
    return [
        ("n-l+j-i+1", n - l + j - i + 1),
        ("i-l-j+1", i - l - j + 1),
        ("i-l+j+1", i - l + j + 1),
        ("n-l-j-i+1", n - l - j - i + 1),
    ]


def _odd_denominators(n: int, i: int, l: int, j: int) -> list[tuple[str, int]]:
    return [
        ("n-i-l+j+2", n - i - l + j + 2),
        ("i-l-j+1", i - l - j + 1),
        ("i-l+j+2", i - l + j + 2),
        ("n-i-l-j+1", n - i - l - j + 1),
    ]


def sign_quadratic(n: int, i: int, l: int, parity: Parity = "even") -> SignQuadratic:
    """Compute (A, B) for one diagonal, each constant by two routes.

    A is evaluated both expanded and factored; B is transcribed in closed form
    and re-derived by clearing the factorization at j = 0 against the directly
    computed coefficient.  Any disagreement, or a wrong sign, raises
    ``InternalCheckError`` (it cannot happen on the admissible range).
    """
    _check_sign_args(n, i, l)
    _check_parity(parity)
    if parity == "even":
        a_expanded = -4 * n * n + 16 * n * i - 16 * i * i - 2 * n + 4 * l - 2
        a_factored = -4 * (n - 2 * i) ** 2 - 2 * (n - 2 * l) - 2
        b_closed = (
            2 * n * n * i - 2 * n * i * i - 2 * n * n * l - 4 * n * i * l + 4 * i * i * l
            + 6 * n * l * l - 4 * l ** 3 + 2 * n * n + 2 * n * i - 2 * i * i
            - 10 * n * l + 10 * l * l + 4 * n - 8 * l + 2
        )
        # Clearing the factorization at j=0 yields twice the square coefficient
        # (the j=k case of the closed form has no factor 2), so derive B from that.
        base = binomial(n - 2 * l, i - l)
        defining0 = 2 * (base ** 2 - binomial(n - 2 * l, i - l - 1) * binomial(n - 2 * l, i - l + 1))
        numerator = defining0 * prod(f for _, f in _even_denominators(n, i, l, 0))
        if base == 0 or numerator % (base * base) != 0:
            raise InternalCheckError("sign-violation", f"B derivation impossible at n={n}, i={i}, l={l}")
        b_derived = numerator // (base * base)
    else:
        a_expanded = -4 * n * n + 16 * n * i - 16 * i * i - 2 * n + 4 * l - 4
        a_factored = -4 * (n - 2 * i) ** 2 - 2 * (n - 2 * l) - 4
        b_closed = 2 * (i - l + 1) * (2 * l - n - 4) * (i + l - n - 1)
        # At j=0 the quadratic reduces to B, and the factorization compares
        # directly against the genuine coefficient c[l-1, l].
        c0 = quad_coeff(n, i, l - 1, l)
        binoms = binomial(n - 2 * l + 2, i - l + 1) * binomial(n - 2 * l, i - l)
        denom0 = prod(f for _, f in _odd_denominators(n, i, l, 0))
        if binoms == 0 or (c0 * denom0) % binoms != 0:
            raise InternalCheckError("sign-violation", f"B derivation impossible at n={n}, i={i}, l={l}")
        b_derived = c0 * denom0 // binoms

    if a_expanded != a_factored:
        raise InternalCheckError("sign-violation", f"A transcription mismatch at n={n}, i={i}, l={l}")
    if b_closed != b_derived:
        raise InternalCheckError(
            "sign-violation", f"B mismatch at n={n}, i={i}, l={l}: closed {b_closed}, derived {b_derived}"
        )
    if a_expanded >= 0:
        raise InternalCheckError("sign-violation", f"A = {a_expanded} not negative at n={n}, i={i}, l={l}")
    if b_closed <= 0:
        raise InternalCheckError("sign-violation", f"B = {b_closed} not positive at n={n}, i={i}, l={l}")
    return SignQuadratic(n, i, l, parity, a_expanded, b_closed)


def check_diagonal_factorization(n: int, i: int, l: int, j: int, parity: Parity = "even") -> bool:
    """Verify the closed factorization of one diagonal coefficient, exactly.

    Even parity needs j >= 1 (the j = 0 slot is the square coefficient, which
    the factorization intentionally double-counts); odd parity allows j >= 0.
    All four denominator factors must be strictly positive, else a
    ``DegenerateFactorError`` reports the offenders; those are exactly the
    coefficients that are zero (factor < 0) or negative (factor = 0) outright.
    """
    _check_sign_args(n, i, l)
    _check_parity(parity)
    if parity == "even":
        if not 1 <= j <= l:
            raise RangeError(f"need 1 <= j <= l for the even diagonal; got j={j}, l={l}")
        factors = _even_denominators(n, i, l, j)
        binoms = binomial(n - 2 * l + 2 * j, i - l + j) * binomial(n - 2 * l - 2 * j, i - l - j)
        coeff = quad_coeff(n, i, l - j, l + j)
    else:
        if not 0 <= j <= l - 1:
            raise RangeError(f"need 0 <= j <= l-1 for the odd diagonal; got j={j}, l={l}")
        factors = _odd_denominators(n, i, l, j)
        binoms = binomial(n - 2 * l + 2 * j + 2, i - l + j + 1) * binomial(n - 2 * l - 2 * j, i - l - j)
        coeff = quad_coeff(n, i, l - 1 - j, l + j)

    bad = [(name, value) for name, value in factors if value <= 0]
    if bad:
        raise DegenerateFactorError(bad)
    quad = sign_quadratic(n, i, l, parity)
    return Fraction(binoms * quad.at(j), prod(f for _, f in factors)) == coeff


@dataclass(frozen=True)
class AbelReport:
    """Trace of one summation-by-parts run.

    ``prefix_sums`` are A_t = a_0 + ... + a_t; ``terms`` are the summands
    A_t (b_t - b_{t+1}) of the rewritten sum (with b beyond the end taken as
    0), each individually nonnegative; ``total`` is the common value of both
    sides of the identity.
    """

    total: Fraction
    prefix_sums: tuple[Fraction, ...]
    terms: tuple[Fraction, ...]


def abel_check(a: Sequence[int | str | Fraction], b: Sequence[int | str | Fraction]) -> AbelReport:
    """Check sum(a_t b_t) >= 0 for tail-sign a with sum(a) >= 0 and decreasing b.

    Hypotheses (each violation raises ``HypothesisError`` naming it):
    a follows the tail-sign pattern, b is weakly decreasing and nonnegative,
    and sum(a) >= 0.  The conclusion is then forced; the function recomputes
    the sum through the prefix-sum identity, confirms unimodality of the
    prefix sums, and returns the full trace.
    """
    av = rational_vector(a)
    bv = rational_vector(b)
    if len(av) != len(bv):
        raise RangeError(f"length mismatch: {len(av)} vs {len(bv)}")
    if not _tail_sign_ok(av):
        raise HypothesisError("tail-sign", "a has a positive entry after a negative one")
    for t in range(len(bv) - 1):
        if bv[t] < bv[t + 1]:
            raise HypothesisError("b-decreasing", f"b rises at index {t}")
    if bv and bv[-1] < 0:
        raise HypothesisError("b-nonnegative", f"b ends at {bv[-1]} < 0")
    if sum(av) < 0:
        raise HypothesisError("sum-nonnegative", f"sum(a) = {sum(av)} < 0")

    prefix: list[Fraction] = []
    running = Fraction(0)
    for v in av:
        running += v
        prefix.append(running)
    terms = tuple(
        prefix[t] * ((bv[t] - bv[t + 1]) if t + 1 < len(bv) else bv[t]) for t in range(len(av))
    )
    direct = sum((x * y for x, y in zip(av, bv)), Fraction(0))
    by_parts = sum(terms, Fraction(0))
    if direct != by_parts:
        raise InternalCheckError("abel-violation", f"summation-by-parts identity broke: {direct} != {by_parts}")
    if not is_unimodal(prefix).verdict:
        raise InternalCheckError("abel-violation", "prefix sums are not unimodal")
    if direct < 0:
        raise InternalCheckError("abel-violation", f"total {direct} is negative despite the hypotheses")
    return AbelReport(total=direct, prefix_sums=tuple(prefix), terms=terms)
