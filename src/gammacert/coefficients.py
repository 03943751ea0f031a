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

One kernel, ``_values``, evaluates it for any pairs from one basis triple
C(n-2j, i-j+d), d = -1, 0, 1, per index; ``quad_coeff`` is its one-pair entry
point.  ``quad_coeff_oracle`` recomputes the same number by brute-force
expansion of the generic linear forms; the test suite holds the two equal.

Sign structure along diagonals.  Fix the index sum: the coefficients with
j + k = 2l, ordered by increasing spread (c[l,l], c[l-1,l+1], ..., c[0,2l]),
and those with j + k = 2l - 1, can turn negative only at the tail: once an
entry is strictly negative, every later entry is <= 0 (for 2i <= n and
2l <= i+1).  Every diagonal the module lists stops at the table's kmax,
past which each coefficient is zero.  The mechanism is a factorization

    c[l-j, l+j]  =  binom * binom * (A j^2 + B) / (four positive factors)

where A < 0 and B > 0 depend only on (n, i, l); the odd diagonal factors the
same way with A' j(j+1) + B'.  Both parities share one slot form: slot j is
the pair (a, b) = (l-j, l+j) (even) or (l-1-j, l+j) (odd), and

    c[a,b] * (n-i-a+1)(i-b+1)(i-a+1)(n-i-b+1)  =  C(n-2a, i-a) C(n-2b, i-b) * quadratic(j),

the same four factors and two binomials in (a, b) for either parity (the
even slot 0 is the square c[l,l], which the identity counts twice).
``sign_quadratic`` returns (A, B) for either parity, each stated once in
factored form, and checks B against the real slot-0 coefficient.  The test
suite proves both for every n: the identity cleared of its four factors has
degree <= 4 in each of n, i, l and j, so its values on {0..4}^4 decide it
(Alon, Combinatorial Nullstellensatz, 1999, Lemma 2.1).
``check_diagonal_factorization`` verifies the displayed identity in exact
rational arithmetic wherever the four factors are positive (the
nonpositive-factor cases are precisely the ones with c = 0 or c < 0 outright,
and callers are told which factor degenerated).  The identity check takes the
coefficient from its caller: the sign sweep passes its diagonal's values.

``abel_check`` is the summation-by-parts workhorse: a tail-sign sequence with
nonnegative total, paired against any weakly decreasing nonnegative weights,
has nonnegative dot product, because the prefix sums are unimodal and
nonnegative.  It sums on integer numerators over lcms that it reads, charged,
through ``polycore._charged_lcm``, as the transforms do.  ``diagonal_sum``
supplies the totals it needs: the sum of all coefficients with fixed index
sum r, which is nonnegative for every r (swept exhaustively in the tests) and
is reproduced independently by the lattice path module as a difference of two
path counts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul
from typing import Iterator, Literal, Sequence

from .errors import DegenerateFactorError, HypothesisError, InternalCheckError, RangeError, Record, check_work
from .polycore import _charged_lcm, _over, basis_row, binomial, rational_vector

Parity = Literal["even", "odd"]


def _check_table_args(n: int, i: int) -> None:
    if n < 2 or not 1 <= i <= n - 1:
        raise RangeError(f"need n >= 2 and 1 <= i <= n-1; got n={n}, i={i}")


def _check_pair(j: int, k: int) -> None:
    if not 0 <= j <= k:
        raise RangeError(f"need 0 <= j <= k; got j={j}, k={k}")


def _coefficient_work(n: int, i: int, count: int) -> int:
    """Work of ``count`` coefficients of the (n, i) form: with m = min(i, n-i),
    m**2/2 + 400m for each of at most min(2*count, kmax+1) basis triples and
    1000 + 8m for each coefficient (fitted in ``errors.py``)."""
    m = min(i, n - i)
    triples = min(2 * count, _kmax(n, i) + 1)
    return triples * (m * m // 2 + 400 * m) + count * (1000 + 8 * m)


def _check_coefficients(n: int, i: int, count: int) -> None:
    """Refuse ``count`` coefficients of the (n, i) form above the work limit."""
    check_work(_coefficient_work(n, i, count), f"{count} coefficient(s) at n={n}, i={i}")


def _check_printed_table(n: int, i: int, numbers: int) -> None:
    """Refuse ``coeff_table(n, i)`` printed with ``numbers`` decimals a
    coefficient, the table and the printing together above the work limit,
    before either starts: 2000 + 12 a digit, a coefficient having at most
    2 * min(n, (m+1) * n.bit_length()) + 2 bits (its basis entries are below
    2**n and n**(m+1)), 0.302 digits a bit."""
    _check_table_args(n, i)
    kmax = _kmax(n, i)
    count = (kmax + 1) * (kmax + 2) // 2
    bits = 2 * min(n, (min(i, n - i) + 1) * n.bit_length()) + 2
    printing = count * numbers * (2000 + 12 * (bits * 77 // 256 + 1))
    check_work(_coefficient_work(n, i, count) + printing, f"the printed table at n={n}, i={i}")


def _check_parity(parity: str) -> None:
    if parity not in ("even", "odd"):
        raise RangeError(f"parity must be 'even' or 'odd', got {parity!r}")


def _kmax(n: int, i: int) -> int:
    """Last gamma index of the (n, i) form: c[j,k] = 0 for k > min(i, n-i)+1
    (the form for i is the one for n-i), and there is no gamma_k for k > n/2."""
    return min(min(i, n - i) + 1, n // 2)


def _index_sum(l: int, parity: Parity) -> int:
    return 2 * l if parity == "even" else 2 * l - 1


def _diagonal_ks(s: int, kmax: int) -> range:
    """k of each pair (s-k, k) of index sum s, slot j holding k = ceil(s/2) + j, up to kmax:
    the one layout of every diagonal listed, a range so that it is charged before it is listed."""
    return range((s + 1) // 2, min(s, kmax) + 1)


def _values(n: int, i: int, pairs: Sequence[tuple[int, int]]) -> Iterator[int]:
    """c[j,k] for each pair in turn: the one place the closed form is written.  Unchecked
    and uncharged; each public caller validates and charges its pairs first."""
    js = sorted({x for pair in pairs for x in pair})
    triple = dict(zip(js, zip(*[basis_row(n, i + d, js) for d in (-1, 0, 1)])))
    for j, k in pairs:
        (lo_j, mid_j, hi_j), (lo_k, mid_k, hi_k) = triple[j], triple[k]
        c = 2 * mid_j * mid_k - lo_j * hi_k - hi_j * lo_k
        yield c if j < k else c // 2  # the square c[j,j] is half its j = k value


def quad_coeff(n: int, i: int, j: int, k: int) -> int:
    """Coefficient of gamma_j gamma_k (j <= k) in h_i^2 - h_{i-1}h_{i+1}.

    Vanishes whenever k > i+1; any k >= j >= 0 is accepted.
    """
    _check_table_args(n, i)
    _check_pair(j, k)
    _check_coefficients(n, i, 1)
    return next(_values(n, i, ((j, k),)))


def _oracle_table(n: int, i: int) -> dict[tuple[int, int], int]:
    """Expand h_i^2 - h_{i-1}h_{i+1} symbolically over the gamma monomials.

    Independent of the closed form on purpose: the three h's are built as
    generic linear forms straight from the basis expansion and multiplied out
    term by term.  Its (n//2 + 1)**2 terms cost about 500 + 2n ns each.
    """
    m = n // 2
    check_work((m + 1) ** 2 * (500 + 2 * n), f"the expansion oracle at n={n}")
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


class CoeffTable(Record):
    """All coefficients of one quadratic form, zeros retained explicitly.

    ``entries`` maps (j, k) with j <= k <= kmax (see ``_kmax``) to the
    integer coefficient.
    """

    n: int
    i: int
    entries: dict[tuple[int, int], int]

    @property
    def kmax(self) -> int:
        return _kmax(self.n, self.i)

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

    def diagonals(self) -> list[DiagonalSequence]:
        """Every entry once, as one diagonal per index sum s = 0 .. 2*kmax (at
        level (s+1)//2, with the parity of s), each in order of spread."""
        out = []
        for s in range(2 * self.kmax + 1):
            pairs = tuple([(s - k, k) for k in _diagonal_ks(s, self.kmax)])
            values = tuple([self.entries[pair] for pair in pairs])
            out.append(DiagonalSequence(self.n, self.i, (s + 1) // 2, "odd" if s % 2 else "even", pairs, values))
        return out


def coeff_table(n: int, i: int) -> CoeffTable:
    """Tabulate the full quadratic form for (n, i).

    Refused with ``RangeError`` before any work when its basis triples and
    coefficients (see ``_check_coefficients``) exceed ``errors.WORK_LIMIT``;
    so are ``diagonal``, ``diagonal_sum`` and ``quad_coeff``.
    """
    _check_table_args(n, i)
    kmax = _kmax(n, i)
    _check_coefficients(n, i, (kmax + 1) * (kmax + 2) // 2)
    pairs = [(j, k) for k in range(kmax + 1) for j in range(k + 1)]
    return CoeffTable(n, i, dict(zip(pairs, _values(n, i, pairs))))


def _unimodal(values: Sequence[int]) -> bool:
    """Weakly increasing then weakly decreasing: the verdict of
    ``concavity.is_unimodal``, on integers and without its report."""
    descended = False
    for x, y in zip(values, values[1:]):
        if x > y:
            descended = True
        elif x < y and descended:
            return False
    return True


def _tail_sign_ok(values: Sequence[int] | Sequence[Fraction]) -> bool:
    """True iff after the first strictly negative entry everything is <= 0."""
    seen_negative = False
    for v in values:
        if seen_negative and v > 0:
            return False
        if v < 0:
            seen_negative = True
    return True


class DiagonalSequence(Record):
    """Coefficients with constant index sum, ordered by increasing spread.

    Even parity at level l lists (c[l,l], c[l-1,l+1], ..., c[0,2l]);
    odd parity lists (c[l-1,l], c[l-2,l+1], ..., c[0,2l-1]).  A diagonal
    from :meth:`CoeffTable.diagonals` stops at the table's kmax.
    """

    n: int
    i: int
    l: int
    parity: Parity
    pairs: tuple[tuple[int, int], ...]
    values: tuple[int, ...]

    @property
    def index_sum(self) -> int:
        return _index_sum(self.l, self.parity)

    @property
    def tail_sign_ok(self) -> bool:
        return _tail_sign_ok(self.values)

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        """A_t = c_0 + ... + c_t, the brackets of the regrouped form."""
        # A list first: tuple() of an iterator resizes, and its dead tuples
        # pile up on CPython's tuple free lists.
        return tuple(list(accumulate(self.values)))


def diagonal(n: int, i: int, l: int, parity: Parity = "even") -> DiagonalSequence:
    """One diagonal of the quadratic form: ``coeff_table(n, i).diagonals()[s]``
    for s = 2l (even) or 2l-1 (odd), empty when s > 2*kmax, computing only
    its own coefficients.

    Requires 1 <= l and 2l <= i+1 (the range on which the tail-sign property
    is guaranteed for 2i <= n; for larger i the sequence is still returned
    and ``tail_sign_ok`` simply reports what it sees).
    """
    _check_table_args(n, i)
    _check_parity(parity)
    if l < 1 or 2 * l > i + 1:
        raise RangeError(f"need 1 <= l <= (i+1)/2; got l={l}, i={i}")
    s = _index_sum(l, parity)
    ks = _diagonal_ks(s, _kmax(n, i))
    _check_coefficients(n, i, len(ks))
    pairs = tuple([(s - k, k) for k in ks])
    return DiagonalSequence(n, i, l, parity, pairs, tuple(list(_values(n, i, pairs))))  # see prefix_sums


def diagonal_sum(n: int, i: int, r: int) -> int:
    """Sum of all coefficients with index sum r; requires 1 <= i <= n/2.

    This is the coefficient of u^r in h_i^2 - h_{i-1}h_{i+1} after the
    substitution gamma_j -> u^j, summed over the table's diagonal r (every
    other pair has c = 0), and it is nonnegative for every r >= 0.
    It vanishes for r >= i+1 provided n >= 2i+2; at the boundary i = n/2
    (or i = (n-1)/2) strictly positive values occur, e.g. (n,i,r) = (2,1,2)
    gives 1.
    """
    if r < 0:
        raise RangeError(f"need r >= 0, got {r}")
    if not 1 <= i <= n // 2:
        raise RangeError(f"need 1 <= i <= floor(n/2); got n={n}, i={i}")
    ks = _diagonal_ks(r, _kmax(n, i))
    _check_coefficients(n, i, len(ks))
    return sum(_values(n, i, [(r - k, k) for k in ks]))


def _check_sign_args(n: int, i: int, l: int) -> None:
    if 2 * i > n or l < 1 or 2 * l > i + 1:  # so i >= 1 and n >= 2
        raise RangeError(f"need n >= 1, 0 <= i <= n/2, 1 <= l <= (i+1)/2; got n={n}, i={i}, l={l}")


class SignQuadratic(Record):
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


_FACTOR_NAMES = {
    "even": ("n-l+j-i+1", "i-l-j+1", "i-l+j+1", "n-l-j-i+1"),
    "odd": ("n-i-l+j+2", "i-l-j+1", "i-l+j+2", "n-i-l-j+1"),
}


def _slot_form(n: int, i: int, l: int, j: int, parity: Parity) -> tuple[tuple[int, int], int, list[tuple[str, int]]]:
    """Slot j's pair (a, b), its binomial product and its four named factors,
    so that c[a,b] * prod(factors) = binomials * quadratic(j)."""
    s = _index_sum(l, parity)
    b = _diagonal_ks(s, s).start + j  # even past the end: the identity is polynomial in l and j
    a = s - b
    factors = (n - i - a + 1, i - b + 1, i - a + 1, n - i - b + 1)
    binoms = prod(basis_row(n, i, (a, b)))
    return (a, b), binoms, list(zip(_FACTOR_NAMES[parity], factors))


def _closed_forms(n: int, i: int, l: int, parity: Parity) -> tuple[int, int]:
    """(A, B) of one diagonal in factored form, odd parity entering as an
    offset: the one statement of both, proved on a grid by the test suite."""
    odd = parity == "odd"
    return (
        -4 * (n - 2 * i) ** 2 - 2 * (n - 2 * l) - 2 - 2 * odd,
        2 * (i - l + 1) * (2 * l - n - 1 - 3 * odd) * (i + l - n - 1),
    )


def sign_quadratic(n: int, i: int, l: int, parity: Parity = "even") -> SignQuadratic:
    """Compute (A, B) for one diagonal from ``_closed_forms``.

    B is checked at j = 0 against the computed slot-0 coefficient by
    ``_factorization_holds``, the one statement of the slot identity, and A
    slot by slot wherever the factorization is verified.  On the admissible
    range (2i <= n, 2l <= i+1) the four slot-0 factors are positive, since
    i - l + 1 >= l >= 1 and n - i >= i, so no ``DegenerateFactorError``
    arises here.  A disagreement, or a wrong sign, raises
    ``InternalCheckError`` naming n, i, l and parity (it cannot happen on the
    admissible range).  Charged as one coefficient before any binomial.
    """
    _check_sign_args(n, i, l)
    _check_parity(parity)
    _check_coefficients(n, i, 1)
    quad = SignQuadratic(n, i, l, parity, *_closed_forms(n, i, l, parity))
    where = {"n": n, "i": i, "l": l, "parity": parity}
    # At j = 0 the quadratic is B.  Even slot 0 is the square c[l,l], which
    # the identity counts twice.
    slot0 = _slot_form(n, i, l, 0, parity)
    coeff0 = (2 if parity == "even" else 1) * quad_coeff(n, i, *slot0[0])
    if not _factorization_holds(quad, 0, coeff0, slot0):
        raise InternalCheckError("sign-violation", f"B mismatch at n={n}, i={i}, l={l}: closed {quad.b}", where)
    if quad.a >= 0:
        raise InternalCheckError("sign-violation", f"A = {quad.a} not negative at n={n}, i={i}, l={l}", where)
    if quad.b <= 0:
        raise InternalCheckError("sign-violation", f"B = {quad.b} not positive at n={n}, i={i}, l={l}", where)
    return quad


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
    elif not 0 <= j <= l - 1:
        raise RangeError(f"need 0 <= j <= l-1 for the odd diagonal; got j={j}, l={l}")
    quad = sign_quadratic(n, i, l, parity)  # charged before _slot_form's binomials
    slot = _slot_form(n, i, l, j, parity)
    return _factorization_holds(quad, j, quad_coeff(n, i, *slot[0]), slot)


def _factorization_holds(quad: SignQuadratic, j: int, coeff: int, slot: tuple | None = None) -> bool:
    """The factorization identity at slot j of quad's diagonal, given the
    slot's coefficient and a slot known to be in range; the sign sweep passes
    one ``SignQuadratic`` per diagonal and the diagonal's own values.  A
    caller that has built the slot's ``_slot_form`` passes it as ``slot``."""
    _, binoms, factors = slot or _slot_form(quad.n, quad.i, quad.l, j, quad.parity)
    bad = [(name, value) for name, value in factors if value <= 0]
    if bad:
        raise DegenerateFactorError(bad)
    return Fraction(binoms * quad.at(j), prod(f for _, f in factors)) == coeff


class AbelReport(Record):
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
    prefix sums, and returns the full trace.  A failure of these checks
    raises ``InternalCheckError`` with the exact vectors as ``a`` and ``b``.

    The arithmetic runs on integers: a and b are scaled to numerators over
    the lcm of their own denominators, la and lb.  The hypotheses read signs
    and order off the numerators; the prefix sums, the by-parts terms and
    both sides of the identity are integer sums, the total's sign is read off
    its integer, and each reported number is divided once: the prefix sums by
    la, the terms and the total by la * lb.  Unimodality is checked on the
    integer prefix sums, before any is divided: la > 0, so its verdict is
    the one ``concavity.is_unimodal`` gives on the reported ones, and this
    module loads no predicates.  Numbers in a message are formatted only
    when it is raised.  Long vectors of independent denominators are the shape where
    the ``Fraction`` sums win: each division is then a gcd against an lcm
    that grew with every entry (300 entries with 32-bit denominators take
    1.8x as long, 12 with 1,024-bit ones 2x).  The lcms, of a then of b, are
    read through ``polycore._charged_lcm``, and work above the limit is
    refused before any numerator is scaled: per entry, 6000 plus 2L plus
    S (S + L) / 512, L the bits of la and lb and S those of a scaled
    numerator of a and one of b, bounded from bit lengths (a reduction is a
    gcd of at most S bits against L, and a product has at most S bits).
    """
    av = rational_vector(a)
    bv = rational_vector(b)
    if len(av) != len(bv):
        raise RangeError(f"length mismatch: {len(av)} vs {len(bv)}")
    ra, rb = [x.as_integer_ratio() for x in av], [x.as_integer_ratio() for x in bv]
    excess = 2 + sum([max([p.bit_length() - q.bit_length() for p, q in r], default=0) for r in (ra, rb)])

    def work(bits: int) -> int:  # the charge at L = bits
        scaled = max(0, bits + excess)
        return len(av) * (6000 + 2 * bits + scaled * (scaled + bits) // 512)

    what = f"the Abel check of {len(av)} entries"
    # While a is read, lb is 1, of one bit.
    la = (_charged_lcm({q for _, q in ra}, lambda bits: work(bits + 1), what) or [1])[-1]
    lb = (_charged_lcm({q for _, q in rb}, lambda bits: work(la.bit_length() + bits), what) or [1])[-1]
    nums = [p * (la // q) for p, q in ra]
    weights = [p * (lb // q) for p, q in rb]
    if not _tail_sign_ok(nums):
        raise HypothesisError("tail-sign", "a has a positive entry after a negative one")
    for t in range(len(weights) - 1):
        if weights[t] < weights[t + 1]:
            raise HypothesisError("b-decreasing", f"b rises at index {t}")
    if weights and weights[-1] < 0:
        raise HypothesisError("b-nonnegative", f"b ends at {bv[-1]} < 0")
    prefix = list(accumulate(nums))
    if prefix and prefix[-1] < 0:
        raise HypothesisError("sum-nonnegative", f"sum(a) = {_over(prefix[-1], la)} < 0")

    terms = [p * (w - v) for p, w, v in zip(prefix, weights, weights[1:] + [0])]
    direct, by_parts, common = sum(map(mul, nums, weights)), sum(terms), la * lb
    if direct != by_parts:
        raise InternalCheckError(
            "abel-violation",
            f"summation-by-parts identity broke: {_over(direct, common)} != {_over(by_parts, common)}",
            {"a": av, "b": bv},
        )
    if not _unimodal(prefix):
        raise InternalCheckError("abel-violation", "prefix sums are not unimodal", {"a": av, "b": bv})
    if direct < 0:
        raise InternalCheckError(
            "abel-violation", f"total {_over(direct, common)} is negative despite the hypotheses", {"a": av, "b": bv}
        )
    prefix_sums = tuple([_over(p, la) for p in prefix])
    return AbelReport(_over(direct, common), prefix_sums, tuple([_over(x, common) for x in terms]))
