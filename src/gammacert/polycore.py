"""Exact arithmetic core: binomials and the h <-> gamma basis change.

A polynomial h(x) = h_0 + h_1 x + ... + h_n x^n that satisfies h_i = h_{n-i}
(palindromic with center n/2; trailing zeros are allowed, so n is part of the
data and may exceed the degree) can be written uniquely as

    h(x) = sum_j  gamma_j * x^j * (1 + x)^(n-2j),      0 <= j <= floor(n/2).

Extracting the coefficient of x^i gives the linear relation

    h_i = sum_j  C(n-2j, i-j) * gamma_j,

which is the forward transform implemented here; the inverse is forward
substitution against the same unitriangular system.  All arithmetic is exact.

``Fraction`` is the boundary type: vectors hold it and both transforms return
it.  Inside them the rows run on integers.  Row t of either transform reads
entries 0 .. t only, so it runs over L_t, the lcm of the first t + 1
denominators, which the charge computes as it grows: the numerators seen so
far are multiplied by L_t / L_{t-1} when it grows, the row is summed or
substituted on integers, and its output is divided once, ``Fraction(v, L_t)``
(``Fraction(v)`` when L_t = 1).  The substitution needs no other division: the
matrix is unitriangular, so its inverse is integral.  Integer and shared
denominators fix L_t at the first entry; independent ones grow it entry by
entry, and the final reductions, gcds against L_t, are then most of the time.
Reducing row t against L_t rather than the whole lcm keeps those near the cost
of summing the rows in ``Fraction``, as the tests' oracle does.
``gamma_to_h`` in ms, the kernel against those rows, medians of three runs
(Intel Xeon, Python 3.11):

    n    denominators              L bits   kernel  Fraction rows
    100  integer                        1     0.71     6.90
    100  shared, 1,024-bit          1,024     1.58    23.6
    100  independent, 3-bit             6     0.76     6.16
    100  independent, 64-bit        3,137     3.11    10.4
    600  independent, 64-bit       17,326   729    1,106
    200  independent, 256-bit      25,347   121      184
    100  independent, 1,024-bit    52,019   188      163
    12   independent, 1,024-bit     7,159     1.11     0.99
    12   independent, 30,000-bit  209,978   442      278

Independent denominators of a thousand bits and more are the one shape where
the rows win, by up to 1.2x and by 1.6x at 30,000 bits: their ``Fraction``
sums meet coprime denominators and so never reduce, where the kernel's gcds
are quadratic in L_t.  No benchmark workload has that shape, so it has no
path of its own.

:func:`rational_vector` is the package's one coercion to exact numbers; the
vector constructors, the predicates, the JSON reader and the CLI all go
through it.  It accepts ``Fraction`` (passed through), ``int`` (not ``bool``)
and strings in the grammar ``[+-]?[0-9]+(/[0-9]+)?``; floats and everything
else are rejected, never rounded, since every downstream inequality check is
an exact statement.  Its strings are read by :func:`parse_rational`, and every
number printed, text or JSON, is written by :func:`format_rational` beside
it: one parser and one formatter for every number at the boundary.  The
formatter lives here, not in ``jsonio``, so that text output loads no JSON
layer.

:func:`basis_row` is the one source of the entries C(n-2j, t-j): for the
transforms, the closed form in ``coefficients`` and the sums in ``paths``.  An
entry out of range is 0, as ``binomial(n, k) == 0`` unless 0 <= k <= n.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import EntryError, RangeError, Record, SymmetryError, check_work

# ASCII only: ``\d`` would also admit other scripts' digits, which int() reads.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_ASCII_SPACE = " \t\n\r\v\f"
_CHUNK = 10**4000  # within the interpreter's 4,300-digit cap on int -> str, which stays in place


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), exactly; 0 outside 0 <= k <= n <= anything.

    Accepts any pair of integers.  No overflow at any size.  Like
    ``math.comb`` it is not bounded by ``errors.WORK_LIMIT``: it is the one
    unbounded primitive, and every counting entry point charges its
    binomials to the limit before it calls it.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' with optional sign and surrounding blanks; anything else is rejected."""
    match = _RATIONAL_RE.fullmatch(text.strip(_ASCII_SPACE))
    if match is None:
        raise EntryError(f"not a rational 'p/q' or integer: {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise EntryError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # more digits than int() will convert
        raise EntryError(f"not a rational 'p/q' or integer: {exc}") from None


def _decimal(value: int) -> str:
    """``str(value)`` at any length: an int past the cap is built from 4,000-digit chunks."""
    if -_CHUNK < value < _CHUNK:
        return str(value)
    sign, value = ("-", -value) if value < 0 else ("", value)
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(str(low).zfill(4000))
    return sign + str(value) + "".join(reversed(chunks))


def format_rational(value: Fraction | int) -> str:
    """'p/q', or 'p' for an integer: the one text form of every number the CLI prints."""
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _exact(i: int, value: int | str | Fraction) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except EntryError as exc:
            raise EntryError(f"entry {i}: {exc}") from None
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise EntryError(
        f"entry {i} must be exact (int, Fraction or 'p/q' string), got {type(value).__name__} {value!r}"
    )


def rational_vector(values: Iterable[int | str | Fraction]) -> tuple[Fraction, ...]:
    """Coerce a sequence of exact values to a tuple of ``Fraction``.

    ``Fraction`` entries are immutable and pass through uncopied, so a tuple
    of them comes back as is.  A rejected entry raises ``EntryError`` (both a
    ``ParseError`` and a ``TypeError``) naming its index.
    """
    if not isinstance(values, tuple):
        # From a list: tuple() of an iterator of unknown length resizes, and
        # the tuple it resized from stays on a free list (see test_package).
        values = tuple(list(values))
    if all(type(v) is Fraction for v in values):
        return values
    return tuple([_exact(i, v) for i, v in enumerate(values)])


class SymmetricPolynomial(Record):
    """Coefficient vector h_0..h_n with declared center of symmetry n/2.

    The vector always has length n+1, even when h_n = 0.  Construction does
    not enforce h_i = h_{n-i}; call :meth:`check_symmetric` (or go through
    :func:`h_to_gamma`, which does) when the invariant matters.
    """

    n: int
    h: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 0:
            raise RangeError(f"n must be nonnegative, got {self.n}")
        object.__setattr__(self, "h", rational_vector(self.h))
        if len(self.h) != self.n + 1:
            raise RangeError(f"h must have length n+1 = {self.n + 1}, got {len(self.h)}")

    def symmetry_violation(self) -> int | None:
        """Index of the first entry with h_i != h_{n-i}, or None if palindromic.

        The halves are compared as tuples first: tuple equality tries identity
        before ``Fraction.__eq__``, and an h from ``gamma_to_h`` mirrors its
        first half's own objects, so it is confirmed without a Python-level
        comparison.  The index loop runs only on a mismatch.
        """
        m = self.n // 2
        if self.h[: m + 1] == self.h[::-1][: m + 1]:
            return None
        for i in range(m + 1):
            if self.h[i] != self.h[self.n - i]:
                return i
        return None

    def check_symmetric(self) -> None:
        i = self.symmetry_violation()
        if i is not None:
            raise SymmetryError(
                i, f"not symmetric: h_{i} = {self.h[i]} but h_{self.n - i} = {self.h[self.n - i]}"
            )


class GammaVector(Record):
    """Coefficients gamma_0..gamma_{floor(n/2)} of the x^j (1+x)^(n-2j) expansion."""

    n: int
    gamma: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 0:
            raise RangeError(f"n must be nonnegative, got {self.n}")
        object.__setattr__(self, "gamma", rational_vector(self.gamma))
        expected = self.n // 2 + 1
        if len(self.gamma) != expected:
            raise RangeError(f"gamma must have length floor(n/2)+1 = {expected}, got {len(self.gamma)}")


def basis_polynomial(n: int, j: int) -> tuple[int, ...]:
    """Monomial coefficients of x^j (1+x)^(n-2j), as a vector of length n+1.

    Entry i is C(n-2j, i-j).  The row of binomials costs about
    (n-2j)**3 / 64 ns plus 160 ns an entry; above ``errors.WORK_LIMIT`` it is
    refused with ``RangeError`` before it is computed.
    """
    if n < 0 or j < 0 or j > n // 2:
        raise RangeError(f"need 0 <= j <= floor(n/2); got n={n}, j={j}")
    check_work((n - 2 * j) ** 3 // 64 + 160 * n, f"the basis polynomial of n={n}, j={j}")
    return tuple([binomial(n - 2 * j, i - j) for i in range(n + 1)])


def basis_row(n: int, t: int, js: Iterable[int]) -> list[int]:
    """C(n-2j, t-j) for each j of ``js``: row t of the basis matrix.  Uncharged."""
    return [binomial(n - 2 * j, t - j) for j in js]


def _charged_lcm(dens: Iterable[int], work: Callable[[int], int], what: str) -> list[int]:
    """The running lcm of ``dens``, for each t that of the first t + 1, charged
    (see ``errors.py``): ``work`` of its bit length at 1 and at each growth,
    and before they run, each denominator's remainder test, (Lc - Ld + 1) * Ld
    over 512, and each growth's gcd, Lc * Ld over 256, for an Lc-bit lcm and
    an Ld-bit denominator.  Denominators it is a multiple of are skipped.  The
    package's one running lcm, shared by the transforms and ``abel_check``."""
    common, running = 1, []
    check_work(work(1), what)
    for d in dens:
        size = d.bit_length()
        check_work((common.bit_length() - size + 1) * size // 512, what)
        if common % d:
            check_work(common.bit_length() * size // 256, what)
            common = math.lcm(common, d)
            check_work(work(common.bit_length()), what)
        running.append(common)
    return running


def _transform_lcms(n: int, entries: Sequence[Fraction], what: str, inverse: bool) -> tuple[list, list[int]]:
    """The entries' (numerator, denominator) pairs and running lcm, charged
    for a transform of n: n**3 times 3 plus one per 1,024 bits of the longest
    numerator, plus, once the lcm passes 1, rows**2 sums of (L + 8n) * M / 512,
    L the lcm's bit length and M the longest denominator's, or L for the
    ``inverse``, whose gammas can carry the whole lcm."""
    ratios = [x.as_integer_ratio() for x in entries]
    products = n**3 * (3 + max([p.bit_length() for p, _ in ratios]) // 1024)
    longest = max([q.bit_length() for _, q in ratios])

    def work(bits: int) -> int:
        sums = len(ratios) ** 2 * (bits + 8 * n) * (bits if inverse else longest) // 512
        return products if bits == 1 else products + sums

    return ratios, _charged_lcm([q for _, q in ratios], work, what)


def _over(value: int, common: int) -> Fraction:
    """``value / common``: one reduction, none for a common of 1."""
    return Fraction(value, common) if common > 1 else Fraction(value)


def gamma_to_h(g: GammaVector) -> SymmetricPolynomial:
    """Expand a gamma vector into its h-coefficients.

    Only h_0 .. h_{n//2} are summed, row by row; the rest mirror them, as
    C(n-2j, t-j) = C(n-2j, (n-t)-j).  Row t sums the numerators of gamma_0 ..
    gamma_t over their lcm (see the module docstring).  Refused with
    ``RangeError`` when the charge of ``_transform_lcms`` exceeds
    ``errors.WORK_LIMIT``.
    """
    n = g.n
    ratios, running = _transform_lcms(n, g.gamma, f"a gamma vector of n={n}", inverse=False)
    common, nums, half = 1, [], []
    for t, ((num, den), lcm) in enumerate(zip(ratios, running)):
        if lcm != common:
            scale, common = lcm // common, lcm
            nums = [v * scale for v in nums]
        nums.append(num * (common // den))
        half.append(_over(sum(map(mul, nums, basis_row(n, t, range(t + 1)))), common))
    return SymmetricPolynomial(n, tuple(half + half[: (n + 1) // 2][::-1]))


def h_to_gamma(p: SymmetricPolynomial) -> GammaVector:
    """Invert :func:`gamma_to_h` by forward substitution.

    Requires the symmetry invariant; raises ``SymmetryError`` naming the first
    offending index otherwise.  Round trips exactly: the transform matrix is
    unitriangular (C(n-2i, 0) = 1 on the diagonal), so its inverse is integral
    and gamma_i, substituted on the numerators of h_0 .. h_i over their lcm,
    is divided once.  Refused like :func:`gamma_to_h`, charged for h_0 ..
    h_{n//2}.
    """
    p.check_symmetric()
    n, half = p.n, p.h[: p.n // 2 + 1]
    ratios, running = _transform_lcms(n, half, f"an h vector of n={n}", inverse=True)
    common, nums, gamma = 1, [], []
    for i, ((num, den), lcm) in enumerate(zip(ratios, running)):
        if lcm != common:
            scale, common = lcm // common, lcm
            nums = [v * scale for v in nums]
        nums.append(num * (common // den) - sum(map(mul, nums, basis_row(n, i, range(i)))))
        gamma.append(_over(nums[-1], common))
    return GammaVector(n, tuple(gamma))
