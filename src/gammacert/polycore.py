"""Exact arithmetic core: binomials and the h <-> gamma basis change.

A polynomial h(x) = h_0 + h_1 x + ... + h_n x^n that satisfies h_i = h_{n-i}
(palindromic with center n/2; trailing zeros are allowed, so n is part of the
data and may exceed the degree) can be written uniquely as

    h(x) = sum_j  gamma_j * x^j * (1 + x)^(n-2j),      0 <= j <= floor(n/2).

Extracting the coefficient of x^i gives the linear relation

    h_i = sum_j  C(n-2j, i-j) * gamma_j,

which is the forward transform implemented here; the inverse is forward
substitution against the same unitriangular system.  All arithmetic is exact:
coefficients are ``fractions.Fraction`` and binomials are arbitrary-precision
integers.

:func:`rational_vector` is the package's one coercion to exact numbers; the
vector constructors, the predicates, the JSON reader and the CLI all go
through it.  It accepts ``Fraction`` (passed through), ``int`` (not ``bool``)
and strings in the grammar ``[+-]?[0-9]+(/[0-9]+)?``; floats and everything
else are rejected, never rounded, since every downstream inequality check is
an exact statement.

Convention pinned throughout the package: ``binomial(n, k) == 0`` whenever
k < 0, k > n or n < 0.  The closed formulas in :mod:`gammacert.coefficients`
silently rely on out-of-range binomials vanishing.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

from .errors import EntryError, RangeError, Record, SymmetryError, check_work

# ASCII only: ``\d`` would also admit other scripts' digits, which int() reads.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_ASCII_SPACE = " \t\n\r\v\f"


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
    values = tuple(values)
    if all(type(v) is Fraction for v in values):
        return values
    return tuple(_exact(i, v) for i, v in enumerate(values))


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
        """Index of the first entry with h_i != h_{n-i}, or None if palindromic."""
        for i in range(self.n // 2 + 1):
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
    return tuple(binomial(n - 2 * j, i - j) for i in range(n + 1))


def gamma_to_h(g: GammaVector) -> SymmetricPolynomial:
    """Expand a gamma vector into its h-coefficients.

    The output is palindromic by construction: C(n-2j, i-j) = C(n-2j, (n-i)-j)
    under the vanishing convention for out-of-range binomials.  Refused with
    ``RangeError`` when 5 * n**3 exceeds ``errors.WORK_LIMIT``; so is
    ``h_to_gamma``.
    """
    n = g.n
    check_work(5 * n**3, f"a gamma vector of n={n}")
    h = [Fraction(0)] * (n + 1)
    for j, coeff in enumerate(g.gamma):
        if coeff == 0:
            continue
        for i in range(j, n - j + 1):
            h[i] += coeff * binomial(n - 2 * j, i - j)
    return SymmetricPolynomial(n, tuple(h))


def h_to_gamma(p: SymmetricPolynomial) -> GammaVector:
    """Invert :func:`gamma_to_h` by forward substitution.

    Requires the symmetry invariant; raises ``SymmetryError`` naming the first
    offending index otherwise.  Round trips exactly: the transform matrix is
    unitriangular (C(n-2i, 0) = 1 on the diagonal), so no division occurs.
    """
    p.check_symmetric()
    n = p.n
    check_work(5 * n**3, f"an h vector of n={n}")
    gamma: list[Fraction] = []
    for i in range(n // 2 + 1):
        value = p.h[i]
        for j in range(i):
            value -= binomial(n - 2 * j, i - j) * gamma[j]
        gamma.append(value)
    return GammaVector(n, tuple(gamma))
