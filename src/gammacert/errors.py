"""Exception types, resource limits and the frozen-record base shared across
the package.

Input problems (bad ranges, asymmetric vectors, negative entries, violated
hypotheses) raise subclasses of ``ValueError`` so that callers can treat them
uniformly.  ``InternalCheckError`` is different: it marks the failure of a
check that a proved statement guarantees can never fail, so it firing means a
bug, not bad input.

:class:`Record` is the base of the package's value types.  It lives here, in
the one module every layer imports, so that no layer needs ``dataclasses``
(whose import, with ``inspect`` behind it, would cost each CLI process more
than most commands compute).
"""

from __future__ import annotations


class GammaCertError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(GammaCertError, ValueError):
    """A parameter is outside the domain of the requested operation."""


class SymmetryError(GammaCertError, ValueError):
    """A coefficient vector is not palindromic.

    ``index`` is the first position i with h_i != h_{n-i}.
    """

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class NegativeEntryError(GammaCertError, ValueError):
    """A sequence predicate that requires nonnegative entries saw a negative one."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class HypothesisError(GammaCertError, ValueError):
    """A named hypothesis of a lemma-style check does not hold for the input.

    ``hypothesis`` is a short machine-readable tag naming the failed hypothesis.
    """

    def __init__(self, hypothesis: str, message: str):
        self.hypothesis = hypothesis
        super().__init__(message)


class DegenerateFactorError(GammaCertError, ValueError):
    """A denominator factor of the diagonal factorization is not positive.

    ``factors`` lists (name, value) pairs for every nonpositive factor; these
    are exactly the cases the sign analysis handles separately.
    """

    def __init__(self, factors: list[tuple[str, int]]):
        self.factors = factors
        names = ", ".join(f"{name}={value}" for name, value in factors)
        super().__init__(f"nonpositive denominator factor(s): {names}")


# The most work a counting or enumerating operation will start; above it
# ``check_work`` raises ``RangeError`` before anything is computed.  Work is
# counted in units of about a nanosecond, so the limit is about a second;
# the slowest inputs within it, measured on a 2-core Xeon with Python 3.11:
#   * ``coeff_table``, ``diagonal``, ``diagonal_sum``, ``quad_coeff``
#     (``coefficients._check_coefficients``): with m = min(i, n-i),
#     m**2/2 + 400m for each basis triple read, at most min(2 * count,
#     kmax + 1) of them, and 1000 + 8m for each coefficient.  A triple takes
#     15 us at m = 100 (0.33 of its charge), 0.2 ms at 500 (0.63), 0.7 ms at
#     1,000 (0.79), 12 ms at 5,000 (0.84) and 0.14 s at 22,360 (0.52); a
#     table entry 0.6 to 3.4 us for m = 50 to 600.  ``coeff_table(1088,
#     544)``, the largest table within, 0.45 s; ``diagonal(43920, 21960, 1)``
#     0.37 s; ``quad_coeff(62443, 31221, 0, 1)`` 0.41 s.
#   * ``quad_coeff_oracle`` (``coefficients._oracle_table``): (n//2 + 1)**2
#     terms times 500 + 2n, at 0.5 to 1.0 ns a unit for i = n/2 and n from
#     100 to 1,300 (0.2 at i = 3); n = 1,181, the largest within, 1.1 s.
#   * ``build_certificate`` (``paths._certificate_work``): (5994, 100, 100)
#     0.5 s and (356506, 1, 1) 0.6 s, where the table passes dominate;
#     (584, 282, 282) 0.11 s, charged 9.9e8, nearly all of it the middle-leg
#     term, a loose bound there.
#   * the binomial sums of ``certify --formula-only`` (``paths.formula_work``):
#     (4000, 2000, 248) 0.5 s; only the terms that can be nonzero are summed.
#   * the exhaustive path walks (``paths._walk_work``): the family's path
#     count times a cost a path and a cost a step.  ``enumerate_paths``,
#     1.8 us a path and 40 ns a step, takes 1.4 to 1.8 us a path at 18 steps
#     and 9 to 11 at 301; its 100 ns a step once a call bounds a family of
#     one long path, built at 50 to 90 ns a step: 7,142,844 steps, the
#     longest within, take 0.74 s.  The walker of the crossing and rotation
#     checks (``paths._visits_work``) joins every path from two half-path
#     records, at most two half-records a path (a midpoint's p prefixes and
#     s suffixes join into p*s >= p + s - 1 paths, and each midpoint has a
#     path), their steps at most the path's.  Its units, the slowest
#     measured: 350 ns a joined record with the check's work on it (0.2 to
#     0.34 us a path on (18,7,7) through (21,10,10)), 300 ns a half-record
#     and 14 ns a step of one (0.3 us at 24 steps, 3.5 to 4.2 us at 300).
#     So a path is charged 950 ns (one join, two halves) and 14 ns a step,
#     at or above its records.  With the set-ups below, the charge is 2.3x
#     to 12x the measured walk from about 100 paths on ((100,1,1) 2.3x to
#     4.0x, (300,1,1) 4.1x, (68,3,3) 5.4x to 9.4x, (20,8,8) 6.4x to 12x),
#     and down to 0.2x below that, where a call's fixed 10 to 20 us is not
#     charged ((2,1,1), 2 paths).  (4200,1,1), 8,398 paths, 1.0e9, takes
#     0.33 to 0.34 s; (20,8,8), 735,471 paths, 9.5e8, 0.14 to 0.15 s.
#     A half-path read is set up, building its layout range and the
#     diagonal points inside, at 127 ns a step, measured where set-up
#     dominates: the one path of (3040000,0,0), two reads of half its
#     length.  A midpoint's two reads are charged 250 ns a step of the
#     family; (1890000,0,0), 1.0e9, takes 0.25 to 0.33 s.  The rotation
#     walk at i = 10, 2.8e8, takes 0.03 to 0.05 s.  ``sweep --suite paths``
#     is within the limit to n = 20 and refused from n = 21, at the
#     crossing walk (21, 9, 9), 1.7e9, which takes 0.26 to 0.27 s.
#   * ``render_grid``: 200 a cell of about 150 ns; 4.3e6 cells take 0.8 s.
#   * the gcd of each growth of a running lcm in ``polycore._charged_lcm``,
#     the one reader of denominators: its operands' bit lengths multiplied
#     over 256, charged before it runs, 0.46 to 0.67 ns a unit from 30,000 to
#     2,000,000 bits an operand (0.94 against 1,000 bits), fitted on the same
#     Xeon; 506,000 bits a side, the largest within, take 0.47 s.  The
#     remainder before it, (Lc - Ld + 1) * Ld / 512 for an Lc-bit lcm and an
#     Ld-bit denominator: 0.85 to 0.94 ns a unit, 10,000 to 2,000,000 bits.
#   * ``gamma_to_h`` and ``h_to_gamma`` (``polycore._transform_lcms``, read
#     through ``_charged_lcm``): n**3 times 3 plus one per 1,024 bits of the
#     longest numerator, plus rows**2 times (L + 8n) * M / 512, L the bit
#     length of the lcm of the denominators and M that of the longest (L for
#     ``h_to_gamma``).  Fitted to ``Fraction`` rows and re-measured on the
#     integer kernel, which takes no more: all-ones input 0.2 to 0.5 ns a unit
#     from n = 200 to 693 (n = 693, the largest within, 0.5 s; 0.7 to 0.8 s
#     on rows of ``Fraction``), 4,290-digit integer entries 0.1 to 0.2;
#     shared 512- to 65,536-bit denominators, n = 20 to 600, 0.03 to 0.45 (a
#     32,768-bit one at n = 60, 2.0e9, 0.07 to 0.09 s, was 0.9 s); an h of
#     independent denominators runs h_to_gamma at 0.01 to 0.16.
#     ``gamma_to_h`` of independent 16- to 30,000-bit denominators, n = 12
#     to 600, takes 0.5 to 1.1 ns a unit (0.6 to 1.8 on ``Fraction`` rows;
#     64-bit ones at n = 600, 9.0e8, 0.8 s, were 1.0 to 1.1 s).
#   * the ``coeffs`` command (``coefficients._check_printed_table``): the
#     table's charge plus 2000 + 12 a digit of each printed number, digits
#     bounded from n and m; printing takes 0.5 to 1.2 ns a unit at i = n/2
#     from n = 400 to 1,088 (17 to 22 ns an output byte), so ``coeffs 783
#     391``, the largest text table within, takes about 0.7 s.
#   * ``count_paths`` (so ``PathConfig.path_count``): bits**2 / 64, bits
#     bounding the count's length (see there); C(250000, 125000), 250,000
#     bits and just within, takes 0.6 to 1.0 s.
#   * ``basis_polynomial``: (n-2j)**3 / 64 for the row of binomials plus
#     160 an entry; (4000, 0), just above, 1.0 s; (10**6, 499990) 0.2 s.
#   * ``pairwise_log_concave`` (``check --pairwise``): 2500 * len**2, its
#     pairs at 3.6 to 5 us each; 632 entries are within.
#   * ``abel_check`` (a, then b, read through ``_charged_lcm``): per entry,
#     6000 plus 2 a bit of the two lcms of the denominators (L bits
#     together) plus S (S + L) / 512, S bounding the bits of a pair of scaled
#     numerators.  0.4 to 0.7 ns a unit with independent 32- to 30,000-bit
#     denominators (40 entries of 1,024 bits, 9.9e8, 0.43 s; 5 of 30,000
#     bits 0.61 s), 0.5 to 0.7 on integers or shared denominators, 0.2 on
#     4,096-bit integers.  Each growth of an lcm is charged, so 2,000 entries
#     of 32 bits are refused in about 5 ms, once the lcm of 250 of them is
#     found, and two of 1,000,000 bits before the 1.4 s gcd of their lcm.
# ``binomial``, like ``math.comb``, is not charged: it is the one unbounded
# primitive, and the entry points above charge the binomials they compute,
# most of them through the uncharged basis kernel ``polycore.basis_row``.
# No flag, environment variable or setting changes the limit.
WORK_LIMIT = 10**9


def check_work(work: int, what: str) -> None:
    """Refuse ``work`` above ``WORK_LIMIT``: raise ``RangeError`` naming
    ``what`` before the caller computes anything."""
    if work > WORK_LIMIT:
        raise RangeError(f"{what}: work {work} is above the limit of {WORK_LIMIT}")


class EndpointError(GammaCertError, ValueError):
    """A path does not run between the required endpoints."""


class ParseError(GammaCertError, ValueError):
    """Malformed textual or JSON input."""


class EntryError(ParseError, TypeError):
    """A coefficient entry is not an exact number in an accepted form.

    Accepted are ``int`` (not ``bool``), ``Fraction`` and 'p/q' strings.  It
    is a ``ParseError``, so the CLI reports bad text or JSON with exit 2, and
    a ``TypeError``, as Python callers expect for a float or other wrong type.
    """


class InternalCheckError(GammaCertError):
    """A certified-impossible condition was observed (a bug, never bad input).

    ``kind`` is one of ``"claim-violation"``, ``"decomposition-mismatch"``,
    ``"sign-violation"`` or ``"abel-violation"``.
    ``context`` names the failing instance as fields: the path checks set
    ``n``, ``i`` and ``r``, plus ``R`` and ``R'`` where a group or rectangle
    is involved; ``sign_quadratic`` sets ``n``, ``i``, ``l`` and ``parity``;
    ``abel_check`` sets ``a`` and ``b``, its exact input vectors.  Every raise
    site in the package sets it; it defaults to empty.
    """

    def __init__(self, kind: str, message: str, context: dict | None = None):
        self.kind = kind
        self.context = dict(context or {})
        super().__init__(f"{kind}: {message}")


class FrozenRecordError(AttributeError):
    """An attempt to assign to or delete a field of a :class:`Record`."""


class Record:
    """Base of the package's immutable value types.

    A subclass lists its fields as class annotations, a class attribute
    giving a default.  Its ``__init__``, compiled once per class so that
    construction is one plain call, takes them positionally or by keyword,
    stores them in the instance dict and runs ``__post_init__`` if defined
    (which writes through ``object.__setattr__``).  Assignment and deletion
    raise ``FrozenRecordError``; ``==`` needs the same class and equal
    fields, ``hash`` is that of the field tuple, ``repr`` is ``Name(f=v, ...)``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # Defaults become the parameters' own defaults; a field without one
        # after a field with one is a SyntaxError here, at class creation.
        defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        params = "".join(f", {name}=_defaults[{name!r}]" if name in defaults else f", {name}" for name in fields)
        body = "".join(f"    d[{name!r}] = {name}\n" for name in fields)
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        namespace = {"_defaults": defaults}
        exec(f"def __init__(self{params}):\n    d = self.__dict__\n{body}{post}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
