"""Exception types shared across the package.

Input problems (bad ranges, asymmetric vectors, negative entries, violated
hypotheses) raise subclasses of ``ValueError`` so that callers can treat them
uniformly.  ``InternalCheckError`` is different: it marks the failure of a
check that a proved statement guarantees can never fail, so it firing means a
bug, not bad input.
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

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"not symmetric: entry {index} differs from its mirror")


class NegativeEntryError(GammaCertError, ValueError):
    """A sequence predicate that requires nonnegative entries saw a negative one."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"negative entry at index {index}")


class HypothesisError(GammaCertError, ValueError):
    """A named hypothesis of a lemma-style check does not hold for the input.

    ``hypothesis`` is a short machine-readable tag naming the failed hypothesis.
    """

    def __init__(self, hypothesis: str, message: str | None = None):
        self.hypothesis = hypothesis
        super().__init__(message or f"hypothesis violated: {hypothesis}")


class DegenerateFactorError(GammaCertError, ValueError):
    """A denominator factor of the diagonal factorization is not positive.

    ``factors`` lists (name, value) pairs for every nonpositive factor; these
    are exactly the cases the sign analysis handles separately.
    """

    def __init__(self, factors: list[tuple[str, int]]):
        self.factors = factors
        names = ", ".join(f"{name}={value}" for name, value in factors)
        super().__init__(f"nonpositive denominator factor(s): {names}")


# Enumeration cap in force when a caller passes none.  It lives here, beside
# the error that enforces it, so that the CLI can name it without loading
# the path engine.
DEFAULT_CAP = 10_000_000


class PathCountExceededError(GammaCertError):
    """Enumerating a path family would exceed the configured cap.

    Carries the exact ``count`` of paths and the ``cap`` that was in force.
    """

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"path family has {count} members, above the cap of {cap}")


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
