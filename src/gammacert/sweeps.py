"""Exhaustive and randomized property sweeps.

Each sweep re-verifies one family of guaranteed-true statements over a
parameter range and reports the number of cases checked plus any failures
(there should never be any).  The CLI ``sweep`` subcommand and the
acceptance test suite both drive these.

Every ranged suite walks n, and then any i, from the top down: the largest
cases come first, so a range the work limit refuses is refused at its first
case instead of after every smaller one has run.  The path suite, whose
walks do not shrink in that order, walks the rotation balance once, at
i = max_n // 2, which holds every width of the range, and charges it and
its top row n = max_n, which holds the largest walk of each (i, r), before
the first.  The transfer grids charge the transform at max_n before the
grid is built.
Counts and notes are sums over the cases, so the order does not change them.
The predicates and ``random`` are imported by the suites that use them, so
the path and coefficient suites load neither.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Callable

from .coefficients import (
    _factorization_holds,
    _oracle_table,
    _values,
    abel_check,
    diagonal,
    diagonal_sum,
    sign_quadratic,
)
from .errors import DegenerateFactorError, GammaCertError, InternalCheckError
from .paths import (
    PathConfig,
    _charge_crossing_walk,
    _charge_rotation_walk,
    build_certificate,
    check_crossing_claim,
    check_rotation_balance,
)
from .polycore import GammaVector, _transform_lcms

if TYPE_CHECKING:  # annotations only; the suites that need them import them
    import random

    from .concavity import TransferReport


class SweepReport:
    """Cases, failures and notes of one sweep.  A mutable builder: the sweep
    that creates it fills it in and returns it, and nothing else holds it.
    Two reports are equal when all four fields are."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures: list[str] = []
        self.notes: dict[str, int] = {}

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is SweepReport else NotImplemented

    def __repr__(self):
        return f"SweepReport({', '.join(f'{name}={value!r}' for name, value in vars(self).items())})"

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.cases += 1
        if not condition:
            self.failures.append(message)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def sweep_oracle(max_n: int = 20) -> SweepReport:
    """Closed formula == brute-force expansion, plus the basic sign facts:
    square and adjacent coefficients are nonnegative, everything with
    k > i+1 vanishes."""
    rep = SweepReport(f"oracle-equivalence(n<={max_n})")
    for n in reversed(range(2, max_n + 1)):
        for i in reversed(range(1, n)):
            oracle = _oracle_table(n, i)
            pairs = [(j, k) for k in range(n // 2 + 1) for j in range(k + 1)]
            for (j, k), c in zip(pairs, _values(n, i, pairs)):
                rep.check(c == oracle[j, k], f"formula/oracle mismatch at {(n, i, j, k)}")
                if k > i + 1:
                    rep.check(c == 0, f"nonzero coefficient beyond k=i+1 at {(n, i, j, k)}")
                if j == k:
                    rep.check(c >= 0, f"negative square coefficient at {(n, i, j)}")
                if k == j + 1:
                    rep.check(c >= 0, f"negative adjacent coefficient at {(n, i, j)}")
    return rep


def sweep_sign_structure(max_n: int = 30) -> SweepReport:
    """Tail-sign for every diagonal, sign quadratics, and the factorization
    identity wherever its denominators are positive.

    A denominator vanishes only at k = i+1, a pair the table holds only when
    n >= 2i+2; the coefficient there is asserted strictly negative.
    """
    rep = SweepReport(f"sign-structure(n<={max_n})")
    for n in reversed(range(2, max_n + 1)):
        for i in reversed(range(1, n // 2 + 1)):
            for l in range(1, (i + 1) // 2 + 1):
                for parity in ("even", "odd"):
                    diag = diagonal(n, i, l, parity)
                    rep.check(diag.tail_sign_ok, f"tail-sign violated at {(n, i, l, parity)}")
                    quad = sign_quadratic(n, i, l, parity)
                    rep.check(quad.a < 0 and quad.b > 0, f"sign quadratic signs wrong at {(n, i, l, parity)}")
                    # Even slot 0 is the square c[l,l], outside the factorization.
                    for j in range(parity == "even", len(diag.values)):
                        coeff = diag.values[j]
                        try:
                            ok = _factorization_holds(quad, j, coeff)
                            rep.check(ok, f"factorization identity failed at {(n, i, l, j, parity)}")
                            rep.check(
                                _sign(coeff) == _sign(quad.at(j)),
                                f"sign disagreement at {(n, i, l, j, parity)}",
                            )
                        except DegenerateFactorError:
                            rep.check(coeff < 0, f"expected negative at k = i+1 at {(n, i, l, j, parity)}")
    return rep


def sweep_diagonal_totals(max_n: int = 30) -> SweepReport:
    """diagonal_sum(n, i, r) >= 0 everywhere; it vanishes for r >= i+1 when
    n >= 2i+2 (at the boundary i = n/2 it can be positive, which is recorded,
    not failed)."""
    rep = SweepReport(f"diagonal-totals(n<={max_n})")
    boundary_positives = 0
    for n in reversed(range(2, max_n + 1)):
        for i in reversed(range(1, n // 2 + 1)):
            for r in range(0, 2 * i + 3):
                total = diagonal_sum(n, i, r)
                rep.check(total >= 0, f"negative diagonal sum at {(n, i, r)}")
                if r >= i + 1:
                    if n >= 2 * i + 2:
                        rep.check(total == 0, f"nonzero diagonal sum at {(n, i, r)} with n >= 2i+2")
                    elif total > 0:
                        boundary_positives += 1
    rep.notes["boundary_positives"] = boundary_positives
    return rep


def sweep_path_identities(max_n: int = 10) -> SweepReport:
    """Double counting, crossing claim, rotation balance, and certificates
    for every configuration with i <= r <= 2i+2 (the path model's domain).

    Per family: one certificate, counted without enumeration, which reports
    the binomial sums it checks its total against, and one exhaustive walk
    that checks the crossing claim on every path and whose visit totals are
    held against those sums.  The rotation balance is walked once, at
    (max_n, max_n // 2): the walker reads each rectangle relative to its own
    corner, so by the translation lemma (``paths``) that walk, which covers
    each width below max_n // 2 once, is the walk of every (n, i), and each
    (n, i) counts its i(i+1)/2 rectangles as cases.  A failed internal check
    is recorded; a walk refused by the work limit raises ``RangeError`` out
    of the sweep, for a limit is no failed identity.  The walks do not
    shrink in the sweep's order (at n = 21 the rotation walk and the
    crossing walks at i = 10 are served, the crossing walk at (21, 9, 9) is
    not), so the rotation walk and the row n = max_n, which holds the
    largest crossing walk of each (i, r) as D moves right with n, are
    charged before the first.  So a refused range walks no path."""
    for i in reversed(range(max_n // 2 + 1)):
        if i == max_n // 2:
            _charge_rotation_walk(PathConfig(max_n, i, i))
        for r in range(i, 2 * i + 3):
            _charge_crossing_walk(PathConfig(max_n, i, r))
    rep = SweepReport(f"path-identities(n<={max_n})")
    paths_seen = 0
    if max_n >= 0:
        try:
            check_rotation_balance(PathConfig(max_n, max_n // 2, max_n // 2))
        except InternalCheckError as exc:
            rep.failures.append(f"rotation balance failed at (n={max_n}, i={max_n // 2}): {exc}")
    for n in reversed(range(max_n + 1)):
        for i in reversed(range(n // 2 + 1)):
            rep.cases += i * (i + 1) // 2  # the rectangles base[s] -> shifted[t], s <= t < i
            for r in range(i, 2 * i + 3):
                cfg = PathConfig(n, i, r)
                try:
                    cert = build_certificate(cfg)
                    crossing = check_crossing_claim(cfg)
                except InternalCheckError as exc:
                    rep.check(False, f"claim/certificate error at {(n, i, r)}: {exc}")
                    continue
                paths_seen += crossing.paths_total
                rep.check(crossing.base_visits == cert.lhs, f"lhs path/formula mismatch at {(n, i, r)}")
                rep.check(crossing.shifted_visits == cert.rhs, f"rhs path/formula mismatch at {(n, i, r)}")
                rep.check(crossing.paths_total == cert.path_count, f"walked path count mismatch at {(n, i, r)}")
                rep.check(
                    cert.avoiding_term >= 0 and all(c > 0 for *_, c in cert.boundary_terms),
                    f"non-manifest certificate at {(n, i, r)}",
                )
                if i >= 1:
                    rep.check(
                        cert.total == diagonal_sum(n, i, r),
                        f"certificate disagrees with coefficient sum at {(n, i, r)}",
                    )
    rep.notes["paths_enumerated"] = paths_seen
    return rep


def _transfer_grid(
    name: str, check: Callable[[GammaVector], TransferReport], max_n: int, max_entry: int
) -> SweepReport:
    rep = SweepReport(f"{name}(n<={max_n},entries<={max_entry})")
    # The largest transform, charged before its grid of (max_entry + 1) **
    # (max_n // 2 + 1) vectors is built: integer entries keep the lcm at 1.
    _transform_lcms(max_n, [Fraction(max_entry)], inverse=False)
    hypothesis_true = 0
    for n in reversed(range(max_n + 1)):
        for entries in product(range(max_entry + 1), repeat=n // 2 + 1):
            report = check(GammaVector(n, entries))
            hypothesis_true += report.hypothesis
            rep.check(not report.violation, f"{check.__name__} violated at n={n}, gamma={entries}")
    rep.notes["hypothesis_true"] = hypothesis_true
    return rep


def sweep_transfer(max_n: int = 12, max_entry: int = 3) -> SweepReport:
    """Exhaustive grid: no gamma vector that is log-concave without internal
    zeros may produce an h failing either conclusion."""
    from .concavity import check_transfer

    return _transfer_grid("transfer-grid", check_transfer, max_n, max_entry)


def sweep_ulc_transfer(max_n: int = 10, max_entry: int = 2) -> SweepReport:
    """Same grid for the ultra-log-concavity version (order floor(n/2) to n)."""
    from .concavity import check_ulc_transfer

    return _transfer_grid("ulc-transfer-grid", check_ulc_transfer, max_n, max_entry)


def _random_fraction(rng: random.Random, max_num: int = 24, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def random_log_concave_gamma(rng: random.Random, n: int) -> GammaVector:
    """Build a log-concave nonnegative gamma vector from decreasing ratios.

    gamma_j = gamma_0 * r_1 * ... * r_j with r_1 >= r_2 >= ... >= 0 is
    log-concave by construction, and any trailing zeros it produces are not
    internal.
    """
    m = n // 2
    ratios = sorted((_random_fraction(rng, 6, 4) for _ in range(m)), reverse=True)
    entries = [_random_fraction(rng) + 1]
    for ratio in ratios:
        entries.append(entries[-1] * ratio)
    return GammaVector(n, tuple(entries))


def sweep_transfer_random(count: int = 10_000, max_n: int = 12, seed: int = 20250810) -> SweepReport:
    """Randomized rational gamma vectors: half constructed to satisfy the
    hypothesis, half arbitrary (exercising the vacuous branch)."""
    import random

    from .concavity import check_transfer

    rng = random.Random(seed)
    rep = SweepReport(f"transfer-random({count})")
    hypothesis_true = 0
    for t in range(count):
        n = rng.randint(0, max_n)
        if t % 2 == 0:
            g = random_log_concave_gamma(rng, n)
        else:
            g = GammaVector(n, [_random_fraction(rng) for _ in range(n // 2 + 1)])
        report = check_transfer(g)
        hypothesis_true += report.hypothesis
        rep.check(not report.violation, f"transfer violated for n={n}, gamma={g.gamma}")
    rep.notes["hypothesis_true"] = hypothesis_true
    return rep


def sweep_abel_random(count: int = 10_000, seed: int = 20250810) -> SweepReport:
    """Randomized hypothesis-satisfying (a, b) pairs through abel_check.

    a is nonnegative entries followed by nonpositive ones, padded at a_0 so
    the total is nonnegative; b is sorted decreasing nonnegative.  The check
    itself raises on any broken conclusion, so a completed call is a pass.
    """
    import random

    rng = random.Random(seed)
    rep = SweepReport(f"abel-random({count})")
    for _ in range(count):
        size = rng.randint(1, 9)
        head = rng.randint(0, size)
        a = [_random_fraction(rng) for _ in range(head)]
        a += [-_random_fraction(rng) for _ in range(size - head)]
        total = sum(a, Fraction(0))
        if total < 0:
            a[0] -= total
        b = sorted((_random_fraction(rng) for _ in range(size)), reverse=True)
        try:
            report = abel_check(a, b)
            rep.check(report.total >= 0, "negative abel total")
            rep.check(all(t >= 0 for t in report.terms), "negative abel term")
        except GammaCertError as exc:
            rep.check(False, f"abel_check rejected a valid instance: {exc}")
    return rep
