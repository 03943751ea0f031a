"""Sequence shape predicates and the gamma-to-h log-concavity transfer check.

Definitions used throughout (all exact, for sequences of rationals):

* log-concave:        a_i^2 >= a_{i-1} a_{i+1} for every interior index i;
* ultra log-concave of order m (m >= len(a)-1):  a_i / C(m, i) is log-concave;
* unimodal:           weakly rises to a peak, then weakly falls;
* internal zero:      a zero entry strictly between two nonzero entries;
* pairwise log-concave:  a_i a_{j-1} >= a_{i-1} a_j for all 1 <= i <= j <= n
  (equivalent to log-concavity for nonnegative sequences without internal
  zeros; the equivalence is exercised by the test suite).

Each predicate returns a :class:`SequenceReport` carrying the verdict and, on
failure, the lexicographically first witness index tuple, so a failed check
can always be replayed by hand.  Predicates whose definition only makes sense
for nonnegative sequences reject negative entries instead of guessing a sign
convention.

``check_transfer`` wires the predicates to :func:`gammacert.polycore.gamma_to_h`
and records the implication "gamma log-concave without internal zeros implies
h log-concave without internal zeros"; its ``violation`` flag can never be
True (that is the theorem), and sweeps in the test suite re-verify this on
tens of thousands of instances.  ``check_ulc_transfer`` reads the same
implication with ultra log-concavity as the shape (order floor(n/2) on gamma,
order n on h); both return a :class:`TransferReport`.  The h shape reads only
h_0 .. h_{n//2+1}: h is palindromic, so the inequality at t compares the same
entries as the one at n - t, with the same ULC weights t(n-t) and
(t+1)(n-t+1), and the first violation always lies in the first half.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import NegativeEntryError, RangeError, Record, check_work
from .polycore import GammaVector, SymmetricPolynomial, gamma_to_h, rational_vector

Entries = Sequence[int | str | Fraction]


class SequenceReport(Record):
    """Outcome of a single predicate: verdict, predicate name, witness.

    ``witness`` is None when the verdict is True; otherwise it is the index
    tuple of the first violated inequality (what the indices mean is specific
    to ``kind`` and documented on each predicate).
    """

    kind: str
    verdict: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.verdict


def _checked(values: Entries, kind: str) -> tuple[Fraction, ...]:
    a = rational_vector(values)
    for i, v in enumerate(a):
        if v < 0:
            raise NegativeEntryError(i, f"{kind} requires nonnegative entries; entry {i} is {v}")
    return a


def is_log_concave(values: Entries) -> SequenceReport:
    """a_i^2 >= a_{i-1} a_{i+1} for all interior i; witness is (i,)."""
    a = _checked(values, "log-concavity")
    for i in range(1, len(a) - 1):
        if a[i] * a[i] < a[i - 1] * a[i + 1]:
            return SequenceReport("log-concave", False, (i,))
    return SequenceReport("log-concave", True)


def has_internal_zeros(values: Entries) -> SequenceReport:
    """True iff some zero lies strictly between two nonzero entries.

    Witness is the lexicographically first triple (i, k, j) with
    a_i != 0, a_k == 0, a_j != 0 and i < k < j.
    """
    a = rational_vector(values)
    support = [t for t, v in enumerate(a) if v != 0]
    if len(support) >= 2:
        first, last = support[0], support[-1]
        for k in range(first + 1, last):
            if a[k] == 0:
                j = next(t for t in range(k + 1, last + 1) if a[t] != 0)
                return SequenceReport("internal-zeros", True, (first, k, j))
    return SequenceReport("internal-zeros", False)


def is_ultra_log_concave(values: Entries, m: int) -> SequenceReport:
    """Log-concavity of a_i / C(m, i), checked by binomial ratios.

    Tested as a_i^2 i(m-i) >= a_{i-1} a_{i+1} (i+1)(m-i+1), which is exact:
    C(m,i-1) C(m,i+1) = C(m,i)^2 i(m-i) / ((i+1)(m-i+1)), and all of these
    are positive for 1 <= i <= len-2 <= m-1.  Linear in the length.  Witness (i,).
    """
    a = _checked(values, "ultra log-concavity")
    if m < len(a) - 1:
        raise RangeError(f"order m={m} too small for a sequence of length {len(a)}")
    for i in range(1, len(a) - 1):
        if a[i] * a[i] * (i * (m - i)) < a[i - 1] * a[i + 1] * ((i + 1) * (m - i + 1)):
            return SequenceReport("ultra-log-concave", False, (i,))
    return SequenceReport("ultra-log-concave", True)


def is_unimodal(values: Entries) -> SequenceReport:
    """Weakly increasing then weakly decreasing.

    Witness is (i, j): a strict descent at i followed by a strict ascent at j.
    """
    a = rational_vector(values)
    descent = None
    for t in range(len(a) - 1):
        if a[t] > a[t + 1]:
            if descent is None:
                descent = t
        elif a[t] < a[t + 1] and descent is not None:
            return SequenceReport("unimodal", False, (descent, t))
    return SequenceReport("unimodal", True)


def pairwise_log_concave(values: Entries) -> SequenceReport:
    """a_i a_{j-1} >= a_{i-1} a_j for all 1 <= i <= j <= n; witness (i, j).

    Its len**2 / 2 pairs take up to about 5 us each; above
    ``errors.WORK_LIMIT`` (632 entries) it is refused with ``RangeError``
    before the first pair.
    """
    a = _checked(values, "pairwise log-concavity")
    check_work(2500 * len(a) ** 2, f"pairwise log-concavity of {len(a)} entries")
    for i in range(1, len(a)):
        for j in range(i, len(a)):
            if a[i] * a[j - 1] < a[i - 1] * a[j]:
                return SequenceReport("pairwise-log-concave", False, (i, j))
    return SequenceReport("pairwise-log-concave", True)


class TransferReport(Record):
    """Verdicts for one instance of a shape transfer from gamma to h.

    ``gamma_shape`` and ``h_shape`` are the shape predicate's reports; their
    ``kind`` says which shape was checked ("log-concave" for
    :func:`check_transfer`, "ultra-log-concave" for :func:`check_ulc_transfer`).
    """

    n: int
    gamma_shape: SequenceReport
    gamma_internal_zeros: SequenceReport
    h_shape: SequenceReport
    h_internal_zeros: SequenceReport
    h: SymmetricPolynomial

    @property
    def hypothesis(self) -> bool:
        return self.gamma_shape.verdict and not self.gamma_internal_zeros.verdict

    @property
    def conclusion(self) -> bool:
        return self.h_shape.verdict and not self.h_internal_zeros.verdict

    @property
    def violation(self) -> bool:
        """True would disprove the transfer theorem; must never happen."""
        return self.hypothesis and not self.conclusion


def _transfer(g: GammaVector, shape: Callable[[Entries, int], SequenceReport]) -> TransferReport:
    """Check ``shape(gamma, floor(n/2))`` without internal zeros => ``shape(h, n)`` likewise.

    ``gamma_to_h`` runs first, so an n above the work limit is refused at once;
    a negative gamma entry then raises ``NegativeEntryError`` from the gamma shape.

    The h shape runs on h_0 .. h_{n//2+1} only.  ``gamma_to_h`` mirrors h, so
    h_t = h_{n-t}, and the inequality at t and the one at n - t compare the
    same entries (h_t^2 against h_{t-1} h_{t+1}); the order-n ULC weights
    t(n-t) and (t+1)(n-t+1) are symmetric too.  The violated indices are thus
    symmetric about n/2, the first of them is at most n/2, and the half gives
    the full vector's kind, verdict and witness.  The internal-zero check
    still reads all of h.
    """
    h = gamma_to_h(g)
    gamma_shape = shape(g.gamma, g.n // 2)
    return TransferReport(
        n=g.n,
        gamma_shape=gamma_shape,
        gamma_internal_zeros=has_internal_zeros(g.gamma),
        h_shape=shape(h.h[: g.n // 2 + 2], g.n),
        h_internal_zeros=has_internal_zeros(h.h),
        h=h,
    )


def check_transfer(g: GammaVector) -> TransferReport:
    """Check the implication: gamma LC without internal zeros => h likewise.

    Only the forward implication is meaningful; the converse is false in
    general, so no flag is raised when h satisfies the conclusion but gamma
    fails the hypothesis.
    """
    return _transfer(g, lambda seq, order: is_log_concave(seq))


def check_ulc_transfer(g: GammaVector) -> TransferReport:
    """Instance check: gamma ULC of order floor(n/2) => h ULC of order n."""
    return _transfer(g, is_ultra_log_concave)
