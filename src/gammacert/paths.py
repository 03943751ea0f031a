"""North-east lattice paths and the constructive certificate for the
weight-r coefficient-sum inequality.

Fix n, i with 0 <= 2i <= n and a weight r >= 0, and write

    lhs(r) = sum_{j+k=r, j,k>=0} C(n-2j, i-j)   C(n-2k, i-k)
    rhs(r) = sum_{j+k=r, j,k>=0} C(n-2j, i-1-j) C(n-2k, i+1-k).

Their difference equals ``coefficients.diagonal_sum(n, i, r)``.  This module
proves lhs(r) - rhs(r) >= 0 constructively through a path model.  Put

    O = (0, 0),   D = (2n-2i-r, 2i-r),
    base diagonal     P  = (n-2i,   0) .. Q  = (n-i,   i)    on x - y = n-2i,
    shifted diagonal  P' = (n-2i+2, 0) .. Q' = (n-i+1, i-1)  on x - y = n-2i+2.

Each product in lhs(r) counts paths O -> A -> D through one base-diagonal
lattice point A = P + (u, u), u = i - j, so lhs(r) equals the total number
of (path O to D, visited base point) incidences; rhs(r) is the same count
for the shifted diagonal, v = i - 1 - j.  The certificate reports the
binomial sums, and the walker counts the incidences.
The difference decomposes into visibly nonnegative pieces:

  * paths that never touch the shifted diagonal contribute their full number
    of base-diagonal visits;
  * every other path touches the base diagonal first (the crossing claim),
    and grouping by R = first base touch, R' = last shifted touch splits it
    into three independent legs O->R, R->R', R'->D; a 180-degree rotation of
    the middle leg exchanges base and shifted visits (the rotation balance),
    so only the final leg's base visits survive, and those are counted by a
    plain sum of nonnegative terms.

The path model matches the j,k >= 0 sums exactly when r >= i: then every
base point below the j <= r window sits beyond D and is unreachable, so the
incidence count discards it automatically.  For r < i the point D lies above
Q, low base points are reachable, and the incidence sums strictly exceed
lhs(r)/rhs(r); the path-based operations therefore refuse r < i rather than
return numbers that do not mean what the caller asked for.  (The inequality
itself still holds for r < i; the coefficient-level sweeps cover that range.)
For r > 2i the point D drops below the axis, nothing is reachable, and both
sides are zero.

The two diagonals are stated by their bottom points P and P' and their
lengths i + 1 and i: point u of each is its bottom point plus (u, u).  The
checks read only the points inside a rectangle, whose run ``_inside`` finds
from the bounds alone, and ``_points`` lists; ``PathConfig.base`` and
``.shifted`` read it over the whole diagonal.

The rotation lemma.  Write d = n - 2i, so that base[u] = (d+u, u) and
shifted[v] = (d+2+v, v).  Take a rectangle R = base[s] -> R' = shifted[t]
with s <= t and its corner c = R + R'.  The point map v -> c - v is the
180-degree rotation of the rectangle onto itself, and c has x - y = 2d + 2,
so the map sends x - y = d onto x - y = d + 2: base[u] goes to
shifted[s+t-u], and the base points inside (u = s..t) go onto the shifted
points inside, in reverse order.  A rotated path (its step word reversed)
visits c - v exactly when the path visits v, and the rotation permutes the
paths R -> R', so over them base visits and shifted visits are equal in
number (Krattenthaler, "Lattice path enumeration", 2015).  One function,
``_check_point_map``, checks the point map on a rectangle; the certificate
relies on it for its middle legs, and ``check_rotation_balance`` runs it
beside the walked tallies, the lemma's independent oracle.

The translation lemma.  The map v -> v + (s, s) sends base[u] to base[u+s]
and shifted[v] to shifted[v+s], so it carries the paths of base[0] ->
shifted[w] one-to-one onto those of base[s] -> shifted[s+w], visits onto
visits: all rectangles of one width t - s carry the same visit totals.

The crossing lemma.  A path's x - y moves by one a step from 0 <= d, so a
path that reaches x - y = d + 2 meets x - y = d at or below its first
shifted touch, and that point is on P..Q.

``build_certificate`` counts instead of enumerating.  ``_first_passage``
makes one forward pass from O and one backward pass from D over the cells of
the O -> D rectangle, carrying four first-passage counts per cell and keeping
those at the diagonal points and D; every certificate term is a product of
those counts and binomials.  The crossing claim, the rotation lemma's point
map on the middle legs (once per group width, by the translation lemma) and
the total are checked as invariants.  The cost is polynomial: about 700 ns a
cell for the passes, 0.5 to 2 us a group (R, R') for the point maps, N2
values and boundary products, growing with the bit length of the counts,
and the binomial sums.  Like every counting operation, the certificate
refuses work above ``errors.WORK_LIMIT`` (about a second) before it starts.

Exhaustive enumeration is the certificate's independent oracle, and one
walker serves every exhaustive check.  ``_visits`` gives, for every path
a -> b, the four facts the checks read: its base and shifted visit counts,
its first base point and its last shifted point.  It reads them off the
path's E-step layout rather than its vertices: a diagonal point meets each
column in one cell, reached at one known step, and the layout tells in which
steps the path stands in that column, so a half-path costs O(points inside)
comparisons, not O(n) steps.  Every family is walked meet-in-the-middle: each
path is a prefix half joined to a suffix half at the anti-diagonal through
its middle step, the suffixes of each midpoint are read once, and a path
costs two additions and two choices.  Each path gets its own record, though
not in ``_layouts`` order; no check depends on the order.
``check_crossing_claim`` walks O -> D once, checks the claim on every path
and reports the visit totals that ``lhs_by_paths`` and ``rhs_by_paths``
return; ``check_rotation_balance`` checks the point map and walks the visit
tallies once per width, on base[0] -> shifted[w].  The vertex API
(``enumerate_paths``, ``LatticePath.vertices``, ``rotate_180``,
``segment_intersections``) serves drawing (``certify --ascii``), demo 03 and
the tests, which hold the walker and the certificate equal to it.  Path
families grow binomially, so each of these entry points charges its whole
walk to the one work limit before the first path: the family's path count
times a cost a path and a step calibrated for the walk that consumes it
(``_walk_work``), and for the walker each midpoint's set-up
(``_visits_work``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .errors import EndpointError, EntryError, InternalCheckError, RangeError, Record, check_work
from .polycore import basis_row, binomial

Point = tuple[int, int]
# A cell's four first-passage counts (see ``_first_passage``).
Counts = tuple[int, int, int, int]

_STEPS = {"E": (1, 0), "N": (0, 1)}


class LatticePath(Record):
    """A north-east path: a start point and a string of 'E'/'N' unit steps."""

    start: Point
    steps: str

    def __post_init__(self):
        bad = set(self.steps) - set("EN")
        if bad:
            raise RangeError(f"steps must be 'E' or 'N', got {sorted(bad)}")

    @property
    def end(self) -> Point:
        return (self.start[0] + self.steps.count("E"), self.start[1] + self.steps.count("N"))

    def vertices(self) -> list[Point]:
        x, y = self.start
        out = [(x, y)]
        for s in self.steps:
            dx, dy = _STEPS[s]
            x += dx
            y += dy
            out.append((x, y))
        return out


def count_paths(a: Point, b: Point) -> int:
    """Number of north-east paths from a to b: C(dx+dy, dy), or 0 if b is not
    weakly north-east of a.

    The binomial costs about bits**2 / 64 ns, bits from ``_count_bits``; a
    count above ``errors.WORK_LIMIT`` of that is refused with ``RangeError``
    before it is computed (C(2k, k) is served to about k = 125,000).
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    if min(dx, dy) > 0:
        check_work(_count_bits(dx, dy) ** 2 // 64, f"the path count {a} -> {b}")
    return _count_paths(a, b)


def _count_bits(dx: int, dy: int) -> int:
    """A bound on the bit length of C(dx+dy, dy), found without computing
    it, which can take far longer than the limit (10.8 s at n = 10**6): the
    path length L, and min(dx, dy) * L.bit_length(), as C(L, k) <= L**k."""
    length = dx + dy
    return min(length, min(dx, dy) * length.bit_length())


def _count_paths(a: Point, b: Point) -> int:
    """:func:`count_paths` unbounded, for the certificate and ``_walk_work``,
    which charge their work before they count; ``binomial`` gives the 0."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    return binomial(dx + dy, dy)


def _walk_work(a: Point, b: Point, per_path: int, per_step: int) -> int:
    """Work units (see ``errors.WORK_LIMIT``) of a walk over every path
    a -> b that spends ``per_path`` ns a path and ``per_step`` ns on each of
    its steps.

    A family whose shorter side has k steps holds at least 2**k paths.  From
    k = 64 on it is charged 2**64 paths, far above any limit, without being
    counted: the binomial alone can take minutes (45 s for C(2*10**6, 10**6)).
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    paths = _count_paths(a, b) if min(dx, dy) < 64 else 1 << 64
    return paths * (per_path + per_step * (dx + dy))


def _layouts(a: Point, b: Point) -> Iterator[tuple[int, ...]]:
    """Every step layout a -> b as the sorted tuple of its E-step positions.

    Iterating combinations of E positions in their natural order yields the
    step strings in lexicographic order with E < N.  The iterator is
    ``combinations``' own, with no generator frame between it and the walk;
    the callers charge the walk to the work limit before they take it.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx < 0 or dy < 0:
        return iter(())
    return combinations(range(dx + dy), dx)


def enumerate_paths(a: Point, b: Point) -> Iterator[LatticePath]:
    """Yield every path from a to b exactly once, lexicographically with E < N.

    A family of more than ``errors.WORK_LIMIT`` work (about 40 ns a step
    beyond 1.8 us a path, and 100 ns a step once, which a family of one long
    path needs) is refused with ``RangeError`` before the first path.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    once = 100 * (dx + dy) if min(dx, dy) >= 0 else 0
    check_work(_walk_work(a, b, 1800, 40) + once, f"the paths {a} -> {b}")
    for epos in _layouts(a, b):
        chars = ["N"] * (dx + dy)
        for t in epos:
            chars[t] = "E"
        yield LatticePath(a, "".join(chars))


def segment_intersections(path: LatticePath, points: tuple[Point, ...]) -> list[Point]:
    """The diagonal ``points`` the path visits, in path order.

    Only vertices count; slope-1 segments carry no lattice points in the
    interiors of unit steps, so there is nothing else to count.
    """
    return [v for v in path.vertices() if v in points]


class PathConfig(Record):
    """Geometry for one (n, i, r) instance of the inequality.  Each parameter
    is an ``int`` (not a ``bool``), else ``EntryError``."""

    n: int
    i: int
    r: int

    def __post_init__(self):
        if not (type(self.n) is type(self.i) is type(self.r) is int):
            raise EntryError(f"n, i and r must be int; got n={self.n!r}, i={self.i!r}, r={self.r!r}")
        if self.n < 0 or self.i < 0 or 2 * self.i > self.n or self.r < 0:
            raise RangeError(f"need 0 <= i <= n/2 and r >= 0; got n={self.n}, i={self.i}, r={self.r}")

    @property
    def origin(self) -> Point:
        return (0, 0)

    @property
    def dest(self) -> Point:
        return (2 * self.n - 2 * self.i - self.r, 2 * self.i - self.r)

    @property
    def p(self) -> Point:
        return (self.n - 2 * self.i, 0)

    @property
    def q(self) -> Point:
        return (self.n - self.i, self.i)

    @property
    def p_prime(self) -> Point:
        return (self.n - 2 * self.i + 2, 0)

    @property
    def q_prime(self) -> Point:
        return (self.n - self.i + 1, self.i - 1)

    @property
    def base(self) -> tuple[Point, ...]:
        """P..Q, on x - y = n-2i, bottom to top; i+1 lattice points."""
        return tuple(_points(self, self.origin, (self.n, self.i))[0])

    @property
    def shifted(self) -> tuple[Point, ...]:
        """P'..Q', on x - y = n-2i+2, bottom to top; i lattice points (none when i = 0)."""
        return tuple(_points(self, self.origin, (self.n, self.i))[1])

    @property
    def path_count(self) -> int:
        return count_paths(self.origin, self.dest)


def formula_work(cfg: PathConfig) -> int:
    """Work units (see ``errors.WORK_LIMIT``) of ``lhs_by_formula`` and
    ``rhs_by_formula`` together: the j in max(0, r-i-1) .. min(r, i), each a
    term of four binomials C(<= n, <= i), at most about n*i/2 ns."""
    n, i, r = cfg.n, cfg.i, cfg.r
    return max(0, min(r, i) - max(0, r - i - 1) + 1) * (n * i // 2)


def _formula_sum(cfg: PathConfig, shift: int) -> int:
    """sum over j+k=r, j,k >= 0 of C(n-2j, i-shift-j) C(n-2k, i+shift-k),
    over the j where neither lower index is negative; the others vanish."""
    n, i, r = cfg.n, cfg.i, cfg.r
    check_work(formula_work(cfg), f"the binomial sums at n={n}, i={i}, r={r}")
    js = range(max(0, r - i - shift), min(r, i - shift) + 1)
    return sum(x * y for x, y in zip(basis_row(n, i - shift, js), basis_row(n, i + shift, [r - j for j in js])))


def lhs_by_formula(cfg: PathConfig) -> int:
    """sum over j+k=r, j,k >= 0 of C(n-2j, i-j) C(n-2k, i-k)."""
    return _formula_sum(cfg, 0)


def rhs_by_formula(cfg: PathConfig) -> int:
    """sum over j+k=r, j,k >= 0 of C(n-2j, i-1-j) C(n-2k, i+1-k)."""
    return _formula_sum(cfg, 1)


def _require_path_domain(cfg: PathConfig) -> None:
    if cfg.r < cfg.i:
        raise RangeError(
            f"path-based evaluation needs r >= i (got r={cfg.r}, i={cfg.i}): for r < i the "
            f"endpoint D lies above Q and reachable low base points break the incidence count"
        )


def _inside(a: Point, b: Point, bottom: Point, count: int, first_step: int = 0) -> range:
    """The run of u < count whose point bottom + (u, u) lies inside a -> b,
    reached at step 2u - x - y >= ``first_step``, where (x, y) = a - bottom:
    found from the bounds."""
    x, y = a[0] - bottom[0], a[1] - bottom[1]
    return range(max(0, x, y, (x + y + first_step + 1) // 2), min(count, b[0] - bottom[0] + 1, b[1] - bottom[1] + 1))


def _points(cfg: PathConfig, a: Point, b: Point, first_step: int = 0) -> list:
    """The base and the shifted points ``_inside`` a -> b, bottom to top."""
    sides = ((cfg.p, cfg.i + 1), (cfg.p_prime, cfg.i))
    return [[(x + u, y + u) for u in _inside(a, b, (x, y), count, first_step)] for (x, y), count in sides]


def _visits(cfg: PathConfig, a: Point, b: Point) -> Iterator:
    """For every path a -> b, the four facts the checks read: one record
    (base count, shifted count, first base point, last shifted point) a
    path, with None for a point the path does not visit.

    Every family is composed of halves that meet on the anti-diagonal
    through step m = length // 2: for each midpoint c, every path a -> c
    joined to every path c -> b.  The suffixes c -> b are read once per
    midpoint, as records of their points past c, since the prefix already
    counts a visit at c; each prefix streamed from ``_layout_visits`` then
    costs two additions and two choices per suffix instead of a comparison
    per diagonal point.  Records come midpoint by midpoint, not in
    ``_layouts`` order.  A family with no path has no midpoint.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    m = (dx + dy) // 2
    for k in range(max(0, m - dy), min(dx, m) + 1):
        c = (a[0] + k, a[1] + m - k)
        suffixes = list(_layout_visits(cfg, c, b, 1))
        # Points are non-empty tuples: ``or`` takes the first that exists.
        for base, shifted, first_base, last_shifted in _layout_visits(cfg, a, c):
            for tail_base, tail_shifted, tail_first, tail_last in suffixes:
                yield base + tail_base, shifted + tail_shifted, first_base or tail_first, tail_last or last_shifted


def _layout_visits(cfg: PathConfig, a: Point, b: Point, first_step: int = 0) -> Iterator:
    """The records of ``_visits`` for every half-path a -> b, read directly
    in ``_layouts`` order, of the points reached at ``first_step`` or later
    (1 leaves a out).

    Each visit is read off the path's E-step layout instead of its vertices.
    A segment point (x, y) inside the rectangle a -> b lies in column
    k = x - a_x and can only be reached at step t = k + (y - a_y); a path
    stands in column k for exactly the steps t with east[k] < t <= east[k+1],
    where east = (-1, *layout, length).  The points, ``_points`` a -> b, are
    built once per call, bottom to top, which is also path order, so each
    path costs one bounds comparison per point inside.
    The scan counts the visits, keeps the first base point and overwrites
    the last shifted point.
    """
    (ax, ay), length = a, (b[0] - a[0]) + (b[1] - a[1])
    base, shifted = _points(cfg, a, b, first_step)
    for layout in _layouts(a, b):
        east = (-1, *layout, length)
        base_count = shifted_count = 0
        first_base = last_shifted = None
        # Plain loops: a comprehension here costs a function call per path.
        for point in base:
            k = point[0] - ax
            if east[k] < k + point[1] - ay <= east[k + 1]:
                base_count += 1
                first_base = first_base or point
        for point in shifted:
            k = point[0] - ax
            if east[k] < k + point[1] - ay <= east[k + 1]:
                shifted_count += 1
                last_shifted = point
        yield base_count, shifted_count, first_base, last_shifted


def _where(cfg: PathConfig, r_point: Point | None = None, rp_point: Point | None = None) -> dict:
    """The ``InternalCheckError.context`` of a failed check on cfg, naming
    the group or rectangle (R, R') when one is involved."""
    context = {"n": cfg.n, "i": cfg.i, "r": cfg.r}
    if r_point is not None:
        context.update({"R": r_point, "R'": rp_point})
    return context


class CrossingReport(Record):
    """Tally from verifying the crossing claim over every path O -> D, with
    the visits the same walk counted: lhs(r) and rhs(r) as incidence sums."""

    paths_total: int
    paths_touching_shifted: int
    base_visits: int
    shifted_visits: int


def _visits_work(a: Point, b: Point) -> int:
    """Work units (see ``errors.WORK_LIMIT``) of ``_visits`` over the paths
    a -> b, fitted in ``errors``: 950 ns a path and 14 ns a step for the
    records (one join and at most two half-records a path), and for each of
    the min(dx, dy) + 1 or fewer midpoints 250 ns a step to set up its two
    half-path reads, which build a layout range and the diagonal points
    inside, at most two a column.  The set-ups dominate a family of one
    path."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    return _walk_work(a, b, 950, 14) + max(0, min(dx, dy) + 1) * 250 * (dx + dy)


def _charge_crossing_walk(cfg: PathConfig) -> None:
    """Refuse the walk of :func:`check_crossing_claim` above the limit."""
    check_work(_visits_work(cfg.origin, cfg.dest), f"the path walk at n={cfg.n}, i={cfg.i}, r={cfg.r}")


def check_crossing_claim(cfg: PathConfig) -> CrossingReport:
    """Every path touching the shifted diagonal touches the base one first.

    Also verifies the ordering refinement used by the certificate: the first
    base touch lies weakly south-west of the last shifted touch.  A violation
    raises ``InternalCheckError`` and can only mean a bug.  One walk over the
    family checks every path and tallies the report; a walk of more than
    ``errors.WORK_LIMIT`` work (``_visits_work``) is refused with
    ``RangeError`` before the first path.
    """
    _require_path_domain(cfg)
    _charge_crossing_walk(cfg)
    paths = base_visits = shifted_visits = touching = 0
    for base, shifted, first_base, last_shifted in _visits(cfg, cfg.origin, cfg.dest):
        paths += 1
        base_visits += base
        shifted_visits += shifted
        if not shifted:
            continue
        touching += 1
        if not base:
            raise InternalCheckError("claim-violation", "path touches P'Q' but not PQ", _where(cfg))
        if not (first_base[0] <= last_shifted[0] and first_base[1] <= last_shifted[1]):
            raise InternalCheckError(
                "claim-violation",
                f"first base touch {first_base} not below last shifted touch {last_shifted}",
                _where(cfg, first_base, last_shifted),
            )
    return CrossingReport(paths, touching, base_visits, shifted_visits)


def lhs_by_paths(cfg: PathConfig) -> int:
    """lhs(r) recomputed by exhaustive enumeration: total base-diagonal visits."""
    return check_crossing_claim(cfg).base_visits


def rhs_by_paths(cfg: PathConfig) -> int:
    """rhs(r) recomputed by exhaustive enumeration: total shifted-diagonal visits."""
    return check_crossing_claim(cfg).shifted_visits


def rotate_180(path: LatticePath, lo: Point, hi: Point) -> LatticePath:
    """Rotate a path by 180 degrees inside the rectangle spanned by lo and hi.

    The rotation about the rectangle's barycenter maps vertex (x, y) to
    (lo_x + hi_x - x, lo_y + hi_y - y), which on step sequences is plain
    reversal.  Applying it twice gives back the original path.
    """
    if path.start != lo or path.end != hi:
        raise EndpointError(f"path runs {path.start} -> {path.end}, expected {lo} -> {hi}")
    return LatticePath(lo, path.steps[::-1])


class RotationBalanceReport(Record):
    """Tally from verifying the rotation balance over all rectangles."""

    rectangles: int
    paths_checked: int


def _charge_rotation_walk(cfg: PathConfig) -> None:
    """Refuse the walks of :func:`check_rotation_balance` above the limit."""
    work = sum(_visits_work((0, 0), (w + 2, w)) for w in range(min(cfg.i, 64)))
    check_work(work, f"the rotation walk at n={cfg.n}, i={cfg.i}")


def _check_point_map(cfg: PathConfig, rb: Point, rp: Point) -> None:
    """The rotation lemma (module docstring) on the rectangle rb -> rp, with
    no walk: v -> c - v, c = rb + rp, must send the base points inside onto
    the shifted points inside, in reverse order.  Raises ``InternalCheckError``
    otherwise."""
    corner = (rb[0] + rp[0], rb[1] + rp[1])
    base, shifted = _points(cfg, rb, rp)
    if [(corner[0] - x, corner[1] - y) for x, y in reversed(base)] != shifted:
        raise InternalCheckError(
            "claim-violation",
            f"v -> {corner} - v does not map the base points of {rb} -> {rp} onto its shifted points",
            _where(cfg, rb, rp),
        )


def check_rotation_balance(cfg: PathConfig) -> RotationBalanceReport:
    """For every rectangle R = base[s], R' = shifted[t] with s <= t (the
    certificate's groups), check that paths R -> R' carry as many base
    visits in total as shifted visits.

    By the translation lemma (module docstring) each width w = t - s is
    checked once, on base[0] -> shifted[w], and counted for its i - w
    rectangles.  The rotation lemma's point map is checked with no walk: c
    minus the base points inside must be the shifted points inside, in
    reverse order.  The walk only tallies the paths and visits, and the two
    totals are the lemma's independent oracle.  The i walks are charged as
    the ``_visits`` walks they are (``_visits_work``), C(2w+2, w) paths of
    2w+2 steps a width, and above ``errors.WORK_LIMIT`` refused with
    ``RangeError`` before the first path; widths from 64 on are not charged,
    as width 63 alone holds more than 2**64 paths.
    """
    _charge_rotation_walk(cfg)
    rb, paths_checked = cfg.p, 0
    for w, rp in enumerate(cfg.shifted):
        _check_point_map(cfg, rb, rp)
        family = base_total = shifted_total = 0
        for base, shifted, _, _ in _visits(cfg, rb, rp):
            family += 1
            base_total += base
            shifted_total += shifted
        if base_total != shifted_total:
            raise InternalCheckError(
                "claim-violation",
                f"rectangle {rb} -> {rp}: base visits {base_total} != shifted visits {shifted_total}",
                _where(cfg, rb, rp),
            )
        paths_checked += (cfg.i - w) * family
    return RotationBalanceReport(cfg.i * (cfg.i + 1) // 2, paths_checked)


class Certificate(Record):
    """The nonnegative decomposition of lhs - rhs, itemized per path class.

    ``lhs`` and ``rhs`` are the binomial sums lhs(r) and rhs(r), whose
    difference ``total`` is checked against while building.  Term by term
    they are the incidence sums of the base and shifted diagonals, sum over A
    of paths O->A times paths A->D, which ``check_crossing_claim`` counts as
    visits and ``sweep_path_identities`` holds equal to them.

    ``avoiding_term`` collects base visits of paths that never touch the
    shifted diagonal.  ``boundary_terms`` lists (R, R', count) for each group
    of paths with first base touch R and last shifted touch R' whose net
    contribution is nonzero; each count is the three-leg product N1 * N2 * S3
    of nonnegative path counts, so it is nonnegative by construction.
    """

    n: int
    i: int
    r: int
    lhs: int
    rhs: int
    avoiding_term: int
    boundary_terms: tuple[tuple[Point, Point, int], ...]
    total: int
    path_count: int
    contributing_paths: int
    avoiding_contributing: int


def _through(mark: str | None, counts: Counts) -> Counts:
    """Extend a cell's first-passage counts (see ``_first_passage``) to
    count the cell itself, by its mark: a "base" visit adds one visit to
    every path and ends the base-free ones, a "shifted" visit ends the
    shifted-free ones, and an unmarked cell (None) changes nothing."""
    free_of_shifted, visits, hit, free_of_base = counts
    if mark == "base":
        return free_of_shifted, visits + free_of_shifted, free_of_shifted, 0
    if mark == "shifted":
        return 0, 0, 0, free_of_base
    return counts


def _first_passage(cfg: PathConfig, marks: dict, forward: bool) -> dict[Point, Counts]:
    """One pass over the cells v of the O -> D rectangle, from O (forward) or
    from D (backward).  Over the paths O -> v (forward) or v -> D (backward),
    and counting visits strictly before (after) v, a cell's counts are

        (paths with no shifted visit, their base visits,
         how many of those have a base visit, paths with no base visit).

    Returns them at the cells the certificate reads, the keys of ``marks``,
    whose marks ``_through`` applies.  The pass itself holds one column.
    """
    x_max, y_max = cfg.dest
    xs, ys = range(x_max + 1), range(y_max + 1)
    if not forward:
        xs, ys = xs[::-1], ys[::-1]
    table: dict[Point, Counts] = {}
    if not ys:
        return table
    # column[y] holds the counts through the previous cell in row y; the
    # start cell receives the empty path from a virtual cell before it.
    column = [(0, 0, 0, 0)] * (y_max + 1)
    column[ys[0]] = (1, 0, 0, 1)
    for x in xs:
        prior = (0, 0, 0, 0)
        for y in ys:
            side = column[y]
            counts = (side[0] + prior[0], side[1] + prior[1], side[2] + prior[2], side[3] + prior[3])
            if (x, y) in marks:
                table[x, y] = counts
                counts = _through(marks[x, y], counts)
            prior = column[y] = counts
    return table


def _certificate_work(cfg: PathConfig, reached: int) -> int:
    """Work units (see ``errors.WORK_LIMIT``) of ``build_certificate`` with
    ``reached`` shifted points inside the O -> D rectangle: the two passes,
    about 700 ns a cell plus additions of the path count's bits (bounded by
    ``_count_bits``); 2000 ns a group plus one per two of those bits, for
    the point maps, N2 values and boundary products; the binomial sums.
    """
    dx, dy = cfg.dest
    if dy < 0:
        return formula_work(cfg)
    bits, groups = _count_bits(dx, dy), reached * (reached + 1) // 2
    return (dx + 1) * (dy + 1) * (700 + bits // 16) + groups * (2000 + bits // 2) + formula_work(cfg)


def build_certificate(cfg: PathConfig) -> Certificate:
    """Assemble the nonnegative decomposition by first-passage counting.

    A group (R, R') counts N1 * N2 * S3: N1 paths O->R meeting the base
    diagonal only at R (the forward base-free count at R), N2 free middle legs
    R->R' (a binomial), and S3 base visits over the legs R'->D meeting the
    shifted diagonal only at R' (the backward counts at R').  The avoiding term and its paths are
    read off the forward counts through D.  Verifies, while building: the
    crossing claim (no path reaches the shifted diagonal before the base one),
    the rotation lemma's point map on each width's middle legs, which gives
    their balance, and total = lhs(r) - rhs(r) by the binomial sums.  Any
    failure raises ``InternalCheckError``; none can occur.  Work above
    ``errors.WORK_LIMIT`` is refused with ``RangeError`` before any table
    is built.
    """
    _require_path_domain(cfg)
    o, d = cfg.origin, cfg.dest
    reached = len(_inside(o, d, cfg.p_prime, cfg.i))
    check_work(_certificate_work(cfg, reached), f"the certificate at n={cfg.n}, i={cfg.i}, r={cfg.r}")
    base, shifted = _points(cfg, o, d)
    marks = {d: None, **dict.fromkeys(base, "base"), **dict.fromkeys(shifted, "shifted")}
    before = _first_passage(cfg, marks, forward=True)
    after = _first_passage(cfg, marks, forward=False)

    early = sum(before[s][3] for s in shifted)
    if early:
        raise InternalCheckError("claim-violation", f"{early} paths reach P'Q' before PQ", _where(cfg))

    # Base point s and shifted point t bound a group exactly when s <= t.
    # By the translation lemma every group of one width t - s has the same
    # middle legs, so their point map and N2 are computed once, on base[0] ->
    # shifted[t - s]; the rotation lemma then balances their visits.
    middle, r_point = [], cfg.p
    for rp_point in shifted:
        _check_point_map(cfg, r_point, rp_point)
        middle.append(_count_paths(r_point, rp_point))

    boundary, tail_contributing = [], 0
    for s, r_point in enumerate(base):
        free = before[r_point][3]
        for rp_point, n2 in zip(shifted[s:], middle):
            legs = free * n2
            _, s3, hit, _ = after[rp_point]
            count = legs * s3
            if count:
                boundary.append((r_point, rp_point, count))
            tail_contributing += legs * hit

    _, avoiding, avoiding_contributing, _ = _through(marks[d], before[d]) if d in before else (0, 0, 0, 0)
    total = avoiding + sum(c for *_, c in boundary)
    lhs, rhs = lhs_by_formula(cfg), rhs_by_formula(cfg)
    if total != lhs - rhs:
        raise InternalCheckError("decomposition-mismatch", f"total {total} != lhs - rhs = {lhs - rhs}", _where(cfg))
    return Certificate(
        n=cfg.n,
        i=cfg.i,
        r=cfg.r,
        lhs=lhs,
        rhs=rhs,
        avoiding_term=avoiding,
        boundary_terms=tuple(boundary),
        total=total,
        path_count=_count_paths(o, d),
        contributing_paths=avoiding_contributing + tail_contributing,
        avoiding_contributing=avoiding_contributing,
    )
