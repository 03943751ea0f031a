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
lattice point A, so lhs(r) equals the total number of (path O to D, visited
base point) incidences; rhs(r) is the same count for the shifted diagonal.
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

Every path-family computation reads one walker, ``_visits``: for each path
a -> b it lists the path's base and shifted visits as (step, point) pairs in
path order.  A vertex (x, y) is a base visit when x - y = n-2i and y <= i,
and a shifted visit when x - y = n-2i+2 and y <= i-1; paths never go below
y = 0, so these integer tests are exactly membership in the two segments.
One survey pass of the walker over O -> D checks the crossing claim on every
path and tallies what ``lhs_by_paths``, ``rhs_by_paths``,
``check_crossing_claim`` and ``build_certificate`` report; the certificate
then re-derives each boundary group from walks over its first and last legs.

Enumeration is honest and exhaustive, guarded by a configurable cap
(default 10**7 paths) since path families grow binomially.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import EndpointError, InternalCheckError, PathCountExceededError, RangeError
from .polycore import binomial

Point = tuple[int, int]

DEFAULT_CAP = 10_000_000

_STEPS = {"E": (1, 0), "N": (0, 1)}


@dataclass(frozen=True)
class LatticePath:
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
    weakly north-east of a."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx < 0 or dy < 0:
        return 0
    return binomial(dx + dy, dy)


def _layouts(a: Point, b: Point, cap: int | None) -> Iterator[tuple[int, ...]]:
    """Every step layout a -> b as the sorted tuple of its E-step positions.

    Iterating combinations of E positions in their natural order yields the
    step strings in lexicographic order with E < N.  The family size is
    checked against the cap up front: ``PathCountExceededError`` carries the
    exact count instead of starting a hopeless enumeration.
    """
    cap = DEFAULT_CAP if cap is None else cap
    total = count_paths(a, b)
    if total > cap:
        raise PathCountExceededError(total, cap)
    if total:
        yield from combinations(range(b[0] - a[0] + b[1] - a[1]), b[0] - a[0])


def enumerate_paths(a: Point, b: Point, cap: int | None = None) -> Iterator[LatticePath]:
    """Yield every path from a to b exactly once, lexicographically with E < N.

    Raises ``PathCountExceededError`` (carrying the exact count) when the
    family is larger than the cap.
    """
    length = (b[0] - a[0]) + (b[1] - a[1])
    for epos in _layouts(a, b, cap):
        chars = ["N"] * length
        for t in epos:
            chars[t] = "E"
        yield LatticePath(a, "".join(chars))


@dataclass(frozen=True)
class DiagonalSegment:
    """The lattice points of one slope-1 segment, ordered bottom to top."""

    name: str
    points: tuple[Point, ...]

    @property
    def point_set(self) -> frozenset[Point]:
        return frozenset(self.points)


def segment_intersections(path: LatticePath, segment: DiagonalSegment) -> list[Point]:
    """Lattice points of the segment visited by the path, in path order.

    Only vertices count; slope-1 segments carry no lattice points in the
    interiors of unit steps, so there is nothing else to count.
    """
    pts = segment.point_set
    return [v for v in path.vertices() if v in pts]


@dataclass(frozen=True)
class PathConfig:
    """Geometry for one (n, i, r) instance of the inequality."""

    n: int
    i: int
    r: int

    def __post_init__(self):
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
    def base(self) -> DiagonalSegment:
        """P..Q, on x - y = n-2i; i+1 lattice points."""
        return DiagonalSegment("PQ", tuple((self.n - 2 * self.i + s, s) for s in range(self.i + 1)))

    @property
    def shifted(self) -> DiagonalSegment:
        """P'..Q', on x - y = n-2i+2; i lattice points (empty when i = 0)."""
        return DiagonalSegment("P'Q'", tuple((self.n - 2 * self.i + 2 + s, s) for s in range(self.i)))

    @property
    def path_count(self) -> int:
        return count_paths(self.origin, self.dest)


def lhs_by_formula(cfg: PathConfig) -> int:
    """sum over j+k=r, j,k >= 0 of C(n-2j, i-j) C(n-2k, i-k)."""
    n, i, r = cfg.n, cfg.i, cfg.r
    return sum(binomial(n - 2 * j, i - j) * binomial(n - 2 * (r - j), i - (r - j)) for j in range(r + 1))


def rhs_by_formula(cfg: PathConfig) -> int:
    """sum over j+k=r, j,k >= 0 of C(n-2j, i-1-j) C(n-2k, i+1-k)."""
    n, i, r = cfg.n, cfg.i, cfg.r
    return sum(binomial(n - 2 * j, i - 1 - j) * binomial(n - 2 * (r - j), i + 1 - (r - j)) for j in range(r + 1))


def _require_path_domain(cfg: PathConfig) -> None:
    if cfg.r < cfg.i:
        raise RangeError(
            f"path-based evaluation needs r >= i (got r={cfg.r}, i={cfg.i}): for r < i the "
            f"endpoint D lies above Q and reachable low base points break the incidence count"
        )


def _visits(cfg: PathConfig, a: Point, b: Point, cap: int | None) -> Iterator[tuple[list, list]]:
    """For every path a -> b, its base and shifted visits as two lists of
    (step, point) in path order, by the integer diagonal test above."""
    base_d = cfg.n - 2 * cfg.i
    shifted_d = base_d + 2
    top = cfg.i
    length = (b[0] - a[0]) + (b[1] - a[1])
    for epos in _layouts(a, b, cap):
        east = set(epos)
        x, y = a
        base, shifted = [], []
        for step in range(length + 1):
            if x - y == base_d:
                if y <= top:
                    base.append((step, (x, y)))
            elif x - y == shifted_d and y < top:
                shifted.append((step, (x, y)))
            if step in east:
                x += 1
            else:
                y += 1
        yield base, shifted


@dataclass(frozen=True)
class _Survey:
    """Tallies of one pass over every path O -> D.  ``groups`` maps (first
    base touch, last shifted touch) to the net base-minus-shifted visits of
    the paths touching the shifted diagonal; ``avoiding`` sums the base
    visits of the paths that do not."""

    paths: int
    base_visits: int
    shifted_visits: int
    touching: int
    avoiding: int
    avoiding_contributing: int
    tail_contributing: int
    groups: dict[tuple[Point, Point], int]


def _survey(cfg: PathConfig, cap: int | None) -> _Survey:
    """Walk every path O -> D once, checking the crossing claim (see
    ``check_crossing_claim``) on each."""
    _require_path_domain(cfg)
    paths = base_visits = shifted_visits = touching = 0
    avoiding = avoiding_contributing = tail_contributing = 0
    groups: dict[tuple[Point, Point], int] = {}
    for base, shifted in _visits(cfg, cfg.origin, cfg.dest, cap):
        paths += 1
        base_visits += len(base)
        shifted_visits += len(shifted)
        if not shifted:
            avoiding += len(base)
            avoiding_contributing += bool(base)
            continue
        touching += 1
        if not base:
            raise InternalCheckError("claim-violation", f"path touches {cfg.shifted.name} but not {cfg.base.name}")
        first_base, last_shifted = base[0][1], shifted[-1][1]
        if not (first_base[0] <= last_shifted[0] and first_base[1] <= last_shifted[1]):
            raise InternalCheckError(
                "claim-violation", f"first base touch {first_base} not below last shifted touch {last_shifted}"
            )
        key = (first_base, last_shifted)
        groups[key] = groups.get(key, 0) + len(base) - len(shifted)
        tail_contributing += base[-1][0] >= shifted[-1][0]
    return _Survey(
        paths, base_visits, shifted_visits, touching, avoiding, avoiding_contributing, tail_contributing, groups
    )


def lhs_by_paths(cfg: PathConfig, cap: int | None = None) -> int:
    """lhs(r) recomputed by exhaustive enumeration: total base-diagonal visits."""
    return _survey(cfg, cap).base_visits


def rhs_by_paths(cfg: PathConfig, cap: int | None = None) -> int:
    """rhs(r) recomputed by exhaustive enumeration: total shifted-diagonal visits."""
    return _survey(cfg, cap).shifted_visits


@dataclass(frozen=True)
class CrossingReport:
    """Tally from verifying the crossing claim over every path O -> D."""

    paths_total: int
    paths_touching_shifted: int


def check_crossing_claim(cfg: PathConfig, cap: int | None = None) -> CrossingReport:
    """Every path touching the shifted diagonal touches the base one first.

    Also verifies the ordering refinement used by the certificate: the first
    base touch lies weakly south-west of the last shifted touch.  A violation
    raises ``InternalCheckError`` and can only mean a bug.
    """
    survey = _survey(cfg, cap)
    return CrossingReport(survey.paths, survey.touching)


def rotate_180(path: LatticePath, lo: Point, hi: Point) -> LatticePath:
    """Rotate a path by 180 degrees inside the rectangle spanned by lo and hi.

    The rotation about the rectangle's barycenter maps vertex (x, y) to
    (lo_x + hi_x - x, lo_y + hi_y - y), which on step sequences is plain
    reversal.  Applying it twice gives back the original path.
    """
    if path.start != lo or path.end != hi:
        raise EndpointError(f"path runs {path.start} -> {path.end}, expected {lo} -> {hi}")
    return LatticePath(lo, path.steps[::-1])


@dataclass(frozen=True)
class RotationBalanceReport:
    """Tally from verifying the rotation balance over all rectangles."""

    rectangles: int
    paths_checked: int


def check_rotation_balance(cfg: PathConfig, cap: int | None = None) -> RotationBalanceReport:
    """For every rectangle R in base, R' in shifted with R <= R', check that
    paths R -> R' carry as many base visits in total as shifted visits.

    The 180-degree rotation pairs the two counts off.  While enumerating,
    also confirms the rotation is an involution and permutes the path family
    (images pairwise distinct and exhausting the family).
    """
    cap = DEFAULT_CAP if cap is None else cap
    base_pts, shifted_pts = cfg.base.point_set, cfg.shifted.point_set
    rectangles = paths_checked = 0
    for rp in cfg.shifted.points:
        for rb in cfg.base.points:
            if not (rb[0] <= rp[0] and rb[1] <= rp[1]):
                continue
            rectangles += 1
            family = list(enumerate_paths(rb, rp, cap))
            paths_checked += len(family)
            images = set()
            base_total = shifted_total = 0
            for path in family:
                rotated = rotate_180(path, rb, rp)
                if rotate_180(rotated, rb, rp) != path:
                    raise InternalCheckError("claim-violation", "rotation applied twice is not the identity")
                images.add(rotated.steps)
                base_total += sum(1 for v in path.vertices() if v in base_pts)
                shifted_total += sum(1 for v in path.vertices() if v in shifted_pts)
            if len(images) != len(family) or images != {p.steps for p in family}:
                raise InternalCheckError("claim-violation", f"rotation is not a bijection on {rb} -> {rp}")
            if base_total != shifted_total:
                raise InternalCheckError(
                    "claim-violation",
                    f"rectangle {rb} -> {rp}: base visits {base_total} != shifted visits {shifted_total}",
                )
    return RotationBalanceReport(rectangles, paths_checked)


@dataclass(frozen=True)
class Certificate:
    """The nonnegative decomposition of lhs - rhs, itemized per path class.

    ``avoiding_term`` collects base visits of paths that never touch the
    shifted diagonal.  ``boundary_terms`` lists (R, R', count) for each group
    of paths with first base touch R and last shifted touch R' whose net
    contribution is nonzero; each count is independently re-derived from the
    three-leg decomposition, so it is nonnegative by construction.
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


def build_certificate(cfg: PathConfig, cap: int | None = None) -> Certificate:
    """Enumerate all paths O -> D and assemble the nonnegative decomposition.

    Verifies, while building: the crossing claim on every path, the exact
    group identity  group_sum = N1 * N2 * S3  (legs enumerated independently),
    and total = lhs - rhs.  Any failure raises ``InternalCheckError``; none
    can occur.
    """
    survey = _survey(cfg, cap)
    groups = sorted(survey.groups.items())
    o, d = cfg.origin, cfg.dest

    # Re-derive each group sum from the three-leg decomposition: paths O->R
    # meeting the base diagonal only at R, free middle legs R->R', and final
    # legs R'->D meeting the shifted diagonal only at R'.
    for (r_point, rp_point), group_sum in groups:
        n1 = sum(1 for base, _ in _visits(cfg, o, r_point, cap) if len(base) == 1)
        n2 = count_paths(r_point, rp_point)
        s3 = sum(len(base) for base, shifted in _visits(cfg, rp_point, d, cap) if len(shifted) == 1)
        if group_sum != n1 * n2 * s3:
            raise InternalCheckError(
                "decomposition-mismatch",
                f"group {r_point} -> {rp_point}: net {group_sum}, legs give {n1}*{n2}*{s3}",
            )

    total = survey.avoiding + sum(survey.groups.values())
    lhs = lhs_by_formula(cfg)
    rhs = rhs_by_formula(cfg)
    if total != lhs - rhs:
        raise InternalCheckError("decomposition-mismatch", f"total {total} != lhs - rhs = {lhs - rhs}")
    boundary = tuple((rb, rp, c) for (rb, rp), c in groups if c != 0)
    return Certificate(
        n=cfg.n,
        i=cfg.i,
        r=cfg.r,
        lhs=lhs,
        rhs=rhs,
        avoiding_term=survey.avoiding,
        boundary_terms=boundary,
        total=total,
        path_count=survey.paths,
        contributing_paths=survey.avoiding_contributing + survey.tail_contributing,
        avoiding_contributing=survey.avoiding_contributing,
    )
