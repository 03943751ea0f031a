"""Lattice paths: counting, enumeration, claims, and the certificate."""

import inspect
import re
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammacert import errors, paths
from gammacert import (
    EndpointError,
    InternalCheckError,
    LatticePath,
    PathConfig,
    RangeError,
    binomial,
    build_certificate,
    check_crossing_claim,
    check_rotation_balance,
    count_paths,
    diagonal_sum,
    enumerate_paths,
    lhs_by_formula,
    lhs_by_paths,
    rhs_by_formula,
    rhs_by_paths,
    rotate_180,
    segment_intersections,
)
from gammacert.cli import main
from gammacert.render import render_grid
from gammacert.sweeps import sweep_path_identities


class TestCounting:
    def test_golden(self):
        assert count_paths((0, 0), (6, 2)) == 28
        assert count_paths((2, 0), (2, 0)) == 1
        assert count_paths((0, 0), (-1, 0)) == 0
        assert count_paths((3, 5), (1, 9)) == 0

    def test_enumeration_matches_count(self):
        for a, b in (((0, 0), (6, 2)), ((1, 1), (4, 4)), ((0, 0), (0, 3))):
            paths = list(enumerate_paths(a, b))
            assert len(paths) == count_paths(a, b)
            assert len({p.steps for p in paths}) == len(paths)

    def test_lexicographic_with_e_before_n(self):
        paths = [p.steps for p in enumerate_paths((0, 0), (1, 1))]
        assert paths == ["EN", "NE"]
        all_paths = [p.steps for p in enumerate_paths((0, 0), (3, 2))]
        assert all_paths == sorted(all_paths)

    def test_single_degenerate_paths(self):
        assert [p.steps for p in enumerate_paths((0, 0), (0, 3))] == ["NNN"]
        assert [p.steps for p in enumerate_paths((2, 0), (2, 0))] == [""]
        assert list(enumerate_paths((0, 0), (-1, 0))) == []

    def test_refused_before_the_first_path(self):
        # C(60, 30) paths, a family too large to count in minutes, and one
        # path of 10**7 steps (about 1 s to build): each is refused on the
        # first next(), before any path is built.
        for b in ((30, 30), (10**6, 10**6), (10**7, 0)):
            family = enumerate_paths((0, 0), b)
            start = time.perf_counter()
            with pytest.raises(RangeError, match=rf"the paths \(0, 0\) -> \({b[0]}, {b[1]}\): work \d+ is above"):
                next(family)
            assert time.perf_counter() - start < 0.1


    def test_count_refused_before_the_binomial(self):
        # C(2*10**6, 10**6) took 45 s to compute; its charge refuses it at once,
        # as it does path_count.  A thin family of as many steps is served.
        start = time.perf_counter()
        with pytest.raises(RangeError, match=r"the path count \(0, 0\) -> \(1000000, 1000000\): work \d+ is above"):
            count_paths((0, 0), (10**6, 10**6))
        with pytest.raises(RangeError, match="above the limit"):
            PathConfig(2 * 10**6, 10**6, 10**6).path_count  # the same family
        assert time.perf_counter() - start < 0.1
        assert count_paths((0, 0), (2 * 10**6 - 1, 1)) == 2 * 10**6


class TestLatticePath:
    def test_vertices_and_end(self):
        p = LatticePath((2, 0), "EEN")
        assert p.vertices() == [(2, 0), (3, 0), (4, 0), (4, 1)]
        assert p.end == (4, 1)

    def test_rejects_bad_steps(self):
        with pytest.raises(RangeError):
            LatticePath((0, 0), "EXN")


class TestSegments:
    def test_config_points(self):
        cfg = PathConfig(6, 2, 2)
        assert (cfg.p, cfg.q) == ((2, 0), (4, 2))
        assert (cfg.p_prime, cfg.q_prime) == ((4, 0), (5, 1))
        assert cfg.base == ((2, 0), (3, 1), (4, 2))
        assert cfg.shifted == ((4, 0), (5, 1))
        assert cfg.dest == (6, 2)

    def test_intersections_full_diagonal(self):
        cfg = PathConfig(6, 2, 2)
        path = LatticePath((0, 0), "EEENENEE")
        assert segment_intersections(path, cfg.base) == [(2, 0), (3, 1), (4, 2)]

    def test_staircase_touches_once(self):
        # All norths first, then easts: meets the base diagonal only at Q.
        cfg = PathConfig(6, 2, 2)
        path = LatticePath((0, 0), "NNEEEEEE")
        assert segment_intersections(path, cfg.base) == [(4, 2)]
        assert segment_intersections(path, cfg.shifted) == []

    def test_empty_shifted_segment_when_i_zero(self):
        cfg = PathConfig(5, 0, 0)
        assert cfg.shifted == ()
        assert cfg.base == ((5, 0),)

    def test_diagonals_are_tuples_built_on_first_use(self):
        # A huge instance every check refuses costs nothing to build: its
        # million-point diagonals are not built until something reads them.
        start = time.perf_counter()
        cfg = PathConfig(2 * 10**6, 10**6, 10**6)
        assert time.perf_counter() - start < 0.001
        assert "base" not in vars(cfg) and "shifted" not in vars(cfg)
        small = PathConfig(6, 2, 2)
        assert type(small.base) is tuple and type(small.shifted) is tuple

    def test_config_holds_only_its_fields(self, monkeypatch, capsys):
        # The diagonals are read through ``_points`` on each use, so no call
        # leaves state beside n, i and r: not the public functions of paths,
        # the drawing, the intersections, or a certify view, whose instance
        # is caught as it is built.
        public = [
            f for name, f in vars(paths).items()
            if callable(f) and not name.startswith("_") and getattr(f, "__module__", None) == paths.__name__
            and list(inspect.signature(f).parameters)[:1] == ["cfg"]
        ]
        assert len(public) == 8
        path = LatticePath((0, 0), "EEENENEE")
        for f in public + [render_grid, lambda cfg: render_grid(cfg, path)]:
            cfg = PathConfig(6, 2, 2)
            f(cfg)
            assert sorted(vars(cfg)) == ["i", "n", "r"], f
        cfg = PathConfig(6, 2, 2)
        segment_intersections(path, cfg.base)
        segment_intersections(path, cfg.shifted)
        assert sorted(vars(cfg)) == ["i", "n", "r"]
        built, post_init = [], PathConfig.__post_init__
        monkeypatch.setattr(PathConfig, "__post_init__", lambda cfg: built.append(cfg) or post_init(cfg))
        for view in ([], ["--json"], ["--formula-only"], ["--ascii", "--path", "EEENENEE"]):
            built.clear()
            assert main(["certify", "6", "2", "2", *view]) == 0
            assert [sorted(vars(cfg)) for cfg in built] == [["i", "n", "r"]], view
        capsys.readouterr()


class TestFormulas:
    def test_golden_n6(self):
        cfg = PathConfig(6, 2, 2)
        assert lhs_by_formula(cfg) == 46
        assert rhs_by_formula(cfg) == 18

    def test_weight_zero_single_term(self):
        cfg = PathConfig(8, 3, 0)
        assert lhs_by_formula(cfg) == binomial(8, 3) ** 2
        assert rhs_by_formula(cfg) == binomial(8, 2) * binomial(8, 4)

    def test_sums_skip_only_vanishing_terms(self):
        # The full j = 0 .. r sums, as written in the module docstring.
        for n in range(0, 17):
            for i in range(0, n // 2 + 1):
                for r in range(0, 3 * i + 5):
                    cfg = PathConfig(n, i, r)
                    for shift, formula in ((0, lhs_by_formula), (1, rhs_by_formula)):
                        full = sum(
                            binomial(n - 2 * j, i - shift - j) * binomial(n - 2 * (r - j), i + shift - (r - j))
                            for j in range(r + 1)
                        )
                        assert formula(cfg) == full, (n, i, r, shift)

    def test_work_limit(self, monkeypatch):
        cfg = PathConfig(40, 20, 20)
        work, total = paths.formula_work(cfg), diagonal_sum(40, 20, 20)  # the total is charged on its own scale
        monkeypatch.setattr(errors, "WORK_LIMIT", work - 1)
        for formula in (lhs_by_formula, rhs_by_formula):
            with pytest.raises(RangeError, match=f"binomial sums at n=40, i=20, r=20: work {work} is above"):
                formula(cfg)
        monkeypatch.setattr(errors, "WORK_LIMIT", work)
        assert lhs_by_formula(cfg) - rhs_by_formula(cfg) == total

    def test_config_range_errors(self):
        with pytest.raises(RangeError):
            PathConfig(6, 4, 2)  # 2i > n
        with pytest.raises(RangeError):
            PathConfig(6, 2, -1)


class TestDoubleCounting:
    def test_golden_n6(self):
        cfg = PathConfig(6, 2, 2)
        assert lhs_by_paths(cfg) == 46
        assert rhs_by_paths(cfg) == 18

    def test_small_sweep(self):
        for n in range(0, 9):
            for i in range(0, n // 2 + 1):
                for r in range(i, 2 * i + 3):
                    cfg = PathConfig(n, i, r)
                    assert lhs_by_paths(cfg) == lhs_by_formula(cfg), (n, i, r)
                    assert rhs_by_paths(cfg) == rhs_by_formula(cfg), (n, i, r)

    def test_below_domain_rejected(self):
        cfg = PathConfig(6, 2, 1)
        with pytest.raises(RangeError):
            lhs_by_paths(cfg)
        with pytest.raises(RangeError):
            build_certificate(cfg)

    def test_walks_refused_above_the_work_limit(self, monkeypatch):
        # Each walk states its work when refused; the limit is exact on both
        # sides of it, and a refused walk takes no layout.
        taken = []
        real = paths._layouts
        monkeypatch.setattr(paths, "_layouts", lambda a, b: taken.append((a, b)) or real(a, b))
        cfg = PathConfig(10, 5, 5)
        for walk, served in ((lhs_by_paths, lhs_by_formula(cfg)), (check_rotation_balance, check_rotation_balance(cfg))):
            monkeypatch.setattr(errors, "WORK_LIMIT", 0)
            with pytest.raises(RangeError, match="at n=10, i=5") as err:
                walk(cfg)
            work = int(re.search(r"work (\d+) is above", str(err.value)).group(1))
            monkeypatch.setattr(errors, "WORK_LIMIT", work - 1)
            taken.clear()
            with pytest.raises(RangeError):
                walk(cfg)
            assert taken == []
            monkeypatch.setattr(errors, "WORK_LIMIT", work)
            assert walk(cfg) == served

    def test_large_inputs_refused_at_once(self):
        start = time.perf_counter()
        for walk, cfg in (
            (check_crossing_claim, PathConfig(2 * 10**6, 10**6, 10**6)),
            (check_crossing_claim, PathConfig(10**6, 1, 1)),
            (check_rotation_balance, PathConfig(2 * 10**6, 10**6, 10**6)),
        ):
            with pytest.raises(RangeError, match="is above the limit"):
                walk(cfg)
        assert time.perf_counter() - start < 0.1


class TestCrossingClaim:
    def test_golden_configs(self):
        report = check_crossing_claim(PathConfig(6, 2, 2))
        assert report.paths_total == 28
        assert report.paths_touching_shifted == 28 - 14
        check_crossing_claim(PathConfig(8, 3, 3))

    def test_vacuous_when_shifted_unreachable(self):
        report = check_crossing_claim(PathConfig(6, 2, 6))  # D = (2, -2): no paths
        assert report.paths_total == 0


class TestRotation:
    def test_step_reversal(self):
        p = LatticePath((2, 0), "EEN")
        q = rotate_180(p, (2, 0), (4, 1))
        assert q.steps == "NEE"
        assert rotate_180(q, (2, 0), (4, 1)) == p

    def test_geometric_meaning(self):
        lo, hi = (2, 0), (4, 1)
        p = LatticePath(lo, "EEN")
        rotated_vertices = sorted((lo[0] + hi[0] - x, lo[1] + hi[1] - y) for x, y in p.vertices())
        assert rotated_vertices == sorted(rotate_180(p, lo, hi).vertices())

    def test_endpoint_mismatch(self):
        with pytest.raises(EndpointError):
            rotate_180(LatticePath((0, 0), "EN"), (0, 0), (2, 2))
        with pytest.raises(EndpointError):
            rotate_180(LatticePath((3, 3), ""), (3, 3), (2, 2))

    def test_involution_everywhere_small(self):
        for path in enumerate_paths((1, 1), (4, 3)):
            assert rotate_180(rotate_180(path, (1, 1), (4, 3)), (1, 1), (4, 3)) == path

    def test_rotation_balance(self):
        for n, i in ((6, 2), (8, 3), (9, 4)):
            report = check_rotation_balance(PathConfig(n, i, i))
            assert report.rectangles > 0


class TestCertificate:
    def test_golden_n6(self):
        cert = build_certificate(PathConfig(6, 2, 2))
        assert (cert.lhs, cert.rhs, cert.total) == (46, 18, 28)
        assert cert.avoiding_term == 27
        assert cert.boundary_terms == (((2, 0), (4, 0), 1),)
        assert cert.path_count == 28
        assert cert.contributing_paths == 15
        assert cert.avoiding_contributing == 14

    def test_no_contribution_above_i(self):
        # n >= 2i+2, r >= i+1: everything cancels.
        cert = build_certificate(PathConfig(6, 2, 3))
        assert cert.total == 0
        assert cert.avoiding_term == 0
        assert cert.boundary_terms == ()
        assert cert.path_count == count_paths((0, 0), (5, 1)) == 6
        cert = build_certificate(PathConfig(8, 3, 4))
        assert cert.total == 0 and cert.avoiding_term == 0

    def test_unreachable_destination(self):
        cert = build_certificate(PathConfig(6, 2, 5))
        assert cert.path_count == 0
        assert cert.total == 0 == cert.lhs - cert.rhs

    def test_degenerate_origin_destination(self):
        cert = build_certificate(PathConfig(0, 0, 0))
        assert cert.path_count == 1
        assert (cert.lhs, cert.rhs, cert.total) == (1, 0, 1)
        assert cert.avoiding_term == 1

    def test_i_zero_only_base(self):
        cert = build_certificate(PathConfig(5, 0, 0))
        assert cert.total == cert.lhs == 1
        assert cert.boundary_terms == ()

    def test_matches_coefficient_sums(self):
        for n in range(2, 10):
            for i in range(1, n // 2 + 1):
                for r in range(i, 2 * i + 2):
                    cert = build_certificate(PathConfig(n, i, r))
                    assert cert.total == diagonal_sum(n, i, r) == cert.lhs - cert.rhs

    def test_boundary_counts_positive(self):
        for n in range(2, 10):
            for i in range(1, n // 2 + 1):
                cert = build_certificate(PathConfig(n, i, i))
                assert all(c > 0 for *_, c in cert.boundary_terms)
                assert cert.avoiding_term >= 0

    def test_work_limit(self, monkeypatch):
        # The estimate is checked before either table pass; the limit is
        # exact on both sides of it.  Shifted points (2, 0) .. (5, 3) lie in
        # the rectangle (0, 0) -> (5, 5); (6, 4) does not.
        cfg = PathConfig(10, 5, 5)
        work = paths._certificate_work(cfg, 4)
        passes = []
        real = paths._first_passage
        monkeypatch.setattr(
            paths, "_first_passage", lambda cfg, marks, forward: passes.append(forward) or real(cfg, marks, forward)
        )
        monkeypatch.setattr(errors, "WORK_LIMIT", work - 1)
        with pytest.raises(RangeError, match=f"certificate at n=10, i=5, r=5: work {work} is above the limit"):
            build_certificate(cfg)
        assert passes == []
        monkeypatch.setattr(errors, "WORK_LIMIT", work)
        assert build_certificate(cfg).total == diagonal_sum(10, 5, 5)
        assert passes == [True, False]


def _oracle(cfg):
    """The certificate's tallies from the public single-path API alone:
    enumerate_paths for the family, segment_intersections for the visits."""
    lhs = rhs = touching = avoiding = avoiding_contributing = tail_contributing = 0
    groups = {}
    for path in enumerate_paths(cfg.origin, cfg.dest):
        base = segment_intersections(path, cfg.base)
        shifted = segment_intersections(path, cfg.shifted)
        lhs += len(base)
        rhs += len(shifted)
        if not shifted:
            avoiding += len(base)
            avoiding_contributing += bool(base)
            continue
        touching += 1
        key = (base[0], shifted[-1])
        groups[key] = groups.get(key, 0) + len(base) - len(shifted)
        order = path.vertices().index
        tail_contributing += order(base[-1]) > order(shifted[-1])
    boundary = tuple((rb, rp, c) for (rb, rp), c in sorted(groups.items()) if c != 0)
    return lhs, rhs, touching, avoiding, boundary, avoiding_contributing + tail_contributing, avoiding_contributing


def test_walker_matches_single_path_oracle():
    families = [(n, i, r) for n in range(0, 13) for i in range(0, n // 2 + 1) for r in range(i, 2 * i + 3)]
    for n, i, r in families + [(14, 5, 5)]:
        cfg = PathConfig(n, i, r)
        crossing = check_crossing_claim(cfg)
        cert = build_certificate(cfg)
        walked = (
            lhs_by_paths(cfg),
            rhs_by_paths(cfg),
            crossing.paths_touching_shifted,
            cert.avoiding_term,
            cert.boundary_terms,
            cert.contributing_paths,
            cert.avoiding_contributing,
        )
        assert walked == _oracle(cfg), (n, i, r)
        assert (cert.lhs, cert.rhs) == walked[:2], (n, i, r)
        assert crossing.paths_total == cert.path_count == cfg.path_count, (n, i, r)


def _record(cfg, path):
    """A path's walk record from the vertex walk: its base and shifted visit
    counts, its first base point and its last shifted point (None where it
    has no such visit)."""
    base, shifted = segment_intersections(path, cfg.base), segment_intersections(path, cfg.shifted)
    return len(base), len(shifted), base[0] if base else None, shifted[-1] if shifted else None


def test_walker_reads_each_path():
    # The half-path reader, path by path in ``_layouts`` order against the
    # vertex walk: every family O -> D with n <= 10, and every rectangle
    # R -> R' of the rotation balance, whose corner R != O offsets the
    # columns.  The segments depend on n and i only.
    for n in range(0, 11):
        for i in range(0, n // 2 + 1):
            cfg = PathConfig(n, i, i)
            ends = [(cfg.origin, PathConfig(n, i, r).dest) for r in range(i, 2 * i + 3)]
            ends += _rectangles(cfg)
            for a, b in ends:
                for record, path in zip(paths._layout_visits(cfg, a, b), enumerate_paths(a, b), strict=True):
                    assert record == _record(cfg, path), (n, i, a, b, path)


def _rectangles(cfg):
    """Every rectangle R = base[s] -> R' = shifted[t], s <= t, of the
    rotation balance, by s and then t."""
    return [(rb, rp) for s, rb in enumerate(cfg.base) for rp in cfg.shifted[s:]]


def _walked_families(max_n):
    """(cfg, a, b) for every family O -> D and every rotation rectangle R -> R'
    with n <= max_n."""
    for n in range(0, max_n + 1):
        for i in range(0, n // 2 + 1):
            cfg = PathConfig(n, i, i)
            for a, b in [(cfg.origin, PathConfig(n, i, r).dest) for r in range(i, 2 * i + 3)] + _rectangles(cfg):
                yield cfg, a, b


def test_composed_walker_reads_each_path(monkeypatch):
    # The halves yield in their own order, so the records are compared as
    # multisets against the vertex walk.  The run joins halves at midpoints
    # on both diagonals, where the suffix records leave the midpoint out.
    midpoints, real = [], paths._layout_visits

    def layout_visits(cfg, a, b, first_step=0):
        if first_step:
            midpoints.append((cfg, a))
        return real(cfg, a, b, first_step)

    monkeypatch.setattr(paths, "_layout_visits", layout_visits)
    families = 0
    for cfg, a, b in _walked_families(11):
        families += 1
        expected = Counter(_record(cfg, path) for path in enumerate_paths(a, b))
        assert Counter(paths._visits(cfg, a, b)) == expected, (cfg, a, b)
    assert families == 336
    assert any(c in cfg.base for cfg, c in midpoints)
    assert any(c in cfg.shifted for cfg, c in midpoints)


def test_composed_walker_passes_the_paths_sweep(monkeypatch):
    # The sweep equals the one with every family read directly.  A midpoint
    # on a diagonal is visited once: kept in both halves, it would break the
    # incidence sums and the rotation images.
    composed = sweep_path_identities(10)
    monkeypatch.setattr(paths, "_visits", paths._layout_visits)
    assert sweep_path_identities(10) == composed
    assert composed.ok


def test_thin_families_walk_directly_and_compose_alike():
    # A side of 2 steps: read directly and composed from halves, the family
    # gives the same records.
    cfg = PathConfig(20, 9, 9)
    for a in ((0, 0), (2, 0), (3, 0), (3, 1), (4, 2)):
        for dx, dy in ((18, 2), (2, 18)):
            b = (a[0] + dx, a[1] + dy)
            direct = list(paths._layout_visits(cfg, a, b))
            assert len(direct) == 190 and Counter(paths._visits(cfg, a, b)) == Counter(direct), (a, b)
            assert any(record[:2] != (0, 0) for record in direct), (a, b)


def test_walker_takes_suffixes_first_at_half_the_length(monkeypatch):
    # Every family with a path takes the layouts of its halves, first the
    # suffixes c -> b of one midpoint c, half the length from a; a family
    # with none takes no layouts.
    taken = []
    real = paths._layouts
    monkeypatch.setattr(paths, "_layouts", lambda a, b: taken.append((a, b)) or real(a, b))
    families = list(_walked_families(10))
    for n, i, r in ((14, 5, 5), (16, 6, 6), (18, 7, 7)):
        families.append((PathConfig(n, i, r), (0, 0), PathConfig(n, i, r).dest))
    for cfg, a, b in families:
        taken.clear()
        if next(paths._visits(cfg, a, b), None) is None:
            assert taken == [] and paths.count_paths(a, b) == 0, (cfg, a, b)
            continue
        (suffix_from, suffix_to), (prefix_from, prefix_to) = taken
        assert (suffix_to, prefix_from) == (b, a) and suffix_from == prefix_to, (cfg, a, b)
        assert sum(suffix_from) - sum(a) == (sum(b) - sum(a)) // 2, (cfg, a, b)


def test_walk_charges_cover_the_records_walked(monkeypatch):
    """Each crossing and rotation charge is at least the walk's records and
    half-path reads times the units fitted in the ``errors`` walk entry:
    350 ns a joined record, 300 ns a half-record and 14 ns a step of one,
    and for each read 127 ns a step to set it up.  Each walk makes at most
    two reads a midpoint, of which there are at most min(dx, dy) + 1, as
    ``_visits_work`` charges.  The counts are the walker's own, so the check
    does not depend on timing."""
    counts, charges = Counter(), []
    real_visits, real_halves, real_check = paths._visits, paths._layout_visits, paths.check_work

    def visits(cfg, a, b):
        counts["set-up bound"] += 2 * max(0, min(b[0] - a[0], b[1] - a[1]) + 1)
        for record in real_visits(cfg, a, b):
            counts["joined"] += 1
            yield record

    def halves(cfg, a, b, first_step=0):
        length = (b[0] - a[0]) + (b[1] - a[1])
        counts["set-ups"] += 1
        counts["set-up steps"] += length
        for record in real_halves(cfg, a, b, first_step):
            counts["halves"] += 1
            counts["half steps"] += length
            yield record

    monkeypatch.setattr(paths, "_visits", visits)
    monkeypatch.setattr(paths, "_layout_visits", halves)
    monkeypatch.setattr(paths, "check_work", lambda work, what: charges.append(work) or real_check(work, what))
    configs = [(n, i, r) for n in range(13) for i in range(n // 2 + 1) for r in range(i, 2 * i + 3)]
    configs += [(14, 5, 5), (16, 6, 6), (18, 7, 7), (200, 2, 2), (300, 1, 1)]
    for n, i, r in configs:
        for check in [check_crossing_claim] + [check_rotation_balance] * (r == i):
            counts.clear()
            charges.clear()
            check(PathConfig(n, i, r))
            records = 350 * counts["joined"] + 300 * counts["halves"] + 14 * counts["half steps"]
            assert len(charges) == 1 and charges[0] >= records + 127 * counts["set-up steps"], (check.__name__, n, i, r)
            assert counts["set-ups"] <= counts["set-up bound"], (check.__name__, n, i, r)


def test_certificate_charge_covers_the_work_counted(monkeypatch):
    """The certificate's charge is at least its work counted in the units
    fitted in the ``errors`` certificate entry, with b = ``_count_bits`` of
    O -> D: 350 + b/32 ns a cell of each table pass (700 + b/16 for the
    two), 2000 + b/2 ns a group (R, R') of the boundary loop, and n*i/4 a
    term of either binomial sum, two binomials C(<= n, <= i).  The passes
    test each cell's mark once and the loop reads each group's backward
    counts once, so counting those reads counts the cells and groups; the
    terms are the entries of the basis rows over two.  The counts are the
    certificate's own, so the check does not depend on timing."""
    counts, charges = Counter(), []
    real_pass, real_row, real_check = paths._first_passage, paths.basis_row, paths.check_work

    class Cells(dict):
        def __contains__(self, cell):
            counts["cells"] += 1
            return dict.__contains__(self, cell)

    class Groups(dict):
        def __getitem__(self, point):
            counts["groups"] += 1
            return dict.__getitem__(self, point)

    def first_passage(cfg, marks, forward):
        table = real_pass(cfg, Cells(marks), forward)
        return table if forward else Groups(table)

    def basis_row(n, t, js):
        row = real_row(n, t, js)
        counts["binomials"] += len(row)
        return row

    def check_work(work, what):
        if what.startswith("the certificate"):
            charges.append(work)
        return real_check(work, what)

    monkeypatch.setattr(paths, "_first_passage", first_passage)
    monkeypatch.setattr(paths, "basis_row", basis_row)
    monkeypatch.setattr(paths, "check_work", check_work)
    configs = [(n, i, r) for n in range(41) for i in range(n // 2 + 1) for r in range(i, 2 * i + 3)]
    configs += [(584, 282, 282), (1200, 600, 600), (5994, 100, 100), (356506, 1, 1)]
    for n, i, r in configs:
        counts.clear()
        charges.clear()
        cfg = PathConfig(n, i, r)
        build_certificate(cfg)
        bits = paths._count_bits(*cfg.dest)
        work = (
            counts["cells"] * (350 + bits // 32)
            + counts["groups"] * (2000 + bits // 2)
            + counts["binomials"] // 2 * (n * i // 4)
        )
        assert len(charges) == 1 and charges[0] >= work, (n, i, r)
        if (n, i, r) == (1200, 600, 600):
            # The hooks see all the work: two passes over 601 x 601 cells,
            # and a group for each reached shifted point t and base point s <= t.
            assert (counts["cells"], counts["groups"]) == (2 * 601 * 601, 599 * 600 // 2)


def test_rotation_carries_base_visits_onto_shifted_visits():
    # The per-path step of the rotation lemma, at the vertex level, on every
    # rectangle R -> R' of the rotation balance with n <= 12: rotate_180 is an
    # involution, and v -> c - v, c = R + R', carries the base visits of a
    # path's rotation onto the path's own shifted visits, in reverse order.
    for n in range(0, 13):
        for i in range(0, n // 2 + 1):
            cfg = PathConfig(n, i, i)
            walked = 0
            for a, b in _rectangles(cfg):
                corner = (a[0] + b[0], a[1] + b[1])
                for path in enumerate_paths(a, b):
                    walked += 1
                    rotated = rotate_180(path, a, b)
                    assert rotate_180(rotated, a, b) == path
                    image = [(corner[0] - x, corner[1] - y) for x, y in segment_intersections(rotated, cfg.base)]
                    assert image[::-1] == segment_intersections(path, cfg.shifted), (n, i, a, b, path)
            report = check_rotation_balance(cfg)
            assert (report.rectangles, report.paths_checked) == (len(_rectangles(cfg)), walked), (n, i)


def test_translation_carries_each_rectangle_onto_its_width_representative():
    # The translation lemma on every rectangle R -> R' with n <= 12: moved by
    # (-s, -s), the vertex-walk records of base[s] -> shifted[s+w] are the
    # walker's records of base[0] -> shifted[w], with multiplicity.
    def moved(point, s):
        return None if point is None else (point[0] - s, point[1] - s)

    for n in range(0, 13):
        for i in range(0, n // 2 + 1):
            cfg = PathConfig(n, i, i)
            for s, rb in enumerate(cfg.base):
                for w, rp in enumerate(cfg.shifted[s:]):
                    records = Counter()
                    for path in enumerate_paths(rb, rp):
                        base, shifted, first_base, last_shifted = _record(cfg, path)
                        records[base, shifted, moved(first_base, s), moved(last_shifted, s)] += 1
                    representative = Counter(paths._visits(cfg, cfg.base[0], cfg.shifted[w]))
                    assert records == representative, (n, i, s, w)


def test_rotation_balance_walks_each_width_once(monkeypatch):
    # One rectangle a width, base[0] -> shifted[w], stands for the i - w
    # rectangles of that width: i walks, not i(i+1)/2.
    walked, real = [], paths._visits
    monkeypatch.setattr(paths, "_visits", lambda cfg, a, b: walked.append((a, b)) or real(cfg, a, b))
    for n in range(0, 13):
        for i in range(0, n // 2 + 1):
            cfg = PathConfig(n, i, i)
            walked.clear()
            check_rotation_balance(cfg)
            assert walked == [(cfg.base[0], rp) for rp in cfg.shifted], (n, i)


def test_point_map_proved_for_every_rectangle():
    """With d = n - 2i, base[u] = (d+u, u) and shifted[v] = (d+2+v, v), the
    corner of R = base[s] -> R' = shifted[t] is c = R + R', and the lemma's
    point map is the identity c - base[u] = shifted[s+t-u].  Both sides are
    of degree <= 1 in each of d, s, t and u, so their agreement on {0,1}**4
    proves it for all integers (Alon, "Combinatorial Nullstellensatz", 1999,
    Lemma 2.1).  As u runs up over s..t, s+t-u runs down over s..t: the base
    points inside the rectangle go onto the shifted points inside, in
    reverse order, which is what check_rotation_balance compares."""

    def base(d, u):
        return (d + u, u)

    def shifted(d, v):
        return (d + 2 + v, v)

    for d, s, t, u in product(range(2), repeat=4):
        r_point, rp_point = base(d, s), shifted(d, t)
        corner = (r_point[0] + rp_point[0], r_point[1] + rp_point[1])
        assert (corner[0] - base(d, u)[0], corner[1] - base(d, u)[1]) == shifted(d, s + t - u), (d, s, t, u)
    for n, i in ((0, 0), (7, 3), (12, 5)):
        cfg = PathConfig(n, i, i)
        assert cfg.base == tuple(base(n - 2 * i, u) for u in range(i + 1))
        assert cfg.shifted == tuple(shifted(n - 2 * i, v) for v in range(i))


def _scan(points, a, b, first_step):
    """The points inside the rectangle a -> b reached at ``first_step`` or
    later, by scanning every point: the oracle of ``paths._inside``."""
    return [
        (x, y)
        for x, y in points
        if a[0] <= x <= b[0] and a[1] <= y <= b[1] and (x - a[0]) + (y - a[1]) >= first_step
    ]


def test_inside_matches_the_scan_on_every_small_rectangle():
    # Both diagonals of every (n, i) with n <= 12, i = 0 included, on every
    # rectangle with corners in [0, 9]**2, b north-east of a or not, and
    # with a kept or left out.
    # Many (n, i) share a diagonal, which is tried once.
    diagonals = {}
    for n in range(13):
        for i in range(n // 2 + 1):
            cfg = PathConfig(n, i, i)
            diagonals.update({(cfg.p, i + 1): cfg.base, (cfg.p_prime, i): cfg.shifted})
    corners = list(product(range(10), repeat=2))
    for (bottom, count), side in diagonals.items():
        for a, first_step in product(corners, (0, 1)):
            # The scan by a and the step, done once for every b.
            reached = _scan(side, a, (99, 99), first_step)
            for b in corners:
                expected = [(x, y) for x, y in reached if x <= b[0] and y <= b[1]]
                run = paths._inside(a, b, bottom, count, first_step)
                assert [side[u] for u in run] == expected, (bottom, count, a, b, first_step)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inside_matches_the_scan_on_large_diagonals(data):
    # The diagonal points inside a rectangle form a run, and so does the run
    # ``_inside`` gives; two runs are equal when each one's ends lie in the
    # other.  Each end of the scan's run is one of the bounds below, give or
    # take one, so the scan is tried there alone and no diagonal is built.
    n = data.draw(st.integers(0, 10**9), label="n")
    i = data.draw(st.integers(0, n // 2), label="i")
    cfg = PathConfig(n, i, i)
    a = (cfg.p[0] + data.draw(st.integers(-i - 3, i + 3)), data.draw(st.integers(-3, i + 3)))
    b = (a[0] + data.draw(st.integers(-3, 2 * i + 5)), a[1] + data.draw(st.integers(-3, i + 5)))
    first_step = data.draw(st.sampled_from((0, 1)))
    for (px, py), count in ((cfg.p, i + 1), (cfg.p_prime, i)):
        run = paths._inside(a, b, (px, py), count, first_step)
        bounds = (0, count - 1, a[0] - px, a[1] - py, b[0] - px, b[1] - py, (first_step + a[0] - px + a[1] - py) // 2)
        ends = [run.start, run.stop - 1] if run else []
        for u in ends + [bound + d for bound in bounds for d in (-1, 0, 1)]:
            scanned = 0 <= u < count and _scan([(px + u, py + u)], a, b, first_step) != []
            assert (u in run) == scanned, (n, i, a, b, first_step, u)


def test_checks_do_not_use_the_vertex_api(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a check used the vertex API")

    for name in ("enumerate_paths", "rotate_180", "segment_intersections"):
        monkeypatch.setattr(paths, name, refuse)
    monkeypatch.setattr(paths.LatticePath, "vertices", refuse)
    for n, i, r in ((6, 2, 2), (14, 5, 5)):
        cfg = PathConfig(n, i, r)
        assert check_rotation_balance(cfg).rectangles == i * (i + 1) // 2
        assert check_crossing_claim(cfg).paths_total == cfg.path_count
        assert lhs_by_paths(cfg) - rhs_by_paths(cfg) == build_certificate(cfg).total == diagonal_sum(n, i, r)


def test_certificate_does_not_enumerate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate enumerated paths")

    for name in ("check_crossing_claim", "_visits", "_layouts", "enumerate_paths"):
        monkeypatch.setattr(paths, name, refuse)
    assert build_certificate(PathConfig(6, 2, 2)).total == 28
    assert build_certificate(PathConfig(18, 7, 7)).path_count == 170_544


def test_certificate_sums_no_binomials_per_width(monkeypatch):
    # The point map stands for each width's middle-leg balance, so the
    # certificate counts O(i) path families: N2 once a reached width (19 at
    # (40, 20, 20)), the two incidence sums over the diagonal points inside
    # (80) and the path count (1).
    calls, real = [], paths._count_paths
    monkeypatch.setattr(paths, "_count_paths", lambda a, b: calls.append((a, b)) or real(a, b))
    build_certificate(PathConfig(40, 20, 20))
    assert len(calls) <= 100


@pytest.mark.parametrize("r, one", [(2002, 0), (2001, 0), (2000, 1)])
def test_certificate_counts_only_the_points_inside(monkeypatch, r, one):
    # A diagonal point outside the O -> D rectangle carries no path, and
    # the certificate counts none there: two path families a point inside,
    # N2 once a width and the path count.  At (2000, 1000, r), D = (2000 - r,
    # 2000 - r) leaves at most P inside; counting C(2u, u) at each of the
    # 1,001 base points, for terms that vanish, costs a minute at n = 20000.
    cfg = PathConfig(2000, 1000, r)
    inside = [_scan(side, cfg.origin, cfg.dest, 0) for side in (cfg.base, cfg.shifted)]
    calls, real = [], paths._count_paths
    monkeypatch.setattr(paths, "_count_paths", lambda a, b: calls.append((a, b)) or real(a, b))
    cert = build_certificate(cfg)
    assert len(calls) <= 2 * len(inside[0] + inside[1]) + len(inside[1]) + 1
    assert cert == paths.Certificate(2000, 1000, r, one, 0, one, (), one, one, one, one)


@pytest.mark.parametrize("n", [80, 97])
def test_middle_legs_balance_by_binomials(n):
    # A binomial oracle for the balance the certificate takes from the point
    # map: over the paths base[0] -> shifted[w], the visits at the base
    # points and at the shifted points are equal in number.  A point outside
    # the rectangle carries no path.  Every n gives a translate of the same
    # rectangles, so two n are enough.
    cfg = PathConfig(n, 40, 40)
    rb = cfg.base[0]
    for w, rp in enumerate(cfg.shifted):
        through_base = sum(count_paths(rb, a) * count_paths(a, rp) for a in cfg.base)
        through_shifted = sum(count_paths(rb, b) * count_paths(b, rp) for b in cfg.shifted)
        assert through_base == through_shifted > 0, (n, w)


@pytest.mark.parametrize("n, i, r", [(40, 15, 15), (80, 30, 30)])
def test_certificate_beyond_enumeration(n, i, r):
    # 2.3e12 and 2.9e25 paths: only a polynomial-time certificate gets here.
    cfg = PathConfig(n, i, r)
    cert = build_certificate(cfg)
    assert cert.path_count == cfg.path_count > 10**12
    assert cert.total == diagonal_sum(n, i, r)
    assert (cert.lhs, cert.rhs) == (lhs_by_formula(cfg), rhs_by_formula(cfg))
    assert cert.boundary_terms and all(c > 0 for *_, c in cert.boundary_terms)
    assert cert.avoiding_term >= 0
    assert cert.total == cert.avoiding_term + sum(c for *_, c in cert.boundary_terms)


def _bump_forward(monkeypatch):
    """The forward table lets one extra path reach the shifted diagonal first."""
    real = paths._first_passage

    def bumped(cfg, marks, forward):
        table = real(cfg, marks, forward)
        if forward:
            point = cfg.shifted[0]
            table[point] = (*table[point][:3], table[point][3] + 1)
        return table

    monkeypatch.setattr(paths, "_first_passage", bumped)
    return build_certificate


def _skew_formula(monkeypatch):
    monkeypatch.setattr(paths, "lhs_by_formula", lambda cfg: 1)
    return build_certificate


def _walk(visits):
    def walker(monkeypatch):
        monkeypatch.setattr(paths, "_visits", lambda cfg, a, b: iter([visits]))
        return check_crossing_claim

    return walker


def _rotation(name, fake, check=check_rotation_balance):
    def patch(monkeypatch):
        monkeypatch.setattr(paths, name, fake(getattr(paths, name)))
        return check

    return patch


def _drop_p_prime_column(real):
    """The rectangle P -> P' at (6, 2, 2) loses P' = (4, 0) from its shifted
    points; the reads of other rectangles keep it."""

    def points(cfg, a, b, first_step=0):
        base, shifted = real(cfg, a, b, first_step)
        return base, [v for v in shifted if not b == v == (4, 0)]

    return points


def _drop_p(real):
    """Each record's base count loses the visit at P, always a first base
    point; the rotation balance reads the counts alone."""
    def walker(cfg, a, b):
        for base, shifted, first_base, last_shifted in real(cfg, a, b):
            yield base - (first_base == cfg.p), shifted, first_base, last_shifted

    return walker


# One case per InternalCheckError raise site in paths.py, each on (6, 2, 2),
# and one per caller of the point-map check.  The rotation sites share kind
# and context, so they name their message.
IMAGE_MISMATCH = "v -> (6, 0) - v does not map the base points of (2, 0) -> (4, 0) onto its shifted points"
RAISE_SITES = {
    "dp-claim": (_bump_forward, "claim-violation", None, None),
    "dp-group": (_rotation("_points", _drop_p_prime_column, build_certificate), "claim-violation",
                 ((2, 0), (4, 0)), IMAGE_MISMATCH),
    "dp-total": (_skew_formula, "decomposition-mismatch", None, None),
    "survey-untouched-base": (_walk((0, 1, None, (2, 0))), "claim-violation", None, None),
    "survey-order": (_walk((1, 1, (4, 2), (4, 0))), "claim-violation", ((4, 2), (4, 0)), None),
    "rotation-balance": (_rotation("_visits", _drop_p), "claim-violation", ((2, 0), (4, 0)),
                         "rectangle (2, 0) -> (4, 0): base visits 0 != shifted visits 1"),
    "rotation-image": (_rotation("_points", _drop_p_prime_column), "claim-violation", ((2, 0), (4, 0)),
                       IMAGE_MISMATCH),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_internal_check_context(monkeypatch, site):
    patch, kind, group, message = RAISE_SITES[site]
    check = patch(monkeypatch)
    with pytest.raises(InternalCheckError) as err:
        check(PathConfig(6, 2, 2))
    assert err.value.kind == kind
    if message:
        assert str(err.value) == f"{kind}: {message}"
    expected = {"n": 6, "i": 2, "r": 2}
    if group:
        expected.update({"R": group[0], "R'": group[1]})
    assert err.value.context == expected
    assert str(err.value).startswith(f"{kind}: ")
