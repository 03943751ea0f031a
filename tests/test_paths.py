"""Lattice paths: counting, enumeration, claims, and the certificate."""

import pytest

from gammacert import (
    EndpointError,
    LatticePath,
    PathConfig,
    PathCountExceededError,
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

    def test_cap_carries_exact_count(self):
        with pytest.raises(PathCountExceededError) as err:
            list(enumerate_paths((0, 0), (30, 30), cap=1000))
        assert err.value.count == binomial(60, 30)
        assert err.value.cap == 1000


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
        assert cfg.base.points == ((2, 0), (3, 1), (4, 2))
        assert cfg.shifted.points == ((4, 0), (5, 1))
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
        assert cfg.shifted.points == ()
        assert cfg.base.points == ((5, 0),)


class TestFormulas:
    def test_golden_n6(self):
        cfg = PathConfig(6, 2, 2)
        assert lhs_by_formula(cfg) == 46
        assert rhs_by_formula(cfg) == 18

    def test_weight_zero_single_term(self):
        cfg = PathConfig(8, 3, 0)
        assert lhs_by_formula(cfg) == binomial(8, 3) ** 2
        assert rhs_by_formula(cfg) == binomial(8, 2) * binomial(8, 4)

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

    def test_cap_respected(self):
        with pytest.raises(PathCountExceededError) as err:
            lhs_by_paths(PathConfig(10, 5, 5), cap=10)
        assert err.value.count == 252


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

    def test_cap(self):
        with pytest.raises(PathCountExceededError):
            build_certificate(PathConfig(10, 5, 5), cap=10)


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
    for n in range(0, 9):
        for i in range(0, n // 2 + 1):
            for r in range(i, 2 * i + 3):
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
                assert crossing.paths_total == cert.path_count == cfg.path_count, (n, i, r)
