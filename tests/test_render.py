"""Text renderings: plain and regrouped quadratic forms, ASCII grids."""

import pytest

from gammacert import LatticePath, PathConfig, RangeError, coeff_table, errors
from gammacert.render import format_quadratic_form, format_regrouped, render_grid


class TestPlainForm:
    def test_n6_i1(self):
        text = format_quadratic_form(coeff_table(6, 1))
        assert text == "h_1^2 - h_0*h_2 = 21 g0^2 + 8 g0*g1 + 1 g1^2 - 1 g0*g2"

    def test_zeros_skipped_by_default(self):
        text = format_quadratic_form(coeff_table(6, 1))
        assert "g1*g2" not in text
        with_zeros = format_quadratic_form(coeff_table(6, 1), include_zeros=True)
        assert "0 g1*g2" in with_zeros

    def test_n16_spot_values(self):
        text = format_quadratic_form(coeff_table(16, 5))
        assert "- 182 g1*g5" in text
        assert "- 1820 g0*g6" in text
        assert "4504864 g0^2" in text


class TestRegrouped:
    def test_bracket_values_n8(self):
        table = coeff_table(8, 3)
        prefix = {d.index_sum: d.prefix_sums for d in table.diagonals()}
        assert prefix[0] == (1176,)
        assert prefix[1] == (700,)
        assert prefix[2] == (105, 315)
        assert prefix[3] == (64, 120)
        assert prefix[4] == (10, 28, 0)
        assert prefix[5] == (6, 0)
        assert prefix[6] == (1, 0)

    def test_bracket_text_n8(self):
        text = format_regrouped(coeff_table(8, 3))
        assert "[105 (g1^2 - g0*g2) + 315 g0*g2]" in text
        assert "[64 (g1*g2 - g0*g3) + 120 g0*g3]" in text
        assert "[10 (g2^2 - g1*g3) + 28 (g1*g3 - g0*g4)]" in text
        assert "[6 (g2*g3 - g1*g4)]" in text
        assert "[1 (g3^2 - g2*g4)]" in text

    def test_prefix_sums_match_totals(self):
        table = coeff_table(16, 5)
        for d in table.diagonals():
            assert d.prefix_sums[-1] == sum(d.values) if d.values else True


class TestGrid:
    def test_marks_segments_and_endpoints(self):
        text = render_grid(PathConfig(6, 2, 2))
        lines = text.splitlines()
        assert lines[1] == "y=2  . . . . o . D"
        assert lines[2] == "y=1  . . . o . x ."
        assert lines[3] == "y=0  O . o . x . ."

    def test_path_overlay(self):
        path = LatticePath((0, 0), "EEEENNEE")
        text = render_grid(PathConfig(6, 2, 2), path)
        lines = text.splitlines()
        assert lines[3] == "y=0  * * B * S . ."  # origin, easts, base (2,0), shifted (4,0)
        assert "B" in lines[1]  # (4,2) on the base diagonal

    def test_refuses_work_above_the_limit(self, monkeypatch):
        # 7 x 3 cells at 200 units each, refused before drawing.
        monkeypatch.setattr(errors, "WORK_LIMIT", 4200)
        assert render_grid(PathConfig(6, 2, 2)).splitlines()[1] == "y=2  . . . . o . D"
        monkeypatch.setattr(errors, "WORK_LIMIT", 4199)
        with pytest.raises(RangeError, match="a grid of 7 x 3 cells: work 4200 is above the limit of 4199"):
            render_grid(PathConfig(6, 2, 2))
