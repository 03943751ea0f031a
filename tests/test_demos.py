"""The demos run to completion and still print what they walk through."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def run_demo(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_all_three_demos_found():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_completes(path):
    assert run_demo(path).strip()


def test_path_certificate_demo():
    lines = run_demo(DEMOS[2]).splitlines()
    assert "total = 28 = 27 (avoiding) + 1 (boundary)" in lines
    assert any(line.startswith("crossing claim: 14 of 28 paths ") for line in lines)
