"""Human-readable rendering: quadratic forms, regrouped forms, ASCII grids.

The gamma monomials print as ``g0^2`` / ``g0*g2``.  Plain quadratic forms are
listed diagonal by diagonal, in the order of ``CoeffTable.diagonals`` (index
sum ascending, spread ascending within a diagonal).  The regrouped view rewrites each diagonal through its prefix sums

    sum_t c_t m_t  =  A_0 (m_0 - m_1) + A_1 (m_1 - m_2) + ... + A_last m_last

which exhibits the form as visibly nonnegative whenever the gamma vector is
log-concave without internal zeros (every bracketed difference m_t - m_{t+1}
is then nonnegative, and the prefix sums A_t always are).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import check_work
from .polycore import format_rational

if TYPE_CHECKING:  # annotations only; `coeffs` needs no path engine
    from .coefficients import CoeffTable
    from .paths import LatticePath, PathConfig


def monomial(j: int, k: int) -> str:
    return f"g{j}^2" if j == k else f"g{j}*g{k}"


def _join_terms(parts: list[tuple[int, str]]) -> str:
    if not parts:
        return "0"
    out: list[str] = []
    for coeff, text in parts:
        size = format_rational(abs(coeff))
        if not out:
            out.append(f"-{size} {text}" if coeff < 0 else f"{size} {text}")
        else:
            out.append(f"{'-' if coeff < 0 else '+'} {size} {text}")
    return " ".join(out)


def format_quadratic_form(table: CoeffTable, include_zeros: bool = False) -> str:
    """One-line rendering like ``h_3^2 - h_2*h_4 = 175 g0^2 + 120 g0*g1 + ...``."""
    parts = [
        (c, monomial(j, k))
        for diag in table.diagonals()
        for (j, k), c in zip(diag.pairs, diag.values)
        if c != 0 or include_zeros
    ]
    i = table.i
    return f"h_{i}^2 - h_{i - 1}*h_{i + 1} = " + _join_terms(parts)


def format_regrouped(table: CoeffTable) -> str:
    """Rendering with each diagonal bracketed into telescoping differences."""
    chunks: list[str] = []
    for diag in table.diagonals():
        if all(v == 0 for v in diag.values):
            continue
        if len(diag.pairs) == 1:
            chunks.append(_join_terms([(diag.values[0], monomial(*diag.pairs[0]))]))
            continue
        inner: list[str] = []
        for t, a in enumerate(diag.prefix_sums):
            if a == 0:
                continue
            if t + 1 < len(diag.pairs):
                inner.append(f"{format_rational(a)} ({monomial(*diag.pairs[t])} - {monomial(*diag.pairs[t + 1])})")
            else:
                inner.append(f"{format_rational(a)} {monomial(*diag.pairs[t])}")
        chunks.append("[" + " + ".join(inner) + "]")
    i = table.i
    return f"h_{i}^2 - h_{i - 1}*h_{i + 1} = " + (" + ".join(chunks) if chunks else "0")


def render_grid(cfg: PathConfig, path: LatticePath | None = None) -> str:
    """ASCII picture of the configuration, optionally with one path overlaid.

    Legend: ``o`` base diagonal, ``x`` shifted diagonal, ``*`` path vertex,
    ``B``/``S`` path vertex on the base/shifted diagonal, ``O`` origin,
    ``D`` destination.  A grid of more than ``errors.WORK_LIMIT`` / 200
    cells (about 150 ns each) is refused with ``RangeError`` before drawing.
    """
    xmax = max(cfg.dest[0], cfg.n - cfg.i + 1, 0)
    ymax = max(cfg.dest[1], cfg.i, 0)
    check_work(200 * (xmax + 1) * (ymax + 1), f"a grid of {xmax + 1} x {ymax + 1} cells")
    cells = {}
    for pt in cfg.base:
        cells[pt] = "o"
    for pt in cfg.shifted:
        cells[pt] = "x"
    cells.setdefault(cfg.origin, "O")
    if cfg.dest[1] >= 0:
        cells[cfg.dest] = "D"
    if path is not None:
        for v in path.vertices():
            if v in cfg.base:
                cells[v] = "B"
            elif v in cfg.shifted:
                cells[v] = "S"
            else:
                cells[v] = "*"
    lines = [
        f"n={cfg.n} i={cfg.i} r={cfg.r}: O={cfg.origin} D={cfg.dest} "
        f"P={cfg.p} Q={cfg.q} P'={cfg.p_prime} Q'={cfg.q_prime}"
    ]
    for y in range(ymax, -1, -1):
        row = " ".join(cells.get((x, y), ".") for x in range(xmax + 1))
        lines.append(f"y={y:<2} {row}")
    lines.append(f"     x = 0 .. {xmax}")
    lines.append("legend: o base diagonal, x shifted diagonal, * path, B/S path on diagonal, O origin, D end")
    return "\n".join(lines)
