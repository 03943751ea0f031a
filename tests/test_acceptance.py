"""Acceptance suite: one check per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Criterion 7 is split: 7a is the nonnegativity sweep together with the
vanishing statement on its actual domain of validity (n >= 2i+2); 7b keeps
the unrestricted form of the vanishing clause, which is arithmetically false
at the boundary i = floor(n/2) and therefore fails, on purpose (the analysis
is recorded in the project notes kept outside this repository).
"""

import time

from gammacert import (
    PathConfig,
    basis_polynomial,
    build_certificate,
    coeff_table,
    diagonal,
    diagonal_sum,
    quad_coeff,
)
from gammacert.render import format_quadratic_form, format_regrouped
from gammacert.sweeps import (
    sweep_abel_random,
    sweep_diagonal_totals,
    sweep_oracle,
    sweep_path_identities,
    sweep_sign_structure,
    sweep_transfer,
    sweep_transfer_random,
)

from test_coefficients import N6_I1, N6_I2, N6_I3, N8_I3, N16_I5_DISPLAY


def report(num, ok, detail, started, budget):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def table_matches(n, i, golden):
    table = coeff_table(n, i)
    if any(table.value(j, k) != v for (j, k), v in golden.items()):
        return False
    return all(v == 0 for (j, k), v in table.entries.items() if (j, k) not in golden)


def test_criterion_01_golden_n6():
    started = time.perf_counter()
    rows = {j: basis_polynomial(6, j) for j in range(4)}
    h_expressions_ok = (
        [rows[j][0] for j in range(4)] == [1, 0, 0, 0]
        and [rows[j][1] for j in range(4)] == [6, 1, 0, 0]
        and [rows[j][2] for j in range(4)] == [15, 4, 1, 0]
        and [rows[j][3] for j in range(4)] == [20, 6, 2, 1]
    )
    tables_ok = table_matches(6, 1, N6_I1) and table_matches(6, 2, N6_I2) and table_matches(6, 3, N6_I3)
    i1_render_ok = (
        format_quadratic_form(coeff_table(6, 1))
        == "h_1^2 - h_0*h_2 = 21 g0^2 + 8 g0*g1 + 1 g1^2 - 1 g0*g2"
    )
    symmetry_ok = (
        coeff_table(6, 4).entries == coeff_table(6, 2).entries
        and coeff_table(6, 5).entries == coeff_table(6, 1).entries
    )
    report(
        1,
        h_expressions_ok and tables_ok and i1_render_ok and symmetry_ok,
        "n=6 h-expressions, all three quadratic forms, mirror identity",
        started,
        1.0,
    )


def test_criterion_02_golden_n8():
    started = time.perf_counter()
    table_ok = table_matches(8, 3, N8_I3) and quad_coeff(8, 3, 0, 4) == -28
    prefix = {d.index_sum: d.prefix_sums for d in coeff_table(8, 3).diagonals()}
    regroup_ok = (
        prefix[0] == (1176,)
        and prefix[1] == (700,)
        and prefix[2] == (105, 315)
        and prefix[3] == (64, 120)
        and prefix[4] == (10, 28, 0)
        and prefix[5] == (6, 0)
        and prefix[6] == (1, 0)
    )
    text = format_regrouped(coeff_table(8, 3))
    render_ok = all(
        snippet in text
        for snippet in (
            "1176 g0^2",
            "700 g0*g1",
            "[105 (g1^2 - g0*g2) + 315 g0*g2]",
            "[64 (g1*g2 - g0*g3) + 120 g0*g3]",
            "[10 (g2^2 - g1*g3) + 28 (g1*g3 - g0*g4)]",
            "[6 (g2*g3 - g1*g4)]",
            "[1 (g3^2 - g2*g4)]",
        )
    )
    report(2, table_ok and regroup_ok and render_ok, "n=8 i=3 table and bracket regrouping", started, 1.0)


def test_criterion_03_golden_n16():
    started = time.perf_counter()
    values_ok = all(quad_coeff(16, 5, j, k) == v for (j, k), v in N16_I5_DISPLAY.items())
    diag = diagonal(16, 5, 3, "even")
    diag_ok = diag.values == (825, 1177, -182, -1820) and diag.tail_sign_ok
    report(3, values_ok and diag_ok, "n=16 i=5: all 25 displayed coefficients and the level-3 diagonal", started, 1.0)


def test_criterion_04_golden_paths():
    started = time.perf_counter()
    cert = build_certificate(PathConfig(6, 2, 2))
    ok = (
        diagonal_sum(6, 2, 2) == 28
        and cert.total == 28
        and cert.avoiding_term == 27
        and sum(c for *_, c in cert.boundary_terms) == 1
        and cert.contributing_paths == 15
        and cert.avoiding_contributing == 14
    )
    report(4, ok, "n=6 i=2 r=2: 28 = 27 + 1, 15 contributing paths, 14 avoiding", started, 1.0)


def test_criterion_05_oracle_equivalence():
    started = time.perf_counter()
    rep = sweep_oracle(20)
    report(5, rep.ok, f"closed formula vs expansion oracle, {rep.cases} checks", started, 30.0)


def test_criterion_06_sign_structure():
    started = time.perf_counter()
    rep = sweep_sign_structure(30)
    report(
        6,
        rep.ok,
        f"tail-sign/quadratic-signs/factorization up to n=30, {rep.cases} checks",
        started,
        60.0,
    )


def test_criterion_07a_totals_nonnegative_and_scoped_vanishing():
    started = time.perf_counter()
    rep = sweep_diagonal_totals(30)
    detail = (
        f"diagonal sums nonnegative for n<=30, vanishing above i for n>=2i+2, "
        f"{rep.cases} checks ({rep.notes['boundary_positives']} positive boundary sums recorded)"
    )
    report("7a", rep.ok, detail, started, 60.0)


def test_criterion_07b_vanishing_clause_as_stated():
    """The literal clause 'sum = 0 whenever r >= i+1' over the whole sweep
    range is false at the boundary i = floor(n/2) (first counterexample:
    n=2, i=1, r=2 gives 1); the analysis is in the project notes outside
    this repository.  This test keeps the unrestricted form and is EXPECTED
    TO FAIL."""
    started = time.perf_counter()
    counterexamples = []
    for n in range(2, 31):
        for i in range(1, n // 2 + 1):
            for r in range(i + 1, 2 * i + 1):
                value = diagonal_sum(n, i, r)
                if value != 0:
                    counterexamples.append((n, i, r, value))
    report(
        "7b",
        not counterexamples,
        "vanishing for every r >= i+1 without the n >= 2i+2 scope "
        f"({len(counterexamples)} counterexamples, first {counterexamples[:1]}; "
        "analysis in the project notes)",
        started,
        60.0,
    )


def test_criterion_08_path_identities():
    started = time.perf_counter()
    rep = sweep_path_identities(10)
    detail = (
        f"double counting, crossing claim, rotation balance, certificates for n<=10 "
        f"on the path domain i <= r, {rep.cases} checks, {rep.notes['paths_enumerated']} paths"
    )
    report(8, rep.ok, detail, started, 300.0)


def test_criterion_09_transfer_suite():
    started = time.perf_counter()
    grid = sweep_transfer(12, 3)
    rand = sweep_transfer_random(10_000, 12)
    detail = (
        f"transfer holds on the full {{0..3}} grid to n=12 ({grid.cases} vectors, "
        f"{grid.notes['hypothesis_true']} hypothesis-true) and on 10^4 random rational vectors "
        f"({rand.notes['hypothesis_true']} hypothesis-true)"
    )
    report(9, grid.ok and rand.ok, detail, started, 300.0)


def test_criterion_10_abel():
    started = time.perf_counter()
    rep = sweep_abel_random(10_000)
    report(10, rep.ok, f"10^4 randomized summation-by-parts instances, {rep.cases} checks", started, 30.0)
