"""The property-suite runners themselves, at small ranges."""

import random

import pytest

from gammacert import RangeError, coefficients, errors, paths, polycore, sweeps
from gammacert.coefficients import sign_quadratic
from gammacert.sweeps import (
    random_log_concave_gamma,
    sweep_abel_random,
    sweep_diagonal_totals,
    sweep_oracle,
    sweep_path_identities,
    sweep_sign_structure,
    sweep_transfer,
    sweep_transfer_random,
    sweep_ulc_transfer,
)
from gammacert import check_transfer, has_internal_zeros, is_log_concave


def test_oracle_sweep_counts_and_passes():
    rep = sweep_oracle(8)
    assert rep.ok and rep.cases > 100


def test_oracle_sweep_builds_each_table_once(monkeypatch):
    built = []
    real = coefficients._oracle_table
    monkeypatch.setattr(sweeps, "_oracle_table", lambda n, i: built.append((n, i)) or real(n, i))
    computed = []
    real_binomial = polycore.binomial
    for module in (polycore, coefficients):  # the basis kernel and the expansion oracle
        monkeypatch.setattr(module, "binomial", lambda n, k: computed.append((n, k)) or real_binomial(n, k))
    assert sweep_oracle(8).ok
    assert sorted(built) == [(n, i) for n in range(2, 9) for i in range(1, n)]
    # Three rows for the expansion and one triple per index for the closed
    # form: 6 (n//2 + 1) binomials per table, not a triple or two per pair.
    assert len(computed) == sum(6 * (n // 2 + 1) for n in range(2, 9) for i in range(1, n))


@pytest.mark.parametrize(
    "sweep, max_n, limit",
    [
        # Each limit is one unit below the suite's first, largest case.
        (sweep_oracle, 30, 16**2 * (500 + 2 * 30) - 1),  # the expansion at n = 30
        (sweep_sign_structure, 30, 2 * 15**2 - 1),  # diagonal(30, 15, 1)
        (sweep_diagonal_totals, 30, 15**2 - 1),  # diagonal_sum(30, 15, 0)
        (sweep_path_identities, 12, 1_239_840 - 1),  # the rotation walk at n = 12, i = 6
        # The default limit serves the walks at (21, 10, r) and refuses the
        # crossing walk at (21, 9, 9), charged before any of them runs.
        (sweep_path_identities, 21, errors.WORK_LIMIT),
    ],
    ids=["oracle", "signs", "totals", "paths", "paths-default-limit"],
)
def test_refused_range_is_refused_before_any_work(monkeypatch, sweep, max_n, limit):
    """The suites take their largest case first, and the path suite charges
    every walk before the first, so a range the work limit refuses computes
    no coefficient and walks no path before the refusal."""
    work = []
    real_binomial, real_layouts = polycore.binomial, paths._layouts
    for module in (polycore, coefficients):  # the basis kernel and the expansion oracle
        monkeypatch.setattr(module, "binomial", lambda n, k: work.append((n, k)) or real_binomial(n, k))
    monkeypatch.setattr(paths, "_layouts", lambda a, b: work.append((a, b)) or real_layouts(a, b))
    monkeypatch.setattr(errors, "WORK_LIMIT", limit)
    with pytest.raises(RangeError, match="above the limit"):
        sweep(max_n)
    assert work == []


def test_sign_structure_sweep():
    rep = sweep_sign_structure(12)
    assert rep.ok


def test_sign_structure_computes_each_quadratic_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return sign_quadratic(*args)

    monkeypatch.setattr(sweeps, "sign_quadratic", counted)
    monkeypatch.setattr(coefficients, "sign_quadratic", counted)
    assert sweep_sign_structure(12).ok
    diagonals = {(n, i, l, p) for n in range(2, 13) for i in range(1, n // 2 + 1)
                 for l in range(1, (i + 1) // 2 + 1) for p in ("even", "odd")}
    assert len(calls) == len(set(calls)) == len(diagonals)
    assert set(calls) == diagonals


def test_sign_structure_reuses_the_diagonals_coefficients(monkeypatch):
    """The identity check takes each slot's coefficient from its diagonal, so
    coefficient binomials are computed only for the diagonals and each
    quadratic's slot 0; the slot forms add two a slot.  Recomputing each
    slot's coefficient would add three to six binomials a slot."""
    computed = []
    real = polycore.binomial
    monkeypatch.setattr(polycore, "binomial", lambda n, k: computed.append((n, k)) or real(n, k))
    rep = sweep_sign_structure(30)
    assert rep.ok and rep.cases == 9_449
    assert len(computed) <= 38_216


def test_diagonal_totals_records_boundary():
    rep = sweep_diagonal_totals(8)
    assert rep.ok
    assert rep.notes["boundary_positives"] > 0


def test_path_identities_sweep():
    # Every family is walked as pairs of half-paths; the sweep's counts are
    # those of the direct walk.
    rep = sweep_path_identities(14)
    assert rep.ok
    assert (rep.cases, rep.notes) == (1_951, {"paths_enumerated": 62_590})


def test_path_identities_sweep_serves_n_20():
    # Within the work limit, with the report the direct walk gave at
    # n <= 20 with the limit lifted.
    expected = sweeps.SweepReport("path-identities(n<=20)")
    expected.cases, expected.notes["paths_enumerated"] = 4_887, 6_233_717
    assert sweep_path_identities(20) == expected


def test_transfer_sweeps():
    assert sweep_transfer(6, 2).ok
    assert sweep_ulc_transfer(6, 2).ok


def test_ulc_transfer_counts_hypotheses():
    rep = sweep_ulc_transfer(8, 2)
    assert rep.ok
    assert rep.notes["hypothesis_true"] > 0


def test_ulc_transfer_full_grid():
    # Order floor(n/2) on gamma forces order n on h, over the whole
    # entries-{0..3} grid up to n = 12 (the instance version of the
    # ultra-log-concave transfer).
    rep = sweep_ulc_transfer(12, 3)
    assert rep.ok
    assert rep.cases == sum(4 ** (n // 2 + 1) for n in range(13))


def test_randomized_sweeps_are_deterministic():
    a = sweep_transfer_random(200, 8, seed=5)
    b = sweep_transfer_random(200, 8, seed=5)
    assert a.ok and b.ok
    assert a.notes == b.notes
    assert sweep_abel_random(200, seed=5).ok


def test_constructed_gammas_satisfy_the_hypothesis():
    rng = random.Random(11)
    for _ in range(200):
        g = random_log_concave_gamma(rng, rng.randint(0, 12))
        assert is_log_concave(g.gamma).verdict
        assert not has_internal_zeros(g.gamma).verdict
        assert check_transfer(g).hypothesis
