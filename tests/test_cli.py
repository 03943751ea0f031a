"""Command-line interface: outputs, exit codes, JSON determinism."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gammacert
from gammacert import GammaVector, PathConfig, diagonal, diagonal_sum, errors, gamma_to_h, lhs_by_formula, rhs_by_formula
from gammacert import coefficients
from gammacert.cli import main

from test_jsonio import read_decimal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGammaCommand:
    def test_to_h(self, capsys):
        code, out, _ = run(capsys, "gamma", "--to-h", "--n", "6", "1,1,1,1")
        assert code == 0
        assert out.strip() == "h = 1,7,20,29,20,7,1"

    def test_to_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma", "--to-gamma", "--n", "6", "1,6,15,20,15,6,1")
        assert code == 0
        assert out.strip() == "gamma = 1,0,0,0"

    def test_rational_entries(self, capsys):
        code, out, _ = run(capsys, "gamma", "--to-h", "--n", "2", "1/2,3")
        assert code == 0
        assert out.strip() == "h = 1/2,4,1/2"

    def test_malformed_input(self, capsys):
        code, _, err = run(capsys, "gamma", "--to-h", "--n", "6", "1,zap,3,4")
        assert code == 2
        assert "entry 1" in err

    def test_asymmetric_rejected(self, capsys):
        code, _, err = run(capsys, "gamma", "--to-gamma", "--n", "2", "1,2,3")
        assert code == 2
        assert "symmetric" in err

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "gamma", "--to-h", "1,2")
        assert code == 2

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "gamma", "--to-h", "--n", "6", "1,0,0,0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"] == ["1", "6", "15", "20", "15", "6", "1"]

    def test_file_input(self, capsys, tmp_path):
        vec = tmp_path / "vec.json"
        vec.write_text('{"schema":"1","kind":"gamma","n":6,"coeffs":["1","1","1","1"]}')
        code, out, _ = run(capsys, "gamma", "--to-h", "--file", str(vec))
        assert code == 0
        assert out.strip() == "h = 1,7,20,29,20,7,1"

    def test_file_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gamma", "--to-h", "--n", "6", "1,1,1,1", "--json")
        vec = tmp_path / "h.json"
        vec.write_text(out)
        code, out, _ = run(capsys, "gamma", "--to-gamma", "--file", str(vec))
        assert code == 0
        assert out.strip() == "gamma = 1,1,1,1"

    def test_inline_list_beside_file_is_rejected(self, capsys, tmp_path):
        vec = tmp_path / "g.json"
        vec.write_text('{"schema":"1","kind":"gamma","n":6,"coeffs":["1","1","1","1"]}')
        code, out, err = run(capsys, "gamma", "--to-h", "--file", str(vec), "9,9,9,9")
        assert (code, out) == (2, "")
        assert "--file" in err and "inline" in err

    def test_leading_minus_needs_separator(self, capsys):
        code, out, _ = run(capsys, "gamma", "--to-h", "--n", "6", "--", "-1,0,0,0")
        assert code == 0
        assert out.strip() == "h = -1,-6,-15,-20,-15,-6,-1"


class TestCheckCommand:
    def test_lc_false_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--lc", "1,1,2")
        assert code == 1
        assert out.strip() == "log-concave: false (witness: 1)"

    def test_ulc_true(self, capsys):
        code, out, _ = run(capsys, "check", "--ulc", "3", "1,3,3,1")
        assert code == 0
        assert out.strip() == "ultra-log-concave: true"

    def test_ulc_is_linear_in_its_input(self):
        # Order 20000 on 20,001 zeros: a fresh process answers within 5 s.
        src = str(Path(gammacert.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "gammacert", "check", "--ulc", "20000", ",".join(["0"] * 20001)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert (proc.returncode, proc.stdout) == (0, "ultra-log-concave: true\n")

    def test_no_internal_zeros_semantics(self, capsys):
        code, out, _ = run(capsys, "check", "--no-internal-zeros", "1,0,1")
        assert code == 1
        assert "internal-zeros: true (witness: 0,1,2)" in out
        code, _, _ = run(capsys, "check", "--no-internal-zeros", "0,1,1,0")
        assert code == 0

    def test_multiple_predicates_all_must_hold(self, capsys):
        code, out, _ = run(capsys, "check", "--lc", "--unimodal", "1,4,4,1")
        assert code == 0
        assert "log-concave: true" in out and "unimodal: true" in out
        code, _, _ = run(capsys, "check", "--lc", "--no-internal-zeros", "1,0,0,1")
        assert code == 1

    def test_transfer(self, capsys):
        code, out, _ = run(capsys, "check", "--transfer", "--n", "6", "1,1,1,1")
        assert code == 0
        assert "hypothesis: true" in out
        assert "conclusion: true" in out
        assert "implication: ok" in out

    def test_transfer_hypothesis_fails(self, capsys):
        code, out, _ = run(capsys, "check", "--transfer", "--n", "6", "1,0,1,0")
        assert code == 1
        assert "hypothesis: false" in out

    def test_predicates_on_h_file(self, capsys, tmp_path):
        vec = tmp_path / "h.json"
        vec.write_text('{"schema":"1","kind":"h","n":6,"coeffs":["1","6","15","20","15","6","1"]}')
        code, out, _ = run(capsys, "check", "--lc", "--unimodal", "--file", str(vec))
        assert code == 0
        assert "log-concave: true" in out

    def test_transfer_from_gamma_file_uses_its_n(self, capsys, tmp_path):
        vec = tmp_path / "g.json"
        vec.write_text('{"schema":"1","kind":"gamma","n":6,"coeffs":["1","1","1","1"]}')
        code, out, _ = run(capsys, "check", "--transfer", "--file", str(vec))
        assert code == 0
        assert "implication: ok" in out

    def test_inline_list_beside_file_is_rejected(self, capsys, tmp_path):
        vec = tmp_path / "g.json"
        vec.write_text('{"schema":"1","kind":"gamma","n":6,"coeffs":["1","1","1","1"]}')
        code, out, err = run(capsys, "check", "--lc", "--file", str(vec), "1,1,2")
        assert (code, out) == (2, "")
        assert "--file" in err and "inline" in err

    def test_transfer_file_must_be_gamma(self, capsys, tmp_path):
        for n, coeffs in ((0, '["1"]'), (6, '["1","6","15","20","15","6","1"]')):
            vec = tmp_path / f"h{n}.json"
            vec.write_text(f'{{"schema":"1","kind":"h","n":{n},"coeffs":{coeffs}}}')
            code, out, err = run(capsys, "check", "--transfer", "--file", str(vec))
            assert (code, out) == (2, "")
            assert "payload kind 'h' does not match requested 'gamma'" in err

    def test_transfer_reads_an_untagged_file_as_gamma(self, capsys, tmp_path):
        vec = tmp_path / "g.json"
        vec.write_text('{"n":6,"coeffs":["1","1","1","1"]}')
        code, out, _ = run(capsys, "check", "--transfer", "--file", str(vec))
        assert code == 0
        assert "implication: ok" in out

    def test_negative_entry_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--lc", "1,-2,1")
        assert code == 2
        assert "negative" in err

    def test_no_predicate_requested(self, capsys):
        code, _, err = run(capsys, "check", "1,2,3")
        assert code == 2

    def test_n_needs_transfer(self, capsys, tmp_path):
        vec = tmp_path / "g.json"
        vec.write_text('{"schema":"1","kind":"gamma","n":6,"coeffs":["1","1","1","1"]}')
        for source in (["1,2,1"], ["--file", str(vec)]):
            code, out, err = run(capsys, "check", "--lc", "--n", "7", *source)
            assert (code, out) == (2, "")
            assert "--n" in err and "--transfer" in err


class TestCoeffsCommand:
    def test_spot_values(self, capsys):
        code, out, _ = run(capsys, "coeffs", "16", "5")
        assert code == 0
        assert "- 182 g1*g5" in out
        assert "- 1820 g0*g6" in out

    def test_regrouped(self, capsys):
        code, out, _ = run(capsys, "coeffs", "8", "3", "--regrouped")
        assert code == 0
        assert "315 g0*g2" in out and "120 g0*g3" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "coeffs", "6", "1", "--json")
        payload = json.loads(out)
        assert [0, 2, "-1"] in payload["entries"]

    def test_json_regrouped_structure(self, capsys):
        code, out, _ = run(capsys, "coeffs", "8", "3", "--json", "--regrouped")
        payload = json.loads(out)
        by_sum = {block["index_sum"]: block for block in payload["regrouped"]}
        assert by_sum[4]["prefix_sums"] == ["10", "28", "0"]
        assert by_sum[4]["pairs"] == [[2, 2], [1, 3], [0, 4]]

    def test_range_error(self, capsys):
        code, _, err = run(capsys, "coeffs", "6", "6")
        assert code == 2

    def test_work_above_the_limit_is_refused_up_front(self, capsys):
        # Each would run for minutes or more; every counting command refuses
        # it before computing anything.
        for argv in (
            ["coeffs", "100000", "50000"],
            ["diagonal", "40000", "20000", "100"],
            ["certify", "1000000", "500000", "500000"],
            ["certify", "200000", "100000", "100000", "--formula-only"],
            ["certify", "40000", "10000", "10000", "--ascii"],
            ["gamma", "--to-h", "--n", "4000", ",".join(["1"] * 2001)],
            ["check", "--pairwise", ",".join(["0"] * 633)],
            # A sweep takes its largest case first.
            ["sweep", "--suite", "paths", "--max-n", "21"],
            ["sweep", "--suite", "signs", "--max-n", "100000"],
            ["sweep", "--suite", "totals", "--max-n", "100000"],
            ["sweep", "--suite", "oracle", "--max-n", "100000"],
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 0.5, argv
            assert (code, out) == (2, "")
            assert "above the limit of 1000000000" in err

    @pytest.mark.parametrize("argv", [["coeffs", "1088", "544"], ["coeffs", "1000", "500", "--json", "--regrouped"]],
                             ids=["text", "json-regrouped"])
    def test_printing_is_charged_before_the_table(self, capsys, argv):
        # Each table is within the limit on its own, but printing it took
        # 1.9 s and 50 MB (text) or 3.0 s and 116 MB (JSON with --regrouped).
        n, i = int(argv[1]), int(argv[2])
        kmax = coefficients._kmax(n, i)
        assert coefficients._coefficient_work(n, i, (kmax + 1) * (kmax + 2) // 2) <= errors.WORK_LIMIT
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert f"the printed table at n={n}, i={i}: work" in err

    def test_transfer_grids_are_refused_at_their_largest_case(self, capsys):
        # The grids expand before any predicate, so the expansion refuses
        # at n = 100000 as fast as the other suites.
        for suite in ("transfer", "ulc"):
            start = time.perf_counter()
            code, out, err = run(capsys, "sweep", "--suite", suite, "--max-n", "100000")
            assert time.perf_counter() - start < 0.5, suite
            assert (code, out) == (2, "")
            assert "above the limit of 1000000000" in err
            assert "a gamma vector of n=100000" in err


class TestDiagonalCommand:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "diagonal", "16", "5", "3", "--even")
        assert code == 0
        assert out.strip() == "825 1177 -182 -1820 | tail-sign: OK | total: 0"

    def test_odd(self, capsys):
        code, out, _ = run(capsys, "diagonal", "16", "5", "3", "--odd")
        assert code == 0
        assert out.startswith("6930 3822 -2184 | tail-sign: OK")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "diagonal", "6", "2", "1", "--json")
        payload = json.loads(out)
        assert payload["values"] == ["10", "18"]

    def test_no_pairs_past_the_last_gamma(self, capsys):
        # At n = 2 there is no gamma_2, so (0, 2) is not listed; at
        # (16, 15) the table ends at index sum 4, below 2l = 16.
        assert run(capsys, "diagonal", "2", "1", "1", "--json")[:2] == (0, (
            '{"i":1,"kind":"diagonal","l":1,"n":2,"pairs":[[1,1]],"parity":"even",'
            '"schema":"1","tail_sign_ok":true,"total":"1","values":["1"]}\n'
        ))
        assert run(capsys, "diagonal", "16", "15", "8", "--even")[:2] == (0, "(none) | tail-sign: OK | total: 0\n")


class TestCertifyCommand:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "certify", "6", "2", "2")
        assert code == 0
        assert "total = 28 = 27 (avoiding) + 1 (boundary)" in out
        assert "15 contributing" in out
        assert "14 of them avoiding" in out

    def test_formula_only(self, capsys):
        code, out, _ = run(capsys, "certify", "6", "2", "2", "--formula-only")
        assert code == 0
        assert "lhs - rhs = 28" in out

    def test_formula_only_far_past_the_terms(self, capsys):
        # Every term vanishes for r > 2i+1, and none is summed.
        start = time.perf_counter()
        code, out, _ = run(capsys, "certify", "6", "2", "1000000", "--formula-only")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (0, "lhs = 0\nrhs = 0\nlhs - rhs = 0\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "certify", "6", "2", "2", "--json")
        payload = json.loads(out)
        assert payload["total"] == "28"

    def test_ascii_with_path(self, capsys):
        code, out, _ = run(capsys, "certify", "6", "2", "2", "--ascii", "--path", "EEEENNEE")
        assert code == 0
        assert "base diagonal at 2 point(s), shifted at 1" in out

    def test_ascii_without_path(self, capsys):
        code, out, _ = run(capsys, "certify", "6", "2", "2", "--ascii")
        assert code == 0
        assert "y=0  O . o . x . ." in out

    def test_ascii_path_must_reach_destination(self, capsys):
        code, _, err = run(capsys, "certify", "6", "2", "2", "--ascii", "--path", "EN")
        assert code == 2
        assert "expected D" in err

    def test_ascii_empty_path_is_checked(self, capsys):
        code, out, err = run(capsys, "certify", "6", "2", "2", "--ascii", "--path", "")
        assert (code, out) == (2, "")
        assert "path ends at (0, 0), expected D=(6, 2)" in err
        code, out, _ = run(capsys, "certify", "0", "0", "0", "--ascii", "--path", "")
        assert code == 0
        assert "base diagonal at 1 point(s), shifted at 0" in out

    def test_certify_counts_past_the_path_cap(self, capsys):
        # 847,660,528 paths, far more than any walk within the work limit:
        # the certificate counts them, and no option sets a path cap.
        code, out, _ = run(capsys, "certify", "30", "10", "10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["path_count"] == 847_660_528
        assert payload["total"] == str(diagonal_sum(30, 10, 10))
        code, out, err = run(capsys, "certify", "6", "2", "2", "--cap", "10")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cap 10" in err

    def test_ascii_and_formula_only_exclude_each_other(self, capsys):
        code, out, err = run(capsys, "certify", "6", "2", "2", "--ascii", "--formula-only")
        assert (code, out) == (2, "")
        assert "not allowed with argument --ascii" in err

    def test_ascii_has_no_json_form(self, capsys):
        code, out, err = run(capsys, "certify", "6", "2", "2", "--ascii", "--json")
        assert (code, out) == (2, "")
        assert "--ascii" in err and "--json" in err

    def test_path_needs_ascii(self, capsys):
        code, out, err = run(capsys, "certify", "6", "2", "2", "--path", "EN", "--json")
        assert (code, out) == (2, "")
        assert "--path" in err and "--ascii" in err

    def test_cap_env_var(self, capsys, monkeypatch):
        # No command reads the variable of the former path cap.
        for value in ("10", "not-a-number"):
            monkeypatch.setenv("GAMMACERT_PATH_CAP", value)
            code, out, _ = run(capsys, "certify", "10", "5", "5")
            assert code == 0
            assert "paths: 252 total" in out

    def test_destination_below_the_axis(self, capsys):
        # D = (-2, -2): no path and no diagonal point is reachable, so the
        # certificate counts nothing, though P..Q holds 10,001 points.
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", "20000", "10000", "20002")
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        assert out == (
            "lhs = 0\nrhs = 0\ntotal = 0 = 0 (avoiding) + 0 (boundary)\n"
            "paths: 0 total, 0 contributing (0 of them avoiding the shifted diagonal)\n"
        )

    def test_certificate_served_at_n_1200_half(self, capsys):
        # 0.35 to 0.38 s of work, once charged 9.1e9 for per-width sums that
        # are no longer computed.  Its stdout is that of the earlier code
        # with the limit lifted: 599 boundary lines, and this digest.
        code, out, err = run(capsys, "certify", "1200", "600", "600")
        assert (code, err) == (0, "")
        cfg = PathConfig(1200, 600, 600)
        assert out.startswith(f"lhs = {lhs_by_formula(cfg)}\nrhs = {rhs_by_formula(cfg)}\n")
        assert len(out.splitlines()) == 603
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ed2393915ca4048b8f083d270fbbb7df8e0a3d96c8ed0e1f84a803368a2568f8"
        )

    def test_certificate_refused_at_n_1600_half(self, capsys):
        # Its two table passes and binomial sums alone are charged 1.03e9.
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", "1600", "800", "800")
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert "the certificate at n=1600, i=800, r=800: work" in err

    def test_below_domain(self, capsys):
        code, _, err = run(capsys, "certify", "6", "2", "1")
        assert code == 2
        assert "r >= i" in err


class TestSweepCommand:
    def test_small_suites(self, capsys):
        code, out, _ = run(capsys, "sweep", "--suite", "oracle", "--suite", "totals", "--max-n", "6")
        assert code == 0
        assert "oracle-equivalence(n<=6)" in out
        assert "ok" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sweep", "--suite", "paths", "--max-n", "4", "--json")
        payload = json.loads(out)
        assert payload["reports"][0]["failures"] == []

    def test_max_n_needs_a_suite_that_reads_it(self, capsys):
        code, out, err = run(capsys, "sweep", "--suite", "abel", "--max-n", "3")
        assert (code, out) == (2, "")
        assert "--max-n" in err and "abel" in err
        code, out, _ = run(capsys, "sweep", "--suite", "abel", "--suite", "totals", "--max-n", "3")
        assert code == 0 and "diagonal-totals(n<=3)" in out

    def test_cap_env_var(self, capsys, monkeypatch):
        # The variable of the former path cap is not read.
        served = run(capsys, "sweep", "--suite", "paths", "--max-n", "8")
        assert served[0] == 0
        for value in ("10", "not-a-number"):
            monkeypatch.setenv("GAMMACERT_PATH_CAP", value)
            assert run(capsys, "sweep", "--suite", "paths", "--max-n", "8") == served

    def test_refused_range_walks_nothing(self, capsys, monkeypatch):
        # n = 21 is refused at the crossing walk (21, 9, 9), charged before
        # the served walks at (21, 10, r) would run.
        monkeypatch.setattr(gammacert.paths, "_layouts", lambda a, b: pytest.fail(f"walked {a} -> {b}"))
        code, out, err = run(capsys, "sweep", "--suite", "paths", "--max-n", "21")
        assert (code, out) == (2, "")
        assert err == "error: the path walk at n=21, i=9, r=9: work 1681510144 is above the limit of 1000000000\n"

    def test_refused_walk_exits_2(self, capsys, monkeypatch):
        # A walk above the work limit escapes the suite (exit 2, nothing on
        # stdout); it is not a failed check (exit 3).  No option raises it.
        code, out, err = run(capsys, "sweep", "--suite", "paths", "--max-n", "8", "--cap", "10")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cap 10" in err
        monkeypatch.setattr(errors, "WORK_LIMIT", 10**5)
        code, out, err = run(capsys, "sweep", "--suite", "paths", "--max-n", "8")
        assert (code, out) == (2, "")
        assert "walk at n=" in err and "is above the limit of 100000" in err

    GOLDEN_TEXT = (
        "abel-random(2000): 4000 checks, ok\n"
        "oracle-equivalence(n<=12): 1861 checks, ok\n"
        "path-identities(n<=8): 548 checks, ok paths_enumerated=626\n"
        "sign-structure(n<=16): 1236 checks, ok\n"
        "diagonal-totals(n<=16): 838 checks, ok boundary_positives=64\n"
        "transfer-grid(n<=8,entries<=3): 1704 checks, ok hypothesis_true=473\n"
        "ulc-transfer-grid(n<=8,entries<=2): 483 checks, ok hypothesis_true=132\n"
    )

    GOLDEN_JSON = (
        '{"kind":"sweep","reports":['
        '{"cases":4000,"failures":[],"name":"abel-random(2000)","notes":{}},'
        '{"cases":1861,"failures":[],"name":"oracle-equivalence(n<=12)","notes":{}},'
        '{"cases":548,"failures":[],"name":"path-identities(n<=8)","notes":{"paths_enumerated":626}},'
        '{"cases":1236,"failures":[],"name":"sign-structure(n<=16)","notes":{}},'
        '{"cases":838,"failures":[],"name":"diagonal-totals(n<=16)","notes":{"boundary_positives":64}},'
        '{"cases":1704,"failures":[],"name":"transfer-grid(n<=8,entries<=3)","notes":{"hypothesis_true":473}},'
        '{"cases":483,"failures":[],"name":"ulc-transfer-grid(n<=8,entries<=2)","notes":{"hypothesis_true":132}}'
        '],"schema":"1"}\n'
    )

    def test_every_suite_golden(self, capsys):
        assert run(capsys, "sweep")[:2] == (0, self.GOLDEN_TEXT)
        assert run(capsys, "sweep", "--json")[:2] == (0, self.GOLDEN_JSON)


class TestBigIntegers:
    """Numbers past the interpreter's 4,300-digit cap on str() are printed in
    full, as text and as JSON, with exit 0 (input stays capped: see
    test_boundary)."""

    NINES = ",".join(["9" * 4290] * 21)

    def test_diagonal(self, capsys):
        values = diagonal(7400, 3700, 1).values
        code, out, _ = run(capsys, "diagonal", "7400", "3700", "1")
        assert code == 0
        printed, _, total = out.partition(" | tail-sign: OK | total: ")
        assert [read_decimal(v) for v in printed.split()] == list(values)
        assert read_decimal(total.strip()) == sum(values) and len(total.strip()) > 4300
        code, out, _ = run(capsys, "diagonal", "7400", "3700", "1", "--json")
        assert code == 0 and [read_decimal(v) for v in json.loads(out)["values"]] == list(values)

    def test_certify_formula_only(self, capsys):
        cfg = PathConfig(9000, 4500, 0)
        lhs, rhs = lhs_by_formula(cfg), rhs_by_formula(cfg)
        code, out, _ = run(capsys, "certify", "9000", "4500", "0", "--formula-only")
        assert code == 0
        assert [read_decimal(line.split(" = ")[1]) for line in out.splitlines()] == [lhs, rhs, lhs - rhs]
        code, out, _ = run(capsys, "certify", "9000", "4500", "0", "--formula-only", "--json")
        payload = json.loads(out)
        assert code == 0 and (read_decimal(payload["lhs"]), read_decimal(payload["total"])) == (lhs, lhs - rhs)

    def test_gamma_to_h(self, capsys):
        h = gamma_to_h(GammaVector(40, self.NINES.split(","))).h
        code, out, _ = run(capsys, "gamma", "--to-h", "--n", "40", self.NINES)
        assert code == 0 and [read_decimal(v) for v in out.strip().removeprefix("h = ").split(",")] == list(h)
        code, out, _ = run(capsys, "gamma", "--to-h", "--n", "40", "--json", self.NINES)
        assert code == 0 and [read_decimal(v) for v in json.loads(out)["coeffs"]] == list(h)

    def test_check_transfer(self, capsys):
        h = gamma_to_h(GammaVector(40, self.NINES.split(","))).h
        code, out, _ = run(capsys, "check", "--transfer", "--n", "40", self.NINES)
        assert code == 0
        line = next(line for line in out.splitlines() if line.startswith("h = "))
        assert [read_decimal(v) for v in line.removeprefix("h = ").split(",")] == list(h)
        code, out, _ = run(capsys, "check", "--transfer", "--n", "40", "--json", self.NINES)
        assert code == 0 and [read_decimal(v) for v in json.loads(out)["transfer"]["h"]["coeffs"]] == list(h)

    def test_large_denominators_are_refused_at_once(self, capsys, tmp_path):
        # 2,000-digit p/q entries took 8.3 s (n = 100) and 75.5 s (n = 200).
        for n in (100, 200):
            coeffs = [f"{10**1999 + 2 * t + 1}/{10**1999 + 2 * t + 3}" for t in range(n // 2 + 1)]
            vec = tmp_path / f"gamma{n}.json"
            vec.write_text(json.dumps({"kind": "gamma", "n": n, "coeffs": coeffs}))
            for command in ("gamma --to-h", "check --transfer"):
                start = time.perf_counter()
                code, out, err = run(capsys, *command.split(), "--file", str(vec))
                assert time.perf_counter() - start < 0.1, (n, command)
                assert (code, out) == (2, "") and f"a gamma vector of n={n}: work" in err


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "certify", "8", "3", "3", "--json")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("gammacert ")


def gammacert_process(*argv: str, close_stdout: bool = False, code: str | None = None) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of ``python -m gammacert argv`` (or of
    ``python -c code``) in a fresh interpreter, its stdout a pipe that is
    buffered as a user's is; with ``close_stdout`` the pipe is closed before
    the process writes."""
    src = str(Path(gammacert.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-c", code] if code else [sys.executable, "-m", "gammacert", *argv]
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if close_stdout:
        proc.stdout.close()
        proc.stdout = None  # communicate() then reads stderr only
    out, err = proc.communicate(timeout=60)
    return proc.returncode, out or "", err


class TestProcessExit:
    """``python -m gammacert`` exits through ``cli.run``, which freezes the
    heap before ``sys.exit`` so the final collections skip it; the rest of
    finalization, stream flushing and its error report, still runs."""

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["gamma", "--to-h", "--n", "6", "1,1,1,1"], 0),
            (["coeffs", "60", "25"], 0),  # one line of 10 KB, longer than stdout's 8 KB buffer
            (["check", "--lc", "1,1,2"], 1),
            (["check", "--lc", "1,x,2"], 2),
        ],
        ids=["gamma", "coeffs-long", "check-false", "malformed"],
    )
    def test_piped_output_is_complete(self, capsys, argv, status):
        expected = run(capsys, *argv)
        assert expected[0] == status
        assert gammacert_process(*argv) == expected

    def test_closed_stdout_is_reported_at_exit(self):
        # The output sits in the buffer until run() flushes it, which fails:
        # one report, and the status the interpreter gives a failed flush.
        status, _, err = gammacert_process("gamma", "--to-h", "--n", "6", "1,1,1,1", close_stdout=True)
        assert (status, err) == (120, "error: [Errno 32] Broken pipe\n")

    def test_closed_stdout_fails_a_long_write(self):
        # A line longer than the buffer is written at once, inside the
        # command: the same report and status, not the input-error exit 2.
        status, _, err = gammacert_process("coeffs", "60", "25", close_stdout=True)
        assert (status, err) == (120, "error: [Errno 32] Broken pipe\n")

    def test_run_freezes_after_main_and_atexit_still_runs(self):
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen' if gc.get_freeze_count() else 'not frozen'))\n"
            "sys.argv = ['gammacert', 'check', '--lc', '1,1,2']\n"
            "from gammacert.cli import run\n"
            "run()\n"
        )
        assert gammacert_process(code=code) == (1, "log-concave: false (witness: 1)\nfrozen\n", "")

    def test_main_does_not_freeze(self, capsys):
        assert gc.get_freeze_count() == 0
        assert run(capsys, "coeffs", "16", "5")[0] == 0
        assert gc.get_freeze_count() == 0
