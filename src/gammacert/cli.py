"""Command-line front end.

Subcommands: ``gamma`` (basis transforms), ``check`` (sequence predicates and
the transfer implication), ``coeffs`` (quadratic-form tables), ``diagonal``
(one diagonal with its tail-sign report), ``certify`` (the path certificate),
``sweep`` (property suites).  ``--json`` switches any of them to the
deterministic JSON wire format.

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage or input
error, 3 violated internal check (impossible unless the code is wrong).

The enumeration cap for path commands defaults to 10**7 and can be overridden
with --cap or the GAMMACERT_PATH_CAP environment variable.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import __version__
from .coefficients import coeff_table, diagonal
from .concavity import (
    SequenceReport,
    check_transfer,
    has_internal_zeros,
    is_log_concave,
    is_ultra_log_concave,
    is_unimodal,
    pairwise_log_concave,
)
from .errors import GammaCertError, InternalCheckError, ParseError, PathCountExceededError
from .jsonio import (
    SCHEMA,
    certificate_payload,
    diagonal_payload,
    dumps,
    format_rational,
    loads_vector,
    report_payload,
    table_payload,
    transfer_payload,
    vector_payload,
)
from .paths import DEFAULT_CAP, LatticePath, PathConfig, build_certificate, lhs_by_formula, rhs_by_formula, segment_intersections
from .polycore import GammaVector, SymmetricPolynomial, gamma_to_h, h_to_gamma, rational_vector
from .render import format_quadratic_form, format_regrouped, regroup, render_grid
from .sweeps import (
    sweep_abel_random,
    sweep_diagonal_totals,
    sweep_oracle,
    sweep_path_identities,
    sweep_sign_structure,
    sweep_transfer,
    sweep_ulc_transfer,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

CAP_ENV_VAR = "GAMMACERT_PATH_CAP"


_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """The type of every integer input: ``[+-]?[0-9]+``.  ``int()`` alone would
    also read other scripts' digits, ``_`` separators and surrounding blanks."""
    try:
        if _INTEGER_RE.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() will convert
        pass
    raise ParseError(f"not an integer: {text!r}")


def _nonnegative(name: str, value: int | None) -> int | None:
    if value is not None and value < 0:
        raise ParseError(f"{name} must be nonnegative, got {value}")
    return value


def _path_cap(args) -> int:
    """The enumeration cap: --cap, else $GAMMACERT_PATH_CAP, else DEFAULT_CAP."""
    if args.cap is not None:
        return _nonnegative("--cap", args.cap)
    raw = os.environ.get(CAP_ENV_VAR)
    try:
        return DEFAULT_CAP if raw is None else _nonnegative(CAP_ENV_VAR, integer(raw))
    except ParseError as exc:
        raise ParseError(f"{CAP_ENV_VAR} must be a nonnegative integer, got {raw!r}") from exc


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{'stdin' if path == '-' else path} is not UTF-8: {exc}") from None


def _format_vector(values) -> str:
    return ",".join(format_rational(v) for v in values)


def cmd_gamma(args) -> int:
    kind = "gamma" if args.to_h else "h"
    if args.file:
        vec = loads_vector(_read_text(args.file), kind)
        if args.n is not None and args.n != vec.n:
            raise ParseError(f"--n {args.n} contradicts the file's n={vec.n}")
    else:
        if args.coeffs is None:
            raise ParseError("provide an inline coefficient list or --file")
        if args.n is None:
            raise ParseError("--n is required with inline coefficients")
        coeffs = args.coeffs.split(",")
        vec = GammaVector(args.n, coeffs) if kind == "gamma" else SymmetricPolynomial(args.n, coeffs)
    if args.to_h:
        result = gamma_to_h(vec)
        label = "h"
    else:
        result = h_to_gamma(vec)
        label = "gamma"
    if args.json:
        print(dumps(vector_payload(result)))
    else:
        values = result.h if label == "h" else result.gamma
        print(f"{label} = {_format_vector(values)}")
    return EXIT_OK


def _print_report(report: SequenceReport, label: str) -> None:
    if report.witness is None:
        print(f"{label}: {str(report.verdict).lower()}")
    else:
        witness = ",".join(str(w) for w in report.witness)
        print(f"{label}: {str(report.verdict).lower()} (witness: {witness})")


def cmd_check(args) -> int:
    if args.file:
        vec = loads_vector(_read_text(args.file))
        seq = vec.h if isinstance(vec, SymmetricPolynomial) else vec.gamma
        file_n = vec.n
    else:
        if args.coeffs is None:
            raise ParseError("provide an inline coefficient list or --file")
        seq = rational_vector(args.coeffs.split(","))
        file_n = None

    requested = []
    if args.lc:
        requested.append(("log-concave", lambda: is_log_concave(seq), True))
    if args.ulc is not None:
        requested.append(("ultra-log-concave", lambda: is_ultra_log_concave(seq, args.ulc), True))
    if args.unimodal:
        requested.append(("unimodal", lambda: is_unimodal(seq), True))
    if args.no_internal_zeros:
        requested.append(("internal-zeros", lambda: has_internal_zeros(seq), False))
    if args.pairwise:
        requested.append(("pairwise-log-concave", lambda: pairwise_log_concave(seq), True))

    results = []
    all_hold = True
    payloads = []
    for label, run, hold_when in requested:
        report = run()
        results.append((label, report))
        payloads.append(report_payload(report))
        all_hold &= report.verdict == hold_when

    transfer = None
    if args.transfer:
        if args.n is not None and file_n is not None and args.n != file_n:
            raise ParseError(f"--n {args.n} contradicts the file's n={file_n}")
        n = args.n if args.n is not None else file_n
        if n is None:
            raise ParseError("--transfer needs --n (or a file that carries n)")
        transfer = check_transfer(GammaVector(n, seq))
        all_hold &= transfer.hypothesis and transfer.conclusion

    if not requested and transfer is None:
        raise ParseError("no predicate requested; pass --lc/--ulc/--unimodal/--no-internal-zeros/--pairwise/--transfer")

    if args.json:
        body = {"schema": SCHEMA, "kind": "check", "results": payloads}
        if transfer is not None:
            body["transfer"] = transfer_payload(transfer)
        print(dumps(body))
    else:
        for label, report in results:
            _print_report(report, label)
        if transfer is not None:
            _print_report(transfer.gamma_shape, "gamma log-concave")
            _print_report(transfer.gamma_internal_zeros, "gamma internal-zeros")
            _print_report(transfer.h_shape, "h log-concave")
            _print_report(transfer.h_internal_zeros, "h internal-zeros")
            print(f"h = {_format_vector(transfer.h.h)}")
            print(f"hypothesis: {str(transfer.hypothesis).lower()}")
            print(f"conclusion: {str(transfer.conclusion).lower()}")
            print(f"implication: {'VIOLATED' if transfer.violation else 'ok'}")
    if transfer is not None and transfer.violation:
        return EXIT_INTERNAL
    return EXIT_OK if all_hold else EXIT_FALSE


def cmd_coeffs(args) -> int:
    table = coeff_table(args.n, args.i)
    if args.json:
        body = table_payload(table)
        if args.regrouped:
            body["regrouped"] = [
                {
                    "index_sum": d.index_sum,
                    "pairs": [list(p) for p in d.pairs],
                    "values": [str(v) for v in d.values],
                    "prefix_sums": [str(a) for a in d.prefix_sums],
                }
                for d in regroup(table)
            ]
        print(dumps(body))
    else:
        if args.regrouped:
            print(format_regrouped(table))
        else:
            print(format_quadratic_form(table, include_zeros=args.zeros))
    return EXIT_OK


def cmd_diagonal(args) -> int:
    parity = "odd" if args.odd else "even"
    diag = diagonal(args.n, args.i, args.l, parity)
    if args.json:
        print(dumps(diagonal_payload(diag)))
    else:
        values = " ".join(str(v) for v in diag.values)
        status = "OK" if diag.tail_sign_ok else "VIOLATED"
        print(f"{values} | tail-sign: {status} | total: {diag.total}")
    if not diag.tail_sign_ok:
        # Guaranteed impossible in the lemma range 2i <= n; elsewhere it is
        # merely a false verdict.
        return EXIT_INTERNAL if 2 * args.i <= args.n else EXIT_FALSE
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = PathConfig(args.n, args.i, args.r)
    cap = _path_cap(args)
    if args.ascii:
        overlay = None
        if args.path:
            overlay = LatticePath(cfg.origin, args.path)
            if overlay.end != cfg.dest:
                raise ParseError(f"path ends at {overlay.end}, expected D={cfg.dest}")
        print(render_grid(cfg, overlay))
        if overlay is not None:
            base_hits = segment_intersections(overlay, cfg.base)
            shifted_hits = segment_intersections(overlay, cfg.shifted)
            print(f"path meets base diagonal at {len(base_hits)} point(s), shifted at {len(shifted_hits)}")
        return EXIT_OK
    if args.formula_only:
        lhs, rhs = lhs_by_formula(cfg), rhs_by_formula(cfg)
        if args.json:
            print(dumps({"schema": SCHEMA, "kind": "certificate-formula", "n": cfg.n, "i": cfg.i, "r": cfg.r,
                         "lhs": str(lhs), "rhs": str(rhs), "total": str(lhs - rhs)}))
        else:
            print(f"lhs = {lhs}")
            print(f"rhs = {rhs}")
            print(f"lhs - rhs = {lhs - rhs}")
        return EXIT_OK
    cert = build_certificate(cfg, cap)
    if args.json:
        print(dumps(certificate_payload(cert)))
    else:
        boundary_total = sum(c for *_, c in cert.boundary_terms)
        print(f"lhs = {cert.lhs}")
        print(f"rhs = {cert.rhs}")
        print(f"total = {cert.total} = {cert.avoiding_term} (avoiding) + {boundary_total} (boundary)")
        print(f"paths: {cert.path_count} total, {cert.contributing_paths} contributing "
              f"({cert.avoiding_contributing} of them avoiding the shifted diagonal)")
        for rb, rp, count in cert.boundary_terms:
            print(f"  boundary R={rb} R'={rp}: {count}")
    return EXIT_OK


# suite -> (run(max_n, cap), default max_n)
_SWEEPS = {
    "oracle": (lambda max_n, cap: sweep_oracle(max_n), 12),
    "signs": (lambda max_n, cap: sweep_sign_structure(max_n), 16),
    "totals": (lambda max_n, cap: sweep_diagonal_totals(max_n), 16),
    "paths": (sweep_path_identities, 8),
    "transfer": (lambda max_n, cap: sweep_transfer(max_n), 8),
    "ulc": (lambda max_n, cap: sweep_ulc_transfer(max_n), 8),
    "abel": (lambda max_n, cap: sweep_abel_random(2000), None),
}


def cmd_sweep(args) -> int:
    names = args.suite or sorted(_SWEEPS)
    cap = _path_cap(args)
    _nonnegative("--max-n", args.max_n)
    reports = []
    for name in names:
        run_suite, default_n = _SWEEPS[name]
        reports.append(run_suite(default_n if args.max_n is None else args.max_n, cap))
    if args.json:
        print(dumps({
            "schema": SCHEMA,
            "kind": "sweep",
            "reports": [
                {"name": r.name, "cases": r.cases, "failures": r.failures, "notes": r.notes} for r in reports
            ],
        }))
    else:
        for r in reports:
            status = "ok" if r.ok else f"FAILED ({len(r.failures)})"
            notes = "".join(f" {k}={v}" for k, v in sorted(r.notes.items()))
            print(f"{r.name}: {r.cases} checks, {status}{notes}")
            for failure in r.failures[:10]:
                print(f"    {failure}")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gammacert", description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--version", action="version", version=f"gammacert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="transform between h- and gamma-coefficients")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-h", action="store_true", help="expand a gamma vector into h-coefficients")
    direction.add_argument("--to-gamma", action="store_true", help="extract the gamma vector of a symmetric h")
    p.add_argument("--n", type=integer, help="symmetry parameter (center n/2)")
    p.add_argument("--file", help="JSON vector file ('-' for stdin)")
    p.add_argument("--json", action="store_true")
    p.add_argument("coeffs", nargs="?", help="inline comma-separated rationals, e.g. 1,6,15/2")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("check", help="sequence predicates and the transfer implication")
    p.add_argument("--lc", action="store_true", help="log-concavity")
    p.add_argument("--ulc", type=integer, metavar="M", help="ultra log-concavity of order M")
    p.add_argument("--unimodal", action="store_true")
    p.add_argument("--no-internal-zeros", action="store_true",
                   help="holds when no zero sits between two nonzero entries")
    p.add_argument("--pairwise", action="store_true", help="all cross products a_i a_{j-1} >= a_{i-1} a_j")
    p.add_argument("--transfer", action="store_true",
                   help="treat input as a gamma vector and check the log-concavity transfer to h")
    p.add_argument("--n", type=integer, help="symmetry parameter, required by --transfer with inline input")
    p.add_argument("--file", help="JSON vector file ('-' for stdin)")
    p.add_argument("--json", action="store_true")
    p.add_argument("coeffs", nargs="?", help="inline comma-separated rationals")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("coeffs", help="quadratic-form coefficient table for (n, i)")
    p.add_argument("n", type=integer)
    p.add_argument("i", type=integer)
    p.add_argument("--regrouped", action="store_true", help="prefix-sum (telescoping) regrouping per diagonal")
    p.add_argument("--zeros", action="store_true", help="keep zero terms in the plain rendering")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("diagonal", help="one diagonal of the table, with tail-sign report")
    p.add_argument("n", type=integer)
    p.add_argument("i", type=integer)
    p.add_argument("l", type=integer)
    parity = p.add_mutually_exclusive_group()
    parity.add_argument("--even", action="store_true", help="index sum 2l (default)")
    parity.add_argument("--odd", action="store_true", help="index sum 2l-1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diagonal)

    p = sub.add_parser("certify", help="nonnegative path decomposition of lhs - rhs for (n, i, r)")
    p.add_argument("n", type=integer)
    p.add_argument("i", type=integer)
    p.add_argument("r", type=integer)
    p.add_argument("--formula-only", action="store_true", help="skip enumeration, print the binomial sums")
    p.add_argument("--ascii", action="store_true", help="draw the grid (optionally with --path)")
    p.add_argument("--path", help="step string over E/N to overlay on the --ascii grid")
    p.add_argument("--cap", type=integer, help=f"enumeration cap (default {DEFAULT_CAP} or ${CAP_ENV_VAR})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="run property suites and summarize")
    p.add_argument("--suite", action="append", choices=sorted(_SWEEPS), help="suite name (repeatable; default all)")
    p.add_argument("--max-n", type=integer, help="override the per-suite default range")
    p.add_argument("--cap", type=integer, help="enumeration cap for path suites")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PathCountExceededError as exc:
        print(f"error: {exc}; re-run with --formula-only or raise --cap", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal check violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GammaCertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
