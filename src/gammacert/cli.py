"""Command-line front end.

Subcommands: ``gamma`` (basis transforms), ``check`` (sequence predicates and
the transfer implication), ``coeffs`` (quadratic-form tables), ``diagonal``
(one diagonal with its tail-sign report), ``certify`` (the path certificate),
``sweep`` (property suites).  ``--json`` switches any of them to the
deterministic JSON wire format (except ``certify --ascii``, a text grid).

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage or input
error, 3 violated internal check (impossible unless the code is wrong), 120
stdout closed by its reader (the interpreter's own status for a failed
final flush).

Every command is bounded before it starts.  Those that count or enumerate
(``gamma`` and ``check --transfer``, charged for the size of their entries
as well as n, their denominators by their lcm; ``coeffs``, charged for its
printing as well as its table; ``diagonal``, the three ``certify`` views,
every ``sweep`` suite and ``check --pairwise``) charge their work to the one
fixed work limit, ``errors.WORK_LIMIT``, and work above it is refused with
exit 2; the other ``check`` predicates, ``check --ulc`` among them, are
linear in their input.  In the library ``count_paths``,
``basis_polynomial`` and ``abel_check`` are charged too; ``binomial`` is
the one unbounded primitive.  A ``sweep`` is bounded case by case, not as
a whole: ``--suite signs --max-n 400``, each case within the limit, runs
for minutes (the ROADMAP plans one budget per sweep).

Every vector entry, coefficient, sum, certificate term and witness printed,
text or JSON, goes through ``polycore.format_rational``, which writes an
integer past the interpreter's 4,300-digit cap on ``str()`` in full without
lifting the cap; input entries stay capped (exit 2).

Each command loads only the layers it runs.  At module level this file
imports ``errors`` and ``polycore``, which parsing, ``gamma`` and every
printed number need.  ``jsonio``, and with it the standard library's
``json``, is imported by the ``--json`` and ``--file`` branches only.  Each
``cmd_*`` imports the rest itself: ``check`` the predicates, ``coeffs`` and
``diagonal`` the coefficient tables (which load no predicates), ``coeffs``
the renderer for text output only, ``certify`` the path engine and, for
``--ascii`` only, the renderer; ``sweep`` the suites, which load the
predicates and ``random`` only in the suites that use them.  No layer loads
``dataclasses``.  A process runs one command, so importing at module level
would make every command pay for every layer.

``run()``, what ``python -m gammacert`` and the ``gammacert`` script call,
calls ``gc.freeze()`` after ``main()`` returns and before ``sys.exit``.
CPython's finalization runs garbage collections that scan every tracked
object, about 5 ms a process, to free memory the exiting process no longer
needs; frozen objects are skipped.  Everything else of finalization still
runs, atexit handlers among it.  ``run()`` flushes stdout itself first, so
a reader that closed it is met by one report and one status, 120, whether
the write fails inside the command (a line longer than the buffer) or at
that flush.  ``main()`` itself never freezes, so tests and library callers
keep a collected heap.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .errors import GammaCertError, InternalCheckError, ParseError
from .polycore import GammaVector, SymmetricPolynomial, format_rational, gamma_to_h, h_to_gamma, rational_vector

if TYPE_CHECKING:
    from .concavity import SequenceReport

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_STDOUT = 120

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


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{'stdin' if path == '-' else path} is not UTF-8: {exc}") from None


def _read_vector(args, kind: str | None) -> tuple[int | None, Sequence]:
    """(n, coefficients) from ``--file``, a payload of ``kind`` (any kind if
    None) whose n must match ``--n``, or else from ``--n`` and the inline list;
    never both sources, since one would go unread."""
    if args.file:
        from .jsonio import loads_vector

        if args.coeffs is not None:
            raise ParseError("pass an inline coefficient list or --file, not both")
        vec = loads_vector(_read_text(args.file), kind)
        if args.n is not None and args.n != vec.n:
            raise ParseError(f"--n {args.n} contradicts the file's n={vec.n}")
        return vec.n, vec.h if isinstance(vec, SymmetricPolynomial) else vec.gamma
    if args.coeffs is None:
        raise ParseError("provide an inline coefficient list or --file")
    return args.n, args.coeffs.split(",")


def _vector_line(vec: GammaVector | SymmetricPolynomial) -> str:
    """``h = 1,7,20,29,20,7,1``: the text form of a vector, its payload's kind
    and coefficients."""
    kind, coeffs = ("h", vec.h) if isinstance(vec, SymmetricPolynomial) else ("gamma", vec.gamma)
    return f"{kind} = {','.join(map(format_rational, coeffs))}"


def cmd_gamma(args) -> int:
    n, coeffs = _read_vector(args, "gamma" if args.to_h else "h")
    if n is None:
        raise ParseError("--n is required with inline coefficients")
    result = gamma_to_h(GammaVector(n, coeffs)) if args.to_h else h_to_gamma(SymmetricPolynomial(n, coeffs))
    if args.json:
        from .jsonio import dumps, vector_payload

        print(dumps(vector_payload(result)))
    else:
        print(_vector_line(result))
    return EXIT_OK


def _print_report(report: SequenceReport, prefix: str = "") -> None:
    """``log-concave: false (witness: 1)``: the report's kind after ``prefix``."""
    witness = "" if report.witness is None else f" (witness: {','.join(map(format_rational, report.witness))})"
    print(f"{prefix}{report.kind}: {str(report.verdict).lower()}{witness}")


def cmd_check(args) -> int:
    from .concavity import (
        check_transfer,
        has_internal_zeros,
        is_log_concave,
        is_ultra_log_concave,
        is_unimodal,
        pairwise_log_concave,
    )

    if args.n is not None and not args.transfer:
        raise ParseError("--n sets the symmetry of --transfer; pass --transfer with it")
    n, seq = _read_vector(args, "gamma" if args.transfer else None)
    seq = rational_vector(seq)

    results = []  # (report, the verdict that holds)
    if args.lc:
        results.append((is_log_concave(seq), True))
    if args.ulc is not None:
        results.append((is_ultra_log_concave(seq, args.ulc), True))
    if args.unimodal:
        results.append((is_unimodal(seq), True))
    if args.no_internal_zeros:
        results.append((has_internal_zeros(seq), False))
    if args.pairwise:
        results.append((pairwise_log_concave(seq), True))
    all_hold = all(report.verdict == hold_when for report, hold_when in results)

    transfer = None
    if args.transfer:
        if n is None:
            raise ParseError("--transfer needs --n (or a file that carries n)")
        transfer = check_transfer(GammaVector(n, seq))
        all_hold &= transfer.hypothesis and transfer.conclusion

    if not results and transfer is None:
        raise ParseError("no predicate requested; pass --lc/--ulc/--unimodal/--no-internal-zeros/--pairwise/--transfer")

    if args.json:
        from .jsonio import check_payload, dumps

        print(dumps(check_payload([report for report, _ in results], transfer)))
    else:
        for report, _ in results:
            _print_report(report)
        if transfer is not None:
            _print_report(transfer.gamma_shape, "gamma ")
            _print_report(transfer.gamma_internal_zeros, "gamma ")
            _print_report(transfer.h_shape, "h ")
            _print_report(transfer.h_internal_zeros, "h ")
            print(_vector_line(transfer.h))
            print(f"hypothesis: {str(transfer.hypothesis).lower()}")
            print(f"conclusion: {str(transfer.conclusion).lower()}")
            print(f"implication: {'VIOLATED' if transfer.violation else 'ok'}")
    if transfer is not None and transfer.violation:
        return EXIT_INTERNAL
    return EXIT_OK if all_hold else EXIT_FALSE


def cmd_coeffs(args) -> int:
    from .coefficients import _check_printed_table, coeff_table

    # JSON with --regrouped prints each coefficient, its diagonal entry and a
    # prefix sum; every other view one number a coefficient.
    _check_printed_table(args.n, args.i, 3 if args.json and args.regrouped else 1)
    table = coeff_table(args.n, args.i)
    if args.json:
        from .jsonio import dumps, table_payload

        print(dumps(table_payload(table, args.regrouped)))
    else:
        from .render import format_quadratic_form, format_regrouped

        print(format_regrouped(table) if args.regrouped else format_quadratic_form(table, include_zeros=args.zeros))
    return EXIT_OK


def cmd_diagonal(args) -> int:
    from .coefficients import diagonal

    parity = "odd" if args.odd else "even"
    diag = diagonal(args.n, args.i, args.l, parity)
    if args.json:
        from .jsonio import diagonal_payload, dumps

        print(dumps(diagonal_payload(diag)))
    else:
        values = " ".join(map(format_rational, diag.values)) or "(none)"
        status = "OK" if diag.tail_sign_ok else "VIOLATED"
        print(f"{values} | tail-sign: {status} | total: {format_rational(diag.total)}")
    if not diag.tail_sign_ok:
        # Guaranteed impossible in the lemma range 2i <= n; elsewhere it is
        # merely a false verdict.
        return EXIT_INTERNAL if 2 * args.i <= args.n else EXIT_FALSE
    return EXIT_OK


def cmd_certify(args) -> int:
    from .paths import (
        LatticePath,
        PathConfig,
        build_certificate,
        lhs_by_formula,
        rhs_by_formula,
        segment_intersections,
    )

    if args.path is not None and not args.ascii:
        raise ParseError("--path overlays the --ascii grid; pass --ascii with it")
    if args.ascii and args.json:
        raise ParseError("--ascii draws a text grid and has no JSON form; drop --json or --ascii")
    cfg = PathConfig(args.n, args.i, args.r)
    if args.ascii:
        from .render import render_grid

        overlay = None
        if args.path is not None:
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
            from .jsonio import dumps, formula_payload

            print(dumps(formula_payload(cfg, lhs, rhs)))
        else:
            print(f"lhs = {format_rational(lhs)}")
            print(f"rhs = {format_rational(rhs)}")
            print(f"lhs - rhs = {format_rational(lhs - rhs)}")
        return EXIT_OK
    cert = build_certificate(cfg)
    if args.json:
        from .jsonio import certificate_payload, dumps

        print(dumps(certificate_payload(cert)))
    else:
        num = format_rational
        boundary_total = sum(c for *_, c in cert.boundary_terms)
        print(f"lhs = {num(cert.lhs)}")
        print(f"rhs = {num(cert.rhs)}")
        print(f"total = {num(cert.total)} = {num(cert.avoiding_term)} (avoiding) + {num(boundary_total)} (boundary)")
        print(f"paths: {num(cert.path_count)} total, {num(cert.contributing_paths)} contributing "
              f"({num(cert.avoiding_contributing)} of them avoiding the shifted diagonal)")
        for rb, rp, count in cert.boundary_terms:
            print(f"  boundary R={rb} R'={rp}: {num(count)}")
    return EXIT_OK


# suite -> (run(sweeps module, max_n), default max_n)
_SWEEPS = {
    "oracle": (lambda sw, max_n: sw.sweep_oracle(max_n), 12),
    "signs": (lambda sw, max_n: sw.sweep_sign_structure(max_n), 16),
    "totals": (lambda sw, max_n: sw.sweep_diagonal_totals(max_n), 16),
    "paths": (lambda sw, max_n: sw.sweep_path_identities(max_n), 8),
    "transfer": (lambda sw, max_n: sw.sweep_transfer(max_n), 8),
    "ulc": (lambda sw, max_n: sw.sweep_ulc_transfer(max_n), 8),
    "abel": (lambda sw, max_n: sw.sweep_abel_random(2000), None),
}


def cmd_sweep(args) -> int:
    from . import sweeps

    # Each suite runs once, in the order first named.
    names = list(dict.fromkeys(args.suite or sorted(_SWEEPS)))
    if args.max_n is not None and args.max_n < 0:
        raise ParseError(f"--max-n must be nonnegative, got {args.max_n}")
    if args.max_n is not None and all(_SWEEPS[name][1] is None for name in names):
        raise ParseError(f"--max-n sets a range of n, which suite {', '.join(sorted(names))} does not have")
    reports = []
    for name in names:
        run_suite, default_n = _SWEEPS[name]
        reports.append(run_suite(sweeps, default_n if args.max_n is None else args.max_n))
    if args.json:
        from .jsonio import dumps, sweep_payload

        print(dumps(sweep_payload(reports)))
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
    view = p.add_mutually_exclusive_group()
    view.add_argument("--formula-only", action="store_true", help="print the binomial sums instead of the certificate")
    view.add_argument("--ascii", action="store_true", help="draw the grid (optionally with --path; no --json)")
    p.add_argument("--path", help="step string over E/N to overlay on the --ascii grid")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="run property suites and summarize")
    p.add_argument("--suite", action="append", choices=sorted(_SWEEPS), help="suite name (repeatable; default all)")
    p.add_argument("--max-n", type=integer, help="override the per-suite default range")
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
    except InternalCheckError as exc:
        print(f"internal check violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        raise  # not an input error: ``run()`` reports a closed stdout
    except (GammaCertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """``main()`` as a process: its code is the exit status.  Its output is
    flushed, and a closed stdout reported with ``EXIT_CLOSED_STDOUT``; the
    objects alive at that point are frozen, so the interpreter's final
    collections skip them (see the module docstring)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # What is left in the buffer goes to the null device, so the final
        # flush does not report the pipe a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CLOSED_STDOUT
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
