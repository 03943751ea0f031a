"""JSON wire formats: exact rationals as strings, schema version "1".

Rationals travel as decimal-digit strings "p/q", shortened to "p" when the
denominator is 1, so no consumer is ever tempted to round.  Every payload
carries ``"schema": "1"``.  ``dumps`` is deterministic (sorted keys, fixed
separators): identical inputs give byte-identical output.  Each number is
written by ``polycore.format_rational``, the formatter of every number the CLI
prints, text or JSON; it is re-exported here.  The CLI imports this module,
and with it ``json``, only for ``--json`` output and ``--file`` input: most
commands print text, and a process would pay for both unused.

Every payload the command line prints is built here; by ``kind``: ``h`` and
``gamma`` (``vector_payload``, the only kinds read back), ``coeff-table``,
``diagonal``, ``certificate``, ``certificate-formula``, ``check`` (a
``report_payload`` per predicate, ``transfer_payload`` nested) and ``sweep``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Sequence

from .errors import ParseError
from .polycore import GammaVector, SymmetricPolynomial, format_rational

if TYPE_CHECKING:  # annotations only; importing them would load every layer
    from .coefficients import CoeffTable, DiagonalSequence
    from .concavity import SequenceReport, TransferReport
    from .paths import Certificate, PathConfig
    from .sweeps import SweepReport

SCHEMA = "1"


def dumps(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def vector_payload(obj: SymmetricPolynomial | GammaVector) -> dict[str, Any]:
    if isinstance(obj, SymmetricPolynomial):
        kind, coeffs = "h", obj.h
    else:
        kind, coeffs = "gamma", obj.gamma
    return {"schema": SCHEMA, "kind": kind, "n": obj.n, "coeffs": [format_rational(c) for c in coeffs]}


def parse_vector_payload(payload: dict[str, Any], kind: str | None = None) -> SymmetricPolynomial | GammaVector:
    """Rebuild a vector from its payload; ``kind`` overrides/validates the tag."""
    if not isinstance(payload, dict):
        raise ParseError(f"expected a JSON object, got {type(payload).__name__}")
    if "schema" in payload and payload["schema"] != SCHEMA:
        raise ParseError(f"unsupported schema {payload['schema']!r}, expected {SCHEMA!r}")
    tag = payload.get("kind", kind)
    if kind is not None and payload.get("kind") not in (None, kind):
        raise ParseError(f"payload kind {payload['kind']!r} does not match requested {kind!r}")
    if tag not in ("h", "gamma"):
        raise ParseError(f"payload kind must be 'h' or 'gamma', got {tag!r}")
    n, coeffs = payload.get("n"), payload.get("coeffs")
    if not isinstance(n, int) or isinstance(n, bool) or not isinstance(coeffs, list):
        raise ParseError(f"payload needs integer 'n' and list 'coeffs', got n={n!r} and {type(coeffs).__name__} coeffs")
    if tag == "h":
        return SymmetricPolynomial(n, coeffs)
    return GammaVector(n, coeffs)


def loads_vector(text: str, kind: str | None = None) -> SymmetricPolynomial | GammaVector:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer too long for int(), or nesting too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    return parse_vector_payload(payload, kind)


def table_payload(table: CoeffTable, regrouped: bool = False) -> dict[str, Any]:
    """The table's entries in diagonal order; with ``regrouped``, also one
    block per diagonal with its prefix sums (``coeffs --json --regrouped``)."""
    diagonals = table.diagonals()
    body: dict[str, Any] = {
        "schema": SCHEMA,
        "kind": "coeff-table",
        "n": table.n,
        "i": table.i,
        "entries": [[j, k, format_rational(c)] for diag in diagonals for (j, k), c in zip(diag.pairs, diag.values)],
    }
    if regrouped:
        body["regrouped"] = [
            {
                "index_sum": diag.index_sum,
                "pairs": [list(p) for p in diag.pairs],
                "values": [format_rational(v) for v in diag.values],
                "prefix_sums": [format_rational(a) for a in diag.prefix_sums],
            }
            for diag in diagonals
        ]
    return body


def diagonal_payload(diag: DiagonalSequence) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "diagonal",
        "n": diag.n,
        "i": diag.i,
        "l": diag.l,
        "parity": diag.parity,
        "pairs": [[j, k] for j, k in diag.pairs],
        "values": [format_rational(v) for v in diag.values],
        "tail_sign_ok": diag.tail_sign_ok,
        "total": format_rational(diag.total),
    }


def certificate_payload(cert: Certificate) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "certificate",
        "n": cert.n,
        "i": cert.i,
        "r": cert.r,
        "lhs": format_rational(cert.lhs),
        "rhs": format_rational(cert.rhs),
        "avoiding_term": format_rational(cert.avoiding_term),
        "boundary_terms": [[list(rb), list(rp), format_rational(c)] for rb, rp, c in cert.boundary_terms],
        "total": format_rational(cert.total),
        "path_count": cert.path_count,
        "contributing_paths": cert.contributing_paths,
        "avoiding_contributing": cert.avoiding_contributing,
    }


def formula_payload(cfg: PathConfig, lhs: int, rhs: int) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "certificate-formula",
        "n": cfg.n,
        "i": cfg.i,
        "r": cfg.r,
        "lhs": format_rational(lhs),
        "rhs": format_rational(rhs),
        "total": format_rational(lhs - rhs),
    }


def report_payload(report: SequenceReport) -> dict[str, Any]:
    return {
        "kind": report.kind,
        "verdict": report.verdict,
        "witness": list(report.witness) if report.witness is not None else None,
    }


def transfer_payload(report: TransferReport) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "transfer",
        "n": report.n,
        "gamma_log_concave": report_payload(report.gamma_shape),
        "gamma_internal_zeros": report_payload(report.gamma_internal_zeros),
        "h_log_concave": report_payload(report.h_shape),
        "h_internal_zeros": report_payload(report.h_internal_zeros),
        "h": vector_payload(report.h),
        "hypothesis": report.hypothesis,
        "conclusion": report.conclusion,
        "violation": report.violation,
    }


def check_payload(reports: Sequence[SequenceReport], transfer: TransferReport | None) -> dict[str, Any]:
    body: dict[str, Any] = {"schema": SCHEMA, "kind": "check", "results": [report_payload(r) for r in reports]}
    if transfer is not None:
        body["transfer"] = transfer_payload(transfer)
    return body


def sweep_payload(reports: Sequence[SweepReport]) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "sweep",
        "reports": [{"name": r.name, "cases": r.cases, "failures": r.failures, "notes": r.notes} for r in reports],
    }
