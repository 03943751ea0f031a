"""Exact certification that log-concavity transfers from a symmetric
polynomial's gamma vector to the polynomial itself.

Everything here is exact: big integers, ``fractions.Fraction``, no floats.
The public surface mirrors the proof pipeline: basis transforms
(:mod:`polycore`), sequence predicates and the transfer check
(:mod:`concavity`), the quadratic-form coefficients with their diagonal sign
structure (:mod:`coefficients`), and the lattice-path certificate
(:mod:`paths`).

Importing the package loads none of them: each public name below is
imported from its submodule on first use (PEP 562) and then kept in the
package namespace, so later lookups are plain attribute reads.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "coefficients": (
            "AbelReport",
            "CoeffTable",
            "DiagonalSequence",
            "SignQuadratic",
            "abel_check",
            "check_diagonal_factorization",
            "coeff_table",
            "diagonal",
            "diagonal_sum",
            "quad_coeff",
            "quad_coeff_oracle",
            "sign_quadratic",
        ),
        "concavity": (
            "SequenceReport",
            "TransferReport",
            "check_transfer",
            "check_ulc_transfer",
            "has_internal_zeros",
            "is_log_concave",
            "is_ultra_log_concave",
            "is_unimodal",
            "pairwise_log_concave",
        ),
        "errors": (
            "DegenerateFactorError",
            "EndpointError",
            "EntryError",
            "GammaCertError",
            "HypothesisError",
            "InternalCheckError",
            "NegativeEntryError",
            "ParseError",
            "RangeError",
            "SymmetryError",
        ),
        "paths": (
            "Certificate",
            "CrossingReport",
            "LatticePath",
            "PathConfig",
            "RotationBalanceReport",
            "build_certificate",
            "check_crossing_claim",
            "check_rotation_balance",
            "count_paths",
            "enumerate_paths",
            "lhs_by_formula",
            "lhs_by_paths",
            "rhs_by_formula",
            "rhs_by_paths",
            "rotate_180",
            "segment_intersections",
        ),
        "polycore": (
            "GammaVector",
            "SymmetricPolynomial",
            "basis_polynomial",
            "binomial",
            "gamma_to_h",
            "h_to_gamma",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
