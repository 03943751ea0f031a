"""The package surface: which submodules an import or a command loads, the
lazy public namespace, the documented ``InternalCheckError`` kinds, the
one module that builds JSON payloads, and the memory a run leaves allocated.

Module loading is observed in fresh interpreters, because this test process
has long since imported every submodule.
"""

import ast
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import gammacert
from gammacert.errors import InternalCheckError

PACKAGE_DIR = Path(gammacert.__file__).resolve().parent

# The package's public names as they stood when they were still imported
# eagerly; the lazy table must give exactly these.
PUBLIC = [
    "AbelReport", "Certificate", "CoeffTable", "CrossingReport", "DegenerateFactorError",
    "DiagonalSequence", "EndpointError", "EntryError", "GammaCertError",
    "GammaVector", "HypothesisError", "InternalCheckError", "LatticePath", "NegativeEntryError",
    "ParseError", "PathConfig", "RangeError", "RotationBalanceReport",
    "SequenceReport", "SignQuadratic", "SymmetricPolynomial", "SymmetryError", "TransferReport",
    "abel_check", "basis_polynomial", "binomial", "build_certificate", "check_crossing_claim",
    "check_diagonal_factorization", "check_rotation_balance", "check_transfer", "check_ulc_transfer",
    "coeff_table", "count_paths", "diagonal", "diagonal_sum", "enumerate_paths", "gamma_to_h",
    "h_to_gamma", "has_internal_zeros", "is_log_concave", "is_ultra_log_concave", "is_unimodal",
    "lhs_by_formula", "lhs_by_paths", "pairwise_log_concave", "quad_coeff", "quad_coeff_oracle",
    "rhs_by_formula", "rhs_by_paths", "rotate_180", "segment_intersections", "sign_quadratic",
]

LOADED = "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('gammacert.'))))"


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this gammacert; its stdout."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    assert json.loads(fresh(f"import json, sys\nimport gammacert\n{LOADED}")) == []


GAMMA_ROW = {"cli", "errors", "polycore"}
GAMMA_PAYLOAD = '{"schema":"1","kind":"gamma","n":6,"coeffs":["1","1","1","1"]}'
# Standard-library modules a command loads only when it uses them: json for
# --json and --file, the other two never (dataclasses would bring inspect).
WATCHED = {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize(
    "argv, row",
    [
        (["gamma", "--to-h", "--n", "6", "1,1,1,1"], GAMMA_ROW),
        (["check", "--lc", "1,1,2"], GAMMA_ROW | {"concavity"}),
        (["check", "--lc", "--json", "1,1,2"], GAMMA_ROW | {"concavity", "jsonio"}),
        (["certify", "40", "12", "14", "--formula-only"], GAMMA_ROW | {"paths"}),
        (["coeffs", "16", "5"], GAMMA_ROW | {"coefficients", "render"}),
        (["coeffs", "16", "5", "--json"], GAMMA_ROW | {"coefficients", "jsonio"}),
        (["diagonal", "16", "5", "3"], GAMMA_ROW | {"coefficients"}),
        (["gamma", "--to-h", "--file", "-"], GAMMA_ROW | {"jsonio"}),
        (["sweep", "--suite", "paths", "--max-n", "8"], GAMMA_ROW | {"coefficients", "paths", "sweeps"}),
    ],
    ids=["gamma", "check", "check-json", "certify-formula", "coeffs", "coeffs-json", "diagonal", "gamma-file",
         "sweep-paths"],
)
def test_each_command_loads_only_its_layers(argv, row):
    """The command's layers, and of ``WATCHED`` only ``json``: ``jsonio`` and
    ``json`` only for ``--json`` output or ``--file`` input, ``concavity``
    only for the predicates; recorded before the probe itself imports
    ``json`` to print them."""
    code = (
        "import contextlib, io, sys\n"
        "from gammacert.cli import main\n"
        f"sys.stdin = io.StringIO({GAMMA_PAYLOAD!r})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) in (0, 1)\n"  # check --lc 1,1,2 is false: exit 1
        "loaded = set(sys.modules)\n"
        "import json\n"
        "print(json.dumps([sorted(m.split('.', 1)[1] for m in loaded if m.startswith('gammacert.')),\n"
        f"                  sorted(loaded & {WATCHED!r})]))\n"
    )
    layers, watched = json.loads(fresh(code))
    assert set(layers) == row
    assert watched == (["json"] if {"--json", "--file"} & set(argv) else [])


def test_no_module_imports_dataclasses():
    """The value types are ``errors.Record``s: ``dataclasses`` (and the
    ``inspect`` it imports) would cost every CLI process more than most
    commands compute."""
    offenders = []
    for source in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                offenders.append((source.name, node.lineno))
    assert offenders == []


def test_every_public_name_resolves_to_its_definition():
    assert gammacert.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(gammacert))
    for name in PUBLIC:
        obj = getattr(gammacert, name)
        home = obj.__module__
        assert home.startswith("gammacert."), name
        assert getattr(sys.modules[home], name) is obj, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from gammacert import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert namespace["build_certificate"] is gammacert.paths.build_certificate


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="no_such_name"):
        gammacert.no_such_name  # noqa: B018


def test_documented_internal_check_kinds_are_raised():
    """Every kind the docstring lists has a raise site, and every raise site's
    kind is listed."""
    doc = InternalCheckError.__doc__
    sentence = doc[doc.index("``kind`` is one of") : doc.index("``context``")]
    documented = set(re.findall(r'``"([a-z-]+)"``', sentence))
    raised = set()
    for source in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "InternalCheckError":
                kind = node.args[0]
                assert isinstance(kind, ast.Constant) and isinstance(kind.value, str), ast.dump(kind)
                raised.add(kind.value)
    assert documented and raised == documented


def test_only_jsonio_builds_payloads():
    """Outside ``jsonio`` no module names ``SCHEMA`` or writes a dict literal
    with a ``"schema"`` key: every wire format is built in one place."""
    offenders = []
    for source in sorted(PACKAGE_DIR.glob("*.py")):
        if source.name == "jsonio.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if "SCHEMA" in names:
                offenders.append((source.name, node.lineno, "SCHEMA"))
            if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "schema" for key in node.keys
            ):
                offenders.append((source.name, node.lineno, '"schema"'))
    assert offenders == []


def _owners(matches) -> set[tuple[str, str]]:
    """(module, top-level function or class) of every node in the package
    for which ``matches`` holds."""
    return {
        (source.stem, getattr(top, "name", "<module>"))
        for source in sorted(PACKAGE_DIR.glob("*.py"))
        for top in ast.parse(source.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if matches(node)
    }


def _names(node) -> set:
    return {getattr(sub, "id", None) or getattr(sub, "attr", None) for sub in ast.walk(node)}


def _reads_work_limit(node) -> bool:
    if isinstance(node, ast.alias):  # an import of it
        return node.name == "WORK_LIMIT"
    loads = isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    return loads and "WORK_LIMIT" in _names(node)


def test_one_bound_for_all_work():
    """Work is bounded once: no function takes a ``cap``, no module names
    the former path cap, its error or its variable, and only
    ``errors.check_work`` reads the work limit."""
    assert _owners(lambda node: isinstance(node, ast.arg) and node.arg == "cap") == set()
    for source in sorted(PACKAGE_DIR.glob("*.py")):
        text = source.read_text(encoding="utf-8")
        for name in ("PathCountExceededError", "DEFAULT_CAP", "GAMMACERT_PATH_CAP"):
            assert name not in text, (source.name, name)
    assert _owners(_reads_work_limit) == {("errors", "check_work")}


def test_one_coefficient_kernel():
    """The tables, diagonals, totals and the oracle sweep read the closed form
    through ``coefficients._values``; ``quad_coeff``, its one-pair entry
    point, serves only the two checks that need a single coefficient."""
    def calls_quad_coeff(node) -> bool:
        return isinstance(node, ast.Call) and "quad_coeff" in _names(node.func)

    assert _owners(calls_quad_coeff) == {
        ("coefficients", "sign_quadratic"),
        ("coefficients", "check_diagonal_factorization"),
    }


def test_one_basis_kernel():
    """Every basis entry C(n-2j, t-j) the transforms, the closed form and the
    binomial sums read comes from ``polycore.basis_row``.  Besides it only
    the two independent references the tests hold it against, the column
    view ``basis_polynomial`` and the expansion oracle, and the path count,
    which counts paths rather than basis entries, call ``binomial``."""
    def calls_binomial(node) -> bool:
        return isinstance(node, ast.Call) and "binomial" in _names(node.func)

    assert _owners(calls_binomial) == {
        ("polycore", "basis_row"),
        ("polycore", "basis_polynomial"),
        ("paths", "_count_paths"),
        ("coefficients", "_oracle_table"),
    }


def test_one_path_geometry():
    """The two diagonals are stated once, as ``PathConfig.base`` and
    ``PathConfig.shifted``: no segment type or point set wraps them, the DP's
    ``_through`` reads a cell's mark rather than the instance's coordinates,
    and one function bounds a path count's bit length."""
    for source in sorted(PACKAGE_DIR.glob("*.py")):
        text = source.read_text(encoding="utf-8")
        for name in ("DiagonalSegment", "point_set"):
            assert name not in text, (source.name, name)
    tree = ast.parse((PACKAGE_DIR / "paths.py").read_text(encoding="utf-8"))
    (through,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_through"]
    assert "PathConfig" not in ast.unparse(through.args)
    assert not {"cfg", "n", "i"} & _names(through)

    def calls_bit_length(node) -> bool:
        return isinstance(node, ast.Call) and "bit_length" in _names(node.func)

    assert {owner for owner in _owners(calls_bit_length) if owner[0] == "paths"} == {("paths", "_count_bits")}


def test_modules_stay_under_the_parser_token_step():
    """Every module has fewer than 4,096 tokens, COMMENT and NL not counted.
    With bytecode writing off, each process compiles the modules it imports,
    and CPython 3.11's parser peak steps up by about 230 KB once a module
    passes 4,096 tokens (``paths.py`` holds 3,881).  A module near the step
    is split, not padded or minified to fit."""
    for source in sorted(PACKAGE_DIR.glob("*.py")):
        with source.open(encoding="utf-8") as f:
            tokens = [t for t in tokenize.generate_tokens(f.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
        assert len(tokens) < 4_096, (source.name, len(tokens))


# One call of each per-op shape whose tuples were built from generators:
# vector coercion, both transforms, the Abel trace and the rotation walk.
TUPLE_MIX = """
import sys
from fractions import Fraction
from gammacert import GammaVector, PathConfig, abel_check, check_rotation_balance, gamma_to_h, h_to_gamma

def mix():
    for n in range(40):
        h_to_gamma(gamma_to_h(GammaVector(n, list(range(1, n // 2 + 2)))))
    for size in range(1, 20):
        abel_check([Fraction(1, 2)] * size, [Fraction(size - t, 3) for t in range(size)])
    check_rotation_balance(PathConfig(12, 4, 4))

mix()
before = sys.getallocatedblocks()
for _ in range(150):
    mix()
print(sys.getallocatedblocks() - before)
"""


def test_per_op_tuples_leave_the_free_lists_alone():
    """``tuple()`` of an iterator of unknown length (a generator, ``map``,
    ``accumulate``) grows a 10-slot tuple by resizing, so it takes from the
    free list of 10-tuples and, when it dies, feeds the free list of its own
    size, which nothing of that size then drains: up to 2,000 dead tuples of
    each size below 20 stay allocated, which ``ru_maxrss`` shows and
    Python-level tracing does not.  Built from a list, a tuple has its final
    size from the start.  150 more runs of the mix grew the allocated blocks
    by 15,051 when its tuples came from generators, and by 1,351 with lists
    (CPython 3.11 files dead 20-tuples but never reuses them, which stops at
    2,000).  The free lists, and so the bound of 5,000, are those of CPython
    3.11.  Measured in a fresh interpreter, whose free lists no earlier test
    has filled.

    No ``tuple`` call in the package is handed a generator expression or a
    call other than ``list(...)``; a name may hold a list.  The one exception
    is ``Record``'s class set-up, which runs once a class and reads a dict,
    whose length is known."""
    assert int(fresh(TUPLE_MIX)) < 5_000

    def tuple_of_an_iterator(node) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tuple"):
            return False
        return any(
            isinstance(arg, ast.GeneratorExp)
            or (isinstance(arg, ast.Call) and not (isinstance(arg.func, ast.Name) and arg.func.id == "list"))
            for arg in node.args
        )

    assert _owners(tuple_of_an_iterator) == {("errors", "Record")}


def test_one_running_lcm():
    """Denominators are read into a running lcm in one function,
    ``polycore._charged_lcm``, which charges each gcd before it runs: no
    other function in the package calls ``lcm``."""
    def calls_lcm(node) -> bool:
        return isinstance(node, ast.Call) and "lcm" in _names(node.func)

    assert _owners(calls_lcm) == {("polycore", "_charged_lcm")}
