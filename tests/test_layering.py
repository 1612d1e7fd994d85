"""The combinatorial half of the package starts without numpy.

``linalg`` is the one module that imports numpy (``qcode`` builds on it);
``errors``, ``fock``, ``codes``, ``complexity``, ``experiments``, ``cli``
and the package itself reach them only inside the functions that need
linear algebra, or through the package's lazy ``__getattr__``.

The package also has one file edge: only ``fock.read_text`` and
``fock.write_text`` open files.  Input from outside is checked in full:
the trusted constructors, which skip checks, are called only where the
parts were checked already, never from ``cli`` or a ``read_*``/``load_*``
function.  No module writes a tolerance as a literal: each check reads
a named constant of the module that owns its bound.  A ``QString`` gets
its terms only from ``fock._unit_terms``, so every one is a unit vector.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfock

SRC = Path(qfock.__file__).resolve().parent
NUMPY_MODULES = {"linalg", "qcode"}

RT2 = "0.70710678118654752"
FILES = {
    "s.qstr": "0 0.6 0.0\n11 0.8 0.0\n",
    "plus.qstr": f"0 {RT2} 0.0\n1 {RT2} 0.0\n",
    "m.qm": "prefix: true\n0 -> { 0:1,0 }\n10 -> { 11:1,0 }\n",
    # superposed outputs, so the orthonormality check sums overlaps
    "sup.qm": (
        "prefix: true\n"
        f"0 -> {{ 0:{RT2},0 ; 1:{RT2},0 }}\n"
        f"10 -> {{ 0:{RT2},0 ; 1:-{RT2},0 }}\n"
        "11 -> { 11:1,0 }\n"
    ),
}

# The criterion-10 invocations that need no linear algebra.
NUMPY_FREE_INVOCATIONS = [
    ["avglen", "--state", "s.qstr"],
    ["baselen", "--state", "s.qstr"],
    ["pair", "--x", "110", "--y", "1000"],
    ["selfdelim", "--state", "s.qstr"],
    ["shannon", "--p", "0.9,0.1"],
    ["code", "--p", "0.5,0.25,0.25"],
    ["kraft", "--lengths", "1,2,2"],
    ["complexity", "--machine", "m.qm", "--state", "s.qstr"],
    ["universal", "--machine", "m.qm", "--sd-identity", "4", "--state", "s.qstr"],
    ["kq", "--programs", "m.qm", "--state", "plus.qstr"],
    ["multicopy", "--alpha2", "0.5", "--n", "7"],
    ["multicopy", "--alpha2", "0.3", "--n", "5", "--format", "csv"],
    ["nonadd", "--mblock", "4"],
    # the same two catalog commands on a machine with superposed outputs
    ["complexity", "--machine", "sup.qm", "--state", "plus.qstr"],
    ["universal", "--machine", "sup.qm", "--sd-identity", "4", "--state", "s.qstr"],
]

# sorted(qfock.__all__) before its linalg, qcode and experiments names
# became lazy; the public surface must not change with the import order.
PUBLIC_NAMES = [
    "ArityMismatchError", "BlockTooLargeForCatalogError", "CapExceededError",
    "ComplexityEstimate", "CompressionReport", "CondensableCode",
    "DensityOperator", "DescriberMachine", "DimOutOfRangeError",
    "DimensionCapExceededError", "DimensionMismatchError", "DuplicateKeyError",
    "EPS_TOKEN", "EmptyStateError", "Ensemble", "FormatError",
    "IdentityMachine", "IncompressibilityReport", "InequalitySpec",
    "InvalidAmplitudeError", "InvalidDeltaError", "InvalidDistributionError",
    "LENGTH_CAP", "LengthCapExceededError", "LossyReport", "MachineCatalog",
    "MemberComplexity", "MissingCodewordError", "MultiCopyReport",
    "NoDescriberError", "NoOverlapError", "NonadditivityReport",
    "NotHermitianError", "NotNormalizedError", "NotOrthogonalError",
    "NotOrthonormalError", "NotPrefixFreeError", "OutOfSpanError",
    "PrefixCode", "ProbabilitiesDontSumError", "QFockError", "QString",
    "SandwichReport", "SpectralDecomposition", "StateComplexity",
    "all_bitstrings", "average_length", "base_length",
    "base_length_complexity", "basis_state", "build_condensable_code",
    "canonical_prefix_code", "ceil_neg_log2", "code_table_text", "codes",
    "complexity", "compression_report", "delimit_bits",
    "density_from_ensemble", "dump_ensemble", "dump_machine", "dump_qstring",
    "eig_hermitian", "encode_qstring", "entropy_of_spectrum",
    "entropy_sandwich_report", "errors", "expected_length", "experiments",
    "fidelity_penalized_complexity", "fock", "identity_machine",
    "incompressibility_report", "index_cost", "inequality_check",
    "inner_product", "kraft_condensable_check", "kraft_sum",
    "kraft_sum_exact", "linalg", "load_ensemble", "load_machine",
    "load_qstring", "lossy_typical_projection", "machine_complexity",
    "machine_from_code", "make_qstring", "min_description_length",
    "multicopy_kraft", "multicopy_report", "nonadditivity_search",
    "pair_decode", "pair_encode", "partial_trace", "product_state", "qcode",
    "random_density", "read_ensemble_file", "read_machine_file",
    "read_qstring_file", "self_delimit", "self_delimit_machine",
    "sequence_decode", "sequence_encode", "shannon_code", "shannon_entropy",
    "subsystem_labels", "sw_lossless_code", "sw_report", "tensor_product",
    "universal_complexity", "von_neumann_entropy", "write_ensemble_file",
    "write_machine_file", "write_qstring_file",
]


def _python(args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def _imported_modules(importtime_log: str) -> set[str]:
    # "import time: <self> | <cumulative> | <indented module name>"
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


@pytest.mark.parametrize(
    "argv", NUMPY_FREE_INVOCATIONS, ids=lambda argv: "-".join(argv[:3])
)
def test_combinatorial_subcommands_never_import_numpy(argv, tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    proc = _python(["-X", "importtime", "-m", "qfock.cli", *argv], cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    modules = _imported_modules(proc.stderr)
    assert "qfock.fock" in modules  # the log does record the package's imports
    assert "numpy" not in modules


def test_algebra_subcommand_does_import_numpy(tmp_path):
    # The same probe sees numpy when a command needs it.
    (tmp_path / "d.ens").write_text("0.5 { 0:1,0 }\n0.5 { 1:1,0 }\n")
    proc = _python(["-X", "importtime", "-m", "qfock.cli", "entropy", "--rho", "d.ens"],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "numpy" in _imported_modules(proc.stderr)


def _module_level_imports(tree: ast.Module) -> set[str]:
    """Modules a module imports when it is loaded (relative ones as ".name").

    Function and class bodies run later, and ``if TYPE_CHECKING:`` blocks
    never run, so both are skipped; other blocks at module level count.
    """
    found: set[str] = set()

    def visit(body):
        for node in body:
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                found.add(base)
                if node.module is None:  # from . import x
                    found.update("." + alias.name for alias in node.names)
            elif isinstance(node, ast.If):
                if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(node, (ast.Try, ast.With)):
                visit(node.body)
                for handler in getattr(node, "handlers", []):
                    visit(handler.body)
                visit(getattr(node, "orelse", []))
                visit(getattr(node, "finalbody", []))

    visit(tree.body)
    return found


def test_only_linalg_and_qcode_import_numpy_at_module_level():
    importers = set()
    loads_algebra = {}
    for path in sorted(SRC.glob("*.py")):
        imports = _module_level_imports(ast.parse(path.read_text(), str(path)))
        if any(name == "numpy" or name.startswith("numpy.") for name in imports):
            importers.add(path.stem)
        loads_algebra[path.stem] = {".linalg", ".qcode"} & imports
    assert "linalg" in importers  # the scan does see a real numpy import
    assert importers <= NUMPY_MODULES
    for module, algebra in loads_algebra.items():
        if module not in NUMPY_MODULES:
            assert not algebra, f"{module} imports {sorted(algebra)} at module level"


def _open_references(tree: ast.Module) -> list[str]:
    """The enclosing function (or ``<module>``) of each ``open`` or ``.open``."""
    found: list[str] = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == "open") or (
                isinstance(child, ast.Attribute) and child.attr == "open"
            ):
                found.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else where)

    visit(tree, "<module>")
    return found


def test_only_read_text_and_write_text_open_files():
    # One edge for files: every input is opened (and recorded for the
    # report) in fock.read_text, and every output written in fock.write_text.
    openers = [
        (path.stem, where)
        for path in sorted(SRC.glob("*.py"))
        for where in _open_references(ast.parse(path.read_text(), str(path)))
    ]
    assert sorted(openers) == [("fock", "read_text"), ("fock", "write_text")]


# QString._from_checked, DescriberMachine._from_checked, PrefixCode._canonical
TRUSTED = {"_from_checked", "_canonical"}


def _trusted_calls(tree: ast.Module) -> list[str]:
    """The enclosing function (or ``<module>``) of each trusted call."""
    found: list[str] = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in TRUSTED
            ):
                found.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else where)

    visit(tree, "<module>")
    return found


def test_trusted_constructors_only_take_checked_parts():
    callers = [
        (path.stem, where)
        for path in sorted(SRC.glob("*.py"))
        for where in _trusted_calls(ast.parse(path.read_text(), str(path)))
    ]
    for module, where in callers:
        assert module != "cli", f"cli calls a trusted constructor in {where}"
        assert not where.startswith(("read_", "load_")), f"{module}.{where}"
    # The scan does see them: each where its parts were checked before.
    assert sorted(callers) == [
        ("codes", "canonical_prefix_code"),
        ("complexity", "machine_from_code"),
        ("complexity", "self_delimit_machine"),
        ("fock", "self_delimit"),
        ("qcode", "eigen_ensemble"),
        ("qcode", "encode_qstring"),
    ]


def _terms_assignments(tree: ast.Module) -> list[tuple[str, str | None]]:
    """``(enclosing Class.function, assigned call)`` for each assignment
    to a ``_terms`` attribute.

    The call is the name of the function whose result is assigned, or
    None for any other value, an augmented assignment or a call that
    names the attribute (``setattr``).
    """
    found: list[tuple[str, str | None]] = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            else:
                targets = []
            if any(
                isinstance(t, ast.Attribute) and t.attr == "_terms"
                for target in targets
                for t in ast.walk(target)
            ):
                value = child.value
                call = (
                    value.func.id
                    if isinstance(child, ast.Assign)
                    and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    else None
                )
                found.append((where, call))
            if isinstance(child, ast.Call) and any(
                isinstance(arg, ast.Constant) and arg.value == "_terms" for arg in child.args
            ):
                found.append((where, None))
            scope = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{where}.{child.name}".lstrip(".") if scope else where)

    visit(tree, "")
    return found


def test_a_qstring_gets_its_terms_only_from_unit_terms():
    # Unit norm is a QString invariant: the Gram checks in qcode and
    # complexity compare overlaps only, on that promise.
    assignments = [
        (path.stem, where, call)
        for path in sorted(SRC.glob("*.py"))
        for where, call in _terms_assignments(ast.parse(path.read_text(), str(path)))
    ]
    assert assignments == [
        ("fock", "QString.__init__", "_unit_terms"),
        ("fock", "QString._from_checked", "_unit_terms"),
    ]
    # The scan does see the other ways in.
    probe = (
        "def f(s, t):\n"
        "    s._terms = dict(t)\n"
        "    s._terms |= t\n"
        "    s.a, s._terms = 1, t\n"
        "    setattr(s, '_terms', t)\n"
    )
    assert _terms_assignments(ast.parse(probe)) == [
        ("f", "dict"), ("f", None), ("f", None), ("f", None)
    ]


def _small_float_literals(tree: ast.Module) -> list[int]:
    """Lines of the float literals below 1e-3 in magnitude (zero aside)
    outside module-level assignments to upper-case names."""
    named = {
        id(sub)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and all(
            isinstance(t, ast.Name) and t.id.isupper()
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
        for sub in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-3
        and id(node) not in named
    )


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_tolerance_literal_outside_named_constants(module):
    path = SRC / f"{module}.py"
    lines = _small_float_literals(ast.parse(path.read_text(), str(path)))
    assert not lines, f"{module}.py has a tolerance literal on line(s) {lines}"
    # The scan does see one, in a function or in a lower-case name.
    probe = "TOL = 1e-9\nslack = 1e-9\ndef f(x):\n    return x <= 1.0 + 1e-12\n"
    assert _small_float_literals(ast.parse(probe)) == [2, 4]


def test_public_names_unchanged_and_resolvable():
    assert sorted(qfock.__all__) == PUBLIC_NAMES
    # A fresh interpreter, so each name really goes through the lazy path.
    script = (
        "import sys, qfock\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in qfock.__all__:\n"
        "    exec(f'from qfock import {name}')\n"
        "    assert getattr(qfock, name) is not None, name\n"
        "assert qfock.linalg.eig_hermitian is qfock.eig_hermitian\n"
        "assert qfock.linalg.shannon_entropy is qfock.codes.shannon_entropy\n"
        "print(len(qfock.__all__))\n"
    )
    proc = _python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(len(PUBLIC_NAMES))


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        qfock.no_such_name
    assert not hasattr(qfock, "no_such_name")
