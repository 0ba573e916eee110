"""Source hygiene of the package, checked on its syntax tree.

No linter is a dependency, so these checks stand in for one: no unused
imports in the package or its tests, no top-level definition that nothing
uses, no floating point anywhere in the package, which keeps every
decision path exact, no ``dataclasses`` in the package, which every
command line would pay for at start-up, no import of ``oracle`` outside
``cli.py``, which keeps the cross-checks out of the decisions, and no
change in place to a system's coefficients, parameters or intervals, which
systems share by reference, and no optional reading or box handed down,
with the vertex LP named outside ``membership.py``, which keeps every
membership question asked through one query object, no integer rows read
outside ``membership.py`` and none by the certificate checks and oracles,
which keeps those checks apart from the solver, and no refusal other than
a ``ValueError``, which is what ``cli.main`` reports.  An import
kept on purpose is marked ``# noqa: F401``.  The benchmark's tracer wraps
named functions of the package, and its files read attributes of the
package's modules; they must all still exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pilsys"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# The interpreter calls a module's __getattr__ and __dir__ (PEP 562), so no
# statement needs to read them.
MODULE_HOOKS = ("__getattr__", "__dir__")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(path):
    """Names a module imports but never reads."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def unreferenced(paths):
    """Top-level defs and classes that no other statement of the package
    reads and ``__init__.py`` does not export, the PEP 562 hooks aside."""
    defined, reads = [], []
    for path in paths:
        tree = _tree(path)
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif path.name == "__init__.py" and \
                        isinstance(node, ast.ImportFrom):
                    names.update(a.asname or a.name for a in node.names)
            reads.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    stmt.name not in MODULE_HOOKS:
                defined.append((path.name, stmt))
    return [f"{name}: {stmt.name}" for name, stmt in defined
            if not any(stmt.name in names for other, names in reads
                       if other is not stmt)]


def floats(path):
    """Float literals and uses of the name float."""
    return [f"line {node.lineno}" for node in ast.walk(_tree(path))
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            or isinstance(node, ast.Name) and node.id == "float"]


def dataclass_imports(path):
    """Imports of the dataclasses module: it pulls in inspect, and each
    class it builds costs about a millisecond of start-up."""
    return [f"line {node.lineno}" for node in ast.walk(_tree(path))
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]


def oracle_imports(path):
    """Imports of the package's ``oracle`` module; one under
    ``if TYPE_CHECKING:`` never runs and is left out."""
    def nodes(node):
        for child in ast.iter_child_nodes(node):
            if not (isinstance(child, ast.If) and
                    isinstance(child.test, ast.Name) and
                    child.test.id == "TYPE_CHECKING"):
                yield child
                yield from nodes(child)

    return [f"line {node.lineno}" for node in nodes(_tree(path))
            if isinstance(node, ast.ImportFrom)
            and ((node.module or "").split(".")[-1] == "oracle"
                 or any(a.name == "oracle" for a in node.names))
            or isinstance(node, ast.Import)
            and any(a.name.split(".")[-1] == "oracle" for a in node.names)]


# The fields of a system and of its parameters.  Systems share them by
# reference (``TolerableSystem.combined`` reuses the base system's
# parameters, and a query keeps the system it was asked on), so none of
# them may change in place after construction.
SYSTEM_FIELDS = {"A0", "b0", "A", "b", "params", "interval"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort",
            "reverse"}


def _touches_field(node):
    """Whether a chain of attribute reads and subscripts, such as
    ``sys.params[k].A[i]``, passes through a system field."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        if isinstance(node, ast.Attribute) and node.attr in SYSTEM_FIELDS:
            return True
        node = node.value
    return False


def system_mutations(path):
    """Statements that assign into, append to or augment a system field:
    an item assignment, augmented assignment or ``del`` through one, an
    assignment to one other than ``self.<field> = ...`` in an ``__init__``,
    and a list-mutating method called on one."""
    found = []

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                yield from targets(elt)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        else:
            yield node

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        bad = False
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.Delete)):
            raw = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
                else [node.target]
            for target in (t for r in raw for t in targets(r)):
                if isinstance(target, ast.Attribute) and \
                        target.attr in SYSTEM_FIELDS:
                    init = isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                        func == "__init__" and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self"
                    bad = bad or not init
                elif isinstance(target, ast.Subscript):
                    bad = bad or _touches_field(target.value)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in MUTATORS:
            bad = _touches_field(node.func.value)
        if bad:
            found.append(f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(_tree(path), None)
    return found


# A membership question is asked through one query object, which owns its
# reading of the system and its box; these may not come back as options.
KNOBS = {f"Optional[{name}]" for name in ("Reading", "IntBox")} | \
    {f"{name}|None" for name in ("Reading", "IntBox")} | \
    {f"None|{name}" for name in ("Reading", "IntBox")}


def query_knobs(path):
    """Each name of ``_VertexLP`` in a module other than ``membership.py``,
    and each function parameter annotated, in code or in a string, as an
    optional ``Reading`` or ``IntBox``, in line order."""
    found = []
    for node in ast.walk(_tree(path)):
        if path.name != "membership.py" and (
                isinstance(node, ast.Name) and node.id == "_VertexLP"
                or isinstance(node, ast.Attribute) and node.attr == "_VertexLP"
                or isinstance(node, ast.alias) and node.name == "_VertexLP"):
            found.append((node.lineno, "_VertexLP"))
        elif isinstance(node, ast.arg) and node.annotation is not None:
            ann = node.annotation
            text = ann.value if isinstance(ann, ast.Constant) and \
                isinstance(ann.value, str) else ast.unparse(ann)
            if text.replace(" ", "") in KNOBS:
                found.append((node.lineno, node.arg))
    return [f"line {line}: {name}" for line, name in sorted(found)]


# The readers of a system's integer rows: a point's rows straight from the
# system, the table, and the reading that builds every other question's
# rows from that table.  Only ``membership.py`` reads the first two, and the
# certificate checks and oracles read none, so they stay a check of those
# rows.
ROW_READERS = ("residual_rows", "int_coefficients")
INTEGER_READERS = {*ROW_READERS, "Reading", "rows_at"}
CHECKS = ("residual_vectors", "validate_certificate", "witness_resubstitutes",
          "fm_member_oracle", "ae_vertex_oracle", "member_first_class")


def _calls(node):
    """(line, name) of each call ``f(...)`` or ``x.f(...)`` under node."""
    return [(n.lineno, n.func.id if isinstance(n.func, ast.Name)
             else n.func.attr) for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))]


def row_reads(path):
    """Calls of ``residual_rows`` or ``int_coefficients`` in a module other
    than ``membership.py``, and definitions of ``kernel_rows``, the second
    reader of a direction's rows that ``Reading.rows_at`` replaced."""
    tree = _tree(path)
    found = [(line, name) for line, name in _calls(tree)
             if name in ROW_READERS and path.name != "membership.py"]
    found += [(node.lineno, "def kernel_rows") for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name == "kernel_rows"]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def integer_reads_of_checks(paths):
    """Each call of an integer reader that one of CHECKS makes, itself or
    through the package's functions and methods it calls (by name), as
    ``file:line: reader``."""
    defs = {}
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((path.name, node))
    found, seen, todo = set(), set(), list(CHECKS)
    while todo:
        name = todo.pop()
        for file, node in defs.get(name, []):
            for line, called in _calls(node):
                if called in INTEGER_READERS:
                    found.add(f"{file}:{line}: {called}")
                elif called not in seen:
                    seen.add(called)
                    todo.append(called)
    return sorted(found)


# Every refusal of the package is a ValueError, so the one handler of
# ``cli.main`` reports each as ``error: ...`` with exit 1.  Two raises are
# protocol, not refusals: a module's __getattr__ raises AttributeError
# (PEP 562), and the __main__ guard hands the exit code on as SystemExit.
PROTOCOL_RAISES = {("__getattr__", "AttributeError"), ("__main__", "SystemExit")}


def _class_name(node):
    """The name a raise or a base class names: ``X``, ``X(...)`` or
    ``module.X``; None for a bare re-raise or anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def refusal_classes(paths):
    """ValueError and every class of the package derived from it."""
    classes = [(node.name, {_class_name(b) for b in node.bases})
               for path in paths for node in ast.walk(_tree(path))
               if isinstance(node, ast.ClassDef)]
    found = {"ValueError"}
    while new := {name for name, bases in classes if bases & found} - found:
        found |= new
    return found


def foreign_raises(path, refusals):
    """Raise statements whose class is not one of refusals, the protocol
    raises aside, in line order; a bare re-raise names no class."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.If) and \
                ast.unparse(node.test) == "__name__ == '__main__'":
            where = "__main__"
        if isinstance(node, ast.Raise):
            name = _class_name(node.exc)
            if name not in refusals and (where, name) not in PROTOCOL_RAISES:
                found.append(f"line {node.lineno}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(_tree(path), None)
    return found


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"]
                         + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_no_unreferenced_definitions():
    assert unreferenced(MODULES) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats(path):
    assert floats(path) == []


def test_every_refusal_is_a_value_error():
    refusals = refusal_classes(MODULES)
    assert {"SystemFormatError", "DecompositionTooLarge"} <= refusals
    assert [f"{path.name}: {raise_}" for path in MODULES
            for raise_ in foreign_raises(path, refusals)] == []


def test_raise_check_catches_offenders(tmp_path):
    path = tmp_path / "refusing.py"
    path.write_text("import errors\n"
                    "class Refused(ValueError):\n    pass\n"
                    "class Narrower(Refused):\n    pass\n"
                    "class Usage(Exception):\n    pass\n"
                    "def f(x):\n"
                    "    if x: raise ValueError(x)\n"
                    "    if x: raise Narrower\n"
                    "    if x: raise Usage(x)\n"
                    "    if x: raise errors.Usage(x)\n"
                    "    if x: raise KeyError(x)\n"
                    "    if x: raise\n"
                    "    raise AttributeError(x)\n"
                    "def __getattr__(name):\n"
                    "    raise AttributeError(name)\n"
                    "if __name__ == '__main__':\n"
                    "    raise SystemExit(f(1))\n"
                    "raise SystemExit(0)\n")
    refusals = refusal_classes([path])
    assert refusals == {"ValueError", "Refused", "Narrower"}
    assert foreign_raises(path, refusals) == [
        "line 11: Usage", "line 12: Usage", "line 13: KeyError",
        "line 14: None", "line 15: AttributeError", "line 20: SystemExit"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert dataclass_imports(path) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_imports_the_oracles(path):
    assert oracle_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_system_changed_in_place(path):
    assert system_mutations(path) == []


def test_mutation_check_catches_offenders(tmp_path):
    path = tmp_path / "mutating.py"
    path.write_text("class Par:\n"
                    "    def __init__(self, A, b):\n"
                    "        self.A, self.b = A, b\n"
                    "def f(sys, par, rows):\n"
                    "    sys.A0[0][1] = 1\n"
                    "    par.b[0] += 1\n"
                    "    sys.params.append(par)\n"
                    "    par.interval = None\n"
                    "    sys.params[0].A[1].extend([0])\n"
                    "    del sys.b0[0]\n"
                    "    sys.params += [par]\n"
                    "    self.A = rows\n"
                    "    copy = [row[:] for row in sys.A0]\n"
                    "    copy[0][0] = rows[0][0] = 2\n"
                    "    params = list(sys.params)\n"
                    "    params.append(par)\n"
                    "    sys.m = len(sys.A0)\n")
    assert system_mutations(path) == [f"line {n}" for n in range(5, 13)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_query_object(path):
    assert query_knobs(path) == []


def test_query_check_catches_offenders(tmp_path):
    path = tmp_path / "decision.py"
    path.write_text("from typing import Optional\n"
                    "from .membership import Reading, _VertexLP\n"
                    "from . import membership\n"
                    "def f(sys, reading: Optional[Reading] = None,\n"
                    "      box: 'IntBox | None' = None, r: Reading = None):\n"
                    "    return membership._VertexLP(sys)\n"
                    "def g(box: Optional[IntBox]):\n"
                    "    return _VertexLP\n")
    assert query_knobs(path) == [
        "line 2: _VertexLP", "line 4: reading", "line 5: box",
        "line 6: _VertexLP", "line 7: box", "line 8: _VertexLP"]
    # the vertex LP is named in its own module, and a Reading is no option
    own = tmp_path / "membership.py"
    own.write_text("class _VertexLP:\n    pass\n"
                   "def lp(reading: Reading) -> _VertexLP:\n"
                   "    return _VertexLP()\n")
    assert query_knobs(own) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_reader_of_integer_rows(path):
    assert row_reads(path) == []


def test_checks_read_no_integer_rows():
    assert integer_reads_of_checks(MODULES) == []


def test_reader_checks_catch_offenders(tmp_path):
    path = tmp_path / "unbounded.py"
    path.write_text("def kernel_rows(sys, y):\n"
                    "    return residual_rows(sys, y)\n"
                    "def f(sys, x):\n"
                    "    return sys.int_coefficients(), model.residual_rows(sys, x)\n"
                    "def g(reading, x):\n"
                    "    return reading.rows_at(x), residual_rows\n")
    assert row_reads(path) == ["line 1: def kernel_rows", "line 2: residual_rows",
                               "line 4: int_coefficients",
                               "line 4: residual_rows"]
    # membership.py reads the rows, and may
    own = tmp_path / "membership.py"
    own.write_text("def member(sys, x):\n    return residual_rows(sys, x)\n")
    assert row_reads(own) == []
    checks = tmp_path / "oracle.py"
    checks.write_text("def fm_member_oracle(sys, x):\n"
                      "    return _first(sys, x)\n"
                      "def _first(sys, x):\n"
                      "    return sys.helper(x), Reading(sys)\n"
                      "def witness_resubstitutes(sys, x, cert):\n"
                      "    return cert.witness_p\n"
                      "class S:\n"
                      "    def helper(self, x):\n"
                      "        return self.reading.rows_at(x, 0)\n"
                      "def unrelated(sys, x):\n"
                      "    return residual_rows(sys, x)\n")
    assert integer_reads_of_checks([checks]) == ["oracle.py:4: Reading",
                                                 "oracle.py:9: rows_at"]


def traced_names(path):
    """The TIMED and COMMANDS literals of the benchmark's layer table."""
    found = {}
    for stmt in _tree(path).body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                stmt.targets[0].id in ("TIMED", "COMMANDS"):
            found[stmt.targets[0].id] = ast.literal_eval(stmt.value)
    return found["TIMED"], found["COMMANDS"]


def test_traced_functions_exist():
    timed, commands = traced_names(ROOT / "bench" / "layers.py")
    wanted = [(module, f) for module, funcs in timed.items() for f in funcs]
    wanted += [("cli", f"cmd_{c}") for c in commands]
    assert len(wanted) > 20
    missing = [f"{module}.{f}" for module, f in wanted
               if not callable(getattr(importlib.import_module(f"pilsys.{module}"),
                                       f, None))]
    assert missing == []


def package_reads(paths):
    """(file, module, attribute) for each ``module.attribute`` a file reads
    from a ``pilsys`` module it imports as ``from pilsys import module``."""
    out = []
    for path in paths:
        tree = _tree(path)
        modules = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "pilsys"
                   for alias in node.names}
        out += [(path.name, modules[node.value.id], node.attr)
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules]
    return out


def missing_reads(reads):
    return sorted({f"{name}: {module}.{attr}" for name, module, attr in reads
                   if not hasattr(importlib.import_module(f"pilsys.{module}"),
                                  attr)})


def test_benchmark_reads_exist():
    reads = package_reads(sorted((ROOT / "bench").glob("*.py")))
    assert {("workloads.py", "exact", "fm_feasible"),
            ("workloads.py", "model", "RhsParameter"),
            ("workloads.py", "cones", "special_class_unbounded_equality")} \
        <= set(reads)
    assert missing_reads(reads) == []
    # bench/test_bench.py reads lp_feasible from these modules through a
    # loop variable, which package_reads cannot follow; its tracer wraps the
    # one function that each binds by name
    lp_feasible = importlib.import_module("pilsys.exact").lp_feasible
    for name in ("pilsys", "pilsys.exact", "pilsys.membership", "pilsys.cones"):
        assert getattr(importlib.import_module(name), "lp_feasible",
                       None) is lp_feasible, name


def test_checks_catch_offenders(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("import os\nfrom fractions import Fraction\n"
                    "import sys  # noqa: F401\nx = 0.5\ny = float(Fraction(1))\n"
                    "import dataclasses as dc\nfrom dataclasses import field\n"
                    "print(dc, field)\n")
    assert unused_imports(path) == ["os (line 1)"]
    assert floats(path) == ["line 4", "line 5"]
    assert dataclass_imports(path) == ["line 6", "line 7"]

    bench = tmp_path / "bench.py"
    bench.write_text("from pilsys import exact as ex, model\n"
                     "ex.lp_feasible(model.gone)\nex.Gone.attr\n")
    assert missing_reads(package_reads([bench])) == [
        "bench.py: exact.Gone", "bench.py: model.gone"]

    init = tmp_path / "__init__.py"
    init.write_text("from .mod import public\n")
    mod = tmp_path / "mod.py"
    mod.write_text("def public():\n    return _helper()\n\n\n"
                   "def _helper():\n    return 1\n\n\n"
                   "def orphan():\n    return orphan\n\n\n"
                   "class Unused:\n    pass\n\n\n"
                   "def __getattr__(name):\n    raise AttributeError(name)\n\n\n"
                   "def __dir__():\n    return []\n\n\n"
                   "def __len__():\n    return 0\n")
    assert unreferenced([init, mod]) == ["mod.py: orphan", "mod.py: Unused",
                                         "mod.py: __len__"]


def test_oracle_check_catches_offenders(tmp_path):
    path = tmp_path / "decision.py"
    path.write_text("from typing import TYPE_CHECKING\n"
                    "from .oracle import fm_member_oracle\n"
                    "from . import oracle\n"
                    "import pilsys.oracle\n"
                    "from pilsys import membership, oracle as o\n"
                    "from .oracles import x\n"
                    "if TYPE_CHECKING:\n"
                    "    from .oracle import rasterize\n"
                    "def f():\n"
                    "    from .oracle import raster_csv\n")
    assert oracle_imports(path) == ["line 2", "line 3", "line 4", "line 5",
                                    "line 10"]
