"""Mutation smoke run over the certificate checkers and the integer rules.

    python3 tools/mutate.py

Run from anywhere; it works on the checkout that contains this file.  Each
function of TARGETS is parsed with ``ast``, and each mutant makes one change
in it: a comparison swapped (``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
``is``/``is not``, ``in``/``not in``), ``and``/``or`` swapped, a ``not``
dropped, or ``+``/``-`` swapped.  The function's lines are replaced by the
mutant (``ast.unparse``) in a copy of ``src``, ``tests`` and ``bench`` in a
temporary directory, and the tier-1 tests run there with ``-x``, one run at
a time: a failing run, or one over TIMEOUT seconds, kills the mutant.  The
unmutated copy runs first and must pass.  A survivor listed in EQUIVALENT,
with the reason it cannot change what its function returns, is counted as
equivalent; any other survivor is a gap in the tests.  It prints one line
per mutant and then the counts, and exits 1 when a survivor is not listed
or a listed mutant no longer exists.  Standard library only; a killed
mutant takes seconds, a survivor the whole tier-1 run.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "pilsys"
TIMEOUT = 600

# (module file, qualified name): the exact checks of certificates and the
# integer tests that decide a verdict with no LP
TARGETS = [
    ("membership.py", "validate_certificate"),
    ("membership.py", "witness_resubstitutes"),
    ("membership.py", "_failing_row"),
    ("membership.py", "_Query.decoupled"),
    ("membership.py", "_VertexLP._strict_decoupled"),
    ("exact.py", "check_infeasibility_certificate"),
    ("exact.py", "basis_holds"),
    ("exact.py", "max_row_shift"),
    ("cones.py", "_row_refutes"),
    ("unbounded.py", "_member_at"),
    ("model.py", "residual_rows"),
    ("model.py", "_check_entries"),
    ("unbounded.py", "_rhs_bound"),
]

# surviving mutants that cannot change a result, by the id ``mutants``
# gives them, each with the reason
EQUIVALENT = {
    "_failing_row: c < 0 -> c <= 0":
        "c != 0 there: |c| exceeds a sum of nonnegative terms",
    "_row_refutes: a > 0 -> a >= 0":
        "under `if a:`, so a != 0",
    "_strict_decoupled: val * best[1] < best[0] * den -> "
    "val * best[1] <= best[0] * den":
        "a tie keeps another (num, den) of the same value, and only the "
        "value Q(*best) comes out",
    "residual_rows: D > 1 -> D >= 1":
        "D is a positive lcm, and at D = 1 every den is 1, so each num is "
        "times D // den = 1 either way",
}

_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
          ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
          ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add}


class _Mutator(ast.NodeTransformer):
    """Numbers the mutation sites of a tree in visiting order, children
    first, and changes site ``target`` (none when it is -1): ``before`` is
    then the text of the node it changed, and ``node`` what stands there
    now."""

    def __init__(self, target: int = -1):
        self.target, self.count = target, 0
        self.before, self.node = "", None

    def _hit(self, node: ast.AST) -> bool:
        self.count += 1
        if self.count - 1 != self.target:
            return False
        self.before = ast.unparse(node)
        return True

    def _swapped(self, node: ast.AST, op: ast.AST) -> ast.AST:
        if type(op) in _SWAPS and self._hit(node):
            self.node = node
            return _SWAPS[type(op)]()
        return op

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        node.ops = [self._swapped(node, op) for op in node.ops]
        return node

    def _visit_op(self, node: ast.AST) -> ast.AST:
        self.generic_visit(node)
        node.op = self._swapped(node, node.op)
        return node

    visit_BoolOp = visit_BinOp = visit_AugAssign = _visit_op

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._hit(node):
            self.node = node.operand
            return node.operand
        return node


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    node: ast.AST = tree
    for name in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                    and n.name == name)
    return node


def mutants(source: str, qualname: str):
    """(id, source with the one change) for each mutant of the function."""
    lines = source.splitlines(keepends=True)
    fn = _function(ast.parse(source), qualname)
    start = min(n.lineno for n in [fn, *fn.decorator_list]) - 1
    indent = " " * fn.col_offset
    counter = _Mutator()
    counter.visit(_function(ast.parse(source), qualname))
    seen: Counter = Counter()
    for site in range(counter.count):
        mutator = _Mutator(site)
        node = mutator.visit(_function(ast.parse(source), qualname))
        ident = (f"{qualname.split('.')[-1]}: {mutator.before} -> "
                 f"{ast.unparse(mutator.node)}")
        seen[ident] += 1
        if seen[ident] > 1:
            ident += f" (#{seen[ident]})"
        body = "".join(indent + line + "\n" if line else "\n"
                       for line in ast.unparse(node).split("\n"))
        yield ident, "".join(lines[:start]) + body + \
            "".join(lines[fn.end_lineno:])


def _passes(work: Path) -> bool:
    """Do the tier-1 tests of the copy at work pass (stopping at the first
    failure, and failing after TIMEOUT seconds)?"""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(work / "src"))
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "tests"], cwd=work, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main() -> int:
    counts: Counter = Counter()
    found = set()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", "results", ".work"))
        shutil.copy(ROOT / "pyproject.toml", work)
        if not _passes(work):
            print("the unmutated tests fail; no mutant run", flush=True)
            return 2
        for module, qualname in TARGETS:
            path = work / PACKAGE / module
            source = path.read_text(encoding="utf-8")
            try:
                for ident, text in mutants(source, qualname):
                    found.add(ident)
                    path.write_text(text, encoding="utf-8")
                    if not _passes(work):
                        verdict = "killed"
                    elif ident in EQUIVALENT:
                        verdict = "equivalent"
                    else:
                        verdict = "SURVIVED"
                    counts[verdict] += 1
                    print(f"{verdict:10} {module} {ident}", flush=True)
            finally:
                path.write_text(source, encoding="utf-8")
    stale = sorted(set(EQUIVALENT) - found)
    for ident in stale:
        print(f"{'STALE':10} {ident} is listed but no longer a mutant")
    print(", ".join(f"{counts[v]} {v.lower()}"
                    for v in ("killed", "equivalent", "SURVIVED")), flush=True)
    return 1 if counts["SURVIVED"] or stale else 0


if __name__ == "__main__":
    sys.exit(main())
