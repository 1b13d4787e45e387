"""Every public top-level function and class of the package has a caller.

A caller is an identifier (a name or an attribute, not a word in a docstring
or a comment) outside the definition itself: elsewhere in the package (the
re-exports of `__init__.py` do not count), in a study script, in a benchmark
file or a benchmark layer's qualname, or in the acceptance tests. A unit test
alone does not keep a function alive.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "birkhoff_lab"

# kept without a caller, with the reason
ALLOWED = {
    # the README documents it as the way to reproduce the fold report from a
    # written curve CSV
    "curve_from_csv",
}


def _identifiers(tree: ast.AST) -> Counter:
    """How often each name or attribute name occurs in tree."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _layer_qualnames(tree: ast.AST) -> set[str]:
    """Each dotted part of the qualnames in the benchmark's LAYERS table."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            for row in node.value.elts:
                out.update(row.elts[1].value.split("."))
    return out


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_definition_has_a_caller():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    in_package = sum((_identifiers(tree) for tree in modules.values()), Counter())
    outside: set[str] = set()
    for path in [
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]:
        tree = _parse(path)
        outside |= set(_identifiers(tree)) | _layer_qualnames(tree)

    uncalled = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # a definition's own body (a recursive call) is not a caller
            elsewhere = in_package[node.name] - _identifiers(node)[node.name]
            if elsewhere == 0 and node.name not in outside and node.name not in ALLOWED:
                uncalled.append(f"{module}.{node.name}")
    assert uncalled == []
