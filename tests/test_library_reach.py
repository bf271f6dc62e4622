"""The library is what runs: no definition in `src/iea_sim` exists only for
its tests.

Reads source files only. Every top-level function and class, and every
non-dunder method, must be referenced by name somewhere in the library, a
script or the benchmark, outside its own body. A reference is an AST
`Name`, an `Attribute` or an import alias, matched by its last name
alone; the benchmark's tracer names its entry points in string constants
such as "MsspNode.step", so each dotted part of those strings counts too.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "iea_sim"
CALLERS = (LIBRARY, ROOT / "scripts", ROOT / "perfbench")
TRACER = ROOT / "perfbench" / "tracer.py"


def _references(tree, strings=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield from node.value.split(".")


def _definitions(tree):
    """(qualified name, node) of each definition the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def test_every_library_definition_is_referenced_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in CALLERS for path in sorted(folder.glob("*.py"))}
    counts = Counter()
    for path, tree in trees.items():
        counts.update(_references(tree, strings=path == TRACER))
    unreached = []
    for path, tree in trees.items():
        if path.parent != LIBRARY:
            continue
        for qualified, node in _definitions(tree):
            own = sum(ref == node.name for ref in _references(node))
            if counts[node.name] <= own:
                unreached.append(f"{path.name}: {qualified}")
    assert not unreached, (
        "defined in src/iea_sim but referenced by no library, script or "
        f"benchmark code: {unreached}")
