"""Every public module-level function and class in the package, and every public
method of a public class, has a non-test caller.

A name counts as used when some top-level statement of ``src/uavcache/*.py``
or ``scripts/*.py``, other than its own definition, refers to it as a name,
an attribute or a ``from`` import.  A method also counts as used when another
statement of its own class refers to it.  Code only the tests reach belongs
in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uavcache"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    # (file, top-level statement) -> the names that statement refers to
    uses = {(path, i): referenced_names(stmt)
            for path, tree in trees.items() for i, stmt in enumerate(tree.body)}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for i, stmt in enumerate(trees[path].body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            others = [names for key, names in uses.items() if key != (path, i)]
            if not any(stmt.name in names for names in others):
                unused.append(f"{path.stem}.{stmt.name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            for member in stmt.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                siblings = [referenced_names(m) for m in stmt.body if m is not member]
                if not any(member.name in names for names in others + siblings):
                    unused.append(f"{path.stem}.{stmt.name}.{member.name}")
    return unused


def test_sources_are_found():
    assert (PACKAGE / "cli.py") in SOURCES
    assert any(path.parent.name == "scripts" for path in SOURCES)


def test_every_public_definition_has_a_non_test_reference():
    assert unreferenced_definitions() == []
