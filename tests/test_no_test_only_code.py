"""Every public module-level function and class in the package, and every public
method of a public class, has a non-test caller, and every module-level
UPPER_CASE constant a non-test reader.

A name counts as used when some top-level statement of ``src/uavcache/*.py``
or ``scripts/*.py``, other than its own definition, refers to it as a name,
an attribute or a ``from`` import.  A method also counts as used when another
statement of its own class refers to it.  A constant counts as used when its
name appears anywhere in those files, docstrings and comments included, outside
its own assignment.  Code and constants only the tests reach belong in the tests.
"""

import ast
import re
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


def constant_assignments(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The module-level UPPER_CASE names a module assigns, with the assigning statement."""
    found = []
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        found.extend((t.id, stmt) for t in targets
                     if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id))
    return found


def unread_constants() -> list[str]:
    texts = {path: path.read_text() for path in SOURCES}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, stmt in constant_assignments(ast.parse(texts[path], filename=str(path))):
            lines = texts[path].splitlines()
            del lines[stmt.lineno - 1:stmt.end_lineno]  # the assignment itself
            others = ["\n".join(lines)] + [text for p, text in texts.items() if p != path]
            if not any(re.search(rf"\b{name}\b", text) for text in others):
                unread.append(f"{path.stem}.{name}")
    return unread


def test_sources_are_found():
    assert (PACKAGE / "cli.py") in SOURCES
    assert any(path.parent.name == "scripts" for path in SOURCES)


def test_every_public_definition_has_a_non_test_reference():
    assert unreferenced_definitions() == []


def test_every_module_constant_has_a_non_test_reader():
    assert unread_constants() == []
