"""Every private module-level function, class and constant of the package is
used somewhere in the package: one that only its own definition names, or
only the tests, is dead code."""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "randtest"


def _defined(statement) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def _used(tree) -> set[str]:
    """Names a tree reads, as a name, an attribute or an imported name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_private_module_level_name_is_used_in_the_package():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    statements = [(name, s, _used(s)) for name, tree in modules.items() for s in tree.body]
    # per name, the module-level statements that read it
    readers = Counter(used for _, _, reads in statements for used in reads)
    unused = [
        f"{name}:{statement.lineno} {d}"
        for name, statement, reads in statements
        for d in _defined(statement)
        if d.startswith("_") and not d.endswith("__") and readers[d] == (d in reads)
    ]
    assert unused == []
