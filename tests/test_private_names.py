"""Every private module-level function, class and constant of the package is
used somewhere in the package, and so is every method of a private class and
every attribute the package stores on `self`: one that only its own
definition names, or only the tests, is dead code. So is a parameter of a
private function or method that its body never reads."""

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


def _members(tree) -> list[tuple[int, str]]:
    """(line, name) of each method of a private class, but dunders, and of
    each attribute assigned to `self`."""
    members = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            members += [
                (f.lineno, f.name)
                for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not f.name.endswith("__")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            members.append((node.lineno, node.attr))
    return members


def test_every_private_method_and_stored_attribute_is_read_in_the_package():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    # attributes read, and names spelled out as strings for `getattr`
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = [
        f"{name}:{line} {member}"
        for name, tree in modules.items()
        for line, member in _members(tree)
        if member not in read
    ]
    assert unread == []


def _private_functions(tree):
    """Each private function, and each method of a private class, but
    dunders: a name that starts with `_` and does not end with `__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            yield from (
                f
                for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not f.name.startswith("_")
            )
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_")
            and not node.name.endswith("__")
        ):
            yield node


def test_every_parameter_of_a_private_function_is_read_in_its_body():
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        for function in _private_functions(ast.parse(path.read_text())):
            args = function.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                node.id
                for statement in function.body
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{function.lineno} {function.name}({p.arg})"
                for p in params
                if p is not None
                and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
                and p.arg not in read
            ]
    assert unread == []
