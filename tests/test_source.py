"""Source hygiene of the package: no module imports a name it never uses, no
module-level private function is left without a caller, and no attribute that
an ``__init__`` sets is left unread.

Each module of ``src/linboltz`` but ``__init__.py`` (which imports to
re-export) is parsed with ``ast``; a name counts as used where it is read as
a name or as an attribute (``kinetic._helper``), anywhere in the package.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "linboltz"
TESTS = pathlib.Path(__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def names_read(tree):
    """Every name read in ``tree``, as a name or as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def imported_names(tree):
    """The names the module's imports bind, with the line of each."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = parse(path)
    used = names_read(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_function_has_a_caller():
    trees = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    orphans = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = stmt.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            # references anywhere in the package but in the function's own body
            callers = [
                other for other, other_tree in trees.items()
                if any(name in names_read(s) for s in other_tree.body if s is not stmt)
            ]
            if not callers:
                orphans.append(f"{module}:{stmt.lineno} {name}")
    assert not orphans, f"private functions that nothing references: {orphans}"


def attributes_read(tree):
    """Every attribute name read in ``tree`` (``obj.name`` in a load)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_attribute_set_in_an_init_is_read():
    # an attribute of the same name on another object is read in many places
    # (traj.epsilon), so a read counts only where the class is in sight: as
    # self.name in the class, or in a function that names the class
    trees = [parse(path) for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))]
    functions = [node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unread = []
    for cls in (node for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)):
        init = next((s for s in cls.body
                     if isinstance(s, ast.FunctionDef) and s.name == "__init__"), None)
        if init is None:
            continue
        set_on_self = {node.attr for node in ast.walk(init)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name) and node.value.id == "self"}
        read = {node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
        for function in functions:
            if cls.name in names_read(function):
                read |= attributes_read(function)
        unread += [f"{cls.name}.{name}" for name in sorted(set_on_self - read)]
    assert not unread, f"attributes set in an __init__ that nothing reads: {unread}"
