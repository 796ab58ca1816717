"""Source hygiene of the package: no module imports a name it never uses, no
module-level private function is left without a caller, no public function or
class is called only from tests unless it is kept on purpose, no module-level
name is assigned without being read, no attribute that an ``__init__``
sets is left unread, and no dataclass field is left unread.

Each module of ``src/linboltz`` but ``__init__.py`` (which imports to
re-export) is parsed with ``ast``; a name counts as used where it is read as
a name or as an attribute (``kinetic._helper``), anywhere in the package.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "linboltz"
TESTS = pathlib.Path(__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: public names that nothing in the package or bench/ reads, each kept on purpose
ONLY_TESTS_CALL = {
    "psi": "the paper's centered jump cost, which the dual certificates will use",
    "psi_legendre_oracle": "the independent oracle that checks psi",
    "dirichlet_lower_bound": "the Donsker-Varadhan formula for E, for the dual certificates",
    "kinematic_lower_bound": "the variational formula for R, for the dual certificates",
    "entropy_balance_check": "criterion 6 calls it",
    "heat_gradient_flow_check": "criterion 7 calls it",
    "rayleigh_xi_bound": "the package exports it as the Rayleigh model's radial bound",
    "from_file": "the checked reader of the model file that model-info writes",
    "rescaled_run": "the sweep's frame-holding reference; moves to the tests once the "
                    "benchmark no longer wraps diffusive.simulate",
}


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


def test_every_public_name_is_read_outside_the_tests_or_kept_on_purpose():
    # a re-export in __init__.py is an import, not a read, so it does not count
    trees = {path: parse(path)
             for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    unread = set()
    for path in MODULES:
        for stmt in trees[path].body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")):
                continue
            if not any(stmt.name in names_read(s)
                       for tree in trees.values() for s in tree.body if s is not stmt):
                unread.add(stmt.name)
    assert unread == set(ONLY_TESTS_CALL), (
        f"read only by tests, not kept on purpose: {sorted(unread - set(ONLY_TESTS_CALL))}; "
        f"kept on purpose but read: {sorted(set(ONLY_TESTS_CALL) - unread)}")


def names_loaded(tree):
    """Every name read in ``tree``, as a name or an attribute, in a load only
    (an assignment's own target is not a read of it)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def module_level_assignments(tree):
    """The names that the module-level statements of ``tree`` assign, with the
    line of each."""
    assigned = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    assigned[node.id] = stmt.lineno
    return assigned


def test_every_module_level_name_is_read():
    # a constant that nothing reads, such as a tolerance left behind by the
    # code that used it, is read neither in the package nor in bench/
    paths = sorted(PACKAGE.glob("*.py"))
    trees = {path: parse(path) for path in paths + sorted(BENCH.glob("*.py"))}
    read = set().union(*(names_loaded(tree) for tree in trees.values()))
    unread = [f"{path.name}:{line} {name}"
              for path in paths
              for name, line in module_level_assignments(trees[path]).items()
              if name not in read
              and not (path.name == "__init__.py" and name.startswith("__"))]
    assert not unread, f"module-level names that nothing reads: {unread}"


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


def dataclass_fields(tree):
    """(class, field, line) of every annotated field of a ``@dataclass`` in ``tree``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield cls, stmt.target.id, stmt.lineno


def serialises_itself(cls):
    """Whether the class reads all its fields at once, through ``vars(self)``."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "vars" and len(node.args) == 1
               and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
               for node in ast.walk(cls))


def test_every_dataclass_field_is_read():
    # a field counts as read where any attribute of its name is loaded, or a
    # string of its name appears (a getattr, a key of a written record)
    paths = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")) + sorted(TESTS.glob("*.py"))
    trees = [parse(path) for path in paths]
    read = set().union(*(attributes_read(tree) for tree in trees))
    read |= {node.value for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = [f"{path.name}:{line} {cls.name}.{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls, name, line in dataclass_fields(parse(path))
              if name not in read and not serialises_itself(cls)]
    assert not unread, f"dataclass fields that nothing reads: {unread}"


def test_no_transport_option_inside_the_package():
    # every run steps spectral transport; outside input names one only in a
    # config's solver block and simulate's keyword, each checked where it arrives
    found = set()
    for path in MODULES:
        tree = parse(path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                names = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                found |= {f"{path.name} {node.name}({a.arg})" for a in names
                          if a.arg == "transport"}
        found |= {f"{path.name} {cls.name}.{name}" for cls, name, _ in dataclass_fields(tree)
                  if name == "transport"}
    assert found == {"kinetic.py simulate(transport)", "cli.py SolverConfig.transport"}
