"""Static checks on the package source, with the stdlib ast module."""

import ast
from collections import Counter
from pathlib import Path

import qrf_lab

MODULES = sorted(p for p in Path(qrf_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_checker_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_no_module_imports_an_unused_name():
    """Package modules and test modules alike."""
    assert len(MODULES) >= 9 and len(TESTS) >= 12
    found = {str(p): unused_imports(p.read_text(encoding="utf-8")) for p in MODULES + TESTS}
    assert {name: names for name, names in found.items() if names} == {}


def _names(tree):
    """How often each name is read in tree, as a Name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_definitions(sources, defining):
    """(file, name) of each top-level def or class in the defining files that no source
    names outside the definition itself.  sources maps file names to their text; an
    import alone is not a reference."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted((name, node.name) for name in defining for node in trees[name].body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and used[node.name] == _names(node)[node.name])


def test_the_checker_sees_an_unreferenced_definition():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef recursive(n):\n    return recursive(n - 1)\n\n\n"
                "class Orphan:\n    pass\n\n\ndef imported():\n    pass\n",
        "test_a.py": "from a import imported, used\nused()\n",
    }
    assert unreferenced_definitions(sources, ["a.py"]) == [
        ("a.py", "Orphan"), ("a.py", "imported"), ("a.py", "recursive")]


def test_every_definition_has_a_caller_or_a_test():
    """Each top-level def or class of the package is named in the package or its tests;
    the re-exports in __init__ do not count."""
    sources = {str(p): p.read_text(encoding="utf-8") for p in MODULES + TESTS}
    assert unreferenced_definitions(sources, [str(p) for p in MODULES]) == []


def _defaulted_parameters(function, is_method):
    """(name, position) of each parameter of function that has a default; a keyword-only
    parameter has position None, and a method's positions do not count self."""
    args = function.args
    positional = args.posonlyargs + args.args
    offset = 1 if is_method else 0
    found = [(arg.arg, k - offset) for k, arg in enumerate(positional)
             if k >= len(positional) - len(args.defaults)]
    return found + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]


def never_passed_parameters(sources, defining):
    """(file, function, parameter) of each defaulted parameter of a def in the defining
    files, nested defs and methods included, that no call in sources sets.

    A call sets a parameter when it passes it by keyword, reaches its position, or
    spreads *args or **kwargs.  Calls and definitions are matched by name, as in
    unreferenced_definitions: a call to another function of the same name counts, and
    __init__ is called by its class's name.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(callee, []).append(node)

    def sets(call, name, position):
        return (any(isinstance(arg, ast.Starred) for arg in call.args)
                or any(keyword.arg in (None, name) for keyword in call.keywords)
                or position is not None and position < len(call.args))

    found = []
    for file in defining:
        methods = {id(node): owner.name for owner in ast.walk(trees[file]) if isinstance(owner, ast.ClassDef)
                   for node in owner.body if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(trees[file]):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = methods.get(id(node))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            callee = owner if owner is not None and node.name == "__init__" else node.name
            for name, position in _defaulted_parameters(node, owner is not None and not static):
                if not any(sets(call, name, position) for call in calls.get(callee, ())):
                    found.append((file, node.name, name))
    return sorted(found)


def test_the_checker_sees_a_never_passed_parameter():
    sources = {
        "a.py": "def f(x, by_position=1, by_keyword=2, unset=3):\n"
                "    def inner(y, nested_unset=0):\n        return y\n    return inner(x)\n\n\n"
                "def spread(a=1, *, b=2):\n    pass\n\n\n"
                "class C:\n    def __init__(self, made=1, never=2):\n        pass\n\n"
                "    def method(self, p=1, q=2):\n        pass\n",
        "test_a.py": "from a import C, f, spread\nf(0, 1, by_keyword=5)\nspread(*[1])\nspread(**{})\n"
                     "C(1).method(0)\n",
    }
    assert never_passed_parameters(sources, ["a.py"]) == [
        ("a.py", "__init__", "never"), ("a.py", "f", "unset"), ("a.py", "inner", "nested_unset"),
        ("a.py", "method", "q")]


def test_every_defaulted_parameter_is_passed_by_some_call():
    """No default of the package is a constant in disguise: some call in the package, its
    tests or the benchmark sets each parameter that has one."""
    bench = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
    sources = {str(p): p.read_text(encoding="utf-8") for p in MODULES + TESTS + bench}
    assert never_passed_parameters(sources, [str(p) for p in MODULES]) == []


def callers(source, callee):
    """Names of the outermost functions, methods included, whose bodies call callee by name
    or as an attribute; a call outside every function counts as "<module>"."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee:
                    found.add(owner)
            top = owner == "<module>" and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if top else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_checker_sees_a_caller():
    source = ("def walk(e):\n    return e.blocks(1)\n\n\nclass C:\n    def m(self, e):\n"
              "        def inner():\n            return _traced(e)\n        return inner\n\n\n_traced(0)\n")
    assert callers(source, "blocks") == {"walk"}
    assert callers(source, "_traced") == {"m", "<module>"}


def test_one_walk_reads_the_time_grid():
    """Only thermo.trajectory_runs traces grid states, and besides it only the imported-Hamiltonian
    check, which reads no marginals, walks GridEvolution.blocks."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}

    def found(callee):
        return {(name, owner) for name, text in sources.items() for owner in callers(text, callee)}

    walk = ("thermo.py", "trajectory_runs")
    assert found("_traced") == {walk}
    assert found("blocks") == {walk, ("dynamics.py", "imported_hamiltonian_and_trajectory_check")}
