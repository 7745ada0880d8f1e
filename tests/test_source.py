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
    assert len(MODULES) >= 9
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in MODULES}
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
