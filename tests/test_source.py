"""Static checks on the package source, with the stdlib ast module."""

import ast
import dataclasses
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


def unused_exports(init, modules, tests):
    """Names that init imports and modules define as top-level functions, that no call in modules reaches,
    by name or as an attribute, and no test names; each argument is source text, or a list of it.  An
    import is neither a call nor a name."""
    trees = dict(enumerate(map(ast.parse, modules)))
    functions = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.FunctionDef)}
    exported = {alias.asname or alias.name for node in ast.parse(init).body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called, named = _calls_by_name(trees), sum(map(_names, map(ast.parse, tests)), Counter())
    return sorted(name for name in exported & functions if name not in called and not named[name])


def test_the_checker_sees_an_unused_export():
    init = "from .a import Kept, called, orphan, tested\nfrom .b import elsewhere\n"
    modules = ["def called():\n    pass\n\n\ndef orphan():\n    pass\n\n\ndef tested():\n    return called()\n\n\n"
               "class Kept:\n    pass\n", "def elsewhere():\n    pass\n"]
    tests = ["from qrf_lab import elsewhere, orphan, tested\nassert tested() is None\n"]
    assert unused_exports(init, modules, tests) == ["elsewhere", "orphan"]


def test_every_exported_function_has_a_caller_or_a_test():
    """Each function that qrf_lab/__init__.py re-exports is called in the package or named in its tests."""
    init = Path(qrf_lab.__file__).read_text(encoding="utf-8")
    read = [[p.read_text(encoding="utf-8") for p in paths] for paths in (MODULES, TESTS)]
    assert unused_exports(init, *read) == []


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


def _calls_by_name(trees):
    """Each call in trees of a name or an attribute, keyed by that name."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(callee, []).append(node)
    return calls


def _sets(call, name, position):
    """Whether call passes name by keyword, reaches its position, or spreads *args or **kwargs."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(keyword.arg in (None, name) for keyword in call.keywords)
            or position is not None and position < len(call.args))


def never_passed_parameters(sources, defining):
    """(file, function, parameter) of each defaulted parameter of a def in the defining
    files, nested defs and methods included, that no call in sources sets.

    A call sets a parameter when it passes it by keyword, reaches its position, or
    spreads *args or **kwargs.  Calls and definitions are matched by name, as in
    unreferenced_definitions: a call to another function of the same name counts, and
    __init__ is called by its class's name.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    calls = _calls_by_name(trees)
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
                if not any(_sets(call, name, position) for call in calls.get(callee, ())):
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


def never_passed_fields(sources, defining):
    """(file, class, field) of each field with a default, field(...) included, of a dataclass in
    the defining files that no call of the class in sources sets, by never_passed_parameters' rules;
    a field's position is its place among the class's annotated assignments."""
    def is_dataclass(node):
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)

    trees = {name: ast.parse(text) for name, text in sources.items()}
    calls = _calls_by_name(trees)
    found = []
    for file in defining:
        for node in ast.walk(trees[file]):
            if not (isinstance(node, ast.ClassDef) and is_dataclass(node)):
                continue
            annotated = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            for position, item in enumerate(annotated):
                name = item.target.id
                if item.value is not None and not any(_sets(call, name, position)
                                                      for call in calls.get(node.name, ())):
                    found.append((file, node.name, name))
    return sorted(found)


def test_the_checker_sees_a_never_passed_field():
    sources = {
        "a.py": "import dataclasses\nfrom dataclasses import dataclass, field\n\n\n"
                "@dataclass\nclass R:\n    need: int\n    by_position: int = 1\n    by_keyword: int = 2\n"
                "    unset: int = 3\n    unset_factory: list = field(default_factory=list)\n\n\n"
                "@dataclasses.dataclass(frozen=True)\nclass F:\n    never: int = 0\n\n\n"
                "@dataclass\nclass Spread:\n    a: int = 1\n\n\n"
                "class Plain:\n    x: int = 1\n",
        "test_a.py": "from a import F, Plain, R, Spread\nR(0, 1, by_keyword=5)\nF()\nSpread(**{})\nPlain()\n",
    }
    assert never_passed_fields(sources, ["a.py"]) == [
        ("a.py", "F", "never"), ("a.py", "R", "unset"), ("a.py", "R", "unset_factory")]


def test_every_dataclass_default_is_passed_by_some_call():
    """No field default in the package, its tests or the benchmark is a constant in disguise: some
    call in them sets each dataclass field that has one."""
    bench = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
    sources = {str(p): p.read_text(encoding="utf-8") for p in MODULES + TESTS + bench}
    assert never_passed_fields(sources, list(sources)) == []


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
    check, which reads no marginals, walks GridEvolution.blocks; thermo.subsystem_eom_terms traces the
    one state it is given."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}

    def found(callee):
        return {(name, owner) for name, text in sources.items() for owner in callers(text, callee)}

    walk = ("thermo.py", "trajectory_runs")
    assert found("_traced") == {walk, ("thermo.py", "subsystem_eom_terms")}
    assert found("blocks") == {walk, ("dynamics.py", "imported_hamiltonian_and_trajectory_check")}


def test_balance_verifiers_evolves_one_state_outside_the_walk():
    """balance_verifiers has one GridEvolution.states call site, rho(t0) for the witness search; every other
    state it reads, the endpoints included, comes from the walk, witness or not."""
    thermo = next(p for p in MODULES if p.name == "thermo.py")
    function = next(node for node in ast.walk(ast.parse(thermo.read_text(encoding="utf-8")))
                    if isinstance(node, ast.FunctionDef) and node.name == "balance_verifiers")
    assert sum(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "states"
               for node in ast.walk(function)) == 1


def _defined_and_callers(callee):
    """The names of every function the package defines, and the (module, caller) pairs of callee."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    defined = {node.name for text in sources.values() for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.FunctionDef)}
    return defined, {(name, owner) for name, text in sources.items() for owner in callers(text, callee)}


def test_one_system_twirl():
    """pi_t is the only average over the U_S(g): no module defines s_factor_twirl, and only
    subalgebras.pi_t calls operators.twirl."""
    defined, found = _defined_and_callers("twirl")
    assert "s_factor_twirl" not in defined
    assert found == {("subalgebras.py", "pi_t")}


def test_one_clustering_rule():
    """operators.clusters is the only clustering of a spectrum: no module defines degenerate_blocks, and
    only clusters and subalgebras.intersect_projectors, which selects values near 1 rather than
    clustering them, call check_guard_band."""
    defined, found = _defined_and_callers("check_guard_band")
    assert "degenerate_blocks" not in defined
    assert found == {("operators.py", "clusters"), ("subalgebras.py", "intersect_projectors")}


def test_one_state_rule():
    """states.checked_state is the one check of a density matrix: no module defines _unit_trace, only
    checked_state calls assert_hermitian(..., what="state"), every function that takes a state calls
    checked_state, checked_spectrum or support_log, and pure_state_bilocal_witness holds its vector to the
    same NORMALIZATION_TOL."""
    defined, _ = _defined_and_callers("_unit_trace")
    assert "_unit_trace" not in defined
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}

    def state_check(node):
        return _calls(node, "assert_hermitian") and any(
            getattr(arg, "value", None) == "state" for arg in node.args[1:] + [k.value for k in node.keywords])

    assert {(name, owner) for name, text in sources.items() for owner in owners(text, state_check)} == {
        ("states.py", "checked_state")}
    rules = ("checked_state", "checked_spectrum", "support_log")
    checked = set().union(*(_defined_and_callers(rule)[1] for rule in rules))
    takes_a_state = {("states.py", name) for name in ("checked_spectrum", "support_log", "purity", "mutual_information",
                                                      "subsystem_transform", "subsystem_equivalence_witness",
                                                      "negative_temperature_predict")}
    takes_a_state |= {("thermo.py", "initial_product"), ("thermo.py", "subsystem_eom_terms"),
                      ("thermo.py", "balance_verifiers"), ("dynamics.py", "imported_hamiltonian_and_trajectory_check")}
    assert takes_a_state - checked == set()
    witness = owners(sources["subalgebras.py"], lambda node: getattr(node, "id", None) == "NORMALIZATION_TOL")
    assert witness == {"pure_state_bilocal_witness"}


def attribute_reads(source, attr):
    """How often each outermost def or class of source reads attr as an attribute; a read outside
    every def and class counts as "<module>"."""
    tree = ast.parse(source)
    owners = Counter()
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        owners.update(owner for child in ast.walk(node)
                      if isinstance(child, ast.Attribute) and child.attr == attr
                      and isinstance(child.ctx, ast.Load))
    return owners


def test_the_checker_sees_attribute_reads():
    source = ("class P:\n    def m(self):\n        return self.kind\n\n\n"
              "def f(p):\n    p.kind = 1\n    return p.kind, p.kind\n\n\nprint(P().kind)\n")
    assert attribute_reads(source, "kind") == {"P": 1, "f": 2, "<module>": 1}


def test_one_prescription_branch():
    """marginal_energetics decides the prescription once, inside its loop over the two sides: no module
    defines _local_effective, and besides Prescription itself only that one read of thermo.py takes kind."""
    defined, _ = _defined_and_callers("_local_effective")
    assert "_local_effective" not in defined
    reads = attribute_reads((Path(qrf_lab.__file__).parent / "thermo.py").read_text(encoding="utf-8"), "kind")
    assert reads.pop("Prescription") >= 1
    assert reads == {"marginal_energetics": 1}


def test_one_cluster_alignment():
    """operators.align_clusters is the one rotation of bases onto bases within clusters: no module defines
    polar_unitary, both witnesses call align_clusters, and neither clusters a spectrum itself."""
    defined, found = _defined_and_callers("align_clusters")
    assert "polar_unitary" not in defined
    witnesses = {("subalgebras.py", "pure_state_bilocal_witness"), ("states.py", "subsystem_equivalence_witness")}
    assert witnesses <= found
    assert not witnesses & _defined_and_callers("clusters")[1]


def test_one_evolution_path():
    """Every evolution goes through GridEvolution's eigendecomposition, and no module forms U(t): none
    defines propagator, and evolve calls GridEvolution."""
    defined, found = _defined_and_callers("GridEvolution")
    assert "propagator" not in defined
    assert ("dynamics.py", "evolve") in found


def test_one_reference_route():
    """states.support_log is the one route to a reference state's entropy and log: no module defines
    _spectral_log or entropy_and_support_log, and only thermo.initial_product and
    states.relative_entropy call support_log."""
    defined, found = _defined_and_callers("support_log")
    assert not {"_spectral_log", "entropy_and_support_log"} & defined
    assert found == {("thermo.py", "initial_product"), ("states.py", "relative_entropy")}


def dense_structured_unitaries(source):
    """(class, "defines") for each class of source that derives from StructuredUnitary and defines matrix
    in its body, as a method or an annotated or plain assignment, and (owner, "reads") for each outermost
    def or class, or "<module>", that reads a matrix attribute."""
    def binds_matrix(cls):
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "matrix":
                return True
            targets = item.targets if isinstance(item, ast.Assign) else [getattr(item, "target", None)]
            if any(isinstance(target, ast.Name) and target.id == "matrix" for target in targets):
                return True
        return False

    found = [(node.name, "defines") for node in ast.parse(source).body
             if isinstance(node, ast.ClassDef) and binds_matrix(node)
             and any(getattr(base, "id", None) == "StructuredUnitary" for base in node.bases)]
    return sorted(found + [(owner, "reads") for owner in attribute_reads(source, "matrix")])


def test_the_checker_sees_a_dense_structured_unitary():
    source = ("class A(StructuredUnitary):\n    @cached_property\n    def matrix(self):\n        return 1\n\n\n"
              "class B(StructuredUnitary):\n    matrix: int = 0\n\n\nclass C(StructuredUnitary):\n    matrix = 0\n\n\n"
              "class D:\n    def matrix(self):\n        return 2\n\n\n"
              "def f(u):\n    return u.matrix @ u.left(u.matrix)\n")
    assert dense_structured_unitaries(source) == [("A", "defines"), ("B", "defines"), ("C", "defines"),
                                                  ("f", "reads")]


def test_no_dense_structured_unitary():
    """Every u, u', X and X' goes through PerspectiveChange's and BilocalUnitary's structure: no class
    of the package that derives from StructuredUnitary defines matrix, and no module reads one."""
    found = {p.name: dense_structured_unitaries(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def _calls(node, name):
    return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def owners(source, matches):
    """Names of the outermost defs and classes of source that hold a node for which matches is true; a node
    outside every def and class counts as "<module>"."""
    return {node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.parse(source).body if any(map(matches, ast.walk(node)))}


def splits_holding(source, callee):
    """owners of a split_hamiltonian call whose arguments hold a callee(...) call at any depth, each called
    by name or as an attribute."""
    return owners(source, lambda node: _calls(node, "split_hamiltonian") and any(
        _calls(inner, callee) for arg in node.args + [k.value for k in node.keywords] for inner in ast.walk(arg)))


def test_the_checker_sees_a_hermitian_split():
    source = ("def a(h):\n    return split_hamiltonian(hermitian_part(h), 2, 2)\n\n\n"
              "def b(h):\n    return dynamics.split_hamiltonian(h, 2, 2), hermitian_part(h)\n\n\n"
              "dynamics.split_hamiltonian(operators.hermitian_part(0), 1, 1)\n")
    assert splits_holding(source, "hermitian_part") == {"a", "<module>"}


def test_the_checker_sees_a_conjugating_split():
    source = ("def a(h, u):\n    return split_hamiltonian(np.stack([h, u.conjugate(h)])[:, None], 2, 2)\n\n\n"
              "def b(h, u):\n    return split_hamiltonian(h, 2, 2), u.conjugate(h)\n\n\n"
              "class C:\n    def m(self, h):\n        return split_hamiltonian(hamiltonian=self.u.conjugate(h))\n")
    assert splits_holding(source, "conjugate") == {"a", "C"}


def test_one_conjugated_split():
    """dynamics.conjugated_split is the one split of what the other perspective sees: no other function
    passes a hermitian_part(...) or a conjugate(...) to split_hamiltonian, at any depth of its arguments,
    and gibbs_classification reads lambda_S off that split instead of calling transform_hamiltonian_pieces."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    for callee in ("hermitian_part", "conjugate"):
        found = {(name, owner) for name, text in sources.items() for owner in splits_holding(text, callee)}
        assert found == {("dynamics.py", "conjugated_split")}, callee
    assert ("thermo.py", "gibbs_classification") not in _defined_and_callers("transform_hamiltonian_pieces")[1]


def adjoint_conjugations(source):
    """owners of a call of the form ....adjoint.conjugate(...)."""
    return owners(source, lambda node: _calls(node, "conjugate")
                  and getattr(getattr(node.func, "value", None), "attr", None) == "adjoint")


def test_the_checker_sees_an_adjoint_conjugation():
    source = ("def a(x, h):\n    return x.adjoint.conjugate(h)\n\n\n"
              "def b(x, h):\n    return conjugated_split(x.adjoint, h, 2, 2), x.conjugate(h), x.adjoint.left(h)\n\n\n"
              "w.y.adjoint.conjugate(0)\n")
    assert adjoint_conjugations(source) == {"a", "<module>"}


def test_one_imported_construction():
    """A generator pulled back through a label is the total of conjugated_split(x.adjoint, ...): no module
    applies a label's adjoint as x.adjoint.conjugate(...)."""
    found = {p.name: adjoint_conjugations(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: owner for name, owner in found.items() if owner} == {}


def test_one_bipartite_trace():
    """operators.partial_trace serves the one bipartition, (frame, system), with one einsum string per
    factor it drops: no module defines _trace_subscripts."""
    defined, _ = _defined_and_callers("partial_trace")
    assert "_trace_subscripts" not in defined


def private_imports(source):
    """(line, module, name) of each name that source imports with a leading underscore from a module of its
    own package, by a relative import."""
    return sorted((node.lineno, node.module, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  for alias in node.names if alias.name.startswith("_"))


def test_the_checker_sees_a_private_import():
    source = ("from .thermo import _stacked, entropy_balance\nfrom . import _version\n"
              "from numpy.linalg import _umath_linalg\nfrom .dynamics import (\n    GridEvolution,\n    _helper,\n)\n")
    assert private_imports(source) == [(1, "thermo", "_stacked"), (2, None, "_version"), (4, "dynamics", "_helper")]


def test_no_private_name_crosses_a_module():
    """No module of the package imports another's private name: what two modules share, such as
    dynamics.stacked_split, has a public name."""
    found = {p.name: private_imports(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: names for name, names in found.items() if names} == {}


def test_one_text_construction():
    """scenarios.render is the one way from a ScenarioResult to its CSV or JSON text: no module imports io
    or defines write_csv or write_json, and only render calls the two text builders."""
    defined, csv_callers = _defined_and_callers("_csv_text")
    assert not {"write_csv", "write_json"} & defined
    assert csv_callers == _defined_and_callers("_json_document")[1] == {("scenarios.py", "render")}
    imported = {alias.name for p in MODULES for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                if isinstance(node, ast.Import) for alias in node.names}
    assert "io" not in imported


def test_one_projector_coordinate_system():
    """Every subalgebra projector lives in a label's Schur coordinates: no module of the package reshapes in
    Fortran order or defines vec or unvec, and SubalgebraProjector has no operand_dim and no basis field."""
    defined, _ = _defined_and_callers("vec")
    assert not {"vec", "unvec"} & defined
    fortran = [(p.name, node.lineno) for p in MODULES for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
               if isinstance(node, ast.keyword) and node.arg == "order"
               and isinstance(node.value, ast.Constant) and node.value.value == "F"]
    assert fortran == []
    fields = {field.name for field in dataclasses.fields(qrf_lab.SubalgebraProjector)}
    assert not {"operand_dim", "basis"} & fields
    assert not {"vec", "unvec"} & set(dir(qrf_lab))
