"""Scans for names that nothing reads, over src/, tests/ and bench/, and for upward and private imports in src/.

Each report is built on one reader, :func:`loads`, and takes trees keyed
by their path from the repository root, so a test can plant sources.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def parse(pattern: str) -> dict:
    """The files under the repository root that match the glob: {path: tree}, in path order."""
    paths = (path.relative_to(ROOT).as_posix() for path in sorted(ROOT.glob(pattern)))
    return {path: ast.parse((ROOT / path).read_text(), path) for path in paths}


def loads(trees) -> tuple:
    """The names and the attribute names that the trees load, as two sets."""
    names, attributes = set(), set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attributes.add(n.attr)
    return names, attributes


def definitions(trees: dict):
    """(path, statement, name) for each function, class or assigned name at module level."""
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node, node.name
            elif isinstance(node, ast.Assign):
                yield from ((path, node, t.id) for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield path, node, node.target.id


def unread_imports(trees: dict) -> list:
    """Names that a file imports but never reads; __init__.py's imports are the public API."""
    unread = []
    for path, tree in trees.items():
        if path.endswith("__init__.py"):
            continue
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        names, _ = loads([tree])
        unread += [
            f"{path}:{line}: {name} is imported but never read"
            for name, line in imported.items()
            if name not in names
        ]
    return unread


def unread_definitions(src: dict, bench: dict) -> list:
    """Module-level names of src/ that nothing reads; dunder names are skipped.

    A private name fails when no name or attribute in src/ reads it.  A
    public name (__init__.py aside) fails when no name or attribute in src/
    or bench/ reads it.  String constants in bench/ count as reads of
    public names, as bench/spans.py reaches the functions it wraps by
    getattr on the names in SPANNED; only identifier-like strings count,
    so no docstring does, and src/ strings never count.
    """
    read = set().union(*loads(src.values()))
    strings = {
        n.value
        for tree in bench.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier()
    }
    read_with_bench = read.union(*loads(bench.values()), strings)
    private = [
        f"{path}:{node.lineno}: {name} is defined but never read in src/"
        for path, node, name in definitions(src)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    public = [
        f"{path}:{node.lineno}: {name} is public but nothing in src/ or bench/ reads it"
        for path, node, name in definitions(src)
        if not (path.endswith("__init__.py") or name.startswith("_"))
        and name not in read_with_bench
    ]
    return private + public


def unset_defaults(src: dict, bench: dict) -> list:
    """Defaulted parameters of public module-level functions of src/ that no call sets.

    A call in src/ or bench/ of a name or attribute with the function's
    name must set the parameter; mutate, the regression hooks, is exempt.
    """
    callees = [
        (n, n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None))
        for tree in [*src.values(), *bench.values()]
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
    ]

    def sets(call, index, name):
        # By keyword or by position; a *args or **kwargs argument counts.
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        return index is not None and (
            len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
        )

    knobs = []
    for path, tree in src.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            keywords = zip(args.kwonlyargs, args.kw_defaults)
            defaulted += [(None, a.arg) for a, d in keywords if d is not None]
            calls = [c for c, f in callees if f == node.name]
            knobs += [
                f"{path}:{node.lineno}: {node.name} has a default for {name}"
                " that no call in src/ or bench/ sets"
                for index, name in defaulted
                if name != "mutate" and not any(sets(c, index, name) for c in calls)
            ]
    return knobs


def unread_methods(src: dict, bench: dict) -> list:
    """Public methods and properties of src/ classes that no attribute in src/ or bench/ reads.

    Only classes whose bases are object or a namedtuple(...) call are
    covered, so hooks that a library calls, such as cli._Parser.error, are
    exempt.  Names are matched, not classes: a public method passes when
    an attribute of the same name is read, even on another src/ class.
    """
    _, attributes = loads([*src.values(), *bench.values()])

    def plain(cls):
        return all(
            ast.unparse(b) == "object"
            or isinstance(b, ast.Call) and ast.unparse(b.func).split(".")[-1] == "namedtuple"
            for b in cls.bases
        )

    return [
        f"{path}:{node.lineno}: {cls.name}.{node.name}"
        " is public but no attribute in src/ or bench/ reads it"
        for path, tree in src.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and plain(cls)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in attributes
    ]


def unread_helpers(tests: dict) -> list:
    """Module-level names in tests/ that nothing in tests/ reads, such as a deleted test's oracle.

    test_ functions and pytest fixtures are exempt; dunder names are skipped.
    """
    read = set().union(*loads(tests.values()))

    def exempt(node):
        return isinstance(node, ast.FunctionDef) and (
            node.name.startswith("test_")
            or any("fixture" in ast.unparse(d) for d in node.decorator_list)
        )

    return [
        f"{path}:{node.lineno}: {name} is defined but nothing in tests/ reads it"
        for path, node, name in definitions(tests)
        if not exempt(node) and not name.startswith("__") and name not in read
    ]


LAYERS = ("poly", "scalars", "curve", "chord", "plane", "verify", "cli")


def upward_imports(src: dict) -> list:
    """Package imports of each src/ module but __init__ from a module not earlier in LAYERS.

    So poly and scalars import nothing from the package, and the ring the
    symbolic claims run in cannot come to depend on F_p code.
    """
    found = []
    for path, tree in src.items():
        module = Path(path).stem
        if module == "__init__":
            continue
        below = LAYERS[: LAYERS.index(module)] if module in LAYERS else ()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                dotted = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = f"chordcubic.{node.module or ''}".rstrip(".") if node.level else node.module
                dotted = [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            found += [
                f"{path}:{node.lineno}: {module} imports {target}, not earlier in {LAYERS}"
                for target in sorted({d.split(".")[1] for d in dotted if d.startswith("chordcubic.")})
                if target not in below
            ]
    return found


# The layers whose underscore names stay their own: the claims reach the
# plane-curve sweeps, and the CLI the claims, only through public names.
SEALED = ("plane", "verify", "cli")


def private_imports(src: dict) -> list:
    """Underscore names that a src/ module imports from a SEALED module; dunder names pass."""
    found = []
    for path, tree in src.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = f"chordcubic.{node.module or ''}".rstrip(".") if node.level else node.module
            source = base.removeprefix("chordcubic.")
            found += [
                f"{path}:{node.lineno}: imports {a.name} from {source}"
                for a in node.names
                if source in SEALED and a.name.startswith("_") and not a.name.startswith("__")
            ]
    return found


SRC, TESTS, BENCH = parse("src/chordcubic/*.py"), parse("tests/*.py"), parse("bench/*.py")


SCANS = {
    unread_imports: [{**SRC, **TESTS, **BENCH}],
    unread_definitions: [SRC, BENCH],
    unset_defaults: [SRC, BENCH],
    unread_methods: [SRC, BENCH],
    unread_helpers: [TESTS],
    private_imports: [SRC],
}


@pytest.mark.parametrize("report", SCANS, ids=lambda report: report.__name__)
def test_the_tree_has_no_finding(report):
    trees = SCANS[report]
    findings = report(*trees)
    assert all(trees) and not findings, "\n".join(findings)


# One planted finding per report: line 1 of m.py for imports, 2 and 3 for
# the definitions, 5 for the defaults, 8 for the methods and 2 of test_m.py
# for the test helpers.  The strings in bench/ read wrapped and Hooked.
SRC_M = "src/chordcubic/m.py"
PLANTED_SRC = {
    SRC_M: ast.parse("""\
import os
def _unread(): return 1
def only_tests(): return 2
def wrapped(): return 3
def f(x, k=1, *, j=2, mutate=None): return f(x, j=_read())
def _read(): return 4
class Plain:
    def shown(self): return 5
    def read(self): return 6
class Hooked(Exception):
    def hook(self): return 7
"""),
}
PLANTED_BENCH = {
    "bench/spans.py": ast.parse('SPANNED = ["wrapped", "Hooked"]\nm.Plain().read(), m.f\n'),
}
PLANTED_TESTS = {
    "tests/test_m.py": ast.parse("""\
import pytest
def _oracle(): return 1
@pytest.fixture
def thing(): return 2
def test_thing(thing): assert thing == 2
"""),
}


def test_an_unread_import_is_reported():
    assert unread_imports(PLANTED_SRC) == [f"{SRC_M}:1: os is imported but never read"]


def test_an_unread_private_helper_and_a_public_name_that_only_tests_read_are_reported():
    assert unread_definitions(PLANTED_SRC, PLANTED_BENCH) == [
        f"{SRC_M}:2: _unread is defined but never read in src/",
        f"{SRC_M}:3: only_tests is public but nothing in src/ or bench/ reads it",
    ]
    wrapped = f"{SRC_M}:4: wrapped is public but nothing in src/ or bench/ reads it"
    assert wrapped in unread_definitions(PLANTED_SRC, {})


def test_a_default_that_no_call_sets_is_reported():
    assert unset_defaults(PLANTED_SRC, PLANTED_BENCH) == [
        f"{SRC_M}:5: f has a default for k that no call in src/ or bench/ sets"
    ]


def test_an_unread_method_on_a_plain_class_is_reported():
    assert unread_methods(PLANTED_SRC, PLANTED_BENCH) == [
        f"{SRC_M}:8: Plain.shown is public but no attribute in src/ or bench/ reads it"
    ]


def test_an_unread_test_helper_is_reported():
    assert unread_helpers(PLANTED_TESTS) == [
        "tests/test_m.py:2: _oracle is defined but nothing in tests/ reads it"
    ]


def test_src_modules_import_only_from_earlier_layers():
    assert SRC and not upward_imports(SRC), "\n".join(upward_imports(SRC))
    planted = {
        "src/chordcubic/poly.py": ast.parse("from fractions import Fraction\nfrom .scalars import PrimeField, residue\n"),
        "src/chordcubic/curve.py": ast.parse("from . import poly, cli\nimport chordcubic.chord\n"),
        "src/chordcubic/chord.py": ast.parse("from chordcubic import poly\nfrom chordcubic.plane import gradient\n"),
        "src/chordcubic/m.py": ast.parse("from .poly import X\n"),
    }
    assert [finding.split(",")[0] for finding in upward_imports(planted)] == [
        "src/chordcubic/poly.py:2: poly imports scalars",
        "src/chordcubic/curve.py:1: curve imports cli",
        "src/chordcubic/curve.py:2: curve imports chord",
        "src/chordcubic/chord.py:2: chord imports plane",
        "src/chordcubic/m.py:1: m imports poly",
    ]


def test_a_private_name_imported_from_a_sealed_layer_is_reported():
    planted = {
        "src/chordcubic/verify.py": ast.parse(
            "from .curve import _bracket\nfrom .plane import (\n    _reduced,\n    monomials,\n)\n"
        ),
        "src/chordcubic/cli.py": ast.parse(
            "from chordcubic.verify import _triple, __all__\nfrom .scalars import _dot\n"
        ),
        "src/chordcubic/m.py": ast.parse("from .cli import main, _Parser\n"),
    }
    assert private_imports(planted) == [
        "src/chordcubic/verify.py:2: imports _reduced from plane",
        "src/chordcubic/cli.py:1: imports _triple from verify",
        "src/chordcubic/m.py:1: imports _Parser from cli",
    ]
