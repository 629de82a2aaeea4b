"""Every name a singmap module imports is used by that module, every
private module-level name is referenced somewhere in the package, no
module reads the environment, and the package holds no float and imports
nothing outside the standard library.

The two package __init__ modules only re-export, so they are exempt from
the import check.  A name counts as used when the module reads it
anywhere, as a bare name or as the root of an attribute.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singmap"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id


def test_modules_are_found():
    assert {"relations.py", "linalg.py", "textform.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - set(used_names(tree)))
    assert not unused, f"{path.name} imports {unused} and never uses them"


def private_definitions(tree):
    """(name, node) for each module-level function, class or assignment
    whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(tree):
    """Every name the tree reads: bare names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unreferenced_private_definition():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.rglob("*.py")}
    counts = Counter(name for tree in trees.values() for name in references(tree))
    unreferenced = sorted(
        f"{path.relative_to(PACKAGE)}:{name}"
        for path, tree in trees.items()
        for name, node in private_definitions(tree)
        if counts[name] == Counter(references(node))[name]
    )
    assert not unreferenced, f"defined but referenced nowhere else in singmap: {unreferenced}"


ENVIRONMENT_READERS = {"environ", "environb", "getenv"}


def environment_reads(tree):
    """Each os.environ, os.environb or os.getenv the tree reads, as an
    attribute or imported from os by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT_READERS:
                    yield alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_environment_reads(path):
    # the library reads nothing but its arguments: every setting is a
    # parameter or a command-line flag
    reads = list(environment_reads(ast.parse(path.read_text(encoding="utf-8"))))
    assert not reads, f"{path.name} reads the environment: {reads}"


def outside_imports(tree):
    """Each absolute import of a top-level module that is neither in the
    standard library nor singmap itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.partition(".")[0]]
        else:
            continue
        for root in roots:
            if root != "singmap" and root not in sys.stdlib_module_names:
                yield root, node.lineno


def float_uses(tree):
    """Each float or complex literal and each call of float()."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield repr(node.value), node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield "float(", node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE)))
def test_exact_and_standard_library_only(path):
    # every number is exact (int, Fraction or ExactScalar) and the package
    # runs on a bare Python install
    tree = ast.parse(path.read_text(encoding="utf-8"))
    outside = list(outside_imports(tree))
    assert not outside, f"{path.name} imports outside the standard library: {outside}"
    floats = list(float_uses(tree))
    assert not floats, f"{path.name} uses floats: {floats}"
