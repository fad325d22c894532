"""Source hygiene: no unused imports in src/divset or tests, no
unreferenced private names in src/divset, every name in a src/divset
module's __all__ defined there, and every committed BENCH_*.json trajectory
readable with the keys they all share.

The source checks read the modules with the standard library's ast, so they
run without importing the package.
"""

import ast
import json
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "divset"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
TEST_TREES = {
    f"tests/{path.stem}": ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))
}


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _definitions(tree: ast.Module) -> list[str]:
    """The names the module's own top-level statements define."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    return [n for n in _definitions(tree) if n.startswith("_") and not n.startswith("__")]


def test_every_import_is_used():
    unused = []
    for module, tree in (TREES | TEST_TREES).items():
        if module == "__init__":
            continue  # the package's imports are its public API
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        used |= _exports(tree)
        unused += [f"{module}.{name}" for name in _imported_names(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_every_private_name_is_referenced():
    read = {module: _read_names(tree) for module, tree in TREES.items()}
    unreferenced = [
        f"{module}.{name}"
        for module, tree in TREES.items()
        for name in _private_definitions(tree)
        if not any(name in names for names in read.values())
    ]
    assert not unreferenced, f"private names referenced nowhere in src/: {unreferenced}"


def test_every_exported_name_is_defined_in_its_module():
    undefined = [
        f"{module}.{name}"
        for module, tree in TREES.items()
        for name in sorted(_exports(tree) - set(_definitions(tree)))
    ]
    assert not undefined, f"names in __all__ that the module does not define: {undefined}"


# the keys every BENCH_*.json trajectory carries: what was compared, how,
# where, the paired runs and the Tier-1 times
BENCH_KEYS = {
    "label", "change", "parent_rev", "change_rev", "claim", "command", "machine", "runs", "tier1"
}


def test_every_bench_file_parses_with_the_shared_keys():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json committed"
    for path in paths:
        missing = BENCH_KEYS - json.loads(path.read_text()).keys()
        assert not missing, f"{path.name} lacks {sorted(missing)}"
