import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sttsim"


def imported_names(tree):
    """The names each import statement of `tree` binds, but for `__future__`
    features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).partition(".")[0]
                        for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


# `__init__` imports names to re-export them, not to use them.
@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


# Everything runs in the calling process: per-layer counts taken by wrapping
# the package's functions in-process see every call only then.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_starts_another_process(path):
    tree = ast.parse(path.read_text(), str(path))
    names = set()  # top-level modules imported, and each `module.name` used
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.partition(".")[0])
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
    banned = {"multiprocessing", "concurrent", "subprocess", "os.fork"}
    assert sorted(names & banned) == []


# A third-party import costs every command its load time and memory, on
# every workload: NumPy alone adds 13.7 MB of resident memory.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), str(path))
    modules = set()  # top-level modules imported absolutely
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    assert sorted(modules - sys.stdlib_module_names) == []


# The frequency-free pass has one home: every other module reads it through
# `cache.ShadowPass`, so none names the pass's parts.
@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "cache.py"),
    ids=lambda p: p.name)
def test_only_the_cache_names_the_shadow_pass_parts(path):
    tree = ast.parse(path.read_text(), str(path))
    names = set(imported_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    assert sorted(names & {"LruShadow", "miss_facts", "_lanes"}) == []
