"""Every top-level function and class of the package is used by the package
itself, or is one of the few entry points that only outside callers use.

A name counts as used when it is read as a name, or appears as an
attribute, anywhere in the package outside its own definition. Import
statements do not count, and neither does a name read in a top-level
statement that binds it itself: there it is a local or an argument that
shadows the top-level one.

No module keeps a cache shared across the process: what is worked out
once is kept on the object it belongs to, or on an engine that a run owns.
"""

import ast
import importlib
from pathlib import Path

import chrgen

SRC = Path(chrgen.__file__).parent

# Called by the benchmark's bool-family workload, not by the package.
ENTRY_POINTS = {"oracle.goal_has_ground_solution"}


def _names(node):
    """Names read and attributes used in ``node``, less the names it binds."""
    read, bound, attrs = set(), set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            (read if isinstance(sub.ctx, ast.Load) else bound).add(sub.id)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
    return (read - bound) | attrs


def test_every_top_level_definition_is_used():
    definitions = []  # (qualified name, module, index of the statement)
    used = {}  # name -> set of (module, index of the statement) using it
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{stmt.name}", module, i))
            for name in _names(stmt):
                used.setdefault(name, set()).add((module, i))
    unused = [
        qualified
        for qualified, module, i in definitions
        if qualified not in ENTRY_POINTS
        and not used.get(qualified.split(".")[1], set()) - {(module, i)}
    ]
    assert unused == []
    assert ENTRY_POINTS <= {qualified for qualified, _, _ in definitions}


def test_no_module_keeps_a_process_wide_cache():
    functools_caches = {"lru_cache", "cache"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}: {a.name}" for a in node.names if a.name in functools_caches]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
                and node.attr in functools_caches
            ):
                found.append(f"{path.name}: functools.{node.attr}")
        module = importlib.import_module(f"chrgen.{path.stem}")
        found += [
            f"{path.stem}.{name}"
            for name, value in vars(module).items()
            if hasattr(value, "cache_clear")
        ]
    assert found == []
