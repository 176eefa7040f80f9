"""Every exported name, and every name the benchmark's tracer wraps, exists."""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import stringchain

ROOT = Path(__file__).resolve().parents[1]


def _resolve(module: str, path: str):
    return functools.reduce(getattr, path.split("."), importlib.import_module(module))


def test_every_all_name_resolves():
    modules = ["stringchain"] + [f"stringchain.{m.name}"
                                 for m in pkgutil.iter_modules(stringchain.__path__)]
    exported = 0
    for module in modules:
        for name in getattr(importlib.import_module(module), "__all__", ()):
            _resolve(module, name)
            exported += 1
    assert exported > 0


def test_every_traced_name_resolves():
    # read TRACED from the source, without importing or installing the tracer
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED")
    entries = [(entry.elts[0].value, entry.elts[1].value) for entry in traced.elts]
    assert entries
    for module, path in entries:
        _resolve(module, path)


def test_oracle_shares_no_code_with_the_solvers():
    # the finite-difference oracle checks the closed-form solvers, so it may
    # use the package's data types and errors but none of their code
    tree = ast.parse((ROOT / "src" / "stringchain" / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("stringchain." + (node.module or "") if node.level else node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {name for name in imported if name.startswith("stringchain")}
    assert package and package <= {"stringchain.chain_core", "stringchain.errors"}
