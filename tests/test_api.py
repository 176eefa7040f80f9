"""Every exported name, and every name the benchmark's tracer wraps, exists; no module
imports a name it never uses."""

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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never uses; a name listed in __all__ counts as used."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    files = [p for d in ("src", "tests", "demos", "tools") for p in sorted((ROOT / d).rglob("*.py"))]
    assert files
    assert [hit for path in files for hit in _unused_imports(path)] == []


def test_only_chain_core_turns_size_errors_into_memory_errors():
    # "too large to allocate" is decided in one place, chain_core.too_large: no
    # other module raises MemoryError or catches numpy's IndexError/OverflowError
    def hits(path: Path) -> list[str]:
        found = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                bad = {getattr(exc, "id", None)} & {"MemoryError"}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                bad = {getattr(t, "id", None) for t in types} & {"IndexError", "OverflowError"}
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in sorted(bad)]
        return found

    src = ROOT / "src" / "stringchain"
    assert hits(src / "chain_core.py")  # the walk does see the rule where it lives
    assert [h for p in sorted(src.glob("*.py")) if p.name != "chain_core.py" for h in hits(p)] == []


def test_scipy_is_imported_only_where_it_is_called():
    # importing scipy.linalg and scipy.sparse takes about 0.35 s, so a command
    # that never calls scipy must not load it: only the oracle, which uses
    # scipy throughout, imports it at module level; the package's lazy oracle
    # names, verify's checks and the Crank-Nicolson stepper import scipy or the
    # oracle inside the function that uses the names, and nothing else does
    allowed = {("oracle.py", None), ("__init__.py", "__getattr__"),
               ("cli.py", "_verify_checks"), ("timesim.py", "simulate_schrodinger")}

    def scipy_imports(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[0] == "scipy" or n.split(".")[-1] == "oracle" for n in names):
                yield node

    src = ROOT / "src" / "stringchain"
    places, unused = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in scipy_imports(tree):
            home = [f for f in functions if node in ast.walk(f)]
            places.add((path.name, home[-1].name if home else None))
            if home:
                used = {n.id for n in ast.walk(home[-1]) if isinstance(n, ast.Name)}
                bound = {(a.asname or a.name).split(".")[0] for a in node.names}
                if not bound <= used:
                    unused.append(f"{path.name}:{node.lineno}: unused in {home[-1].name}")
    assert ("oracle.py", None) in places  # the walk does see the imports
    assert places <= allowed
    assert unused == []
