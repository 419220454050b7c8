"""Static checks on the package source."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ckext"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_no_assert_statements_in_package():
    """Runtime checks raise explicit exceptions: python -O strips asserts."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/ckext: {found}"


def test_package_imports_only_the_standard_library():
    """The package is stdlib-only: every import is relative or names a module
    of the standard library."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not found, f"non-stdlib imports in src/ckext: {found}"


def test_every_private_top_level_name_is_used():
    """Each private top-level function or class of the package is referenced
    somewhere in the package outside its own definition: code that nothing
    calls is deleted, not left behind."""
    defined, used = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    defined[own] = f"{path.name}:{stmt.lineno}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    unused = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert not unused, f"private names used nowhere else in src/ckext: {unused}"


def test_no_module_defines_or_imports_cokernel():
    """The generic cokernel of any presentation is a test oracle
    (lattice_oracles.cokernel): no command needs it, so no module of the
    package defines or imports a name cokernel."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for alias in node.names for n in (alias.name, alias.asname)]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "cokernel"]
    assert not found, f"cokernel defined or imported in src/ckext: {found}"


def test_only_the_bruteforce_oracle_uses_the_addition_table():
    """The |T|^2 addition table and the element indexing it rests on belong
    to marked_iso_bruteforce alone, so the oracle shares no helper with the
    orbit walk it checks: no other code of the package names them."""
    oracle_only = {"_addition_table", "_encode"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if getattr(stmt, "name", None) == "marked_iso_bruteforce":
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.asname or node.name
                else:
                    continue
                if name in oracle_only:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"oracle helpers used outside marked_iso_bruteforce: {found}"


def _package_has(module: str, name: str | None = None) -> bool:
    """Whether ckext has the module, and the module the name (an attribute
    or a submodule)."""
    try:
        mod = importlib.import_module(module)
        return name is None or hasattr(mod, name) or bool(
            importlib.util.find_spec(f"{module}.{name}"))
    except ImportError:  # find_spec raises it too when module is no package
        return False


def test_the_benchmark_finds_what_it_uses_in_the_package():
    """The benchmark under perfbench/ (read here, never changed) reaches the
    package by imports, by importlib.import_module and by the tracer's
    layers and methods.  Every name it imports from ckext.* exists, every
    module of tracer.LAYERS exists, and every method of tracer.METHODS sits
    in its class's own __dict__, as Tracer.install reads vars(owner)[attr]:
    a rename in the package fails here, not in a benchmark run."""
    found, constants = [], {}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                wants = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                wants = [(alias.name, None) for alias in node.names]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "import_module" and node.args
                  and isinstance(node.args[0], ast.Constant)):
                wants = [(node.args[0].value, None)]
            else:
                wants = []
            found += [f"{path.name}:{node.lineno} {module}{'.' + name if name else ''}"
                      for module, name in wants
                      if module.partition(".")[0] == "ckext" and not _package_has(module, name)]
            if (path.name == "tracer.py" and isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in ("LAYERS", "METHODS")):
                constants[node.targets[0].id] = ast.literal_eval(node.value)
    assert set(constants) == {"LAYERS", "METHODS"}, "tracer.py no longer names its layers"
    found += [f"tracer.LAYERS {layer}" for layer in constants["LAYERS"]
              if not _package_has(f"ckext.{layer}")]
    for layer, cls, attr, _ in constants["METHODS"]:
        owner = getattr(importlib.import_module(f"ckext.{layer}"), cls, None)
        if owner is None or attr not in vars(owner):
            found.append(f"tracer.METHODS {layer}.{cls}.{attr}")
    assert not found, f"the benchmark uses names the package does not have: {found}"
