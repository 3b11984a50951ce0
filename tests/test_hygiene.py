"""Source hygiene: no package module imports a name it never uses, no
private module-level name or library function is left that no module loads,
no module builds a complex value or reads its parts, every memo is bounded,
no module but scalars branches on the scalar regime or raises a number to
the power alpha, no certifying module holds a tolerance, no module has json
indent its output, the package imports exactly the third-party modules
pyproject.toml lists, the search subcommand's options are the fields of
SearchConfig, and a search reduces one system."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zkwander

PACKAGE = Path(zkwander.__file__).parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# modules whose public functions must be loaded by some module or exported
LIBRARY = ("model", "reduction", "recovery", "certify", "weights", "search",
           "scalars", "cli")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _private_definitions(tree: ast.Module) -> dict:
    """name -> line of each module-level _name (dunders aside)."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names = [node.id for target in targets
                     for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        found.update((name, stmt.lineno) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def _loaded_names(tree: ast.Module) -> set:
    """Names read, imported or reached as attributes anywhere in a module;
    a function or class naming itself (recursion) does not count."""
    loaded = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        loaded |= names
    return loaded


def _package_trees() -> dict:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_name_is_loaded():
    trees = _package_trees()
    loaded = set().union(*map(_loaded_names, trees.values()))
    orphans = [f"{path.stem}.{name} (line {line})"
               for path, tree in trees.items()
               for name, line in _private_definitions(tree).items()
               if name not in loaded]
    assert orphans == []


def test_every_library_function_is_loaded_or_exported():
    trees = _package_trees()
    loaded = set().union(*map(_loaded_names, trees.values()))
    orphans = [f"{path.stem}.{stmt.name} (line {stmt.lineno})"
               for path, tree in trees.items() if path.stem in LIBRARY
               for stmt in tree.body
               if isinstance(stmt, ast.FunctionDef)
               and not stmt.name.startswith("_")
               and stmt.name not in loaded
               and stmt.name not in zkwander.__all__]
    assert orphans == []


def _complex_uses(tree: ast.Module) -> list:
    """Calls of complex() and reads of .conjugate, .imag or .real; naming
    the type, as in an isinstance check that refuses it, is allowed."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "complex"):
            found.append(f"complex() (line {node.lineno})")
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("conjugate", "imag", "real")):
            found.append(f".{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_scalar_is_real(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _complex_uses(tree) == []


def _unbounded_memos(tree: ast.Module) -> list:
    """functools.cache, and lru_cache calls whose maxsize is not a finite
    constant (a bare @lru_cache keeps its default of 128)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"functools.cache imported (line {node.lineno})"
                      for alias in node.names if alias.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and getattr(node.value, "id", None) == "functools"):
            found.append(f"functools.cache (line {node.lineno})")
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "lru_cache"):
            sizes = node.args[:1] + [k.value for k in node.keywords
                                     if k.arg == "maxsize"]
            if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and isinstance(sizes[0].value, int)):
                found.append(f"lru_cache without a finite maxsize "
                             f"(line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_memo_is_bounded(path):
    # untrusted input cannot make a memo hold an unbounded set of entries
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unbounded_memos(tree) == []


REGIME_TAGS = {"RATIONAL", "INTERVAL", "FLOAT"}
REGIME_VALUES = {"rational", "interval", "float"}
SCALAR_TYPES = {"Interval", "Radical"}


def _is_regime(node) -> bool:
    """A regime tag, its string value, or a literal collection holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_regime, node.elts))
    return ((isinstance(node, ast.Name) and node.id in REGIME_TAGS)
            or (isinstance(node, ast.Attribute) and node.attr in REGIME_TAGS)
            or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in REGIME_VALUES))


def _regime_branches(tree: ast.Module) -> list:
    """Comparisons (==, !=, in) with a regime, and isinstance checks that
    name Interval or Radical."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                        for op in node.ops)
                and any(map(_is_regime, [node.left, *node.comparators]))):
            found.append(f"regime comparison (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and any(isinstance(n, ast.Name) and n.id in SCALAR_TYPES
                      for n in ast.walk(node.args[1]))):
            found.append(f"isinstance on a scalar type (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "scalars"],
    ids=lambda p: p.stem)
def test_only_scalars_branches_on_the_regime(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _regime_branches(tree) == []


def _alpha_powers(tree: ast.Module) -> list:
    """Lines of ``**`` whose exponent reads a name or attribute alpha."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and any(getattr(n, "id", getattr(n, "attr", None)) == "alpha"
                    for n in ast.walk(node.right))]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "scalars"],
    ids=lambda p: p.stem)
def test_only_scalars_forms_a_weight_power(path):
    # a weight is formed by scalars.power in a proving regime, not copied
    # into another module in another arithmetic
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _alpha_powers(tree) == []


def _is_tolerance(name: str) -> bool:
    return ("tolerance" in name.lower() or name.endswith("_RTOL")
            or name == "tol")


def _tolerances(tree: ast.Module) -> list:
    """Tolerances a module imports or defines: names containing
    "tolerance" or ending in _RTOL, and parameters or variables named tol."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if _is_tolerance(name)]
    return found


@pytest.mark.parametrize("module", ["certify", "model"])
def test_certifying_modules_hold_no_tolerance(module):
    # a pass is a proof: a zero is exact or an enclosure, never "small"
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _tolerances(tree) == []


def _indented_json_calls(tree: ast.Module) -> list:
    """Lines of json.dump/json.dumps calls given an indent: json encodes
    those in pure Python, where certify.json_text writes the same text."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and any(kw.arg == "indent" for kw in node.keywords)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_module_indents_json(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _indented_json_calls(tree) == []


def test_import_loads_neither_scipy_nor_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, zkwander; "
         "print(sorted({'numpy', 'scipy'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env=env)
    assert proc.stdout == "[]\n"
    # nor does the command line's cold start add dataclasses or inspect;
    # site hooks may load them before it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); "
         "import zkwander.cli; print(sorted({'dataclasses', 'inspect'} & "
         "(set(sys.modules) - before)))"],
        capture_output=True, text=True, check=True, env=env)
    assert proc.stdout == "[]\n"


def test_import_loads_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    # the modules the import adds; site hooks load some before it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); "
         "import zkwander; print(sorted({m.split('.')[0] for m in "
         "set(sys.modules) - before} - set(sys.stdlib_module_names)))"],
        capture_output=True, text=True, check=True, env=env)
    assert proc.stdout == "['zkwander']\n"


def _third_party_imports(tree: ast.Module) -> set:
    """Top-level names of the absolute imports outside the standard library."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.exists():
        pytest.skip("not run from a source checkout")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in project["dependencies"]}
    imported = set().union(*map(_third_party_imports,
                                _package_trees().values()))
    assert imported == declared


def test_search_options_are_the_config_fields():
    # a search knob cannot come back on the command line or in
    # SearchConfig alone
    from zkwander.cli import build_parser
    from zkwander.search import SearchConfig
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    options = {s for a in subcommands.choices["search"]._actions
               for s in a.option_strings} - {"-h", "--help"}
    assert options == {f"--{field}" for field in SearchConfig.__slots__} | {
        "--config", "--out"}


def test_a_search_reduces_one_system(monkeypatch):
    # a search takes one system: a loop over systems cannot come back
    import zkwander.search
    from zkwander.search import SearchConfig, minimize
    calls = []
    reduce_system = zkwander.search.reduce_system

    def counted(*args, **kwargs):
        calls.append(args)
        return reduce_system(*args, **kwargs)
    monkeypatch.setattr(zkwander.search, "reduce_system", counted)
    minimize(SearchConfig(alpha=-16, strategy="grid"))
    assert len(calls) == 1
