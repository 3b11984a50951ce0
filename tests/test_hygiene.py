"""Source hygiene: no package module imports a name it never uses, no private
module-level name or library function is left that no module loads, every
public function has a caller in the package or is a named reference oracle,
no module builds a complex value or reads its parts, every memo has an int
bound, no module but scalars branches on the scalar regime, raises a number
to the power alpha or reads text as a Fraction, no certifying module holds a
tolerance or tests a double for zero, no module but search holds a small
float literal, no module but reduction spells C_5, no module has json indent
its output, the package imports exactly the third-party modules
pyproject.toml lists, certify imports no reference code, the search
subcommand's options are the fields of SearchConfig and --out, a search
reduces one system, no module but scalars reads a Radical's .coeff or
.roots, a rational verify's inner products build no Radical per term, and
recovery chooses its parameters with no double (no math, no to_float)."""

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


# public functions that no module calls, kept as reference oracles: the
# tests check the library's answers against them
REFERENCE_ORACLES = {
    "cross_check": "the reduction's closed forms against the definition-level "
                   "A block and B_0",
    "a_factor_q_form": "a second closed form of a(k), checked identical to "
                       "a_factor_exact",
    "e_bracket_check": "the asymptotic bracket on E_i against the exact "
                       "reduced system",
    "check_five_k_readings": "which reading of the paper's 'k <= 18' "
                             "sentence the five-k rule supports",
    "in_published_interval": "exact containment in a published "
                             "(center, half-width) value",
}


def test_every_public_function_is_called_or_a_reference_oracle():
    # an export is no caller: a function only tests call is test surface
    trees = _package_trees()
    loaded = set().union(*(_loaded_names(tree) for path, tree in trees.items()
                           if path.name != "__init__.py"))
    uncalled = {stmt.name for tree in trees.values() for stmt in tree.body
                if isinstance(stmt, ast.FunctionDef)
                and not stmt.name.startswith("_") and stmt.name not in loaded}
    assert uncalled == set(REFERENCE_ORACLES)


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
    """Every functools.cache, and every lru_cache not called with an int
    maxsize (a bare @lru_cache hides its default of 128), under whatever
    name an import binds it to."""
    modules, names = {"functools"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((a.asname or a.name, a.name) for a in node.names)

    def memo(node):
        if isinstance(node, ast.Name):
            name = names.get(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id in modules:
            name = node.attr
        else:
            return None
        return name if name in ("cache", "lru_cache") else None

    sized = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and memo(node.func) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords
                                     if k.arg == "maxsize"]
            if (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int):
                sized.add(node.func)
    found = [f"functools.cache imported (line {node.lineno})"
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "functools"
             for a in node.names if a.name == "cache"]
    return found + [f"functools.{memo(node)} without an int maxsize "
                    f"(line {node.lineno})" for node in ast.walk(tree)
                    if memo(node) and node not in sized]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_memo_is_bounded(path):
    # untrusted input cannot make a memo hold an unbounded set of entries
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unbounded_memos(tree) == []


@pytest.mark.parametrize("source, flagged", [
    ("from functools import lru_cache\n@lru_cache(maxsize=1)\ndef f(): 0", 0),
    ("import functools\n@functools.lru_cache(4096)\ndef f(): 0", 0),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\n"
     "def f(): 0", 1),
    ("from functools import lru_cache\n@lru_cache\ndef f(): 0", 1),
    ("from functools import lru_cache\n@lru_cache(typed=True)\n"
     "def f(): 0", 1),
    ("from functools import lru_cache\n@lru_cache(maxsize=True)\n"
     "def f(): 0", 1),
    ("from functools import lru_cache as memo\n@memo(None)\ndef f(): 0", 1),
    ("import functools as ft\n@ft.lru_cache(maxsize=None)\ndef f(): 0", 1),
    ("import functools\n@functools.cache\ndef f(): 0", 1),
    ("from functools import cache\n@cache\ndef f(): 0", 2),
    ("cache = {}\ndef lru_cache(f): return f\n@lru_cache\ndef f(): 0", 0),
], ids=["maxsize-1", "positional-4096", "maxsize-None", "bare", "no-maxsize",
        "bool-maxsize", "aliased-name", "aliased-module", "functools.cache",
        "imported-cache", "not-functools"])
def test_the_memo_check_sees_every_unbounded_form(source, flagged):
    assert len(_unbounded_memos(ast.parse(source))) == flagged


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


def _is_negative_literal(node) -> bool:
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and type(node.operand.value) is int)


def _alpha_powers(tree: ast.Module) -> list:
    """Lines of ``**`` whose exponent reads a name or attribute alpha, or
    is a negative integer literal: a weight t^alpha at a fixed alpha."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and (_is_negative_literal(node.right)
                 or any(getattr(n, "id", getattr(n, "attr", None)) == "alpha"
                        for n in ast.walk(node.right)))]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "scalars"],
    ids=lambda p: p.stem)
def test_only_scalars_forms_a_weight_power(path):
    # a weight is formed by scalars.power in a proving regime, not copied
    # into another module in another arithmetic
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _alpha_powers(tree) == []


def _fractions_of_text(tree: ast.Module) -> list:
    """Lines of Fraction(str(...)) or Fraction(repr(...)): a second reading
    of a caller's number beside scalars.to_rational."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "Fraction"
            and any(isinstance(a, ast.Call)
                    and getattr(a.func, "id", None) in ("str", "repr")
                    for a in node.args)]


def test_only_scalars_reads_text_as_a_fraction():
    # one float rule: to_rational reads a float as the decimal repr prints
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "scalars"
             for line in _fractions_of_text(ast.parse(path.read_text()))]
    assert found == []


def _is_tolerance(name: str) -> bool:
    return ("tolerance" in name.lower() or name.endswith(("_RTOL", "_SLACK"))
            or name == "tol")


def _tolerances(tree: ast.Module) -> list:
    """Tolerances a module imports or defines: names containing
    "tolerance" or ending in _RTOL or _SLACK, and parameters or variables
    named tol."""
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


@pytest.mark.parametrize("module", ["certify", "model", "asymptotic"])
def test_certifying_modules_hold_no_tolerance(module):
    # a pass is a proof: a zero is exact or an enclosure, never "small"
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _tolerances(tree) == []


def _is_double(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("to_float", "float"))


def _is_zero(node) -> bool:
    return (isinstance(node, ast.Constant)
            and type(node.value) in (int, float) and node.value == 0)


def _doubles_tested_for_zero(tree: ast.Module) -> list:
    """Comparisons of a to_float(...) or float(...) call with 0 by == or
    !=, in either order."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        found += [f"line {node.lineno}"
                  for op, a, b in zip(node.ops, sides, sides[1:])
                  if isinstance(op, (ast.Eq, ast.NotEq))
                  and (_is_double(a) and _is_zero(b)
                       or _is_zero(a) and _is_double(b))]
    return found


@pytest.mark.parametrize("module", ["certify", "model", "recovery",
                                    "reduction"])
def test_no_certifying_module_tests_a_double_for_zero(module):
    # a zero is exact or an enclosure: a nonzero value can round to the
    # double 0 (an A_15 of 10^-200 squares to 0.0)
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _doubles_tested_for_zero(tree) == []


def _small_floats(tree: ast.Module) -> list:
    """Float literals strictly between 0 and 1e-3, the size of a fudge
    that widens a decision; a negative literal is its positive constant
    under a unary minus, so it is found too."""
    return [f"{node.value!r} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < node.value < 1e-3]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "search"],
    ids=lambda p: p.stem)
def test_no_module_decides_by_a_small_float(path):
    # search is exempt: its Nelder-Mead constants only locate a point, and
    # _confirm decides it in the proving regime
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _small_floats(tree) == []


def _square(node) -> bool:
    """x * x or x ** 2."""
    return isinstance(node, ast.BinOp) and (
        isinstance(node.op, ast.Mult)
        and ast.dump(node.left) == ast.dump(node.right)
        or isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant) and node.right.value == 2)


def _c5_forms(tree: ast.Module) -> list:
    """Lines of a product minus a square over 4, the shape of
    C_5 = C_1 C_4 - C_3^2 / 4 however its operands are named."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Mult)
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Div)
            and _square(node.right.left)
            and isinstance(node.right.right, ast.Constant)
            and node.right.right.value == 4]


def test_only_reduction_spells_c5():
    # one home for C_1..C_5: a search that inlines the sums spells C twice
    assert _c5_forms(ast.parse("c1 * c4 - c3 * c3 / 4")) == [1]
    assert _c5_forms(ast.parse("c.C1 * c.C4 - c.C3 ** 2 / 4")) == [1]
    spelled = {path.stem: _c5_forms(tree)
               for path, tree in _package_trees().items()}
    assert spelled.pop("reduction")
    assert {stem: lines for stem, lines in spelled.items() if lines} == {}


def _float_path(tree: ast.Module) -> list:
    """Lines that import math or name to_float."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(alias.name == "math" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "math"
            or isinstance(node, ast.Name) and node.id == "to_float"
            or isinstance(node, ast.Attribute) and node.attr == "to_float"
            or isinstance(node, ast.alias) and node.name == "to_float"]


def test_recovery_chooses_its_parameters_without_doubles():
    # Z_3, Z_1 and the register are read with to_decimal, whose exponents
    # do not run out: a double on that path ends a valid point in
    # OverflowError or ZeroDivisionError
    assert _float_path(ast.parse(
        "import math\nfrom math import sqrt\n"
        "from .scalars import to_float\nscalars.to_float(x)")) == [
        1, 2, 3, 4]
    tree = ast.parse((PACKAGE / "recovery.py").read_text())
    assert _float_path(tree) == []


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


def test_the_checker_imports_no_reference_code():
    # a replay trusts certify and what it imports: the reduction, the
    # recovery and their cross_check oracle stay outside it
    tree = ast.parse((PACKAGE / "certify.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imported == {"errors", "model", "record", "scalars", "weights"}


def test_search_options_are_the_config_fields():
    # a search knob cannot come back on the command line or in
    # SearchConfig alone, nor a second way to pass the same values
    from zkwander.cli import build_parser
    from zkwander.search import SearchConfig
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    options = {s for a in subcommands.choices["search"]._actions
               for s in a.option_strings} - {"-h", "--help"}
    assert options == {f"--{field}" for field in SearchConfig.__slots__} | {
        "--out"}


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


def _scalar_part_reads(tree: ast.Module) -> list:
    """Lines that read an attribute .coeff or .roots."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("coeff", "roots")]


def test_only_scalars_reads_the_parts_of_a_radical():
    # a Radical's coefficient and atoms are the scalar layer's business:
    # a module that multiplies them out keeps a second exact kernel
    assert _scalar_part_reads(ast.parse("x.coeff * y.roots[0]")) == [1, 1]
    found = {path.stem: _scalar_part_reads(tree)
             for path, tree in _package_trees().items()
             if path.stem != "scalars"}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def test_a_rational_verify_sums_no_radical_objects(monkeypatch,
                                                   registered16, seq16):
    # the slot sums run through scalars.sum_of_products in one integer
    # pass: a return to one Radical product and sum per term fails here
    import zkwander.certify
    import zkwander.model
    from zkwander.scalars import Radical
    inside, entered, calls = [0], [], []
    sum_of_products = zkwander.model.sum_of_products

    def traced(*args, **kwargs):
        inside[0] += 1
        entered.append(1)
        try:
            return sum_of_products(*args, **kwargs)
        finally:
            inside[0] -= 1

    def counted(name):
        original = getattr(Radical, name)

        def method(self, other):
            if inside[0]:
                calls.append(name)
            return original(self, other)
        return method

    # certify forms no product itself: it reaches them all through model
    assert "sum_of_products" not in vars(zkwander.certify)
    monkeypatch.setattr(zkwander.model, "sum_of_products", traced)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Radical, name, counted(name))
    cert = zkwander.certify.verify(registered16.pair, seq16)
    assert cert.verdict == "pass"
    assert len(entered) > 0 and calls == []
