"""The package stays stdlib-only: every import in `clonelab` is relative
or names a standard-library module.  And it holds no dead code: every
top-level definition is reachable from the public API, the command line
or the benchmark, every top-level import is used, and every defaulted
parameter is passed somewhere.  No code path lists a whole automorphism
group.  The checks read the sources with `ast`."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import clonelab

PACKAGE = Path(clonelab.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
TESTS = Path(__file__).resolve().parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def _code_names(node):
    """The variable and attribute names a piece of code refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _bench_names(node):
    """Every name in benchmark code, including those spelled in strings:
    the tracer names the functions it wraps as strings."""
    yield from _code_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            yield from sub.name.split(".")
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from re.findall(r"[A-Za-z_]\w*", sub.value)


def test_every_top_level_definition_is_reachable():
    # Roots: `__all__`, `cli.main`, module-level statements other than
    # imports and docstrings, and every name in `bench/*.py`.  Names match
    # by spelling across modules, which errs toward reachable.
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    roots = {"main", *clonelab.__all__}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, DEFINITIONS):
                definitions.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            ):
                roots.update(_code_names(node))
    bench = sorted(BENCH.glob("*.py"))
    assert bench
    for path in bench:
        roots.update(_bench_names(ast.parse(path.read_text(), str(path))))
    reached: set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            for _, node in definitions.get(name, ()):
                pending.extend(_code_names(node))
    dead = sorted(
        f"{module}.{name}"
        for name, found in definitions.items()
        if name not in reached
        for module, _ in found
    )
    assert not dead, f"unreachable from the API, the CLI and bench/: {dead}"


def test_every_top_level_import_is_used():
    # A name counts as used when the module refers to it as a variable or
    # lists it in `__all__`; `from __future__` imports bind no name.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused.extend(f"{path.stem}.{name}" for name in bound if name not in used)
    assert not unused, f"imported but never used: {unused}"


def _defaulted_parameters(tree):
    """(callee name, parameter, position) for every defaulted parameter of
    every function and method.  A method's position does not count `self`
    or `cls`, `__init__` is called by its class name, and a keyword-only
    parameter has no position."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    name = node.name if item.name == "__init__" else item.name
                    methods[item] = (name, 0 if static else 1)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, skip = methods.get(node, (node.name, 0))
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for index in range(first, len(positional)):
                yield name, positional[index].arg, index - skip
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _passes(call, parameter, position):
    if any(k.arg in (None, parameter) for k in call.keywords):
        return True
    return position is not None and any(
        isinstance(arg, ast.Starred) or i == position
        for i, arg in enumerate(call.args[: position + 1])
    )


def test_every_defaulted_parameter_is_passed():
    # A default that no call in src/, bench/ or tests/ overrides is a
    # constant in disguise.  Calls match by bare callee name, and `*` or
    # `**` arguments count as passing whatever they could reach.
    calls: dict[str, list[ast.Call]] = {}
    for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py"), *TESTS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append(node)
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append(node)
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, parameter, position in _defaulted_parameters(tree):
            if not any(_passes(c, parameter, position) for c in calls.get(name, ())):
                unpassed.append(f"{path.stem}.{name}({parameter})")
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


def test_no_code_path_lists_the_automorphism_group():
    # `structures.generators` and `structures.extensions` answer every
    # group question; `automorphisms` stays for the tests and the tracer
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and "automorphisms" in _code_names(node.func)
    ]
    assert not calls, f"calls of automorphisms in the package: {calls}"
