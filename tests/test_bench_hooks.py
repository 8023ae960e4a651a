"""Every function the benchmark's tracer wraps still exists, and every
observer it keys by span name belongs to a wrapped function.

`bench/tracing.py` rebinds each `(module, function)` named in its
`WRAPPED` and `COUNTED` tuples and fails at start-up when one is gone.
Its `OBSERVERS` and `FAILURES` dicts are looked up by `<layer>.<function>`
span name; a key that names no wrapped function is never consulted, so
the counters it feeds silently stay at zero.  And every call the
benchmark makes into the package still binds to the callee's signature.
The benchmark is read here with `ast`, so it is not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _assignments():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name is not None:
                yield name, node.value


def _hooks():
    return {
        name: ast.literal_eval(value)
        for name, value in _assignments()
        if name in ("WRAPPED", "COUNTED")
    }


def test_traced_functions_exist_in_the_package():
    hooks = _hooks()
    assert set(hooks) == {"WRAPPED", "COUNTED"}
    for _, module, function in hooks["WRAPPED"] + hooks["COUNTED"]:
        assert module.startswith("clonelab.")
        assert callable(getattr(importlib.import_module(module), function, None)), (
            f"{module}.{function} is gone"
        )


def test_observer_keys_name_wrapped_functions():
    spans = {f"{layer}.{function}" for layer, _, function in _hooks()["WRAPPED"]}
    keyed = {
        name: [ast.literal_eval(key) for key in value.keys]
        for name, value in _assignments()
        if name in ("OBSERVERS", "FAILURES")
    }
    assert set(keyed) == {"OBSERVERS", "FAILURES"}
    assert all(keyed.values())
    for name, keys in keyed.items():
        for key in keys:
            assert key in spans, f"{name} key {key!r} names no wrapped function"


def _package_callables(tree):
    """Names a benchmark module binds to clonelab modules and to objects
    imported from them."""
    modules, objects = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "clonelab":
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("clonelab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                objects[alias.asname or alias.name] = getattr(module, alias.name)
    return modules, objects


def test_bench_calls_bind_to_package_signatures():
    # A removed parameter or function fails here rather than mid-run.
    bound = 0
    for path in sorted(TRACING.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules, objects = _package_callables(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in objects:
                target = objects[func.id]
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
            ):
                target = getattr(modules[func.value.id], func.attr, None)
                assert target is not None, f"{path.name}:{node.lineno}: {func.attr} is gone"
            else:
                continue
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            try:
                inspect.signature(target).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords}
                )
            except TypeError as exc:
                raise AssertionError(f"{path.name}:{node.lineno}: {exc}") from None
            bound += 1
    assert bound
