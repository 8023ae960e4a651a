"""Every function the benchmark's tracer wraps still exists, and every
observer it keys by span name belongs to a wrapped function.

`bench/tracing.py` rebinds each `(module, function)` named in its
`WRAPPED` and `COUNTED` tuples and fails at start-up when one is gone.
Its `OBSERVERS` and `FAILURES` dicts are looked up by `<layer>.<function>`
span name; a key that names no wrapped function is never consulted, so
the counters it feeds silently stay at zero.  The module is read here
with `ast`, so the benchmark is not imported.
"""

from __future__ import annotations

import ast
import importlib
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
