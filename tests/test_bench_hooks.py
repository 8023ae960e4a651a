"""Every function the benchmark's tracer wraps still exists.

`bench/tracing.py` rebinds each `(module, function)` named in its
`WRAPPED` and `COUNTED` tuples and fails at start-up when one is gone.
The tuples are read here with `ast`, so the benchmark is not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_functions_exist_in_the_package():
    hooks = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("WRAPPED", "COUNTED"):
                hooks[name] = ast.literal_eval(node.value)
    assert set(hooks) == {"WRAPPED", "COUNTED"}
    for _, module, function in hooks["WRAPPED"] + hooks["COUNTED"]:
        assert module.startswith("clonelab.")
        assert callable(getattr(importlib.import_module(module), function, None)), (
            f"{module}.{function} is gone"
        )
