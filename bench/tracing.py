"""Spans around clonelab's public functions, installed from outside.

While a job is traced, each wrapped function records a span: its name,
start, end, parent span and job id.  Installing a wrapper rebinds every
name under which clonelab's modules hold the function (for example both
`clonelab.canonical.is_canonical` and `clonelab.lifting.is_canonical`),
so calls from one module into another are seen as well.  Nothing in the
library is edited.  `orderterms`, `terms` and `plmap` are called too
finely to wrap; their time stays in their callers' self time.

A span's self time is its duration minus the durations of its child
spans.  The root span of each job belongs to the `bench` layer, so the
layers' self times add up to the traced job wall time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from clonelab.errors import EqualizerFailure

# (layer, module, public function)
WRAPPED = (
    ("clones", "clonelab.clones", "generate"),
    ("equations", "clonelab.equations", "satisfiable_in_clone"),
    ("equations", "clonelab.equations", "satisfiable_modulo_outside"),
    ("equations", "clonelab.equations", "satisfiable_in_projections"),
    ("equations", "clonelab.equations", "has_projective_homomorphism"),
    ("equations", "clonelab.equations", "pad_to_common_arity"),
    ("structures", "clonelab.structures", "orbits"),
    ("structures", "clonelab.structures", "automorphisms"),
    ("structures", "clonelab.structures", "enumerate_patterns"),
    ("structures", "clonelab.structures", "joint_order_patterns"),
    ("canonical", "clonelab.canonical", "is_canonical"),
    ("canonical", "clonelab.canonical", "type_image"),
    ("canonical", "clonelab.canonical", "xi_infty"),
    ("lifting", "clonelab.lifting", "analyze_transfer"),
    ("lifting", "clonelab.lifting", "build_instance"),
    ("lifting", "clonelab.lifting", "lift"),
    ("lifting", "clonelab.lifting", "find_equalizers"),
    ("lifting", "clonelab.lifting", "approximate_accumulation"),
    ("qclone", "clonelab.qclone", "make_member"),
    ("qclone", "clonelab.qclone", "selector_member"),
    ("qclone", "clonelab.qclone", "extend_restriction"),
    ("qclone", "clonelab.qclone", "compose_members"),
    ("qclone", "clonelab.qclone", "xi"),
    ("qclone", "clonelab.qclone", "spot_check_polymorphism"),
    ("qclone", "clonelab.qclone", "uniqueness_witnesses"),
    ("qclone", "clonelab.qclone", "serialize_member"),
    ("parse", "clonelab.structures", "parse_structure"),
    ("parse", "clonelab.equations", "parse_equation_system"),
    ("parse", "clonelab.orderterms", "parse_order_term"),
    ("parse", "clonelab.qclone", "parse_member"),
)
# counted on every call, but too fine for a span of its own
COUNTED = (("qclone.evaluations", "clonelab.qclone", "evaluate"),)
LAYERS = ("clones", "equations", "structures", "canonical", "lifting", "qclone", "parse", "bench")


def _generated(counters, clone):
    for arity, entries in clone.catalogs.items():
        new = sum(1 for entry in entries if entry.depth > 0)
        counters["clones.entries"] += len(entries)
        counters["clones.new_tables"] += new
        counters["clones.compositions"] += new + len(clone.collisions[arity])
        counters["clones.collisions"] += len(clone.collisions[arity])


def _searched(counters, report):
    counters["equations.searches"] += 1
    counters["equations.found"] += report.found
    counters["equations.assignments_checked"] += report.checked


def _classified(counters, space):
    counters["structures.tuples_classified"] += len(space.index)


def _listed(counters, items):
    counters["structures.tuples_classified"] += len(items)


def _decided(counters, verdict):
    counters["canonical.verdicts"] += 1
    counters["canonical.noncanonical"] += not verdict.canonical


def _lifted(counters, witnesses):
    counters["lifting.columns"] += sum(w.columns for w in witnesses)


def _composed(counters, member):
    counters["qclone.compositions"] += 1


OBSERVERS = {
    "clones.generate": _generated,
    "equations.satisfiable_in_clone": _searched,
    "equations.satisfiable_modulo_outside": _searched,
    "structures.orbits": _classified,
    "structures.enumerate_patterns": _classified,
    "structures.joint_order_patterns": _listed,
    "canonical.is_canonical": _decided,
    "lifting.lift": _lifted,
    "qclone.compose_members": _composed,
}
FAILURES = {"lifting.lift": (EqualizerFailure, "lifting.equalizer_failures")}


class Tracer:
    """Collects spans and counters for the jobs run inside `job()`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, job id]
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._job = None
        self._patches = self._patches_for_all_aliases()

    def _patches_for_all_aliases(self):
        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "clonelab" or name.startswith("clonelab.")
        ]
        wrappers = []
        for layer, module_name, function in WRAPPED:
            original = getattr(sys.modules[module_name], function)
            name = f"{layer}.{function}"
            wrappers.append((original, self._spanned(name, original)))
        for counter, module_name, function in COUNTED:
            original = getattr(sys.modules[module_name], function)
            wrappers.append((original, self._counted(counter, original)))
        patches = []
        for original, wrapper in wrappers:
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        patches.append((module, attr, original, wrapper))
        return patches

    def _spanned(self, name, function):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)
        failure = FAILURES.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1], self._job]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if failure is not None and isinstance(exc, failure[0]):
                    counters[failure[1]] += 1
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return wrapper

    def _counted(self, name, function):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return function(*args, **kwargs)

        return wrapper

    @contextmanager
    def job(self, job_id):
        """Trace one job: wrappers are installed only inside this block."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._job = job_id
        root = ["bench.job", time.perf_counter_ns(), 0, -1, job_id]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            yield
        finally:
            root[2] = time.perf_counter_ns()
            self._stack.pop()
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Self time in seconds and span count per layer."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            layer = name.split(".", 1)[0]
            self_s[layer] += (end - start - children) / 1e9
            calls[layer] += 1
        return self_s, calls

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, job in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "job": job}) + "\n")
