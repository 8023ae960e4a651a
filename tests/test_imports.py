"""The package stays stdlib-only: every import in `clonelab` is relative
or names a standard-library module.  And it holds no dead code: every
top-level definition is reachable from the public API, the command line
or the benchmark, every top-level import is used, and every defaulted
parameter is passed by some call in the package or the benchmark, and
every command-line option is read by the command that takes it.  No
code path lists a whole automorphism group, no test oracle evaluates
order terms or generates its reference clone through the library, and
the critical level, the canonicity gate and each printed answer have
one home each, and the unchecked table constructor one caller, the
catalog's reader, which with one lifting helper alone builds catalog
entries.  One
loop checks clone-search assignments, and one definition reads a
catalog row by row, for that search alone.  A member evaluates only
through the program it compiles to.  Every
source parses at the Python floor that `pyproject.toml` promises.  The
checks read the sources with `ast`."""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

import clonelab
from clonelab.cli import _COMMANDS, build_parser

PACKAGE = Path(clonelab.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
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


def test_package_parses_at_the_promised_python_floor():
    # tier-1 runs a newer Python, where newer syntax such as `except*`
    # would pass unnoticed; `feature_version` rejects it
    pyproject = (BENCH.parent / "pyproject.toml").read_text()
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    assert floor, "pyproject.toml states no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=version)


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
    # A default that no call in src/ or bench/ overrides is a constant in
    # disguise; a test alone does not justify a setting.  `cli.main(argv)`
    # is exempt as the seam through which tests drive the command line.
    # Calls match by bare callee name, and `*` or `**` arguments count as
    # passing whatever they could reach.
    calls: dict[str, list[ast.Call]] = {}
    for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]:
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
    unpassed = [u for u in unpassed if u != "cli.main(argv)"]
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


def test_no_code_path_lists_the_automorphism_group():
    # `FiniteStructure.generators` and `structures.extensions` answer every
    # group question; `automorphisms` stays for the tests and the tracer
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and "automorphisms" in _code_names(node.func)
    ]
    assert not calls, f"calls of automorphisms in the package: {calls}"


def test_oracles_do_not_evaluate_through_the_library():
    # an oracle that evaluates order terms with `clonelab.orderterms`
    # checks the library against itself, and so does one that closes its
    # reference clone with `clones.generate`, and so does a member
    # oracle that compiles members with `qclone`; `factor_oracle` only
    # reads the clones it is handed, so it may generate them
    banned = {
        "eval_term", "compile_term", "eval_rational", "rank", "materialize", "_compile_member"
    }
    generating = {"generate", "_generate_arity"}
    found = []
    holders = []
    for path in sorted(Path(__file__).parent.glob("*_oracle.py")):
        tree = ast.parse(path.read_text(), str(path))
        holds = any(
            isinstance(node, ast.FunctionDef) and node.name == "reference_generate"
            for node in tree.body
        )
        if holds:
            holders.append(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "clonelab",
                "clonelab.orderterms",
                "clonelab.clones",
                "clonelab.qclone",
            ):
                found.extend(
                    f"{path.name} imports {alias.name}"
                    for alias in node.names
                    if alias.name in banned or (holds and alias.name in generating)
                )
    assert holders == ["table_oracle.py"]
    assert not found, found
    # nor may an oracle run a member's compiled program, or read a
    # catalog row by row as the clone search does
    unshared = {"_program", "catalog_rows"}
    programs = [
        path.name
        for path in sorted(Path(__file__).parent.glob("*_oracle.py"))
        if unshared & set(_code_names(ast.parse(path.read_text(), str(path))))
    ]
    assert not programs, programs



def test_the_canonicity_oracle_builds_its_own_patterns():
    # the every-k oracle enumerates its joint patterns itself and takes
    # only the pattern of a tuple from `structures`, so no enumeration or
    # move of the library can agree with the oracle by being shared
    path = Path(__file__).parent / "canonical_oracle.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert {name for name in imported if name.startswith("clonelab.canonical")} == {
        "clonelab.canonical.CanonicalCounterexample",
        "clonelab.canonical.CanonicalVerdict",
    }
    assert {name for name in imported if name.startswith("clonelab.structures")} == {
        "clonelab.structures.SymbolicStructure",
        "clonelab.structures.pattern_of",
    }
    assert not set(_code_names(tree)) & {"joint_order_patterns", "_weak_orders", "_moves"}


def test_canonicity_keeps_nothing_between_checks():
    # a check builds what it reads and drops it: no module-level
    # container in `canonical` that code could fill, and no memoizing
    # decorator, so a process-wide cache cannot return unnoticed
    tree = ast.parse((PACKAGE / "canonical.py").read_text())
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    makers = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque", "bytearray"}
    mutable = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
            value = node.value
            called = isinstance(value, ast.Call) and set(_code_names(value.func)) & makers
            if isinstance(value, containers) or called:
                mutable.append(ast.unparse(node))
    decorated = [
        ast.unparse(d)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for d in node.decorator_list
        if set(_code_names(d)) & {"cache", "lru_cache", "cached_property"}
    ]
    assert not mutable and not decorated, (mutable, decorated)


def _owned_nodes(tree):
    """Every node of a module, with the name of the top-level definition
    that holds it (None for module-level code)."""
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            yield owner, node


def test_the_critical_level_has_one_definition():
    # a second reader of the raw arity would be a second definition of the
    # level, free to drift from `critical_level`
    readers = {
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, node in _owned_nodes(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "max_relation_arity"
    }
    assert readers == {"canonical.critical_level"}


def test_only_generation_builds_unchecked_tables():
    # a catalog entry is a valid table by construction, built from a key
    # `_generate_arity` kept by the catalog's one reader; every other table
    # goes through `Table`'s checks
    users = {
        path.stem + scope
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(BENCH.glob("*.py"))]
        for scope, node in _by_scope(ast.parse(path.read_text(), str(path)))
        if "_unchecked_table" in (getattr(node, "id", None), getattr(node, "attr", None))
    }
    assert users == {"clones.Catalog._entry"}


def test_catalog_entries_are_built_only_when_read():
    # generation keeps keys, terms and depths; an entry is built by the
    # catalog's reader, or for a generator its type clone lacks
    builders = {
        path.stem + scope
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(BENCH.glob("*.py"))]
        for scope, node in _by_scope(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and "CatalogEntry" in _code_names(node.func)
    }
    assert builders == {"clones.Catalog._entry", "lifting._generator_reading"}


def test_one_search_loop_checks_assignments():
    # `_search` is the one assignment loop and `first_broken` checks one
    # assignment; no other code path compares equation sides on tables
    callers = {
        f"{path.stem}.{owner}"
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(BENCH.glob("*.py"))]
        for owner, node in _owned_nodes(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and "_first_broken" in _code_names(node.func)
    }
    assert callers == {"equations._search", "equations.first_broken"}


def test_catalogs_are_read_row_by_row_in_one_place():
    # one definition builds a catalog's rows, and only the clone search
    # reads them, to rule out entries before its loop
    definitions, readers = [], set()
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(BENCH.glob("*.py"))]:
        for scope, node in _by_scope(ast.parse(path.read_text(), str(path))):
            if isinstance(node, DEFINITIONS) and node.name == "catalog_rows":
                definitions.append(path.stem + scope)
            elif isinstance(node, ast.Attribute) and node.attr == "catalog_rows":
                readers.add(path.stem + scope)
    assert definitions == ["clones.FiniteClone.catalog_rows"]
    assert readers == {"equations._search"}


def _evaluating_owners(module):
    """The top-level definitions of a module that name an evaluator."""
    path = PACKAGE / f"{module}.py"
    return {
        owner
        for owner, node in _owned_nodes(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id in ("eval_term", "compile_term")
    }


def test_canonicity_evaluates_terms_only_in_the_rank_table():
    # a check reads a term once, on its grid; an evaluation per pattern
    # or per column elsewhere in `canonical` would bring that cost back
    assert _evaluating_owners("canonical") == {"_rank_table"}


def test_a_lift_evaluates_terms_only_in_its_stage_loop():
    # `lift` compiles each side once and evaluates each column once; an
    # evaluation anywhere else in `lifting` would evaluate a column again
    assert _evaluating_owners("lifting") == {"lift"}


def test_a_member_evaluates_only_through_its_compiled_program():
    # `_compile_member` is the one evaluator of members: it alone reads a
    # composition's provenance for values (`_collapse` reads it for the
    # eventual coordinate), only construction compiles, and only the
    # builder, `evaluate` and the spot check run a program
    tree = ast.parse((PACKAGE / "qclone.py").read_text())
    assert not [n for n in ast.walk(tree) if getattr(n, "name", None) == "_value"]
    readers: dict[str, set] = {}
    for owner, node in _owned_nodes(tree):
        if isinstance(node, ast.Attribute):
            readers.setdefault(node.attr, set()).add(owner)
        elif isinstance(node, ast.Name) and node.id == "_compile_member":
            readers.setdefault(node.id, set()).add(owner)
    assert readers["inners"] | readers["outer"] == {"_compile_member", "_collapse"}
    assert readers["_compile_member"] == {"QFunction"}
    assert readers["_program"] == {"_compile_member", "evaluate", "spot_check_polymorphism"}


def test_one_gate_builds_every_type_table():
    # `type_image` and `xi_infty` both go through one builder, so neither
    # can check canonicity at a level of its own
    path = PACKAGE / "canonical.py"
    callers: dict[str, set] = {}
    for owner, node in _owned_nodes(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callers.setdefault(node.func.id, set()).add(owner)
    assert callers["is_canonical"] == {"_canonical_images"}
    assert callers["type_space"] == {"_canonical_images"}


def _by_scope(node, scope=""):
    """Every node under `node`, with the dotted name of the innermost
    class or function that holds it ("" outside every definition)."""
    for child in ast.iter_child_nodes(node):
        inner = f"{scope}.{child.name}" if isinstance(child, DEFINITIONS) else scope
        yield inner, child
        yield from _by_scope(child, inner)


def test_each_printed_answer_has_one_renderer():
    # a phrase of a printed answer sits in the string constants of exactly
    # one function, f-string parts included, so no command or report can
    # build a second copy of the answer
    phrases = ("projection reading: ", "lift failed: ", "accumulation: ", "not canonical at k=")
    owners: dict[str, set] = {phrase: set() for phrase in phrases}
    functions = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope, node in _by_scope(tree):
            where = path.stem + scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.add(where)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for phrase in phrases:
                    if phrase in node.value:
                        owners[phrase].add(where)
    for phrase, found in owners.items():
        assert len(found) == 1 and found <= functions, (phrase, found)


def test_one_reading_of_the_generators():
    # `build_instance(assign=...)` and `analyze_transfer` read a generator
    # in its type clone through one helper, and `analyze_transfer` runs no
    # second clone search, so the two cannot settle on different entries
    callers = set()
    in_analyze = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "lookup_by_table":
                callers.add(f"{path.stem}.{owner}")
            if path.stem == "lifting" and owner == "analyze_transfer":
                in_analyze.add(func.id if isinstance(func, ast.Name) else func.attr)
    assert callers == {"lifting._generator_reading"}
    assert "_generator_reading" in in_analyze
    assert "satisfiable_in_clone" not in in_analyze


def test_a_piece_stores_one_matrix():
    # the primitive integer matrix is the only stored form, so nothing in
    # `plmap` converts to a second one or keeps a private copy; a frozen
    # piece can set attributes only through `object.__setattr__`
    tree = ast.parse((PACKAGE / "plmap.py").read_text())
    names = {node.name for node in tree.body if isinstance(node, DEFINITIONS)}
    assert not names & {"_canonical", "_interior_point"}
    piece = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Piece")
    post_init = next(n for n in piece.body if getattr(n, "name", None) == "__post_init__")
    set_fields = set()
    for node in ast.walk(post_init):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
            set_fields.add(node.args[1].value)
    assert set_fields <= {"lo", "hi", "mat"}


def test_a_hull_is_a_function_of_its_data():
    # `DataHull` derives its floor and epsilon from its three fields, and
    # it is the one place that checks data for consistency, in one pass
    # that refuses strict conflicts and records the first weak one, so no
    # builder can hand a member a hull the module's lemma does not cover
    # and `make_member` never scans the pairs a second time
    tree = ast.parse((PACKAGE / "qclone.py").read_text())
    names = {node.name for node in tree.body if isinstance(node, DEFINITIONS)}
    assert "_build_hull" not in names
    hull = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "DataHull")
    fields = [n.target.id for n in hull.body if isinstance(n, ast.AnnAssign)]
    assert fields == ["data", "arity", "ceiling"]
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            scopes = top.body if isinstance(top, ast.ClassDef) else [top]
            for scope in scopes:
                owner = getattr(top, "name", None)
                if scope is not top:
                    owner = f"{owner}.{getattr(scope, 'name', None)}"
                for node in ast.walk(scope):
                    call = isinstance(node, ast.Call)
                    if call and "_check_consistency" in _code_names(node.func):
                        callers.add(f"{path.stem}.{owner}")
    assert callers == {"qclone.DataHull.__post_init__"}


def test_every_command_line_option_is_read():
    # A flag no command reads is a setting that changes nothing.  Every
    # subcommand option but the caps is read as `ns.<dest>` by its
    # handler; `main` reads the caps and `--out`.  The caps sit on exactly
    # the commands that build a clone, and the seed on exactly those
    # whose handler reads it.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == set(_COMMANDS)
    caps = {"arity_cap", "depth_cap", "catalog_cap"}
    builders = {"_clone", "build_instance", "analyze_transfer"}
    for name, parser in subparsers.choices.items():
        handler = handlers[_COMMANDS[name].__name__]
        read = {
            n.attr
            for n in ast.walk(handler)
            if isinstance(n, ast.Attribute) and ast.unparse(n.value) == "ns"
        }
        called = {
            ast.unparse(n.func) for n in ast.walk(handler) if isinstance(n, ast.Call)
        }
        dests = {a.dest for a in parser._actions} - {"help", "out"}
        assert dests - caps <= read, f"{name} takes unread {dests - caps - read}"
        assert dests & caps == (caps if called & builders else set()), name
        assert ("seed" in dests) == ("seed" in read), name
