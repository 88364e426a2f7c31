"""The package's public names, the names the traced benchmark wraps and the
modules a fresh import loads."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import groupoidlab
from groupoidlab import (abelian, algebra, checks, cli, core, document, generators, groups,
                         linalg, quotients)

# Names that left the package: the general-element algebra and its numeric
# values, now the tests' reference in oracle.py, functions nothing called,
# and helpers folded into their one caller (restricted_arrows into restrict)
# or into a value (fiber_unit into Abelianization.fixed_points), the
# three isotropy builders that core.isotropy_group replaced, the axioms
# check that instance_checks runs for itself, validate's rebuild of comp
# as rows, now the stored form, with its fallback, now malformed_listing,
# the pair-keyed view of the rows, which no package function read, the
# groups' copy of Light's test, now core.validate's on the one-unit groupoid,
# and FiniteGroup.exponent(), which FiniteAbelianGroup's exponent field shadowed.
GONE = (
    "AlgebraElement", "from_coeffs", "zero", "delta", "unit_element", "convolve",
    "involute", "compose_homs", "restriction_hom", "quotient_hom", "encode_element",
    "decode_element", "interior_isotropy", "is_bisection", "is_effective",
    "is_group_bundle", "AlgebraHom.apply", "CharacterFunctional.value_fraction",
    "CharacterFunctional.value_complex", "CharacterFunctional.evaluate",
    "GelfandMatrix.to_complex", "Character.value_fraction", "Character.value_complex",
    "Character.is_trivial", "Qi.to_complex", "FiniteGroupoid.is_unit", "trivial_action",
    "abelianized", "restricted_arrows", "Abelianization.fiber_unit",
    "quotient_hom_from_result", "isotropy_fiber", "fiber_group", "abelian_fiber",
    "axioms_check", "_product_rows", "_check_malformed", "FiniteGroupoid.comp", "_Products",
    "_light_witness", "FiniteGroup.exponent",
)

# Each validator, with the functions that call it.  Tables and carriers are
# checked where they enter: document decode, CLI input, public constructors
# and the library's literal tables.  finite_group is the one validating
# constructor of groups, and runs group_violations itself; klein and
# quaternion8 pass it their literal tables.  What the package builds from
# checked parts or by construction (cyclic groups, permutation groups,
# products) is a group, an action or a normal subgroupoid and is not checked
# again; the tests check each such builder on its inputs.  group_action is
# pinned too: it is the validating constructor of actions.
VALIDATOR_CALLERS = {
    "finite_group": {"abelian.finite_abelian_group", "groups.klein", "groups.quaternion8"},
    "group_violations": {"groups.finite_group"},
    "finite_abelian_group": set(),
    "action_violations": {"generators.group_action"},
    "group_action": {"generators.klein_cross"},
    "is_normal": {"cli._cmd_quotient", "quotients.normal_subgroupoid"},
    "normal_subgroupoid": {"quotients.quotient"},
    # raw tables whose triples fill no rows, from from_comp or a document,
    # are listed when their MalformedTable's violations are first read;
    # validate lists a row table built directly that fails its shape check
    "malformed_listing": {"core.MalformedTable.violations", "core.validate"},
}


def test_every_exported_name_resolves_once():
    assert len(groupoidlab.__all__) == len(set(groupoidlab.__all__))
    assert [name for name in groupoidlab.__all__ if not hasattr(groupoidlab, name)] == []


def _traced_targets() -> tuple:
    """perfbench/spans.py's TARGETS: (module, attribute, stats, tally)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_target_resolves():
    # perfbench/spans.py wraps each target by name, so a renamed or deleted
    # one breaks every traced benchmark run.
    targets = _traced_targets()
    missing = []
    for module_name, attr, _, _ in targets:
        obj = importlib.import_module(f"groupoidlab.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert targets and missing == []


# Definitions that nothing in the package names but that run all the same:
# argparse calls error() on the parser class it was given.
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST):
    """The identifiers read below node, as names and attributes.  A function
    or class defined below it is a definition of its own, of which only the
    decorators, defaults and bases are read where it stands."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            heads = [*child.decorator_list, *child.bases, *child.keywords]
        elif isinstance(child, DEFINITIONS):
            heads = [*child.decorator_list, *child.args.defaults,
                     *filter(None, child.args.kw_defaults)]
        else:
            heads = [child]
        for head in heads:
            if isinstance(head, ast.Name):
                yield head.id
            elif isinstance(head, ast.Attribute):
                yield head.attr
            yield from _references(head)


def _definitions(node: ast.AST, prefix: str):
    """(dotted name, node) for each function, class and method below node,
    at any depth."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            yield f"{prefix}.{child.name}", child
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_is_reached():
    # A walk by name from what runs: cli.main, the exported names with the
    # public methods of exported classes, the benchmark's traced targets and
    # every module-level statement.  A definition is reached once a reached
    # one names it, a dunder method once its class is; anything left is code
    # with no caller.  Method names collide (any .order reaches every method
    # called order), so the walk is approximate: it can miss dead code, and
    # flags only a definition whose name nothing reached reads.
    package = Path(groupoidlab.__file__).resolve().parent
    exported = set(groupoidlab.__all__)
    definitions, seen = {}, {"main", *exported}
    for _, attr, _, _ in _traced_targets():
        seen.update(attr.split("."))
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        seen.update(_references(tree))
        definitions.update(_definitions(tree, path.stem))
    exported_classes = {name for name, node in definitions.items()
                        if isinstance(node, ast.ClassDef) and name.count(".") == 1
                        and name.split(".")[1] in exported}
    reached, grown = set(), True
    while grown:
        grown = False
        for name, node in definitions.items():
            if name in reached:
                continue
            owner, bare = name.rsplit(".", 1)
            dunder = bare.startswith("__") and bare.endswith("__")
            public = owner in exported_classes and not bare.startswith("_")
            if bare in seen or (dunder and owner in reached) or public:
                reached.add(name)
                seen.update(_references(node))
                grown = True
    assert len(definitions) > 200
    assert sorted(set(definitions) - reached) == sorted(CALLED_FROM_OUTSIDE)


def test_removed_names_do_not_resolve():
    def resolves(obj, dotted):
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        return obj is not None

    modules = (groupoidlab, abelian, algebra, checks, cli, core, document, generators, groups,
               linalg, quotients)
    found = [f"{module.__name__}.{name}" for module in modules for name in GONE
             if resolves(module, name)]
    assert found == []


def test_one_check_pipeline():
    # instance_checks runs the six checks for a document and for the corpus
    # alike, and the quotient family's bound is the enumeration's own: no
    # caller passes in a check it ran, a family it counted or a limit
    assert not hasattr(cli, "MAX_FAMILY_ARROWS") and quotients.MAX_FAMILY_ARROWS == 250_000
    for fn in (checks.instance_checks, checks.file_report,
               quotients.component_normal_subgroupoids):
        assert [p.name for p in inspect.signature(fn).parameters.values()
                if p.default is not p.empty] == [], fn.__name__


def test_a_document_decodes_one_way():
    # decode takes the document alone: the CLI refuses a table too large
    # from the n of the groupoid decode returns or the MalformedTable it raises
    assert list(inspect.signature(document.decode_groupoid).parameters) == ["doc"]


def test_one_json_writer():
    # the CLI's writer lays out indented JSON and hands what it does not lay
    # out to one indenting encoder: no json.dumps call, nor any other, under
    # src passes indent=
    package = Path(groupoidlab.__file__).resolve().parent
    assert [(path.name, getattr(node.func, "attr", getattr(node.func, "id", None)))
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and any(k.arg == "indent" for k in node.keywords)] == [("cli.py", "JSONEncoder")]


def test_no_module_imports_cmath():
    # complex numbers are the tests' business: the package computes exactly;
    # and the package never reaches into the tests or their oracle
    package = Path(groupoidlab.__file__).resolve().parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if re.search(r"^\s*(import|from)\s+(cmath|tests|oracle)\b",
                         path.read_text(encoding="utf-8"), re.MULTILINE)] == []


def _bound_method_maps(tree: ast.AST) -> list[int]:
    """The line of each map(<expr>.__getitem__, ...) or map(<expr>.__rmod__, ...)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map"
            and node.args and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr in ("__getitem__", "__rmod__")]


def test_values_are_gathered_by_itemgetter():
    # map(row.__getitem__, idx) pays a bound-method call per value, where
    # itemgetter(*idx)(row) gathers them in one C call
    assert _bound_method_maps(ast.parse(
        "tuple(map(t.__getitem__, i)); map(n.__rmod__, e); itemgetter(*i)(t)")) == [1, 1]
    package = Path(groupoidlab.__file__).resolve().parent
    assert [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
            for line in _bound_method_maps(ast.parse(path.read_text(encoding="utf-8")))] == []


def _owners(tree: ast.Module):
    """(name, node) for each top-level statement, and for each statement of
    a top-level class as Class.name; a statement that defines nothing is
    named by its class, or by "" at module level."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                yield ".".join(filter(None, [top.name, getattr(node, "name", "")])), node
        else:
            yield getattr(top, "name", ""), top


def _callers(names) -> dict[str, set[str]]:
    """For each name, the package functions that call it, as module.function
    or module.Class.method; a nested function or lambda counts as the
    function around it."""
    package = Path(groupoidlab.__file__).resolve().parent
    out = {name: set() for name in names}
    for path in sorted(package.glob("*.py")):
        for owner, node in _owners(ast.parse(path.read_text(encoding="utf-8"))):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    name = getattr(call.func, "id", getattr(call.func, "attr", None))
                    if name in out:
                        out[name].add(".".join(filter(None, [path.stem, owner])))
    return out


def test_validators_run_only_where_tables_enter():
    assert _callers(VALIDATOR_CALLERS) == VALIDATOR_CALLERS


# What the abelianization route of character-count and pi-kernel is built
# from: the fixed points and their restriction, the isotropy groups and
# their commutator subgroups, and the quotient module.
ABELIANIZATION_ROUTE = ("fixed_points", "_restriction", "isotropy_group", "commutator_subgroup",
                        "commutator_subgroupoid", "abelianize_groupoid", "quotients")


def test_the_commutator_ideal_is_its_own_route():
    # the closure reads each component off out_of and rng, not off the
    # fixed points, so it names nothing the other route is built from
    package = Path(groupoidlab.__file__).resolve().parent
    tree = ast.parse((package / "algebra.py").read_text(encoding="utf-8"))
    closure = next(node for node in tree.body if getattr(node, "name", "") == "commutator_ideal")
    names = {getattr(ref, key, None) for ref in ast.walk(closure) for key in ("id", "attr")}
    assert "generating_arrows" in names
    assert sorted(names.intersection(ABELIANIZATION_ROUTE)) == []


def test_composition_is_stored_once_as_rows():
    # no package function reads a .comp attribute, no field of a groupoid
    # holds a pair-keyed dict, and a groupoid holds nothing beside its fields
    package = Path(groupoidlab.__file__).resolve().parent
    assert [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "comp"] == []
    assert [f.name for f in dataclasses.fields(core.FiniteGroupoid)] == [
        "n", "units", "src", "rng", "rows", "inv", "labels", "out_of", "into", "pos"]
    for G in (generators.klein_cross(), generators.pair_groupoid(3), generators.random_groupoid(7)):
        assert vars(G).keys() == {f.name for f in dataclasses.fields(G)}
        assert not [name for name, value in vars(G).items()
                    if isinstance(value, dict) and any(isinstance(k, tuple) for k in value)]


def test_one_character_row_type():
    # GONE's getattr cannot see a dataclass field without a default, so the
    # removed fields are pinned by the field lists: a transform row is its
    # fiber's CharacterFunctional, and a fiber's arrows are host.out_of[x]
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(algebra.GelfandMatrix) == ["host", "rows"]
    assert names(abelian.Character) == ["host", "exps"]
    assert "fiber_arrows" not in names(abelian.DualBundle)
    # pi is the abelianization's one map, and a row's modulus is its chi's
    assert names(quotients.Abelianization) == ["host", "g_fix", "g_ab", "arrow_map"]
    assert names(algebra.CharacterFunctional) == ["host", "unit", "chi", "exponents"]


def test_itemgetter_is_named_only_in_the_one_gather():
    # core._gather returns a tuple for any number of keys; a bare
    # itemgetter returns the bare item for one key and refuses none.  A
    # reference is a name, an attribute, or an imported or defined name.
    package = Path(groupoidlab.__file__).resolve().parent
    assert [f"{path.stem}.{owner}" for path in sorted(package.glob("*.py"))
            for owner, node in _owners(ast.parse(path.read_text(encoding="utf-8")))
            for ref in ast.walk(node)
            if "itemgetter" in (getattr(ref, key, None) for key in ("id", "attr", "name"))
            ] == ["core._gather"]


# Every per-process cache in the package, with the most entries it holds.
# A table memo drops its oldest entry past TABLE_CACHE_SIZE.  The library's
# caches are keyed by its 17 groups' 64 (group, subgroup) pairs, and
# library_subgroups and build_parser take no argument.  instance_checks'
# two caches are locals of one call, gone when it returns (None).
CACHES = {
    "abelian.invariant_factors": groups.TABLE_CACHE_SIZE,
    "groups.commutator_subgroup": groups.TABLE_CACHE_SIZE,
    "groups.generating_set": groups.TABLE_CACHE_SIZE,
    "groups.normal_subgroups": groups.TABLE_CACHE_SIZE,
    "groups.library_subgroups": 1,
    "generators._library_component": 64,
    "cli.build_parser": 1,
    "checks.instance_checks": None,
}


def test_every_cache_is_listed_with_its_bound():
    package = Path(groupoidlab.__file__).resolve().parent
    users = set()
    for path in sorted(package.glob("*.py")):
        for owner, node in _owners(ast.parse(path.read_text(encoding="utf-8"))):
            for ref in ast.walk(node):
                if getattr(ref, "id", getattr(ref, "attr", None)) in (
                        "cache", "lru_cache", "table_memo"):
                    users.add(f"{path.stem}.{owner}")
    assert users == set(CACHES)

    assert sum(len(subs) for _, subs in groups.library_subgroups()) == 64
    checks.corpus_report(seed=0, count=40)
    cli.build_parser()
    for name, bound in CACHES.items():
        if bound is not None:
            module, attr = name.split(".")
            fn = getattr(importlib.import_module(f"groupoidlab.{module}"), attr)
            size = len(fn.memo) if bound == groups.TABLE_CACHE_SIZE else fn.cache_info().currsize
            assert 0 < size <= bound, name


# Run in a fresh interpreter, from a file so that a crash has a file:line.
# It prints what it saw as JSON; the test below reads it.
START_UP_SCRIPT = '''
import json, sys
start = set(sys.modules)
def loaded():
    return set(sys.modules) - start

import groupoidlab, groupoidlab.cli
from groupoidlab import checks, core, generators
out = {"added": sorted(loaded())}

def check():
    raise KeyError("no arrow 7")

s3 = generators.s3_point()
out["traceback_before_crash"] = "traceback" in loaded()
out["witness"] = checks._run("crash", "unit", check).witness
out["inner_witness"] = checks._run("crash", "unit",
                                   lambda: core.restrict(s3, [s3.n])).witness

def outcomes(jobs):
    report = checks.corpus_report(seed=0, count=3, jobs=jobs)
    return [[r.name, r.instance, r.ok] for r in report.results]

out["serial"] = outcomes(1)
out["pool_after_serial"] = "concurrent.futures.process" in loaded()
out["pooled"] = outcomes(2)
out["pool_after_pooled"] = "concurrent.futures.process" in sys.modules
print(json.dumps(out))
'''

# What only a rare path needs: the process pool (--jobs > 1), the
# crash-witness machinery, and the Fraction parts of linalg.Qi, which no
# command builds.  No command pays for them at start-up.  (Where the
# interpreter's site already loaded pathlib, its check cannot fail.)
DEFERRED = ("concurrent", "multiprocessing", "logging", "traceback", "socket", "subprocess",
            "pathlib", "fractions", "decimal", "numbers")


def test_start_up_loads_only_what_a_command_runs(tmp_path):
    script = tmp_path / "start_up.py"
    script.write_text(START_UP_SCRIPT, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(groupoidlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)

    # modules the interpreter had before the import (a site may preload some)
    # are not counted against the package
    assert [m for m in out["added"] if m.split(".")[0] in DEFERRED] == []
    assert "groupoidlab.cli" in out["added"]

    raise_line = START_UP_SCRIPT.splitlines().index('    raise KeyError("no arrow 7")') + 1
    assert not out["traceback_before_crash"]
    assert out["witness"] == {
        "error": "KeyError('no arrow 7')", "type": "KeyError",
        "message": "'no arrow 7'", "location": f"start_up.py:{raise_line}"}
    assert out["inner_witness"]["location"].startswith("groupoidlab/core.py:")

    assert not out["pool_after_serial"]
    assert out["pooled"] == out["serial"] and all(ok for _, _, ok in out["serial"])
    assert out["pool_after_pooled"]
