"""The package's public names and the names the traced benchmark wraps."""

import importlib
import importlib.util
import re
from pathlib import Path

import groupoidlab
from groupoidlab import abelian, algebra, core, document, generators, linalg, quotients

# Names that left the package: the general-element algebra and its numeric
# values, now the tests' reference in oracle.py, and functions nothing called.
GONE = (
    "AlgebraElement", "from_coeffs", "zero", "delta", "unit_element", "convolve",
    "involute", "compose_homs", "restriction_hom", "quotient_hom", "encode_element",
    "decode_element", "interior_isotropy", "is_bisection", "is_effective",
    "is_group_bundle", "AlgebraHom.apply", "CharacterFunctional.value_fraction",
    "CharacterFunctional.value_complex", "CharacterFunctional.evaluate",
    "GelfandMatrix.to_complex", "Character.value_fraction", "Character.value_complex",
    "Character.is_trivial", "Qi.to_complex", "FiniteGroupoid.is_unit", "trivial_action",
)


def test_every_exported_name_resolves_once():
    assert len(groupoidlab.__all__) == len(set(groupoidlab.__all__))
    assert [name for name in groupoidlab.__all__ if not hasattr(groupoidlab, name)] == []


def test_every_traced_target_resolves():
    # perfbench/spans.py wraps each target by name, so a renamed or deleted
    # one breaks every traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        obj = importlib.import_module(f"groupoidlab.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert spans.TARGETS and missing == []


def test_removed_names_do_not_resolve():
    def resolves(obj, dotted):
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        return obj is not None

    modules = (groupoidlab, abelian, algebra, core, document, generators, linalg, quotients)
    found = [f"{module.__name__}.{name}" for module in modules for name in GONE
             if resolves(module, name)]
    assert found == []


def test_no_module_imports_cmath():
    # complex numbers are the tests' business: the package computes exactly
    package = Path(groupoidlab.__file__).resolve().parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if re.search(r"^\s*(import|from)\s+cmath\b", path.read_text(encoding="utf-8"),
                         re.MULTILINE)] == []
