"""The package's public names and the names the traced benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

import groupoidlab


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
