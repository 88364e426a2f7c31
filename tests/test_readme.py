"""README against the package: the names it cites resolve, the checks it
lists and the bounds it states are the package's, and its library example
prints what its comments say."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import groupoidlab
from groupoidlab import checks

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# The directory holding the imported package, so that a child interpreter
# runs the copy under test.
PACKAGE_ROOT = Path(groupoidlab.__file__).resolve().parents[1]
MODULES = {info.name for info in pkgutil.iter_modules(groupoidlab.__path__)}


def test_every_cited_module_name_resolves():
    # a backticked dotted name whose first part is a package module, such as
    # `core.validate` or `quotients.MAX_FAMILY_ARROWS`, names something there
    names = {span for span in re.findall(r"`(\w+(?:\.\w+)+)`", README)
             if span.split(".")[0] in MODULES}
    assert {"core.validate", "quotients.MAX_FAMILY_ARROWS", "cli.MAX_ARROWS"} <= names
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"groupoidlab.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []


def test_every_reported_check_is_listed():
    # the six instance checks, the duality family and the four regressions
    names = {r.name for r in checks.corpus_report(seed=0, count=1).results}
    assert len(names) == 11
    assert sorted(name for name in names if f"`{name}`" not in README) == []


BOUNDS = ("cli.MAX_ARROWS", "cli.MAX_COUNT", "quotients.MAX_FAMILY_ARROWS",
          "groups.TABLE_CACHE_SIZE")


def test_every_bound_is_stated_with_its_value():
    stated = {name: int(value.replace(",", ""))
              for name, value in re.findall(r"`(\w+\.\w+)` = (\d[\d,]*)", README)}
    for name in BOUNDS:
        module, attr = name.split(".")
        assert stated.get(name) == getattr(importlib.import_module(f"groupoidlab.{module}"), attr)


def test_no_pointer_to_history_or_private_name():
    # README states the contract: no benchmark record or change log to
    # follow, and no name outside the public surface
    assert "BENCH_" not in README and "CHANGES.md" not in README
    spans = re.findall(r"`([^`\n]+)`", README)
    assert [span for span in spans if re.search(r"(?<!\w)_\w", span)] == []


def test_library_example_prints_what_its_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1
    expected = [int(n) for n in re.findall(r"^print\(.*\)\s*# (\d+)", blocks[0], re.MULTILINE)]
    assert expected and len(expected) == blocks[0].count("print(")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert [int(line) for line in proc.stdout.split()] == expected


def test_no_timing_figure():
    # timings live in BENCH_*.json and CHANGES.md, measured on one machine;
    # README states what holds on any
    assert re.findall(r"\d(?:[\d.,–-]*\d)?\s?(?:µs|ms|s)\b", README) == []
