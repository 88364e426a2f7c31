"""Digests of the command line's outputs on fixed inputs, and the script
that writes them to ``outputs.json``.

Each entry maps a request, its argv joined by spaces, to its exit code and
the first 16 hex digits of the SHA-256 of its payload as ``cli.main``
writes it, with every ``seconds`` and ``total_seconds`` value masked.  The
requests are:
- the seed-0 ``check --corpus --count 200`` report;
- the six subcommands that read a document, on the documents of
  ``random_groupoid(s, 60)`` for s < 30, passed by relative name so that
  the names the payloads hold do not depend on where they were written;
- ``generate``, ``dual``, ``characters`` and ``check`` on each
  ``group:NAME`` model;
- the seven subcommands on each other built-in model;
- ``validate`` and ``check`` on malformed documents: the document of
  ``random_groupoid(3, 20)`` with its last composition entry dropped, with
  one pair repeated, with an undeclared label, with ``schema_version``
  ``"2"``, and inside a JSON array;
- the package's own usage errors, those it raises after argparse has read
  the arguments, whose text does not change with the Python version.

A change that means to change an output regenerates the fixture, from the
repository root, with ``PYTHONPATH=src python tests/outputs.py``, and names
each changed entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from groupoidlab import cli, document, generators, groups

FIXTURE = Path(__file__).with_name("outputs.json")
CORPUS = ["check", "--corpus", "--seed", "0", "--count", "200"]
DOCUMENTS, BUDGET = 30, 60
DOCUMENT_COMMANDS = ("validate", "quotient", "abelianize", "dual", "characters", "check")
GROUP_COMMANDS = ("generate", "dual", "characters", "check")
MODELS = ("random", "klein-cross", "s3", "s3-a3-bundle", "pair:4", "trivial:4")
MODEL_COMMANDS = ("validate", "generate", "quotient", "abelianize", "dual", "characters", "check")
MALFORMED_COMMANDS = ("validate", "check")
USAGE_ERRORS = (
    ["check", "--corpus", "--count", "0"],
    ["check", "--corpus", "--count", "10001"],
    ["check", "--corpus", "--jobs", "0"],
    ["validate", "--kind", "pair:0"],
    ["validate", "--kind", "pair:65"],
    ["validate", "--kind", "group:X"],
    ["validate", "--kind", "torus"],
    ["generate", "--kind", "random", "--budget", "4097"],
)
TIMINGS = ("seconds", "total_seconds")


def fixture() -> dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _masked(value):
    if isinstance(value, dict):
        return {k: 0 if k in TIMINGS else _masked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_masked(v) for v in value]
    return value


def entry(code: int, text: str) -> str:
    """'EXIT DIGEST' of a payload text as cli.main writes it."""
    masked = json.dumps(_masked(json.loads(text)), indent=2)
    return f"{code} {hashlib.sha256(masked.encode()).hexdigest()[:16]}"


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return entry(code, out.getvalue())


def write_documents(directory: Path) -> list[str]:
    """The documents, written to directory with their elements, units and
    composition entries shuffled by ``random.Random(0)``; their names."""
    rng = random.Random(0)
    names = []
    for s in range(DOCUMENTS):
        doc = document.encode_groupoid(generators.random_groupoid(s, BUDGET))
        for key in ("elements", "units", "comp"):
            rng.shuffle(doc[key])
        names.append(f"doc-{s}.json")
        (directory / names[-1]).write_text(json.dumps(doc), encoding="utf-8")
    return names


def write_malformed(directory: Path) -> list[str]:
    """The malformed documents, written to directory; their names."""
    doc = document.encode_groupoid(generators.random_groupoid(3, 20))
    comp = doc["comp"]
    broken = {
        "dropped": {**doc, "comp": comp[:-1]},
        "repeated": {**doc, "comp": [*comp, comp[0]]},
        "undeclared": {**doc, "comp": [*comp[:-1], [*comp[-1][:2], "undeclared"]]},
        "version": {**doc, "schema_version": "2"},
        "array": [doc],
    }
    for name, value in broken.items():
        (directory / f"malformed-{name}.json").write_text(json.dumps(value), encoding="utf-8")
    return [f"malformed-{name}.json" for name in broken]


def requests(names: list[str], malformed: list[str]) -> list[list[str]]:
    """The argv of every request but the corpus report's."""
    return ([[command, "--input", name] for name in names for command in DOCUMENT_COMMANDS]
            + [[command, "--kind", f"group:{group}"]
               for group in groups.LIBRARY_BUILDERS for command in GROUP_COMMANDS]
            + [[command, "--kind", kind] for kind in MODELS for command in MODEL_COMMANDS]
            + [[command, "--input", name] for name in malformed for command in MALFORMED_COMMANDS]
            + list(USAGE_ERRORS))


def request_outputs(directory: Path) -> dict[str, str]:
    """The entry of every request but the corpus report's, in order.  The
    documents are written to directory, which must be the working one."""
    argvs = requests(write_documents(directory), write_malformed(directory))
    return {" ".join(argv): run(argv) for argv in argvs}


if __name__ == "__main__":
    fixture = {" ".join(CORPUS): run(CORPUS)}
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            fixture.update(request_outputs(Path(tmp)))
        finally:
            os.chdir(here)
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
