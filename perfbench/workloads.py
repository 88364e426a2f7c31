"""Inputs, measured passes and output gates of the benchmark's workloads.

Every function here drives groupoidlab through its public modules only.  A
``setup_*`` function makes a workload's inputs from its seed; a ``*_pass``
function runs the workload once over them as a single client in a closed
loop and returns a ``Pass``: per-item seconds, the output gate's verdicts and
the coverage counts that must repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from groupoidlab import abelian, checks, cli, document, generators

# Sizes: "full" is what the benchmark measures, "tiny" is for the smoke test.
SIZES = {
    "full": {"corpus_count": 200, "family_max_order": 64, "cli_docs": 30, "cli_budget": 60},
    "tiny": {"corpus_count": 3, "family_max_order": 8, "cli_docs": 2, "cli_budget": 12},
}
# Corpus windows start at multiples of 240: disjoint for distinct seeds, and a
# multiple of 60, so every window has the same mix of budgets 1..60.
CORPUS_STRIDE = 240
# The requests each document gets, in order, as (command, input); input
# "abelianized" is the document its `abelianize` request returned.  Four
# cheap requests to three costly ones (abelianize, characters, check) put the
# median inside the cheap mode: with an even split it was the mean of the
# slowest cheap and the fastest costly request, which moved by 16 % between
# seeds.
CLI_REQUESTS = (("validate", "document"), ("quotient", "document"),
                ("abelianize", "document"), ("characters", "document"),
                ("check", "document"), ("validate", "abelianized"),
                ("dual", "abelianized"))
FAILURES_KEPT = 5


@dataclass
class Pass:
    items_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    coverage: Counter = field(default_factory=Counter)
    busy_s: Counter = field(default_factory=Counter)
    checks: list = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)

    def time_reference(self) -> None:
        """Time reference_loop once; the pass loops call this before each item."""
        start = time.perf_counter()
        reference_loop()
        self.reference_s.append(time.perf_counter() - start)

    def gate(self, ok: bool, witness) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(witness)

    def to_json(self) -> dict:
        return {"items_s": self.items_s, "attempted": self.attempted,
                "failed": len(self.failures), "failures": self.failures[:FAILURES_KEPT],
                "coverage": dict(self.coverage), "busy_s": dict(self.busy_s),
                "checks": self.checks, "reference_s": self.reference_s}


def reference_loop() -> int:
    """A fixed piece of Python work that calls nothing of groupoidlab: a loop
    of int arithmetic, then the row reduction of a fixed 8 x 10 matrix over
    ``Fraction`` with rows as dicts, the kind of work the package does.  Its
    time measures how fast the machine runs such code at that moment.  On a
    shared machine that speed drifts by tens of percent over minutes; run.py
    divides item times by it.  Everything it allocates is freed on return."""
    x = 0
    for i in range(1, 3000):
        x = (x * 31 + i) % 1000003 + math.gcd(i, 360)
    rows = [{j: Fraction((i * 7 + j * 3) % 11 - 5) for j in range(10)
             if (i + j) % 3 and (i * 7 + j * 3) % 11 != 5} for i in range(8)]
    pivots: dict[int, dict] = {}
    for row in rows:
        for col, pivot in pivots.items():
            f = row.get(col)
            if f:
                for j, v in pivot.items():
                    w = row.get(j, 0) - f * v
                    if w:
                        row[j] = w
                    else:
                        row.pop(j, None)
        if row:
            col = min(row)
            inverse = 1 / row[col]
            pivots[col] = {j: v * inverse for j, v in row.items()}
    return x + len(pivots)


def _check_key(name: str) -> str:
    """'duality-family(order<=64)' -> 'duality-family'; other names unchanged."""
    return name.split("(")[0]


def _gate_check_results(p: Pass, results) -> None:
    """Every CheckResult passes.  The (name, instance, ok) list is kept, so
    that run.py can compare the serial pass with corpus_report(jobs=2)."""
    for r in results:
        p.gate(r.ok, {"check": r.name, "instance": r.instance, "witness": r.witness})
        p.busy_s[_check_key(r.name)] += r.seconds
        p.checks.append((r.name, r.instance, r.ok))
    p.coverage["checks"] += len(results)


# --- corpus ----------------------------------------------------------------

def setup_corpus(seed: int, size: str, workdir: Path) -> dict:
    """The corpus `check --corpus --seed 240*SEED` runs: instance seeds from
    240*SEED on, with budgets from checks.corpus_budget."""
    start = CORPUS_STRIDE * seed
    tasks = [(s, checks.corpus_budget(s))
             for s in range(start, start + SIZES[size]["corpus_count"])]
    return {"start": start, "tasks": tasks}


def corpus_pass(inputs: dict, recorder=None) -> Pass:
    """Serial: random_groupoid plus instance_checks per seed, each instance
    timed, then the regression checks and the duality family."""
    p = Pass()
    results = []
    for s, budget in inputs["tasks"]:
        if recorder:
            recorder.request = s
        p.time_reference()
        start = time.perf_counter()
        G = generators.random_groupoid(s, budget)
        results.extend(checks.instance_checks(G, instance=f"seed={s},budget={budget}"))
        p.items_s.append(time.perf_counter() - start)
    if recorder:
        recorder.request = "regressions"
    results.extend(checks.regression_checks())
    if recorder:
        recorder.request = "duality-family"
    results.append(checks.duality_family_check())
    _gate_check_results(p, results)
    p.coverage["instances"] = len(inputs["tasks"])
    return p


def corpus_jobs2_pass(inputs: dict, recorder=None) -> Pass:
    """checks.corpus_report with 2 worker processes, over the corpus inputs.
    It has no items: the benchmark times the whole report."""
    tasks = inputs["tasks"]
    report = checks.corpus_report(seed=inputs["start"], count=len(tasks), jobs=2)
    p = Pass()
    _gate_check_results(p, report.results)
    p.coverage["instances"] = len(tasks)
    return p


# --- abelian family --------------------------------------------------------

def _relabelled(a, rng: random.Random):
    """The same group with its elements renumbered by a seeded permutation.

    A renumbering of a group abelian_groups_of_order has validated is again
    a group, so it is built directly rather than validated a second time.
    """
    n = a.order
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[0] * n for _ in range(n)]
    labels = [""] * n
    for i in range(n):
        labels[perm[i]] = a.labels[i]
        for j in range(n):
            table[perm[i]][perm[j]] = perm[a.table[i][j]]
    return abelian.FiniteAbelianGroup(name=a.name, labels=tuple(labels),
                                      table=tuple(map(tuple, table)),
                                      identity=perm[a.identity], exponent=a.exponent)


def setup_family(seed: int, size: str, workdir: Path) -> dict:
    """Every abelian group of order <= N from checks.abelian_groups_of_order,
    with its partition expectation, relabelled by a permutation drawn from
    the seed so that each seed presents distinct tables."""
    rng = random.Random(seed)
    family = []
    for n in range(1, SIZES[size]["family_max_order"] + 1):
        for expected, a in checks.abelian_groups_of_order(n):
            family.append((expected, _relabelled(a, rng)))
    return {"family": family}


def family_pass(inputs: dict, recorder=None) -> Pass:
    p = Pass()
    for expected, a in inputs["family"]:
        if recorder:
            recorder.request = a.name
        p.time_reference()
        start = time.perf_counter()
        dec = abelian.invariant_factors(a)
        chars = abelian.characters(a)
        dual = abelian.char_group_structure(chars)
        dual_factors = abelian.invariant_factors(dual).factors
        p.items_s.append(time.perf_counter() - start)
        p.gate(dec.factors == expected and len(chars) == a.order
               and dual_factors == dec.factors,
               {"group": a.name, "expected": list(expected), "factors": list(dec.factors),
                "characters": len(chars), "dual_factors": list(dual_factors)})
        p.coverage["abelian_groups"] += 1
        p.coverage["characters"] += len(chars)
    return p


# --- CLI documents ---------------------------------------------------------

def setup_cli(seed: int, size: str, workdir: Path) -> dict:
    """Documents of random_groupoid(s, budget) for the first cli_docs seeds s,
    written to disk with their elements, units and composition entries in an
    order drawn from SEED: each seed presents the same groupoids, indexed
    differently.  A fixed population keeps the bimodal request mix (cheap
    validate/quotient/dual, expensive abelianize/characters/check) the same
    for every seed."""
    sz = SIZES[size]
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    docs = []
    for s in range(sz["cli_docs"]):
        doc = document.encode_groupoid(generators.random_groupoid(s, sz["cli_budget"]))
        for key in ("elements", "units", "comp"):
            rng.shuffle(doc[key])
        path = workdir / f"doc-{s}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        docs.append(path)
    return {"docs": docs, "workdir": workdir}


def _request(argv: list[str]) -> tuple[float, int, dict]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    return seconds, code, json.loads(out.getvalue())


def _cli_verdict(command: str, payload: dict, abelianized: dict | None) -> bool:
    if command == "validate":
        return payload["valid"] is True
    if command == "quotient":
        return payload["exact"] is True
    if command == "characters":
        return payload["count"] == payload["abelianization_dim"]
    if command == "check":
        return payload["status"] == "pass"
    if command == "dual":
        return (abelianized is not None
                and payload["total_characters"] == len(abelianized["elements"]))
    return True   # abelianize: its exit code, and `dual` on what it returned


def cli_pass(inputs: dict, recorder=None) -> Pass:
    """In-process cli.main requests, CLI_REQUESTS for each document in turn."""
    p = Pass()
    for path in inputs["docs"]:
        abelianized = None
        ab_path = inputs["workdir"] / f"abelianized-{path.stem}.json"
        for command, on in CLI_REQUESTS:
            source = ab_path if on == "abelianized" else path
            if recorder:
                recorder.request = p.attempted
            p.time_reference()
            seconds, code, payload = _request([command, "--input", str(source)])
            p.items_s.append(seconds)
            p.gate(code == 0 and _cli_verdict(command, payload, abelianized),
                   {"request": command, "input": source.name, "exit": code,
                    "payload": {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}})
            p.coverage["requests"] += 1
            if command == "abelianize" and code == 0:
                abelianized = payload["abelianized"]
                ab_path.write_text(json.dumps(abelianized), encoding="utf-8")
            if command == "check":
                for r in payload.get("checks", []):
                    p.busy_s[_check_key(r["name"])] += r["seconds"]
    return p


# The passes child.py runs, by name: run.py's workloads, plus "corpus-jobs2",
# the check --corpus --jobs 2 pass an untraced corpus run compares against.
WORKLOADS = {
    "corpus": (setup_corpus, corpus_pass),
    "corpus-jobs2": (setup_corpus, corpus_jobs2_pass),
    "abelian-family": (setup_family, family_pass),
    "cli-docs": (setup_cli, cli_pass),
}
