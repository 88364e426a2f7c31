"""groupoidlab benchmark: measured passes in fresh interpreters, checked outputs.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from
./src).  Each measured pass runs in its own interpreter with cold caches, as a
CLI user pays them; passes repeat until --seconds is used up (at least three).
The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The line before it is a report that names the metrics as each
workload knows them, with sample counts, coverage counts and run context.
A failed output check prints the result with "correct": false and no
metrics, and exits 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
PASS_TIMEOUT_S = 170
MIN_PASSES = 3
# workloads.reference_loop's median time over thirty passes on a shared
# 2-vCPU Intel Xeon VM with Python 3.11.  Times are reported as they would
# read at that speed.
REFERENCE_LOOP_S = 0.0013
# Items on each side of an item whose reference loops give its slowdown.
REFERENCE_WINDOW = 7
MIN_TRACED_PAIRS = 2
# BENCHMARK.json gates these two, which between them reach every layer.
# abelian-family runs the same way but is not gated: the benchmark's time
# budget fits two workloads of runs long enough to be steady on a shared
# machine.
GATED = ("corpus", "cli-docs")
WORKLOADS = GATED + ("abelian-family",)

# End-to-end metric -> unit; REPORT_NAMES gives each workload's name for it.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
REPORT_NAMES = {
    "corpus": {"pass_s": "corpus_s", "item_p50_ms": "instance_p50_ms",
               "item_p90_ms": "instance_p90_ms", "items_per_s": "instances_per_s"},
    "abelian-family": {"pass_s": "family_s", "item_p50_ms": "group_p50_ms",
                       "item_p90_ms": "group_p90_ms", "items_per_s": "groups_per_s"},
    "cli-docs": {"pass_s": "requests_s", "item_p50_ms": "request_p50_ms",
                 "item_p90_ms": "request_p90_ms", "items_per_s": "requests_per_s"},
}

# Per-layer metrics: span name -> the statistics reported for it.
LAYER_STATS = {f"{module}.{attr}": stats for module, attr, stats, _ in spans.TARGETS}
CHECKS = ("axioms", "quotient-family", "character-count", "pi-kernel", "gelfand",
          "fiber-duality", "duality-family")
COVERAGE = ("instances", "checks", "abelian_groups", "requests")
STAT_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
              "useful_ratio": ("ratio", "higher"), "hit_ratio": ("ratio", "higher"),
              "results": ("count", "higher"), "rank_sum": ("count", "higher")}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = [(f"{span}.{stat}", *STAT_UNITS[stat])
           for span, stats in LAYER_STATS.items() for stat in stats]
    out += [(f"checks.{name}.busy_s", "s", "lower") for name in CHECKS]
    out += [(f"coverage.{name}", "count", "higher") for name in COVERAGE]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class BenchError(Exception):
    pass


def run_child(workload: str, seed: int, size: str, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode, "--workdir", str(WORKDIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat_for(seconds: float, once, at_least: int) -> list:
    """Call once() at least `at_least` times, then while the next call would
    not overrun `seconds`."""
    out, start = [], time.perf_counter()
    while True:
        t = time.perf_counter()
        out.append(once())
        elapsed, last = time.perf_counter() - start, time.perf_counter() - t
        if len(out) >= at_least and elapsed + last > seconds:
            return out


def context() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "groupoidlab").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "src_groupoidlab_lines": src_lines}


def slowdowns(reference_s: list[float]) -> list[float]:
    """Per item: the median time of the reference loops run within
    REFERENCE_WINDOW items of it, over REFERENCE_LOOP_S.  A window follows
    the machine's speed through a pass more closely than the pass median."""
    return [statistics.median(reference_s[max(0, i - REFERENCE_WINDOW):
                                          i + REFERENCE_WINDOW + 1]) / REFERENCE_LOOP_S
            for i in range(len(reference_s))]


def end_to_end(workload: str, passes: list[dict]) -> tuple[dict, dict]:
    """Medians over the passes of a run, at the reference speed.

    Each item time is divided by the slowdown around it (see slowdowns), and
    the pass's work outside its items (the corpus tail) and its set-up by the
    pass's median slowdown; the pass time is the sum of the first two,
    without the reference loops.  Every
    pass runs the same items in the same order, so an item's time is its
    median over the passes, and the percentiles are taken over those item
    times.  The report gives the wall-clock figures beside them."""

    def times(scaled: bool) -> dict:
        setups, per_pass, pass_times = [], [], []
        for p in passes:
            items, refs = p["items_s"], p["reference_s"]
            setup, rest = p["setup_s"], p["wall_s"] - sum(refs) - sum(items)
            if scaled:
                items = [t / k for t, k in zip(items, slowdowns(refs))]
                slowdown = statistics.median(refs) / REFERENCE_LOOP_S
                setup, rest = setup / slowdown, rest / slowdown
            setups.append(setup)
            per_pass.append(items)
            pass_times.append(sum(items) + rest)
        items_ms = [statistics.median(item) * 1000 for item in zip(*per_pass)]
        pass_s = statistics.median(pass_times)
        return {"setup_s": statistics.median(setups),
                "pass_s": pass_s,
                "item_p50_ms": statistics.median(items_ms),
                "item_p90_ms": statistics.quantiles(items_ms, n=10)[8],
                "items_per_s": len(items_ms) / pass_s}

    values = {**times(scaled=True),
              "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}
    wall = times(scaled=False)
    items = len(passes[0]["items_s"])
    samples = {"setup_s": len(passes), "pass_s": len(passes), "item_p50_ms": items,
               "item_p90_ms": items, "items_per_s": len(passes), "peak_rss_mb": len(passes)}
    names = REPORT_NAMES[workload]
    report = {names.get(k, k): {"value": v, "unit": END_TO_END[k], "samples": samples[k]}
              for k, v in values.items()}
    for k, v in wall.items():
        report[names.get(k, k)]["wall_clock"] = v
    report["slowdown"] = {
        "value": statistics.median(statistics.median(p["reference_s"]) for p in passes)
        / REFERENCE_LOOP_S,
        "unit": "ratio", "samples": len(passes),
        "note": f"median reference loop time over {REFERENCE_LOOP_S} s"}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, report


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Counts from the first traced pass (they must repeat exactly), times as
    medians over the traced passes; check busy times from the untraced ones."""
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    first = traced[0]

    def stat(p: dict, span: str, name: str) -> float:
        row = p["layers"].get(span)
        if row is None:   # the workload never reaches this layer
            return 0
        if name.endswith("_ratio"):
            return row[name.removesuffix("_ratio")] / row["calls"]
        return row[name]

    values = {}
    for span, stats in LAYER_STATS.items():
        for name in stats:
            if name == "self_s":
                values[f"{span}.self_s"] = statistics.median(stat(p, span, name) for p in traced)
            else:
                values[f"{span}.{name}"] = stat(first, span, name)
    for name in CHECKS:
        values[f"checks.{name}.busy_s"] = statistics.median(
            u["busy_s"].get(name, 0.0) for u in untraced)
    for name in COVERAGE:
        values[f"coverage.{name}"] = first["coverage"].get(name, 0)
    values["trace.overhead_ratio"] = (
        statistics.median(t["wall_s"] - sum(t["reference_s"]) for t in traced)
        / statistics.median(u["wall_s"] - sum(u["reference_s"]) for u in untraced) - 1)
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    counts = [{span: {k: v for k, v in row.items() if not k.endswith("_s")}
               for span, row in t["layers"].items()} for t in traced]
    extra = {"counts_repeat_exactly": all(c == counts[0] for c in counts),
             "traced_passes": len(traced), "spans_per_pass": first["spans"],
             "instance_loop_counts": first["instance_loop"]}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, extra


def gate_same_checks(passes: list[dict], reference: dict) -> None:
    """Each serial corpus pass gives the (name, instance, ok) list that
    corpus_report(jobs=2) gave, so the benchmark's own loop stays what
    check --corpus runs."""
    for p in passes:
        p["attempted"] += 1
        if p["checks"] != reference["checks"]:
            p["failed"] += 1
            p["failures"].append({"reason": "serial (name, instance, ok) list differs "
                                            "from corpus_report(jobs=2)"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few items per workload, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "groupoidlab" / "__init__.py").is_file():
        print(f"perfbench: no groupoidlab sources under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)

    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "claim": None, "context": context()}
    try:
        if args.trace:
            pairs = repeat_for(args.seconds, lambda: (
                run_child(args.workload, args.seed, args.size, "untraced"),
                run_child(args.workload, args.seed, args.size, "traced")),
                at_least=MIN_TRACED_PAIRS)
            passes = gated = [p for pair in pairs for p in pair]
            metrics, report["trace_detail"] = per_layer(pairs)
            report["spans_file"] = str((WORKDIR / f"spans-{args.workload}.jsonl").relative_to(ROOT))
            if args.workload == "corpus":
                report["note"] = ("traced serially: spans from the jobs=2 workers of "
                                  "corpus_report are not collected")
        else:
            reference = None
            if args.workload == "corpus":
                # check --corpus --jobs 2 over the same corpus, once per run, in
                # its own process so that its workers inherit no warmed caches.
                reference = run_child("corpus-jobs2", args.seed, args.size, "untraced")
            passes = repeat_for(args.seconds - (reference["wall_s"] if reference else 0),
                                lambda: run_child(args.workload, args.seed, args.size,
                                                  "untraced"), at_least=MIN_PASSES)
            metrics, report["metrics"] = end_to_end(args.workload, passes)
            gated = passes
            if reference:
                gate_same_checks(passes, reference)
                gated = passes + [reference]
                report["metrics"]["corpus_jobs2_s"] = {
                    "value": reference["wall_s"], "unit": "s", "samples": 1,
                    "note": "check --corpus --jobs 2 over the same corpus; not gated"}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in gated)
    failed = sum(p["failed"] for p in gated)
    report["passes"] = len(passes)
    report["failed_share"] = {"value": failed / attempted, "unit": "ratio",
                              "samples": attempted}
    report["coverage"] = passes[0]["coverage"]
    report["failures"] = [f for p in gated for f in p["failures"]][:5]
    print(json.dumps({"report": report}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
