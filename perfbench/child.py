"""One pass of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py --workload W --seed N --mode MODE --workdir DIR

run.py starts it so, with PYTHONHASHSEED=0 as well.  MODE is ``untraced``
(set up, then one measured pass) or ``traced`` (the same pass with the span
recorder installed after set-up; spans go to DIR/spans-W.jsonl).  Prints one
JSON object.  Set-up is timed from before ``import groupoidlab`` to the end
of input generation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("untraced", "traced"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import workloads   # imports groupoidlab
    setup, run_pass = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, args.size, args.workdir)
    out = {"setup_s": time.perf_counter() - start}

    recorder = None
    if args.mode == "traced":
        import spans
        recorder = spans.SpanRecorder()
        spans.install(recorder)

    start = time.perf_counter()
    p = run_pass(inputs, recorder)
    out["wall_s"] = time.perf_counter() - start
    out.update(p.to_json())
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(self_kb, children_kb) / 1024

    if recorder:
        out["layers"] = recorder.summary()
        # corpus: the instance_checks loop alone, without the fixed checks
        out["instance_loop"] = {
            name: {k: v for k, v in row.items() if not k.endswith("_s")}
            for name, row in recorder.summary(keep=lambda r: isinstance(r, int)).items()}
        out["spans"] = len(recorder.spans)
        recorder.write_jsonl(args.workdir / f"spans-{args.workload}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
