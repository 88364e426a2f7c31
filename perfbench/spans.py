"""In-memory span recorder, installed by wrapping public groupoidlab functions.

Each span is (name, start, end, parent, request, tally): two ``perf_counter``
readings, the index of the enclosing span (-1 at top level), the request id
the pass loop set when the span opened (an instance seed, a group name or a
request index) and a count taken from the call's result, if its target has
one.  Spans stay in memory and are written as JSONL when the pass ends.

A layer's self time is its span's duration minus the time its child spans
cover.  Time spent in code that is not wrapped counts towards the nearest
wrapped caller.  Nothing is installed unless ``install`` is called, so an
untraced pass runs the package unmodified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _useful(result, memo) -> int:
    return result is not None


def _rank(result, memo) -> int:
    return result.rank


def _results(result, memo) -> int:
    return len(result)


def _hit(result, memo) -> int:
    """1 when the call returned an object an earlier call returned: a cache hit.

    Results are kept in memo so that no id is reused within the pass.
    """
    if id(result) in memo:
        return 1
    memo[id(result)] = result
    return 0


# (module, attribute, stats, tally): every public function or method the
# trace wraps, the per-layer statistics reported for it, and the function
# that takes a count from each call's result.  That count is summed under the
# one statistic that is neither "calls" nor "self_s"; a "<x>_ratio" statistic
# sums under "<x>" and is reported as that sum over calls.
# "Echelon.insert" means the method on the class; a plain function is rebound
# in every module namespace that holds it, so ``from .linalg import same_span``
# in checks is wrapped too.
TARGETS = (
    ("linalg", "Echelon.insert", ("calls", "useful_ratio", "self_s"), _useful),
    ("linalg", "Echelon.contains", ("calls",), None),
    ("linalg", "same_span", ("self_s",), None),
    ("linalg", "kernel_basis", ("self_s",), None),
    ("algebra", "commutator_ideal", ("calls", "self_s", "rank_sum"), _rank),
    ("algebra", "AlgebraHom.kernel", ("calls", "self_s"), None),
    ("algebra", "pi_hom", ("self_s",), None),
    ("algebra", "enumerate_characters", ("self_s", "results"), _results),
    ("algebra", "abelianized_fiber", ("calls",), None),
    ("algebra", "gelfand_transform", ("self_s",), None),
    ("quotients", "enumerate_normal_subgroupoids", ("calls", "self_s", "results"), _results),
    ("quotients", "quotient", ("calls", "self_s"), None),
    ("quotients", "is_normal", ("calls", "self_s"), None),
    ("quotients", "abelianize_groupoid", ("calls", "self_s"), None),
    ("abelian", "invariant_factors", ("calls", "self_s", "hit_ratio"), _hit),
    ("abelian", "characters", ("self_s", "results"), _results),
    ("abelian", "char_group_structure", ("self_s",), None),
    ("abelian", "finite_abelian_group", ("calls",), None),
    ("groups", "group_violations", ("calls", "self_s"), None),
    ("groups", "subgroups", ("self_s",), None),
    ("groups", "closure", ("calls",), None),
    ("snf", "smith_normal_form", ("calls", "self_s"), None),
    ("core", "validate", ("calls", "self_s"), None),
    ("core", "restrict", ("calls",), None),
    ("core", "fixed_points", ("calls",), None),
    ("document", "decode_groupoid", ("self_s",), None),
    ("document", "encode_groupoid", ("self_s",), None),
    ("cli", "main", ("self_s",), None),
    ("generators", "random_groupoid", ("self_s",), None),
)


class SpanRecorder:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self._stack: list[int] = []
        self._tally_names: dict[str, str] = {}

    def wrap(self, name: str, fn, tally=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count, memo = (tally[1], {}) if tally else (None, None)
        if tally:
            self._tally_names[name] = tally[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            request = self.request
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, request, None)
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, request,
                            count(result, memo) if count else None)
            return result

        return traced

    def summary(self, keep=None) -> dict:
        """Per span name: calls, total and self seconds, and its tally's sum.

        ``keep`` filters spans by request id; children are subtracted from
        their parent's self time whether or not they are kept.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, request, tally) in enumerate(self.spans):
            if keep is not None and not keep(request):
                continue
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                if name in self._tally_names:
                    row[self._tally_names[name]] = 0
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[i]
            if tally is not None:
                row[self._tally_names[name]] += tally
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request, tally) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "tally": tally}) + "\n")


def install(recorder: SpanRecorder) -> None:
    """Wrap every target in TARGETS, in every loaded groupoidlab module."""
    package = importlib.import_module("groupoidlab")
    for module_name, attr, stats, count in TARGETS:
        module = importlib.import_module(f"groupoidlab.{module_name}")
        name = f"{module_name}.{attr}"
        tally = None
        if count:
            stat, = (s for s in stats if s not in ("calls", "self_s"))
            tally = (stat.removesuffix("_ratio"), count)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, recorder.wrap(name, getattr(cls, method), tally))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, tally)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is package or loaded_name.startswith("groupoidlab."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
