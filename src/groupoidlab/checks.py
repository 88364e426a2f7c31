"""Machine verification of the structural identities, instance by instance.

Each check pairs a quantity computed one way (enumeration, group theory)
with the same quantity computed another way (quotient class maps, partitions
of arrows spanning kernels and the commutator ideal, character exponents), so
a pass is two independent computations agreeing — not a tautology.  Reports
are plain data, ready for JSON.  No verdict is cached: the table memos in
``groups`` hold group-theoretic values only.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

from . import abelian, algebra, core, generators, groups, quotients
from .core import FiniteGroupoid
from .linalg import BinomialSpan


@dataclass
class CheckResult:
    """One check's verdict.  A skipped check did not run, because a check it
    rests on failed: it is not ok, and skipped names the reason."""

    name: str
    instance: str
    ok: bool
    seconds: float
    witness: object = None
    skipped: str | None = None

    @property
    def status(self) -> str:
        return "pass" if self.ok else "skipped" if self.skipped else "fail"

    def to_json(self) -> dict:
        out = {"name": self.name, "instance": self.instance, "status": self.status,
               "seconds": round(self.seconds, 6)}
        if self.skipped:
            out["reason"] = self.skipped
        elif not self.ok:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        counts = Counter(r.status for r in self.results)
        return {
            "status": "pass" if self.ok else "fail",
            # no "skip" key unless a check was skipped
            "counts": {"pass": counts["pass"], "fail": counts["fail"],
                       **({"skip": counts["skipped"]} if counts["skipped"] else {})},
            "total_seconds": round(sum(r.seconds for r in self.results), 6),
            "checks": [r.to_json() for r in self.results],
        }


def _location(frame) -> str:
    """file:line of a traceback frame, the same from every checkout or
    install: the path below the directory holding the package for a frame
    inside it (groupoidlab/core.py:280), the bare file name for any other."""
    from pathlib import Path   # as traceback in _run: only a crash loads them
    package = Path(__file__).resolve().parent
    path = Path(frame.filename).resolve()
    shown = (path.relative_to(package.parent).as_posix()
             if path.is_relative_to(package) else path.name)
    return f"{shown}:{frame.lineno}"


def _run(name: str, instance: str, fn: Callable[[], object]) -> CheckResult:
    """Execute one check; fn returns a witness on failure, None on success.
    A groupoid with too many normal subgroupoids to quotient is a refusal of
    the input, not a crash: ``groups.TooManySubgroups`` reaches the caller."""
    start = time.perf_counter()
    try:
        witness = fn()
        ok = witness is None
    except groups.TooManySubgroups:
        raise
    except Exception as exc:   # a crash is a failing check, not a crashed report
        import traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        witness = {"error": repr(exc), "type": type(exc).__name__, "message": str(exc),
                   "location": _location(frame)}
        ok = False
    return CheckResult(name=name, instance=instance, ok=ok,
                       seconds=time.perf_counter() - start, witness=witness)


# --- per-instance checks ---------------------------------------------------

def _check_axioms(G: FiniteGroupoid | core.MalformedTable):
    bad = core.violations_of(G)
    if bad:
        return [{"kind": v.kind, "message": v.message} for v in bad[:3]]
    return None


def _carrier_labels(G: FiniteGroupoid, members) -> list[str]:
    return [G.labels[g] for g in sorted(members)]


def _check_quotient_family(G: FiniteGroupoid):
    """Exactness, kernel-diagonal triviality, and the injectivity criterion
    for every normal subgroupoid, component by component.

    A normal subgroupoid of G is a union of one H_C per component C, each
    normal in the restriction G_C (``component_normal_subgroupoids``), and
    its quotient is the disjoint union of the G_C / H_C: unit preimages
    unite and kernels add up.  So each identity holds for the union iff it
    holds for every H_C, and the sum of the per-component counts of
    quotients checks their product of carriers.  A witness names H_C joined
    with the other components' units, a failing carrier of G.  The three
    identities read only the classes of G_C / H_C: they test
    ``quotients.quotient_map``, the map ``quotient`` builds every quotient
    from, and no quotient groupoid is built.
    """
    for GC, inclusion, normals in quotients.component_normal_subgroupoids(G):
        def in_G(members):
            others = G.units - {inclusion[x] for x in GC.units}
            return _carrier_labels(G, others.union(inclusion[a] for a in members))
        for H in normals:
            class_map = quotients.quotient_map(GC, H)
            pre = quotients.quotient_preimage_of_units(GC, class_map)
            if pre != H.members:
                return [{"check": "exactness", "carrier": in_G(H.members),
                         "preimage": in_G(pre)}]
            kernel = algebra.arrow_map_kernel(class_map)
            kernel_rank = kernel.rank
            # the unit deltas meet the kernel trivially iff each one grows the span
            if not all(kernel.kill(x) for x in sorted(GC.units)):
                return [{"check": "kernel-diagonal", "carrier": in_G(H.members)}]
            if (kernel_rank == 0) != (H.members == GC.units):
                return [{"check": "injectivity-criterion", "carrier": in_G(H.members),
                         "kernel_rank": kernel_rank}]
    return None


def _check_character_count(ab: quotients.Abelianization, ideal: BinomialSpan):
    chars = len(algebra.enumerate_characters(ab))
    dim = ab.host.n - ideal.rank
    if chars != dim:
        return {"characters": chars, "abelianization_dim": dim}
    return None


def _check_pi_kernel(ab: quotients.Abelianization, ideal: BinomialSpan):
    kernel = algebra.pi_hom(ab).kernel()
    if kernel != ideal:
        return {"kernel_rank": kernel.rank, "ideal_rank": ideal.rank}
    return None


def _check_gelfand(ab: quotients.Abelianization):
    return algebra.gelfand_violations(algebra.gelfand_transform(ab.dual))


def _duality_witness(dec: abelian.CyclicDecomposition, chars) -> dict | None:
    """None when dec's table has one character per element and their group
    has dec's invariant factors; else the counts or the factors that differ."""
    order, factors = len(dec.coords), dec.factors
    if len(chars) != order:
        return {"characters": len(chars), "order": order}
    dual_factors = abelian.invariant_factors(abelian.char_group_structure(chars)).factors
    if dual_factors != factors:
        return {"factors": list(factors), "dual_factors": list(dual_factors)}
    return None


def _check_fiber_duality(ab: quotients.Abelianization):
    for x, y in ab.fixed_points.items():
        witness = _duality_witness(abelian.invariant_factors(ab.dual.fiber_groups[y]),
                                   ab.dual.fibers[y])
        if witness:
            return {"unit": ab.host.labels[x], **witness}
    return None


def instance_checks(G: FiniteGroupoid | core.MalformedTable, instance: str) -> list[CheckResult]:
    """The axioms check, then the five checks that rest on it.  A malformed
    table fails axioms with its listing.

    Each of the five reads G as a groupoid (the commutator ideal is closed
    over a generating set, fixed points and components assume inverses), so
    on a table that fails axioms they are skipped: a verdict there would
    rest on preconditions that do not hold.  quotient-family runs first, so
    a groupoid past ``quotients.MAX_FAMILY_ARROWS`` raises
    ``groups.TooManySubgroups`` before anything else is built.
    """
    axioms = _run("axioms", instance, lambda: _check_axioms(G))
    # Each, like ab().dual, is built once, inside the first check that needs
    # it: a crash while building fails that check and, not being cached, each
    # later one too.
    ab = functools.cache(lambda: quotients.abelianize_groupoid(G))
    ideal = functools.cache(lambda: algebra.commutator_ideal(G))
    dependent = {
        "quotient-family": lambda: _check_quotient_family(G),
        "character-count": lambda: _check_character_count(ab(), ideal()),
        "pi-kernel": lambda: _check_pi_kernel(ab(), ideal()),
        "gelfand": lambda: _check_gelfand(ab()),
        "fiber-duality": lambda: _check_fiber_duality(ab()),
    }
    if not axioms.ok:
        return [axioms, *(CheckResult(name, instance, ok=False, seconds=0.0,
                                      skipped="axioms failed") for name in dependent)]
    return [axioms, *(_run(name, instance, fn) for name, fn in dependent.items())]


# --- fixed regressions ------------------------------------------------------

def _regression_s3():
    s3 = generators.s3_point()
    a3 = frozenset(s3.label_index(l) for l in ("e@p", "s@p", "s2@p"))
    qr = quotients.quotient(s3, a3)
    dim = algebra.abelianization_dim(s3)
    if qr.quotient.n != 2 or dim != 2:
        return {"quotient_size": qr.quotient.n, "abelianization_dim": dim}
    return None


def _regression_s3_a3():
    G = generators.s3_a3_bundle()
    ab = quotients.abelianize_groupoid(G)
    dim = algebra.abelianization_dim(G)
    if ab.g_ab.n != 5 or dim != 5:
        return {"g_ab_size": ab.g_ab.n, "abelianization_dim": dim}
    return None


def _regression_klein_cross():
    G = generators.klein_cross()
    chars = algebra.enumerate_characters(quotients.abelianize_groupoid(G))
    center = G.label_index("(e,c)")
    if len(chars) != 4:
        return {"characters": len(chars)}
    for phi in chars:
        if phi.unit != center or any(G.src[g] != center for g in phi.support):
            return {"bad_support_unit": G.labels[phi.unit]}
    return None


def _regression_pair():
    G = generators.pair_groupoid(2)
    chars = algebra.enumerate_characters(quotients.abelianize_groupoid(G))
    rank = algebra.commutator_ideal(G).rank
    if chars or rank != G.n:
        return {"characters": len(chars), "ideal_rank": rank}
    return None


def regression_checks() -> list[CheckResult]:
    return [
        _run("regression:s3-quotient", "named", _regression_s3),
        _run("regression:s3-a3-bundle", "named", _regression_s3_a3),
        _run("regression:klein-cross-characters", "named", _regression_klein_cross),
        _run("regression:pair-groupoid", "named", _regression_pair),
    ]


# --- the duality family -----------------------------------------------------

def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, cap), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def _prime_factorization(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def abelian_groups_of_order(n: int):
    """All abelian groups of order n up to isomorphism.

    Yields (expected_invariant_factors, group); the expectation comes from
    the prime-power partitions directly, independent of the matrix route.
    Each is a product of cyclic groups, a group by construction, not
    validated again; its exponent is read off the table, as the lcm of
    element orders, not off the partition.  n must be positive.
    """
    if n < 1:
        raise ValueError(f"no group has order {n}")
    primes = _prime_factorization(n)
    partition_lists = [_partitions(e) for _, e in primes]
    for combo in itertools.product(*partition_lists):
        # per-prime cyclic orders, descending
        per_prime = [[p ** part for part in parts]
                     for (p, _), parts in zip(primes, combo)]
        depth = max((len(c) for c in per_prime), default=0)
        expected = []
        for i in range(depth):
            d = 1
            for chain in per_prime:
                if i < len(chain):
                    d *= chain[i]
            expected.append(d)
        expected = tuple(sorted(expected))
        cyclic_orders = sorted(itertools.chain.from_iterable(per_prime))
        # from the first factor: cyclic(1) only stands for the empty product
        g = functools.reduce(groups.direct_product, map(groups.cyclic, cyclic_orders or [1]))
        yield expected, abelian._with_exponent(replace(
            g, name=f"A{n}:" + "x".join(map(str, cyclic_orders))))


def _duality_family(max_order: int = 64):
    checked = 0
    for n in range(1, max_order + 1):
        for expected, a in abelian_groups_of_order(n):
            dec = abelian.invariant_factors(a)
            if dec.factors != expected:
                return {"group": a.name, "factors": list(dec.factors),
                        "expected": list(expected)}
            witness = _duality_witness(dec, abelian.characters(a))
            if witness:
                return {"group": a.name, **witness}
            checked += 1
    if checked < max(max_order, 1):   # at least one group, and one per order
        return {"reason": "family enumeration came up short", "checked": checked}
    return None


def duality_family_check(max_order: int = 64) -> CheckResult:
    return _run(f"duality-family(order<={max_order})", "family",
                lambda: _duality_family(max_order))


# --- corpus drivers ---------------------------------------------------------

def corpus_budget(seed: int, cap: int = 60) -> int:
    """Instance size budget for a corpus seed: cycles through 1..cap."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    return 1 + seed % cap


def _corpus_instance(args: tuple[int, int]) -> list[CheckResult]:
    seed, budget = args
    G = generators.random_groupoid(seed, budget)
    return instance_checks(G, instance=f"seed={seed},budget={budget}")


def corpus_report(seed: int, count: int, cap: int = 60, jobs: int = 1) -> CheckReport:
    """Run the full invariant suite over generated instances plus the fixed checks."""
    tasks = [(s, corpus_budget(s, cap)) for s in range(seed, seed + count)]
    report = CheckReport()
    if jobs > 1:
        # multiprocessing, socket, pickle, ...: only a pooled run loads them
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # the family is the longest single task: started first, it runs
            # beside the instances instead of after them
            family = pool.submit(duality_family_check)
            for results in pool.map(_corpus_instance, tasks):
                report.results.extend(results)
            report.results.extend(regression_checks())
            report.results.append(family.result())
    else:
        for task in tasks:
            report.results.extend(_corpus_instance(task))
        report.results.extend(regression_checks())
        report.results.append(duality_family_check())
    return report


def file_report(G: FiniteGroupoid | core.MalformedTable, instance: str) -> CheckReport:
    return CheckReport(results=instance_checks(G, instance))
