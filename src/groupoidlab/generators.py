"""Groupoid constructions: group actions, bundles, and a seeded random corpus.

Random instances are disjoint unions of transformation groupoids of coset
actions of the built-in small groups — never random composition tables, so
every generated instance is a groupoid by construction and the generators
double as an axiom-validation corpus.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import core, groups
from .core import FiniteGroupoid
from .groups import FiniteGroup


@dataclass(frozen=True)
class GroupAction:
    """A left action of a finite group on labelled points: act[g][x] is g.x."""

    group: FiniteGroup
    points: tuple[str, ...]
    act: tuple[tuple[int, ...], ...]


def action_violations(a: GroupAction) -> list[str]:
    """Why a is not a left action, or []; a bad shape or entry is reported alone."""
    g, m = a.group, len(a.points)
    out = []
    if len(a.act) != g.order or any(len(row) != m for row in a.act):
        return ["action table has wrong shape"]
    for i, row in enumerate(a.act):
        for x, y in enumerate(row):
            if not (isinstance(y, int) and 0 <= y < m):
                return [f"act[{i}][{x}] is {y!r}, not a point index in 0..{m - 1}"]
    for x in range(m):
        if a.act[g.identity][x] != x:
            out.append(f"identity moves point {a.points[x]}")
    for i in range(g.order):
        for j in range(g.order):
            for x in range(m):
                if a.act[i][a.act[j][x]] != a.act[g.table[i][j]][x]:
                    out.append(f"action not compatible at ({i},{j},{a.points[x]})")
                    return out
    return out


def group_action(group: FiniteGroup, points, act) -> GroupAction:
    a = GroupAction(group=group, points=tuple(points),
                    act=tuple(tuple(row) for row in act))
    bad = action_violations(a)
    if bad:
        raise ValueError(f"not a group action: {bad[0]}")
    return a


def transformation_groupoid(a: GroupAction) -> FiniteGroupoid:
    """Arrows (g, x) from x to g.x, composing as (g1, g2.x) . (g2, x) = (g1 g2, x)."""
    g, m = a.group, len(a.points)

    def idx(gi: int, x: int) -> int:
        return gi * m + x

    e = g.identity
    n = g.order * m
    units = frozenset(idx(e, x) for x in range(m))
    src = tuple(idx(e, i % m) for i in range(n))
    rng = tuple(idx(e, a.act[i // m][i % m]) for i in range(n))
    inv = tuple(idx(g.inverse(i // m), a.act[i // m][i % m]) for i in range(n))
    labels = tuple(f"({g.labels[i // m]},{a.points[i % m]})" for i in range(n))
    # (g1, y) . (g2, x) = (g1 g2, x) for each (g2, x) into y, ascending
    into = core._arrows_by(rng)[0]
    rows = tuple(tuple([idx(g.table[i // m][c // m], c % m) for c in into[src[i]]])
                 for i in range(n))
    return FiniteGroupoid(n=n, units=units, src=src, rng=rng, rows=rows,
                          inv=inv, labels=labels)


def group_bundle(fibers) -> FiniteGroupoid:
    """Disjoint union of one-object groupoids: fibers is [(unit label, group), ...]."""
    units = []
    src = []
    rng = []
    inv = []
    labels = []
    rows = []
    offset = 0
    for unit_label, g in fibers:
        u = offset + g.identity
        units.append(u)
        for i in range(g.order):
            src.append(u)
            rng.append(u)
            inv.append(offset + g.inverse(i))
            labels.append(f"{g.labels[i]}@{unit_label}")
        rows.extend(tuple([offset + k for k in row]) for row in g.table)
        offset += g.order
    return FiniteGroupoid(n=offset, units=frozenset(units), src=tuple(src),
                          rng=tuple(rng), rows=tuple(rows), inv=tuple(inv), labels=tuple(labels))


def pair_groupoid(m: int) -> FiniteGroupoid:
    """Exactly one arrow (i,j) from j to i for each ordered pair of m points."""
    n = m * m
    units = frozenset(i * m + i for i in range(m))
    src = tuple((i % m) * m + (i % m) for i in range(n))
    rng = tuple((i // m) * m + (i // m) for i in range(n))
    inv = tuple((i % m) * m + (i // m) for i in range(n))
    labels = tuple(f"({i // m},{i % m})" for i in range(n))
    # (i,j) . (j,k) = (i,k) for k ascending: the row of (i,j) depends on i alone
    row_of = [tuple(range(i * m, i * m + m)) for i in range(m)]
    return FiniteGroupoid(n=n, units=units, src=src, rng=rng,
                          rows=tuple(row_of[i // m] for i in range(n)), inv=inv, labels=labels)


def trivial_groupoid(m: int) -> FiniteGroupoid:
    """m isolated units and nothing else."""
    return FiniteGroupoid(n=m, units=frozenset(range(m)), src=tuple(range(m)),
                          rng=tuple(range(m)), rows=tuple((i,) for i in range(m)),
                          inv=tuple(range(m)), labels=tuple(f"u{i}" for i in range(m)))


# --- named models ---------------------------------------------------------

def klein_cross() -> FiniteGroupoid:
    """The Klein four-group moving a five-point cross.

    s flips the two x-arm points, t flips the two y-arm points, and the
    center is globally fixed; 20 arrows, mixed isotropy, one fixed point.
    """
    k = groups.klein()
    points = ("c", "x+", "x-", "y+", "y-")
    act = [
        (0, 1, 2, 3, 4),   # e
        (0, 2, 1, 3, 4),   # s
        (0, 1, 2, 4, 3),   # t
        (0, 2, 1, 4, 3),   # st
    ]
    return transformation_groupoid(group_action(k, points, act))


def s3_point() -> FiniteGroupoid:
    return group_bundle([("p", groups.sym3())])


def s3_a3_bundle() -> FiniteGroupoid:
    return group_bundle([("p", groups.sym3()), ("q", groups.alt3())])


# --- seeded random corpus -------------------------------------------------

def _coset_action(g: FiniteGroup, sub: frozenset[int]) -> GroupAction:
    """Left translation on the cosets of a subgroup; points named by minimal
    reps.  An action, as a(b(xH)) = (ab)(xH), so not checked again."""
    seen = {}
    order = []
    for x in range(g.order):
        rep = min(g.table[x][h] for h in sub)
        if rep not in seen:
            seen[rep] = len(order)
            order.append(rep)
    points = tuple(f"{g.labels[r]}H" for r in order)
    # lists, not nested generators, which would leave reference cycles to collect
    act = tuple([tuple([seen[min(g.table[g.table[a][r]][h] for h in sub)] for r in order])
                 for a in range(g.order)])
    return GroupAction(group=g, points=points, act=act)


@functools.cache
def _library_component(i: int, j: int) -> FiniteGroupoid:
    """The transformation groupoid of library group i acting on the cosets of
    its subgroup j (``groups.library_subgroups`` order).  Built once per
    process and bounded by the library's (group, subgroup) pairs; keyed by
    indices, as a ``FiniteGroup`` key would hash its whole table on every
    call.  Shared: ``core.disjoint_union`` copies it into a fresh instance."""
    g, subs = groups.library_subgroups()[i]
    return transformation_groupoid(_coset_action(g, subs[j]))


def random_groupoid(seed: int, size_budget: int = 60) -> FiniteGroupoid:
    """Deterministic random instance with at most size_budget arrows.

    Components are coset-action transformation groupoids of library groups;
    the same seed and budget always reproduce the same instance.
    """
    if size_budget < 1:
        raise ValueError("size budget must allow at least one arrow")
    rng = random.Random(seed)
    lib = groups.library_subgroups()
    parts: list[FiniteGroupoid] = []
    remaining = size_budget
    attempts = 0
    while remaining >= 1 and attempts < 16:
        i = rng.randrange(len(lib))
        g, subs = lib[i]
        j = rng.randrange(len(subs))
        cost = g.order * (g.order // len(subs[j]))
        if cost > remaining:
            attempts += 1
            continue
        parts.append(_library_component(i, j))
        remaining -= cost
        attempts = 0
    if not parts:
        parts = [trivial_groupoid(1)]
    return core.disjoint_union(parts)


NAMED_MODELS = {
    "klein-cross": klein_cross,
    "s3": s3_point,
    "s3-a3-bundle": s3_a3_bundle,
}
