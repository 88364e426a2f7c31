"""Normal subgroupoids, quotient groupoids, and abelianization.

A normal subgroupoid H sits between the units and the isotropy, is closed
under composition and inversion, and is stable under conjugation by arbitrary
arrows.  Arrows are identified when they share a source and differ by an
H-element on the left; the quotient inherits its tables from minimal
representatives, making the construction canonical and reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import abelian, core, groups
from .core import ElementSubset, FiniteGroupoid


def fiber_group(G: FiniteGroupoid, x: int) -> tuple[groups.FiniteGroup, tuple[int, ...]]:
    """The isotropy group at a unit, with the arrow list realizing it."""
    arrows, table = core.isotropy_fiber(G, x)
    g = groups.finite_group(f"iso@{G.labels[x]}", [G.labels[a] for a in arrows], table)
    return g, tuple(arrows)


@dataclass(frozen=True)
class NormalityCheck:
    ok: bool
    kind: str | None = None
    message: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_normal(G: FiniteGroupoid, H: ElementSubset | Iterable[int]) -> NormalityCheck:
    """Check the normal-subgroupoid conditions, with a counterexample on failure."""
    members = core._members(G, H)
    for x in sorted(G.units):
        if x not in members:
            return NormalityCheck(False, "missing-unit",
                                  f"unit {G.labels[x]} not in carrier", (x,))
    for h in sorted(members):
        if G.src[h] != G.rng[h]:
            return NormalityCheck(False, "not-isotropy",
                                  f"element {G.labels[h]} moves its source", (h,))
    for h in sorted(members):
        if G.inv[h] not in members:
            return NormalityCheck(False, "not-inverse-closed",
                                  f"inverse of {G.labels[h]} missing", (h,))
    for a in sorted(members):
        for b in sorted(members):
            if G.src[a] == G.rng[b] and G.comp[(a, b)] not in members:
                return NormalityCheck(False, "not-composition-closed",
                                      f"{G.labels[a]} . {G.labels[b]} missing", (a, b))
    for a in G.arrows():
        x = G.src[a]
        ai = G.inv[a]
        for h in sorted(members):
            if G.src[h] != x:
                continue
            c = G.comp[(G.comp[(a, h)], ai)]
            if c not in members:
                return NormalityCheck(
                    False, "not-conjugation-closed",
                    f"{G.labels[a]} . {G.labels[h]} . {G.labels[ai]} = {G.labels[c]} escapes",
                    (a, h, c))
    return NormalityCheck(True)


@dataclass(frozen=True)
class NormalSubgroupoid:
    host: FiniteGroupoid
    members: frozenset[int]

    def __contains__(self, g: int) -> bool:
        return g in self.members

    def __len__(self) -> int:
        return len(self.members)


def normal_subgroupoid(G: FiniteGroupoid, H: ElementSubset | Iterable[int]) -> NormalSubgroupoid:
    """Validated constructor; raises with the failing condition and witness."""
    check = is_normal(G, H)
    if not check:
        raise ValueError(f"not a normal subgroupoid ({check.kind}): {check.message}")
    return NormalSubgroupoid(G, core._members(G, H))


@dataclass(frozen=True)
class QuotientResult:
    quotient: FiniteGroupoid
    class_map: tuple[int, ...]     # host arrow -> quotient arrow


def quotient(G: FiniteGroupoid, H: NormalSubgroupoid | ElementSubset | Iterable[int]) -> QuotientResult:
    """Quotient by a normal subgroupoid.

    Arrows a, b are identified when src(a) == src(b) and a.b^-1 lies in H;
    equivalently each class is an H-orbit {h.a}.  Class labels come from the
    minimal representative, so the output is stable across runs.
    """
    if not isinstance(H, NormalSubgroupoid):
        H = normal_subgroupoid(G, H)
    elif H.host != G:
        raise ValueError("normal subgroupoid belongs to a different groupoid")

    h_by_src: dict[int, list[int]] = {}
    for h in sorted(H.members):
        h_by_src.setdefault(G.src[h], []).append(h)

    rep_of: list[int] = [0] * G.n
    for a in G.arrows():
        rep_of[a] = min(G.comp[(h, a)] for h in h_by_src[G.rng[a]])
    reps = sorted(set(rep_of))
    new_index = {r: i for i, r in enumerate(reps)}
    class_map = tuple(new_index[rep_of[a]] for a in G.arrows())

    units = frozenset(class_map[x] for x in G.units)
    src = tuple(class_map[G.src[r]] for r in reps)
    rng = tuple(class_map[G.rng[r]] for r in reps)
    inv = tuple(class_map[G.inv[r]] for r in reps)
    comp = {}
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            if G.src[a] == G.rng[b]:
                comp[(i, j)] = class_map[G.comp[(a, b)]]
    Q = FiniteGroupoid(n=len(reps), units=units, src=src, rng=rng, comp=comp,
                       inv=inv, labels=tuple(G.labels[r] for r in reps))
    return QuotientResult(quotient=Q, class_map=class_map)


def quotient_preimage_of_units(G: FiniteGroupoid, result: QuotientResult) -> frozenset[int]:
    """Arrows of the host that land on quotient units; equals H when exact."""
    qunits = result.quotient.units
    return frozenset(a for a in G.arrows() if result.class_map[a] in qunits)


def interior_isotropy(G: FiniteGroupoid) -> NormalSubgroupoid:
    """The isotropy as a normal subgroupoid.

    All arrows are isolated points here, so the isotropy is its own interior
    and is always normal.
    """
    return normal_subgroupoid(G, core.isotropy(G))


def commutator_subgroupoid(G: FiniteGroupoid) -> NormalSubgroupoid:
    """Fiberwise commutator subgroups of a group bundle, as a normal subgroupoid."""
    if not core.is_group_bundle(G):
        bad = next(g for g in G.arrows() if G.src[g] != G.rng[g])
        raise ValueError(f"not a group bundle: arrow {G.labels[bad]} moves its source")
    carrier = set()
    for x in sorted(G.units):
        g, arrows = fiber_group(G, x)
        carrier.update(arrows[i] for i in groups.commutator_subgroup(g))
    return normal_subgroupoid(G, carrier)


@dataclass(frozen=True)
class Abelianization:
    """g_ab = g_fix / commutator, where g_fix is the host restricted to its
    fixed points (a group bundle), with maps back to the host groupoid."""

    host: FiniteGroupoid
    g_fix: FiniteGroupoid
    inclusion: tuple[int, ...]     # g_fix arrow -> host arrow
    commutator: NormalSubgroupoid  # of g_fix
    g_ab: FiniteGroupoid
    class_map: tuple[int, ...]     # g_fix arrow -> g_ab arrow

    @property
    def fixed_points(self) -> list[int]:
        """The host's fixed points, ascending: the units of g_fix."""
        return sorted(self.inclusion[u] for u in self.g_fix.units)

    def fiber_unit(self, x: int) -> int:
        """The unit of g_ab that the fixed point x of the host maps to."""
        return self.class_map[self.inclusion.index(x)]

    @cached_property
    def dual(self) -> abelian.DualBundle:
        """The character dual of g_ab, built on first use.  A build that
        raises is not kept, so the next reader raises again."""
        return abelian.dual_bundle(self.g_ab)


def abelianize_groupoid(G: FiniteGroupoid) -> Abelianization:
    """Restrict to fixed points, then quotient by fiberwise commutators."""
    fixed = core.fixed_points(G)
    inclusion = tuple(core.restricted_arrows(G, fixed))
    gf = core.restrict(G, fixed)
    comm = commutator_subgroupoid(gf)
    qr = quotient(gf, comm)
    return Abelianization(host=G, g_fix=gf, inclusion=inclusion, commutator=comm,
                          g_ab=qr.quotient, class_map=qr.class_map)


def enumerate_normal_subgroupoids(G: FiniteGroupoid) -> list[NormalSubgroupoid]:
    """All normal subgroupoids, by fiberwise normal subgroups plus conjugation.

    Any normal subgroupoid meets each isotropy fiber in a normal subgroup, and
    the conjugation condition only couples fibers inside a connected
    component, so candidates are filtered component by component before
    taking the global product.
    """
    per_unit: dict[int, list[frozenset[int]]] = {}
    for x in sorted(G.units):
        g, arrows = fiber_group(G, x)
        per_unit[x] = [frozenset(arrows[i] for i in sub) for sub in groups.normal_subgroups(g)]

    components = core.unit_components(G)
    component_choices: list[list[dict[int, frozenset[int]]]] = []
    for comp_units in components:
        units = sorted(comp_units)
        arrows = [a for a in G.arrows() if G.src[a] in comp_units]
        valid = []
        for combo in itertools.product(*(per_unit[x] for x in units)):
            choice = dict(zip(units, combo))
            ok = True
            for a in arrows:
                x, y = G.src[a], G.rng[a]
                ai = G.inv[a]
                for h in choice[x]:
                    if G.comp[(G.comp[(a, h)], ai)] not in choice[y]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                valid.append(choice)
        component_choices.append(valid)

    out = []
    for assignment in itertools.product(*component_choices):
        carrier: set[int] = set()
        for choice in assignment:
            for sub in choice.values():
                carrier.update(sub)
        out.append(NormalSubgroupoid(G, frozenset(carrier)))
    out.sort(key=lambda h: (len(h.members), tuple(sorted(h.members))))
    return out
