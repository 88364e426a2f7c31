"""Normal subgroupoids, quotient groupoids, and abelianization.

A normal subgroupoid H sits between the units and the isotropy, is closed
under composition and inversion, and is stable under conjugation by arbitrary
arrows.  Arrows are identified when they share a source and differ by an
H-element on the left; the quotient inherits its tables from minimal
representatives, making the construction canonical and reproducible.

``quotient_map`` is that identification alone, the class of each arrow,
and ``quotient`` builds G/H on top of it.  The quotient-family check needs
only the classes (unit preimages and the kernel's partition), so it reads
``quotient_map`` and builds no quotient groupoid; the abelianization and
the CLI take the full ``quotient``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import abelian, core, groups
from .core import FiniteGroupoid

# The most arrows that the quotients of one groupoid's normal subgroupoids
# take in: each component is quotiented by each of its normal subgroupoids.
# Their count grows exponentially with the rank of an elementary abelian
# isotropy (C2^5 has 374, C2^8 has 417,199), so a groupoid whose components'
# arrow counts times normal subgroupoid counts sum past this is refused,
# before any quotient and after counting little further.  A 60-arrow library
# model takes at most 360; C2^6 (64 x 2,825) is in, C2^7 (128 x 29,212) is out.
MAX_FAMILY_ARROWS = 250_000


@dataclass(frozen=True)
class NormalityCheck:
    ok: bool
    kind: str | None = None
    message: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_normal(G: FiniteGroupoid, H: Iterable[int]) -> NormalityCheck:
    """Check the normal-subgroupoid conditions, with a counterexample on failure."""
    members = core.arrow_set(G, H)
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
    # members are isotropy now: b composes with a iff both are out of src(a)
    rows, pos = G.rows, G.pos
    for a in sorted(members):
        for b in G.out_of[G.src[a]]:
            if b in members and rows[a][pos[b]] not in members:
                return NormalityCheck(False, "not-composition-closed",
                                      f"{G.labels[a]} . {G.labels[b]} missing", (a, b))
    for a in G.arrows():
        ai = G.inv[a]
        for h in (h for h in G.out_of[G.src[a]] if h in members):
            c = rows[rows[a][pos[h]]][pos[ai]]
            if c not in members:
                return NormalityCheck(
                    False, "not-conjugation-closed",
                    f"{G.labels[a]} . {G.labels[h]} . {G.labels[ai]} = {G.labels[c]} escapes",
                    (a, h, c))
    return NormalityCheck(True)


@dataclass(frozen=True)
class NormalSubgroupoid:
    """A carrier known to be normal in host, so ``quotient`` need not check it."""

    host: FiniteGroupoid
    members: frozenset[int]


def normal_subgroupoid(G: FiniteGroupoid, H: Iterable[int]) -> NormalSubgroupoid:
    """Validated constructor; raises with the failing condition and witness."""
    members = core.arrow_set(G, H)
    check = is_normal(G, members)
    if not check:
        raise ValueError(f"not a normal subgroupoid ({check.kind}): {check.message}")
    return NormalSubgroupoid(G, members)


@dataclass(frozen=True)
class QuotientResult:
    quotient: FiniteGroupoid
    class_map: tuple[int, ...]     # host arrow -> quotient arrow


def quotient_map(G: FiniteGroupoid, H: NormalSubgroupoid) -> tuple[int, ...]:
    """The quotient map of G by H on arrows: each arrow to its class in G/H.

    Arrows a, b are identified when src(a) == src(b) and a.b^-1 lies in H;
    equivalently each class is an H-orbit {h.a}.  Classes are numbered in
    the order of their minimal representatives, so the map is stable
    across runs.  ``quotient`` builds G/H from it, and the quotient-family
    check reads it alone.
    """
    if H.host != G:
        raise ValueError("normal subgroupoid belongs to a different groupoid")
    # the least h.a over h in H at rng(a): the rows of H at a unit x list
    # h.a for the arrows a into x, so one elementwise min covers them all
    least = {x: tuple(map(min, zip(*[G.rows[h] for h in G.out_of[x] if h in H.members])))
             for x in G.units}
    rep_of = [least[G.rng[a]][G.pos[a]] for a in G.arrows()]
    new_index = {r: i for i, r in enumerate(sorted(set(rep_of)))}
    return tuple(new_index[r] for r in rep_of)


def quotient(G: FiniteGroupoid, H: NormalSubgroupoid | Iterable[int]) -> QuotientResult:
    """Quotient by a normal subgroupoid, classes as in ``quotient_map``.
    Each quotient arrow takes its label and its tables from the minimal
    representative of its class, so the output is stable across runs.
    """
    if not isinstance(H, NormalSubgroupoid):
        H = normal_subgroupoid(G, H)
    class_map = quotient_map(G, H)
    # each class's least arrow is its minimal representative; classes are
    # numbered in their order, so they first occur in ascending order
    first: dict[int, int] = {}
    for a, c in enumerate(class_map):
        first.setdefault(c, a)
    reps = list(first.values())

    units = frozenset(class_map[x] for x in G.units)
    at = core._gather(reps)
    src, rng, inv = (core._gather(at(table))(class_map) for table in (G.src, G.rng, G.inv))
    # Row i of Q: the classes of a.r for a = reps[i] and each representative
    # r into src(a), ascending.  The classes of a.c over the row of a list
    # them with repeats, each first at its representative r: for c = h.r,
    # a.c = (a h a^-1).(a.r) as H is normal, and a.- is one-to-one on classes.
    rows = tuple([tuple(dict.fromkeys(core._gather(row)(class_map))) for row in at(G.rows)])
    Q = FiniteGroupoid(n=len(reps), units=units, src=src, rng=rng, rows=rows,
                       inv=inv, labels=at(G.labels))
    return QuotientResult(quotient=Q, class_map=class_map)


def quotient_preimage_of_units(G: FiniteGroupoid, class_map: tuple[int, ...]) -> frozenset[int]:
    """Arrows of the host that land on quotient units under class_map (a
    ``quotient_map``); equals H when exact."""
    unit_classes = {class_map[x] for x in G.units}
    return frozenset(a for a in G.arrows() if class_map[a] in unit_classes)


def commutator_subgroupoid(G: FiniteGroupoid) -> NormalSubgroupoid:
    """Fiberwise commutator subgroups of a group bundle, as a normal subgroupoid.
    Normal without ``is_normal``: each arrow of a group bundle lies in one
    fiber, and a commutator subgroup is normal."""
    core.require_group_bundle(G)
    carrier = set()
    for x in sorted(G.units):
        g, arrows = core.isotropy_group(G, x)
        carrier.update(arrows[i] for i in groups.commutator_subgroup(g))
    return NormalSubgroupoid(G, frozenset(carrier))


@dataclass(frozen=True)
class Abelianization:
    """g_ab = g_fix / commutator, where g_fix is the host restricted to its
    fixed points (a group bundle), and pi, its one map: ``arrow_map`` sends
    each host arrow to its class in g_ab, or to None off g_fix.

    The one source for what is derived from it: its ``dual``, the
    characters (``algebra.enumerate_characters``), pi (``algebra.pi_hom``)
    and each abelianized fiber (``algebra.abelianized_fiber``)."""

    host: FiniteGroupoid
    g_fix: FiniteGroupoid
    g_ab: FiniteGroupoid
    arrow_map: tuple[int | None, ...]  # pi: host arrow -> g_ab arrow, None off g_fix

    @cached_property
    def fixed_points(self) -> dict[int, int]:
        """The host's fixed points, ascending, each with the unit of g_ab it
        maps to: pi at the host's units, where it is not None."""
        return {x: y for x in sorted(self.host.units) if (y := self.arrow_map[x]) is not None}

    @cached_property
    def dual(self) -> abelian.DualBundle:
        """The character dual of g_ab, built on first use.  A build that
        raises is not kept, so the next reader raises again."""
        return abelian.dual_bundle(self.g_ab)


def abelianize_groupoid(G: FiniteGroupoid) -> Abelianization:
    """Restrict to fixed points (invariant: no arrow leaves one), then
    quotient by fiberwise commutators."""
    gf, inclusion = core._restriction(G, core.fixed_points(G))
    qr = quotient(gf, commutator_subgroupoid(gf))
    to_ab = dict(zip(inclusion, qr.class_map))
    return Abelianization(host=G, g_fix=gf, g_ab=qr.quotient,
                          arrow_map=tuple(map(to_ab.get, G.arrows())))


def component_normal_subgroupoids(
        G: FiniteGroupoid,
) -> list[tuple[FiniteGroupoid, tuple[int, ...], list[NormalSubgroupoid]]]:
    """For each component C, in ``core.unit_components`` order: the
    restriction G_C, the index in G of each of its arrows, and every normal
    subgroupoid of G_C.  Each is a normal subgroup at the least unit,
    transported by conjugation (Higgins, *Categories and Groupoids*, 1971),
    in the order of ``groups.normal_subgroups``.

    In G_C, with least unit x, fix arrows a_y: x -> y.  A normal subgroup N
    of G(x) transports to the union of the a_y N a_y^-1.
    - Well defined: any arrow x -> y is a_y k with k in G(x), and
      a_y k N k^-1 a_y^-1 = a_y N a_y^-1 as N is normal.
    - Normal: an arrow c: y -> z conjugates a_y N a_y^-1 to
      (c a_y) N (c a_y)^-1 = a_z N a_z^-1, as c a_y is an arrow x -> z.
    - Complete: a normal H meets G(x) in a normal N, and conjugation by
      a_y and a_y^-1 maps H(x) and H(y) into each other, so H(y) =
      a_y N a_y^-1.
    Raises ``groups.TooManySubgroups`` once the sum of each component's
    arrow count times its normal subgroupoid count, the arrows the quotients
    by them take in, would exceed MAX_FAMILY_ARROWS.
    """
    out = []
    limit = MAX_FAMILY_ARROWS
    for units in core.unit_components(G):   # invariant: no arrow leaves a component
        GC, inclusion = core._restriction(G, units)
        x = min(GC.units)
        g, fiber = core.isotropy_group(GC, x)
        moves = {GC.rng[a]: a for a in GC.out_of[x]}.values()
        normals = groups.normal_subgroups(g, limit=limit // GC.n)
        limit -= len(normals) * GC.n
        rows, pos = GC.rows, GC.pos
        out.append((GC, inclusion, [
            NormalSubgroupoid(GC, frozenset(rows[rows[a][pos[fiber[h]]]][pos[GC.inv[a]]]
                                            for a in moves for h in sub))
            for sub in normals]))
    return out


def enumerate_normal_subgroupoids(G: FiniteGroupoid) -> list[NormalSubgroupoid]:
    """All normal subgroupoids, sorted by size then membership.  Conjugation
    stays inside a component, so they are the unions of one normal
    subgroupoid of each component (``component_normal_subgroupoids``, whose
    bound applies).  Their count is the product of the components' counts,
    which that bound does not limit: this is the tests' reference, on
    groupoids with few components."""
    per_component = [[frozenset(inclusion[a] for a in H.members) for H in normals]
                     for _, inclusion, normals in component_normal_subgroupoids(G)]
    out = [NormalSubgroupoid(G, frozenset().union(*choice))
           for choice in itertools.product(*per_component)]
    out.sort(key=lambda h: (len(h.members), tuple(sorted(h.members))))
    return out
