"""Finite groupoids as explicit arrow tables.

A groupoid is stored with arrows indexed 0..n-1: a set of unit indices, total
source/range maps into the units, a partial composition table (defined exactly
on pairs with src(a) == rng(b)), and a total inversion map.  Everything is
finite, so the usual axioms become decidable table properties.

Each groupoid carries one index, built at construction: ``out_of``, the
arrows out of each unit, which every per-unit lookup reads.  It is a field
outside the constructor, equality and repr, not a ``cached_property``: a
write to an instance's ``__dict__`` after construction makes each later
attribute read on it (``G.src``, ``G.comp``) about 3x slower on CPython 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

from .groups import FiniteGroup


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid given by explicit tables on arrow indices 0..n-1.

    comp maps a composable pair (a, b) to the arrow for "a after b"; a pair is
    composable exactly when src(a) == rng(b).  labels name arrows for
    serialization and never affect the algebra.  out_of[x] lists the arrows
    with source x, ascending, for each source x that occurs.
    """

    n: int
    units: frozenset[int]
    src: tuple[int, ...]
    rng: tuple[int, ...]
    comp: dict[tuple[int, int], int]
    inv: tuple[int, ...]
    labels: tuple[str, ...]
    out_of: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "out_of", _arrows_by(self.src))

    def arrows(self) -> range:
        return range(self.n)

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def __repr__(self) -> str:
        return f"FiniteGroupoid(n={self.n}, units={len(self.units)})"


def arrow_set(G: FiniteGroupoid, arrows: Iterable[int]) -> frozenset[int]:
    """A carrier as a frozenset of arrow indices; raises ValueError for an
    index outside 0..n-1, which would otherwise wrap or miss silently."""
    out = frozenset(arrows)
    bad = [g for g in out if not 0 <= g < G.n]
    if bad:
        raise ValueError(f"arrow indices out of range: {sorted(bad)}")
    return out


# --- validation ---------------------------------------------------------

MALFORMED = "malformed-table"
UNIT_LAW = "unit-law"
IDENTITY_LAW = "identity-law"
COMPATIBILITY = "compatibility"
ASSOCIATIVITY = "associativity"
INVERSE_LAW = "inverse-law"


@dataclass(frozen=True)
class AxiomViolation:
    kind: str
    message: str
    witness: tuple

    def __repr__(self) -> str:
        return f"AxiomViolation({self.kind}: {self.message})"


def _check_malformed(G: FiniteGroupoid) -> list[AxiomViolation]:
    out = []
    n = G.n
    if len(G.src) != n or len(G.rng) != n or len(G.inv) != n or len(G.labels) != n:
        out.append(AxiomViolation(MALFORMED, "table lengths disagree with n", (n,)))
        return out
    for x in G.units:
        if not (0 <= x < n):
            out.append(AxiomViolation(MALFORMED, "unit index out of range", (x,)))
    for g in range(n):
        for name, table in (("src", G.src), ("rng", G.rng), ("inv", G.inv)):
            if not (0 <= table[g] < n):
                out.append(AxiomViolation(MALFORMED, f"{name}({g}) out of range", (g, table[g])))
    if out:
        return out
    for g in range(n):
        for name, table in (("src", G.src), ("rng", G.rng)):
            if table[g] not in G.units:
                out.append(AxiomViolation(MALFORMED, f"{name}({g}) is not a unit", (g, table[g])))
    for (a, b), c in G.comp.items():
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            out.append(AxiomViolation(MALFORMED, "comp entry out of range", (a, b, c)))
        elif G.src[a] != G.rng[b]:
            out.append(AxiomViolation(MALFORMED, "comp defined on non-composable pair", (a, b)))
    by_rng = _arrows_by(G.rng)
    out.extend(AxiomViolation(MALFORMED, "comp undefined on composable pair", (a, b))
               for a in range(n) for b in by_rng.get(G.src[a], ()) if (a, b) not in G.comp)
    return out


def _product_rows(G: FiniteGroupoid, into: dict, pos: dict) -> dict[int, tuple[int, ...]] | None:
    """Each arrow's row of products, rows[a][j] = a.c for c = into[src(a)][j]
    and pos[c] = j, by one pass over comp; None unless every index is in range
    and comp holds exactly the composable pairs, which fill one slot each."""
    n, units, src, rng, comp = G.n, G.units, G.src, G.rng, G.comp
    if (len(src) != n or len(rng) != n or len(G.inv) != n or len(G.labels) != n
            or not all(0 <= x < n for x in units) or not all(0 <= h < n for h in G.inv)
            or not units.issuperset(src) or not units.issuperset(rng)):
        return None
    rows = {a: [None] * len(into.get(src[a], ())) for a in range(n)}
    try:
        for (a, b), c in comp.items():
            if src[a] != rng[b]:
                return None
            rows[a][pos[b]] = c
    except (IndexError, KeyError):   # src and rng wrap a negative index; rows and pos do not
        return None
    if len(comp) != sum(map(len, rows.values())) or comp and not (
            0 <= min(comp.values()) and max(comp.values()) < n):
        return None
    return {a: tuple(row) for a, row in rows.items()}


def _arrows_by(table: tuple[int, ...]) -> dict[int, list[int]]:
    """Arrows grouped by their entry in table (src or rng), each list ascending."""
    out: dict[int, list[int]] = {}
    for g, x in enumerate(table):
        out.setdefault(x, []).append(g)
    return out


def generating_arrows(G: FiniteGroupoid) -> list[int]:
    """A greedy generating set S: each arrow, in order, that right-multiplying
    the units by earlier members of S has not reached.

    Every arrow is in S or a left-nested product ((u s1) s2)... of a unit and
    members of S.  Building S reads comp and assumes no associativity.
    ``validate`` tests associativity on the units and S alone, and
    ``algebra.commutator_ideal`` closes its ideal over them.
    """
    comp, src, rng = G.comp, G.src, G.rng
    reached = set(G.units)
    reached_by_src: dict[int, list[int]] = {x: [x] for x in G.units}
    gens: list[int] = []
    gens_by_rng: dict[int, list[int]] = {x: [] for x in G.units}
    for g in G.arrows():
        if g in reached:
            continue
        gens.append(g)
        gens_by_rng[rng[g]].append(g)
        # the reached arrows times g, then each new arrow times all of S
        frontier = [comp[(r, g)] for r in reached_by_src[rng[g]]]
        while frontier:
            new = []
            for p in frontier:
                if p not in reached:
                    reached.add(p)
                    reached_by_src[src[p]].append(p)
                    new.append(p)
            frontier = [comp[(p, t)] for p in new for t in gens_by_rng[src[p]]]
    return gens


def validate(G: FiniteGroupoid) -> list[AxiomViolation]:
    """Check the groupoid axioms; return the violations found.

    Malformed tables (bad indices, comp not defined exactly on composable
    pairs) are reported alone, since the axiom checks assume well-formed
    tables.  The unit, identity, compatibility and inverse laws are checked
    on every arrow and every comp entry.  On success the list is empty.

    Associativity is decided by Light's test (Clifford & Preston, 1961,
    section 1.2), one level up from groups: (ab)c = a(bc) is tested for
    every composable a and c, but only for middle arrows b among the units
    and a generating set S (``generating_arrows``).  Call b good when
    (ab)c = a(bc) for all composable a, c.  Good arrows are closed under
    composition: for good b, b' and composable a, c,
    (a(bb'))c = ((ab)b')c = (ab)(b'c) = a(b(b'c)) = a((bb')c),
    using b, b', b, b' in turn (compatibility, checked first, makes every
    product here defined).  Each arrow is in S or a left-nested product of a
    unit and members of S, so if the units and S are good, every arrow is:
    the table is associative.  The argument needs no identity law, but where
    it holds, every unit x is good untested: (ax)c = ac = a(xc), as
    a.src(a) = a and rng(c).c = c.  Both are checked on every arrow first,
    so the units are middles only on a table that breaks the identity law.
    Either way a failing table lists exactly its failing triples (a, b, c)
    with b among the units and S, in order of b.  The laws read each arrow's
    row of products (``_product_rows``).  For a middle b and each a out of
    rng b, (ab)c for every c into src b is the row of ab, and a(bc) is one
    ``itemgetter`` gather from the row of a at the places of b's row: a
    middle costs |arrows out of rng b| gathers.
    """
    src, rng, comp = G.src, G.rng, G.comp
    into = _arrows_by(rng)
    pos = {c: j for cs in into.values() for j, c in enumerate(cs)}
    rows = _product_rows(G, into, pos)
    if rows is None:
        return _check_malformed(G)

    out = [AxiomViolation(UNIT_LAW, "unit not fixed by src/rng", (x,))
           for x in sorted(G.units) if src[x] != x or rng[x] != x]
    if out:
        # src/rng of a unit feed the identity-law reads below; stop here.
        return out

    for g in G.arrows():
        if rows[g][pos[src[g]]] != g:
            out.append(AxiomViolation(IDENTITY_LAW, "g . src(g) != g", (g,)))
        if rows[rng[g]][pos[g]] != g:
            out.append(AxiomViolation(IDENTITY_LAW, "rng(g) . g != g", (g,)))
    identity_law_holds = not out

    for (a, b), c in comp.items():
        if src[c] != src[b] or rng[c] != rng[a]:
            out.append(AxiomViolation(COMPATIBILITY, "src/rng of composite disagree", (a, b, c)))
    if any(v.kind == COMPATIBILITY for v in out):
        # the associativity reads compose products further, which is only
        # well-defined once every product lands between the compatible units
        return out

    middles = generating_arrows(G)
    if not identity_law_holds:
        middles = sorted([*G.units, *middles])
    for b in middles:
        # a one-index gather returns a bare item, a one-slice gather a tuple
        at = [pos[bc] for bc in rows[b]]
        gather = itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))
        j = pos[b]
        for a in G.out_of.get(rng[b], ()):
            row = rows[a]
            left, right = rows[row[j]], gather(row)   # (ab)c, a(bc) for c into src(b)
            if left != right:
                out.extend(AxiomViolation(ASSOCIATIVITY, "(ab)c != a(bc)", (a, b, c))
                           for c, x, y in zip(into[src[b]], left, right) if x != y)

    for g, h in enumerate(G.inv):
        if comp.get((h, g)) != src[g] or comp.get((g, h)) != rng[g]:
            out.append(AxiomViolation(INVERSE_LAW, "inv(g).g != src(g) or g.inv(g) != rng(g)", (g, h)))
    return out


# --- structural subsets --------------------------------------------------

def isotropy(G: FiniteGroupoid) -> frozenset[int]:
    """Arrows with equal source and range.

    In the finite-discrete setting every such arrow is isolated, so this set
    is already open; no interior needs to be taken.
    """
    return frozenset(g for g in G.arrows() if G.src[g] == G.rng[g])


def fixed_points(G: FiniteGroupoid) -> frozenset[int]:
    """Units x such that every arrow out of x comes back to x.  G must be a
    groupoid: an arrow into x from elsewhere has an inverse out of x."""
    return frozenset(x for x in G.units if all(G.rng[g] == x for g in G.out_of[x]))


def invariance_witness(G: FiniteGroupoid, F: Iterable[int]) -> int | None:
    """The least arrow leaving F (src in F, rng outside), or None if F is invariant."""
    mf = arrow_set(G, F)
    return min((g for x in mf for g in G.out_of.get(x, ()) if G.rng[g] not in mf), default=None)


class NotInvariantError(ValueError):
    """Raised when restricting to a non-invariant unit set; carries the witness arrow."""

    def __init__(self, witness: int, label: str):
        super().__init__(f"unit set is not invariant: arrow {label} leaves it")
        self.witness = witness


def restrict(G: FiniteGroupoid, F: Iterable[int]) -> FiniteGroupoid:
    """Full subgroupoid over an invariant set of units F.

    Arrow order and labels are inherited from the host; rejects non-units,
    and non-invariant F with the witness arrow in the error.
    """
    mf = arrow_set(G, F)
    bad = [x for x in mf if x not in G.units]
    if bad:
        raise ValueError(f"restriction set contains non-units: {sorted(bad)}")
    w = invariance_witness(G, mf)
    if w is not None:
        raise NotInvariantError(w, G.labels[w])
    return _restriction(G, mf)[0]


def _restriction(G: FiniteGroupoid, F: frozenset[int]) -> tuple[FiniteGroupoid, tuple[int, ...]]:
    """The full subgroupoid over F, an invariant unit set of the groupoid G
    (not checked), with the host index of each arrow, ascending.  Reads only
    the arrows out of F and their products; over every unit it is G."""
    kept = tuple(sorted(g for x in F for g in G.out_of[x]))
    if len(kept) == G.n:
        return G, kept
    index = {g: i for i, g in enumerate(kept)}
    comp = {(index[a], index[b]): index[G.comp[(a, b)]]
            for b in kept for a in G.out_of[G.rng[b]]}
    return FiniteGroupoid(
        n=len(kept),
        units=frozenset(index[x] for x in kept if x in G.units),
        src=tuple(index[G.src[g]] for g in kept),
        rng=tuple(index[G.rng[g]] for g in kept),
        comp=comp,
        inv=tuple(index[G.inv[g]] for g in kept),
        labels=tuple(G.labels[g] for g in kept),
    ), kept


def require_group_bundle(G: FiniteGroupoid) -> None:
    """Raise ValueError naming the first arrow that moves its source, if any."""
    bad = next((g for g in G.arrows() if G.src[g] != G.rng[g]), None)
    if bad is not None:
        raise ValueError(f"not a group bundle: arrow {G.labels[bad]} moves its source")


def unit_components(G: FiniteGroupoid) -> list[frozenset[int]]:
    """Partition of the units into connected components under arrows, by
    least unit.  G must be a groupoid: arrows compose and invert, so the
    component of x is the set of ranges of the arrows out of x."""
    comps = {min(c): c for c in (frozenset(G.rng[g] for g in G.out_of[x]) for x in G.units)}
    return [comps[x] for x in sorted(comps)]


def isotropy_group(G: FiniteGroupoid, x: int) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The isotropy group at the unit x and the arrows realizing it: element
    i is arrows[i], the i-th arrow out of x that returns to x, and the
    identity is x's index.  G must be a groupoid (not checked); its axioms
    make the table a group's, so it is built with no shape or axiom check."""
    if x not in G.units:
        raise ValueError(f"{x} is not a unit")
    arrows = tuple(g for g in G.out_of[x] if G.rng[g] == x)
    index = {g: i for i, g in enumerate(arrows)}
    table = tuple(tuple(index[G.comp[(a, b)]] for b in arrows) for a in arrows)
    return FiniteGroup(name=f"fiber@{G.labels[x]}", labels=tuple(G.labels[g] for g in arrows),
                       table=table, identity=index[x]), arrows


def disjoint_union(parts: list[FiniteGroupoid]) -> FiniteGroupoid:
    """Disjoint union; labels are prefixed with the part index to stay unique."""
    units: list[int] = []
    src: list[int] = []
    rng: list[int] = []
    inv: list[int] = []
    labels: list[str] = []
    comp: dict[tuple[int, int], int] = {}
    offset = 0
    for k, P in enumerate(parts):
        units.extend(x + offset for x in P.units)
        src.extend(x + offset for x in P.src)
        rng.extend(x + offset for x in P.rng)
        inv.extend(x + offset for x in P.inv)
        if len(parts) == 1:
            labels.extend(P.labels)
        else:
            labels.extend(f"{k}:{lab}" for lab in P.labels)
        for (a, b), c in P.comp.items():
            comp[(a + offset, b + offset)] = c + offset
        offset += P.n
    return FiniteGroupoid(n=offset, units=frozenset(units), src=tuple(src),
                          rng=tuple(rng), comp=comp, inv=tuple(inv), labels=tuple(labels))
