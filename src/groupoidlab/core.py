"""Finite groupoids as explicit arrow tables.

A groupoid is stored with arrows indexed 0..n-1: a set of unit indices, total
source/range maps into the units, the composition as rows of products, and a
total inversion map.  Everything is finite, so the usual axioms become
decidable table properties.  rows[a][j] is a.c for c the j-th arrow,
ascending, whose range is src(a): a row holds exactly the defined products.
Raw tables, their products as (a, b, a.b) triples, enter through one row
filler: ``FiniteGroupoid.from_comp`` for a mapping from pairs (a, b) to a.b,
and ``document.decode_groupoid`` for a document's triples.  Triples that
fill no rows raise ``MalformedTable``, which lists what is malformed when
its violations are first read.

Each groupoid carries three indices, built at construction: ``out_of`` and
``into``, the arrows out of and into each unit, and ``pos``, each arrow's
place among the arrows into its range.  Fibers, restrictions, components,
fixed points and quotients read them, so a per-unit lookup costs that
unit's arrows, not all n.  They are fields outside the constructor,
equality and repr, not ``cached_property``s: a write to an instance's
``__dict__`` after construction makes each later attribute read on it
(``G.src``, ``G.rows``) about 3x slower on CPython 3.11.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .groups import FiniteGroup


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid given by explicit tables on arrow indices 0..n-1.

    rows[a][j] is the arrow for "a after c", c = into[src(a)][j]: a pair
    (a, c) is composable exactly when src(a) == rng(c).  labels name arrows
    for serialization and never affect the algebra.  out_of[x] and into[x]
    list the arrows with source and with range x, ascending, for each x that
    occurs, and pos[c] is the place of c in into[rng(c)].
    """

    n: int
    units: frozenset[int]
    src: tuple[int, ...]
    rng: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    labels: tuple[str, ...]
    out_of: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    into: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    pos: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _generators: list = field(init=False, repr=False, compare=False)   # generating_arrows fills it

    def __post_init__(self):
        into, pos = _arrows_by(self.rng)
        object.__setattr__(self, "out_of", _arrows_by(self.src)[0])
        object.__setattr__(self, "into", into)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "_generators", [])

    @classmethod
    def from_comp(cls, n: int, units: frozenset[int], src: tuple[int, ...], rng: tuple[int, ...],
                  comp: Mapping, inv: tuple[int, ...], labels: tuple[str, ...]) -> FiniteGroupoid:
        """The groupoid whose products are comp, from each composable pair
        (a, b) to a.b; raises ``MalformedTable`` unless every index is in
        range, src and rng land on units and comp has exactly those pairs."""
        return _from_products(n, units, src, rng, [(a, b, c) for (a, b), c in comp.items()],
                              inv, labels)

    def arrows(self) -> range:
        return range(self.n)

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def __repr__(self) -> str:
        return f"FiniteGroupoid(n={self.n}, units={len(self.units)})"


def _from_products(n, units, src, rng, products: Sequence[tuple[int, int, int]], inv,
                   labels) -> FiniteGroupoid:
    """The groupoid whose products are the (a, b, a.b) triples; raises
    ``MalformedTable`` unless each is a composable pair in range, they fill
    every slot of the rows and the tables are well shaped.  The rows are
    laid out only when there are as many products as slots, so they are
    never larger than the products; then a repeated pair leaves a slot
    empty, which the shape check finds as a product out of range."""
    into, pos = _arrows_by(rng)
    widths = [len(into.get(x, ())) for x in src]
    if len(products) == sum(widths):
        rows = [[None] * k for k in widths]
        try:
            for a, b, c in products:
                row, j = rows[a], pos[b]
                if src[a] != rng[b] or a < 0 or b < 0:   # a negative index wraps
                    break
                row[j] = c
            else:
                G = FiniteGroupoid(n, units, src, rng, tuple(map(tuple, rows)), inv, labels)
                if _well_shaped(G):
                    return G
        except IndexError:   # a pair past the tables
            pass
    raise MalformedTable(n, units, src, rng, products, inv, labels)


def _arrows_by(table: tuple[int, ...]) -> tuple[dict[int, list[int]], tuple[int, ...]]:
    """Arrows grouped by their entry in table (src or rng), each list
    ascending, and each arrow's place in its group."""
    out: dict[int, list[int]] = {}
    places = []
    for g, x in enumerate(table):
        group = out.setdefault(x, [])
        places.append(len(group))
        group.append(g)
    return out, tuple(places)


def _gather(keys: Sequence) -> Callable[[Sequence], tuple]:
    """The package's one gather: the tuple of table[k] for k in keys, for any
    number of keys, which ``operator.itemgetter(*keys)`` returns for two or more."""
    if len(keys) == 1:
        key = keys[0]
        return lambda table: (table[key],)
    return operator.itemgetter(*keys) if keys else lambda table: ()


def arrow_set(G: FiniteGroupoid, arrows: Iterable[int]) -> frozenset[int]:
    """A carrier as a frozenset of arrow indices; raises ValueError naming
    every entry that is not an int in 0..n-1, which would wrap, miss or fail
    to index: ints ascending, then the rest by repr, as mixed lists do not sort."""
    out = frozenset(arrows)
    wide = sorted(g for g in out if isinstance(g, int) and not 0 <= g < G.n)
    other = sorted((g for g in out if not isinstance(g, int)), key=repr)
    faults = [f"{what}: {xs}" for what, xs in (("out of range", wide), ("not ints", other)) if xs]
    if faults:
        raise ValueError("arrow indices " + "; ".join(faults))
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


class MalformedTable(ValueError):
    """Raised where raw tables enter when their products fill no rows.  It
    keeps the tables as ``malformed_listing`` takes them; n and units are
    what they declared, and violations, their malformed listing, is made
    when first read, so a caller can refuse a table too large to list first."""

    def __init__(self, n: int, units: Iterable[int], *tables):
        super().__init__("malformed table: its products fill no rows")
        self.n, self.units, self._tables = n, units, (n, units, *tables)

    @cached_property
    def violations(self) -> list[AxiomViolation]:
        return malformed_listing(*self._tables)


def violations_of(G: FiniteGroupoid | MalformedTable) -> list[AxiomViolation]:
    """validate(G), or the listing of a table refused where it entered."""
    return G.violations if isinstance(G, MalformedTable) else validate(G)


def malformed_listing(n, units, src, rng, products, inv, labels) -> list[AxiomViolation]:
    """Every malformed-table violation of raw tables, products the (a, b, a.b)
    triples, no pair repeated, entry by entry; products None stands for rows
    that do not fit."""
    if len(src) != n or len(rng) != n or len(inv) != n or len(labels) != n:
        return [AxiomViolation(MALFORMED, "table lengths disagree with n", (n,))]
    out = []
    for x in units:
        if not (0 <= x < n):
            out.append(AxiomViolation(MALFORMED, "unit index out of range", (x,)))
    for g in range(n):
        for name, table in (("src", src), ("rng", rng), ("inv", inv)):
            if not (0 <= table[g] < n):
                out.append(AxiomViolation(MALFORMED, f"{name}({g}) out of range", (g, table[g])))
    if out:
        return out
    for g in range(n):
        for name, table in (("src", src), ("rng", rng)):
            if table[g] not in units:
                out.append(AxiomViolation(MALFORMED, f"{name}({g}) is not a unit", (g, table[g])))
    if products is None:
        out.append(AxiomViolation(MALFORMED, "rows do not fit src and rng", (n,)))
        return out
    for a, b, c in products:
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            out.append(AxiomViolation(MALFORMED, "comp entry out of range", (a, b, c)))
        elif src[a] != rng[b]:
            out.append(AxiomViolation(MALFORMED, "comp defined on non-composable pair", (a, b)))
    pairs = {(a, b) for a, b, _ in products}
    by_rng = _arrows_by(rng)[0]
    out.extend(AxiomViolation(MALFORMED, "comp undefined on composable pair", (a, b))
               for a in range(n) for b in by_rng.get(src[a], ()) if (a, b) not in pairs)
    return out


def _well_shaped(G: FiniteGroupoid) -> bool:
    """Every table has n entries, the units, inverses and products are in
    range, src and rng land on units, and each row has one slot for each
    arrow into its source: a few C-level passes."""
    n, units, rows = G.n, G.units, G.rows
    return (len(G.src) == len(G.rng) == len(G.inv) == len(G.labels) == len(rows) == n
            and units.issuperset(G.src) and units.issuperset(G.rng)
            and units.union(G.inv, chain.from_iterable(rows)).issubset(range(n))
            and tuple(map(len, rows)) == _gather(G.src)({x: len(G.into.get(x, ())) for x in units}))


def generating_arrows(G: FiniteGroupoid) -> list[int]:
    """A copy of ``greedy_generators`` on G's tables, walked once and kept in G's slot."""
    if not G._generators:
        G._generators.append(tuple(greedy_generators(G.rows, G.pos, G.src, G.rng, G.units)))
    return list(G._generators[0])


def greedy_generators(rows, pos, src, rng, units) -> list[int]:
    """A greedy generating set S of the groupoid with these tables: each
    arrow, in order, that right-multiplying the units by earlier members of
    S has not reached.  A group is the one-unit case (``groups.generating_set``).

    Every arrow is in S or a left-nested product ((u s1) s2)... of a unit and
    members of S.  Building S reads the rows and assumes no associativity.
    ``validate`` tests associativity on the units and S alone, and
    ``algebra.commutator_ideal`` closes its ideal over them.
    """
    reached = set(units)
    reached_by_src: dict[int, list[int]] = {x: [x] for x in units}
    gens: list[int] = []
    gens_by_rng: dict[int, list[int]] = {x: [] for x in units}
    for g in range(len(rows)):
        if g in reached:
            continue
        gens.append(g)
        gens_by_rng[rng[g]].append(g)
        # the reached arrows times g, then each new arrow times all of S
        j = pos[g]
        frontier = [rows[r][j] for r in reached_by_src[rng[g]]]
        while frontier:
            new = []
            for p in frontier:
                if p not in reached:
                    reached.add(p)
                    reached_by_src[src[p]].append(p)
                    new.append(p)
            frontier = [rows[p][pos[t]] for p in new for t in gens_by_rng[src[p]]]
    return gens


def associativity_failures(rows, pos, src, rng, out_of, into,
                           middles: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """Each (a, b, c) with (ab)c != a(bc) in the groupoid with these tables,
    for each middle b in turn, then a and c ascending, yielded as found.

    For a middle b and each a out of rng b, (ab)c for every c into src b is
    the row of ab, and a(bc) is one ``_gather`` from the row of a at the
    places of b's row: a middle costs |arrows out of rng b| gathers.
    """
    for b in middles:
        gather = _gather([pos[bc] for bc in rows[b]])
        j = pos[b]
        for a in out_of.get(rng[b], ()):
            row = rows[a]
            left, right = rows[row[j]], gather(row)   # (ab)c, a(bc) for c into src(b)
            if left != right:
                yield from ((a, b, c) for c, x, y in zip(into[src[b]], left, right) if x != y)


def validate(G: FiniteGroupoid) -> list[AxiomViolation]:
    """Check the groupoid axioms; return the violations found.

    A malformed table (an index out of range, src or rng off the units, rows
    that do not fit them) is reported alone, since the axiom checks assume
    well-formed tables; only a row table built directly can be one.  The
    unit, identity, compatibility and inverse laws are checked on every
    arrow and every product.  On success the list is empty.

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
    with b among the units and S, in order of b (``associativity_failures``).
    A group is the one-unit groupoid: ``groups.group_violations`` runs the
    same test on its table.
    """
    src, rng, rows, pos, into = G.src, G.rng, G.rows, G.pos, G.into
    if not _well_shaped(G):
        fits = len(rows) == len(src) and all(
            len(row) == len(into.get(x, ())) for row, x in zip(rows, src))
        products = [(a, b, c) for a, row in enumerate(rows)
                    for b, c in zip(into.get(src[a], ()), row)] if fits else None
        return malformed_listing(G.n, G.units, src, rng, products, G.inv, G.labels)

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

    # a.c runs from src(c) to rng(a)
    src_into = {x: tuple(src[c] for c in cs) for x, cs in into.items()}
    for a, row in enumerate(rows):
        ends = _gather(row)
        if ends(src) != src_into[src[a]] or ends(rng).count(rng[a]) != len(row):
            out.extend(AxiomViolation(COMPATIBILITY, "src/rng of composite disagree", (a, b, c))
                       for b, c in zip(into[src[a]], row) if src[c] != src[b] or rng[c] != rng[a])
    if any(v.kind == COMPATIBILITY for v in out):
        # the associativity reads compose products further, which is only
        # well-defined once every product lands between the compatible units
        return out

    middles = generating_arrows(G)
    if not identity_law_holds:
        middles = sorted([*G.units, *middles])
    out.extend(AxiomViolation(ASSOCIATIVITY, "(ab)c != a(bc)", t)
               for t in associativity_failures(rows, pos, src, rng, G.out_of, into, middles))

    for g, h in enumerate(G.inv):
        if (src[h] != rng[g] or rows[h][pos[g]] != src[g]
                or src[g] != rng[h] or rows[g][pos[h]] != rng[g]):
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
    the arrows out of F and their rows, which list the same products in
    the same order, renumbered; over every unit it is G."""
    kept = tuple(sorted([g for x in F for g in G.out_of[x]]))
    if len(kept) == G.n:
        return G, kept
    index = {g: i for i, g in enumerate(kept)}
    at = _gather(kept)
    return FiniteGroupoid(
        n=len(kept),
        units=frozenset([index[x] for x in F]),
        src=_gather(at(G.src))(index),
        rng=_gather(at(G.rng))(index),
        rows=tuple([_gather(row)(index) for row in at(G.rows)]),
        inv=_gather(at(G.inv))(index),
        labels=at(G.labels),
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
    rng = G.rng
    arrows = tuple([g for g in G.out_of[x] if rng[g] == x])
    index = {g: i for i, g in enumerate(arrows)}
    at = _gather(arrows)
    columns = _gather(at(G.pos))   # the places of the arrows in each row
    table = tuple([_gather(columns(row))(index) for row in at(G.rows)])
    return FiniteGroup(name=f"fiber@{G.labels[x]}", labels=at(G.labels),
                       table=table, identity=index[x]), arrows


def disjoint_union(parts: list[FiniteGroupoid]) -> FiniteGroupoid:
    """Disjoint union; labels are prefixed with the part index to stay unique."""
    units: list[int] = []
    src: list[int] = []
    rng: list[int] = []
    inv: list[int] = []
    labels: list[str] = []
    rows: list[tuple[int, ...]] = []
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
        # a part keeps its arrows' order, so each row moves by the offset
        rows.extend(P.rows if not offset else
                    (tuple([c + offset for c in row]) for row in P.rows))
        offset += P.n
    return FiniteGroupoid(n=offset, units=frozenset(units), src=tuple(src),
                          rng=tuple(rng), rows=tuple(rows), inv=tuple(inv), labels=tuple(labels))
