"""References and exhaustive checkers that only the tests call.

The general-element convolution algebra over exact Gaussian rationals, and
the complex values of characters and of the bundle transform, are the
reference for the package's arrow maps, partitions and integer exponents.
Each checker tests an identity from its definition by brute force.  The hom
checkers read a hom only through ``apply(h, delta(...))``, never through its
arrow map, so they stay independent of the partition ``AlgebraHom.kernel``
reads.

What it holds:
- the reference algebra: sparse elements with ``Fraction`` real and
  imaginary parts, convolution, the involution, ``apply(h, f)`` for an
  induced hom, the restriction hom and hom composition;
- the complex values of characters, character functionals and the bundle
  transform, the only floating point in the tests' references; numpy's
  determinant of the transform's dense complex matrix is the tests'
  independent check of ``algebra.gelfand_violations``' exact verdict;
- the ``is_effective`` and ``is_group_bundle`` predicates;
- checkers of a hom's multiplicativity, *-preservation and surjectivity,
  of an ideal's two-sided closure, and of characters and character
  functionals as homomorphisms;
- brute-force routes that package routines are tested against:
  - the cubic associativity loop, for ``groups.group_violations``, which
    is ``core.validate``'s Light's test on the one-unit groupoid;
  - the filter over every subgroup, for ``groups.normal_subgroups``;
  - the filter over every per-unit product of normal subgroups, for the
    transport in ``quotients.enumerate_normal_subgroupoids``;
  - the validator by tuple-keyed lookups and the generating set
    recomputed from its definition, for ``core.validate`` and
    ``core.generating_arrows``;
  - the two-sided subgroup closure and the per-value character formula,
    for ``groups.closure`` and ``abelian.characters``;
  - the full-table commutation scan, for ``groups.is_abelian``.
"""

import cmath
import dataclasses
import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable

from groupoidlab import abelian, core, generators, groups, quotients
from groupoidlab.abelian import Character, FiniteAbelianGroup
from groupoidlab.algebra import AlgebraHom, CharacterFunctional, GelfandMatrix
from groupoidlab.core import FiniteGroupoid
from groupoidlab.groups import FiniteGroup
from groupoidlab.linalg import BinomialSpan, Echelon, Qi, as_qi, vec_iadd_scaled
from groupoidlab.snf import smith_normal_form

QI0, QI1, QI_I = Qi(0), Qi(1), Qi(0, 1)


# --- products keyed by pair -------------------------------------------------

# id(G) -> (G, its products) for the last groupoids read; an entry keeps its
# groupoid alive, so no other object can take its id while it is here.
_PRODUCTS: dict[int, tuple] = {}
PRODUCTS_KEPT = 16


def products(G) -> Mapping[tuple[int, int], int]:
    """Each composable pair (a, b) of G to a.b, (a, b) ascending: the
    pair-keyed table every reference reads.  It is read from a groupoid's
    rows once per groupoid, kept for the last PRODUCTS_KEPT and shared
    read-only, so a caller that changes it changes a copy; a RawTable's
    comp is its own."""
    if isinstance(G, RawTable):
        return G.comp
    hit = _PRODUCTS.get(id(G))
    if hit is None:
        if len(_PRODUCTS) >= PRODUCTS_KEPT:
            del _PRODUCTS[next(iter(_PRODUCTS))]
        pairs = {(a, b): c for a, row in enumerate(G.rows)
                 for b, c in zip(G.into.get(G.src[a], ()), row)}
        hit = _PRODUCTS[id(G)] = (G, MappingProxyType(pairs))
    return hit[1]


# --- the reference algebra ------------------------------------------------

@dataclass
class AlgebraElement:
    """A function on arrows with Gaussian-rational values, sparsely stored."""

    host: FiniteGroupoid
    coeffs: dict[int, Qi]

    def __add__(self, other):
        self._same_host(other)
        out = dict(self.coeffs)
        vec_iadd_scaled(out, other.coeffs, QI1)
        return AlgebraElement(self.host, out)

    def __sub__(self, other):
        self._same_host(other)
        out = dict(self.coeffs)
        vec_iadd_scaled(out, other.coeffs, Qi(-1))
        return AlgebraElement(self.host, out)

    def __mul__(self, other):
        return convolve(self, other)

    def scaled(self, c) -> "AlgebraElement":
        c = as_qi(c)
        if not c:
            return AlgebraElement(self.host, {})
        return AlgebraElement(self.host, {k: c * v for k, v in self.coeffs.items()})

    def star(self) -> "AlgebraElement":
        return involute(self)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _same_host(self, other):
        if self.host != other.host:
            raise ValueError("elements of different groupoid algebras")


def from_coeffs(G: FiniteGroupoid, coeffs: dict) -> AlgebraElement:
    out = {}
    for k, v in coeffs.items():
        q = as_qi(v)
        if q:
            if not (0 <= k < G.n):
                raise ValueError(f"coefficient index {k} out of range")
            out[k] = q
    return AlgebraElement(G, out)


def zero(G: FiniteGroupoid) -> AlgebraElement:
    return AlgebraElement(G, {})


def delta(G: FiniteGroupoid, g: int) -> AlgebraElement:
    if not (0 <= g < G.n):
        raise ValueError(f"arrow index {g} out of range")
    return AlgebraElement(G, {g: QI1})


def unit_element(G: FiniteGroupoid) -> AlgebraElement:
    """The multiplicative unit: the sum of the unit deltas."""
    return AlgebraElement(G, {x: QI1 for x in G.units})


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f*g)(c) sums f(a) g(b) over factorizations c = a.b."""
    f._same_host(g)
    G = f.host
    comp = products(G)
    out: dict[int, Qi] = {}
    for a, ca in f.coeffs.items():
        for b, cb in g.coeffs.items():
            c = comp.get((a, b))
            if c is not None:
                s = out.get(c, QI0) + ca * cb
                if s:
                    out[c] = s
                else:
                    del out[c]
    return AlgebraElement(G, out)


def involute(f: AlgebraElement) -> AlgebraElement:
    """f*(g) = conj(f(g^-1)); an antimultiplicative involution."""
    G = f.host
    return AlgebraElement(G, {G.inv[k]: v.conjugate() for k, v in f.coeffs.items()})


def apply(h: AlgebraHom, f: AlgebraElement) -> AlgebraElement:
    """The image of f: each coefficient moves to its arrow's image, or vanishes."""
    if f.host != h.domain:
        raise ValueError("element not in the domain algebra")
    acc: dict[int, Qi] = {}
    for k, c in f.coeffs.items():
        t = h.arrow_map[k]
        if t is not None:
            vec_iadd_scaled(acc, {t: QI1}, c)
    return AlgebraElement(h.codomain, acc)


def compose_homs(outer: AlgebraHom, inner: AlgebraHom) -> AlgebraHom:
    if inner.codomain != outer.domain:
        raise ValueError("homomorphisms do not compose")
    arrow_map = tuple(None if t is None else outer.arrow_map[t] for t in inner.arrow_map)
    return AlgebraHom(domain=inner.domain, codomain=outer.codomain, arrow_map=arrow_map)


def restriction_hom(G: FiniteGroupoid, F: Iterable[int]) -> AlgebraHom:
    """Restriction of functions to the subgroupoid over an invariant unit set,
    whose arrows are the host's arrows out of F, in host order."""
    F = frozenset(F)
    index = {g: i for i, g in enumerate(g for g in G.arrows() if G.src[g] in F)}
    return AlgebraHom(G, core.restrict(G, F), tuple(map(index.get, G.arrows())))


# --- numeric values ---------------------------------------------------------

def root_of_unity(e: int, m: int) -> complex:
    """exp(2 pi i e / m)."""
    return cmath.exp(2j * cmath.pi * (e % m) / m)


def qi_complex(q: Qi) -> complex:
    return complex(q.re) + 1j * complex(q.im)


def character_value(chi: Character, a: int) -> complex:
    """The value of chi at element a of its group."""
    return root_of_unity(chi.exps[a], chi.modulus)


def evaluate(phi: CharacterFunctional, f: AlgebraElement) -> complex:
    """phi(f): phi is a root of unity on each delta of its support, 0 elsewhere."""
    if f.host != phi.host:
        raise ValueError("element of a different groupoid algebra")
    return sum((qi_complex(c) * root_of_unity(phi.exponents[g], phi.modulus)
                for g, c in f.coeffs.items() if g in phi.exponents), start=0j)


def gelfand_complex(gm: GelfandMatrix) -> list[list[complex]]:
    """The transform as a dense numeric matrix: each row's roots of unity on
    its fiber, zero on every other arrow."""
    return [[root_of_unity(phi.exponents[g], phi.modulus) if g in phi.exponents else 0j
             for g in gm.host.arrows()]
            for phi in gm.rows]


# --- exhaustive checkers ----------------------------------------------------

def is_effective(G: FiniteGroupoid) -> bool:
    """True when the only arrows fixing their source are the units."""
    return core.isotropy(G) == G.units


def is_group_bundle(G: FiniteGroupoid) -> bool:
    """True when every arrow has equal source and range."""
    return len(core.isotropy(G)) == G.n


def hom_images(h: AlgebraHom) -> list:
    """The image of each basis delta, in arrow order."""
    return [apply(h, delta(h.domain, g)) for g in h.domain.arrows()]


def hom_multiplicativity_violations(h: AlgebraHom, limit: int = 1) -> list[tuple[int, int]]:
    """Basis pairs where phi(d_a * d_b) != phi(d_a) * phi(d_b)."""
    images = hom_images(h)
    out = []
    for a in h.domain.arrows():
        for b in h.domain.arrows():
            lhs = apply(h, convolve(delta(h.domain, a), delta(h.domain, b)))
            if lhs != convolve(images[a], images[b]):
                out.append((a, b))
                if len(out) >= limit:
                    return out
    return out


def hom_star_violations(h: AlgebraHom, limit: int = 1) -> list[int]:
    images = hom_images(h)
    out = []
    for a in h.domain.arrows():
        if apply(h, involute(delta(h.domain, a))) != involute(images[a]):
            out.append(a)
            if len(out) >= limit:
                return out
    return out


def hom_is_surjective(h: AlgebraHom) -> bool:
    ech = Echelon()
    for img in hom_images(h):
        ech.insert(img.coeffs)
    return ech.rank == h.codomain.n


def shifts(G: FiniteGroupoid, g: int, row: dict) -> tuple[tuple[str, dict], ...]:
    """Translates of row by arrow g: d_g * row on the left, row * d_g on the right."""
    comp = products(G)
    return (("left", {comp[g, b]: c for b, c in row.items() if (g, b) in comp}),
            ("right", {comp[a, g]: c for a, c in row.items() if (a, g) in comp}))


def ideal_closure_violations(G: FiniteGroupoid, span: BinomialSpan,
                             limit: int = 1) -> list[tuple[int, int, str]]:
    """Shifts of basis vectors that escape the span (empty for a two-sided ideal)."""
    out = []
    for i, row in enumerate(span.vectors()):
        for g in G.arrows():
            for side, shifted in shifts(G, g, row):
                if shifted and not span.contains(shifted):
                    out.append((i, g, side))
                    if len(out) >= limit:
                        return out
    return out


def diagonal_basis(G: FiniteGroupoid) -> list[dict]:
    """Delta vectors of the units: the canonical commutative diagonal."""
    return [{x: QI1} for x in sorted(G.units)]


def functional_multiplicativity_violations(phi: CharacterFunctional,
                                           limit: int = 1) -> list[tuple[int, int]]:
    """Basis pairs where phi(d_a * d_b) != phi(d_a) phi(d_b), checked in exponents."""
    G = phi.host
    comp = products(G)
    out = []
    for a in G.arrows():
        ea = phi.exponents.get(a)
        for b in G.arrows():
            eb = phi.exponents.get(b)
            ab = comp.get((a, b))
            eab = None if ab is None else phi.exponents.get(ab)
            expected = None if (ea is None or eb is None) else (ea + eb) % phi.modulus
            if expected != eab:
                out.append((a, b))
                if len(out) >= limit:
                    return out
    return out


def functional_star_violations(phi: CharacterFunctional, limit: int = 1) -> list[int]:
    """Arrows where phi(d_g*) is not the conjugate of phi(d_g)."""
    G = phi.host
    out = []
    for g in G.arrows():
        e = phi.exponents.get(g)
        ei = phi.exponents.get(G.inv[g])
        bad = (e is None) != (ei is None) or (e is not None and (e + ei) % phi.modulus != 0)
        if bad:
            out.append(g)
            if len(out) >= limit:
                return out
    return out


def character_violations(chi: Character) -> list[str]:
    """Exhaustive homomorphism check in exponent arithmetic."""
    a = chi.host
    nn = chi.modulus
    out = []
    if chi.exps[a.identity] % nn != 0:
        out.append("identity not sent to 1")
    for x in range(a.order):
        for y in range(a.order):
            if (chi.exps[x] + chi.exps[y] - chi.exps[a.table[x][y]]) % nn != 0:
                out.append(f"not multiplicative at ({x},{y})")
    return out


def generator_test_fault(chi: Character) -> int | None:
    """The first g of ``groups.generating_set(chi.host)`` with
    chi(x g) != chi(x) + chi(g) mod N for some x, value by value; None when
    there is none."""
    a, nn, e = chi.host, chi.modulus, chi.exps
    return next((g for g in groups.generating_set(a)
                 if any((e[x] + e[g] - e[a.table[x][g]]) % nn for x in range(a.order))), None)


def looked_up_characters(chars: list[Character]) -> list[int]:
    """The characters whose rows ``abelian.char_group_structure`` looks up,
    in its order: the zero character, then each character, in list order,
    outside the subgroup that those before it generate.  The rest are
    composed."""
    nn = chars[0].modulus
    exps = [tuple(v % nn for v in chi.exps) for chi in chars]
    zero = exps.index((0,) * len(exps[0]))
    looked, span = [zero], {exps[zero]}
    for i, e in enumerate(exps):
        if e not in span:
            looked.append(i)
            while not (grown := {tuple((u + v) % nn for u, v in zip(s, e)) for s in span}) <= span:
                span |= grown
    return looked


def groupoid_associativity_violations(G: FiniteGroupoid) -> list[tuple[int, int, int]]:
    """Every triple (a, b, c) with (ab)c != a(bc), by the cubic loop over
    the composable pairs (a, b) and each c composable with b.  Needs a
    compatible table: every product lands between the right units."""
    by_rng: dict[int, list[int]] = {}
    for g in G.arrows():
        by_rng.setdefault(G.rng[g], []).append(g)
    comp = products(G)
    return [(a, b, c) for (a, b), ab in comp.items() for c in by_rng.get(G.src[b], ())
            if comp[(ab, c)] != comp[(a, comp[(b, c)])]]


def generating_arrows_by_definition(G: FiniteGroupoid) -> list[int]:
    """The greedy generating set from its definition: each arrow, in order,
    is kept iff it lies outside the closure of the units under right
    multiplication by the arrows kept before it, the closure recomputed
    from scratch for every arrow."""
    comp = products(G)
    kept: list[int] = []
    for g in G.arrows():
        closure = set(G.units)
        grew = True
        while grew:
            reached = {comp[(r, s)] for r in closure for s in kept if G.src[r] == G.rng[s]}
            grew = not reached <= closure
            closure |= reached
        if g not in closure:
            kept.append(g)
    return kept


@dataclass(frozen=True)
class RawTable:
    """A groupoid's tables as a caller gives them, with comp a dict from
    pairs (a, b) to a.b, malformed or not: what enters
    ``FiniteGroupoid.from_comp``."""

    n: int
    units: frozenset
    src: tuple
    rng: tuple
    comp: dict
    inv: tuple
    labels: tuple

    def arrows(self) -> range:
        return range(self.n)

    def build(self) -> FiniteGroupoid:
        return FiniteGroupoid.from_comp(self.n, self.units, self.src, self.rng, self.comp,
                                        self.inv, self.labels)


def validate_by_lookups(G: RawTable) -> list[core.AxiomViolation]:
    """The reference for ``core.validate`` on raw tables, and for the
    listing ``MalformedTable`` carries on a malformed one: the same checks,
    middles and violations in the same order, with every product read by a
    tuple-keyed comp lookup and the generating set taken from its
    definition.  Compatibility is listed in order of the pair (a, b)."""
    V = core.AxiomViolation
    malformed = _malformed_by_lookups(G)
    if malformed:
        return malformed

    out = []
    for x in sorted(G.units):
        if G.src[x] != x or G.rng[x] != x:
            out.append(V(core.UNIT_LAW, "unit not fixed by src/rng", (x,)))
    if out:
        return out

    for g in G.arrows():
        if G.comp[(g, G.src[g])] != g:
            out.append(V(core.IDENTITY_LAW, "g . src(g) != g", (g,)))
        if G.comp[(G.rng[g], g)] != g:
            out.append(V(core.IDENTITY_LAW, "rng(g) . g != g", (g,)))
    identity_law_holds = not out

    for (a, b), c in sorted(G.comp.items()):
        if G.src[c] != G.src[b] or G.rng[c] != G.rng[a]:
            out.append(V(core.COMPATIBILITY, "src/rng of composite disagree", (a, b, c)))
    if any(v.kind == core.COMPATIBILITY for v in out):
        return out

    comp, by_src, by_rng = G.comp, arrows_out_by_scan(G), _arrows_into(G)
    middles = generating_arrows_by_definition(G)
    if not identity_law_holds:
        middles = sorted([*G.units, *middles])
    for b in middles:
        cs = by_rng.get(G.src[b], ())
        bcs = [comp[(b, c)] for c in cs]
        for a in by_src.get(G.rng[b], ()):
            ab = comp[(a, b)]
            left = [comp[(ab, c)] for c in cs]
            right = [comp[(a, bc)] for bc in bcs]
            out.extend(V(core.ASSOCIATIVITY, "(ab)c != a(bc)", (a, b, c))
                       for c, x, y in zip(cs, left, right) if x != y)

    for g in G.arrows():
        h = G.inv[g]
        if G.comp.get((h, g)) != G.src[g] or G.comp.get((g, h)) != G.rng[g]:
            out.append(V(core.INVERSE_LAW, "inv(g).g != src(g) or g.inv(g) != rng(g)", (g, h)))
    return out


def _malformed_by_lookups(G: RawTable) -> list[core.AxiomViolation]:
    """Every malformed-table violation, listed entry by entry."""
    V, MALFORMED = core.AxiomViolation, core.MALFORMED
    out = []
    n = G.n
    if len(G.src) != n or len(G.rng) != n or len(G.inv) != n or len(G.labels) != n:
        return [V(MALFORMED, "table lengths disagree with n", (n,))]
    for x in G.units:
        if not (0 <= x < n):
            out.append(V(MALFORMED, "unit index out of range", (x,)))
    for g in range(n):
        for name, table in (("src", G.src), ("rng", G.rng), ("inv", G.inv)):
            if not (0 <= table[g] < n):
                out.append(V(MALFORMED, f"{name}({g}) out of range", (g, table[g])))
    if out:
        return out
    for g in range(n):
        for name, table in (("src", G.src), ("rng", G.rng)):
            if table[g] not in G.units:
                out.append(V(MALFORMED, f"{name}({g}) is not a unit", (g, table[g])))
    for (a, b), c in G.comp.items():
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            out.append(V(MALFORMED, "comp entry out of range", (a, b, c)))
        elif G.src[a] != G.rng[b]:
            out.append(V(MALFORMED, "comp defined on non-composable pair", (a, b)))
    by_rng = _arrows_into(G)
    for a in range(n):
        for b in by_rng.get(G.src[a], ()):
            if (a, b) not in G.comp:
                out.append(V(MALFORMED, "comp undefined on composable pair", (a, b)))
    return out


def _arrows_into(G: FiniteGroupoid) -> dict[int, list[int]]:
    return {x: [g for g in G.arrows() if G.rng[g] == x] for x in set(G.rng)}


def associativity_violations(g: FiniteGroup) -> list[tuple[int, int, int]]:
    """Every triple (i, j, k) with (i*j)*k != i*(j*k), by the cubic loop."""
    t = g.table
    return [(i, j, k) for i, j, k in itertools.product(range(g.order), repeat=3)
            if t[t[i][j]][k] != t[i][t[j][k]]]


def two_sided_closure(g: FiniteGroup, seed) -> frozenset[int]:
    """The subgroup the seed generates, by multiplying each new element by
    every element found so far, on both sides, until nothing new appears."""
    out = {g.identity} | set(seed)
    frontier = list(out)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(out):
                for z in (g.table[x][y], g.table[y][x]):
                    if z not in out:
                        out.add(z)
                        nxt.append(z)
        frontier = nxt
    return frozenset(out)


def characters_by_formula(a: FiniteAbelianGroup) -> list[Character]:
    """Every character of a, in residue order, each value the k-term sum
    sum_j r_j * coords[x][j] * (N / n_j) mod N over the invariant factors."""
    dec = abelian.invariant_factors(a)
    nn = a.exponent
    return [Character(host=a, exps=tuple(
                sum(r * c * (nn // d) for r, c, d in zip(residues, dec.coords[x], dec.factors)) % nn
                for x in range(a.order)))
            for residues in itertools.product(*(range(d) for d in dec.factors))]


def invariant_factors_by_relations(a: FiniteAbelianGroup) -> tuple[int, ...]:
    """The invariant factors from Smith normal form of every relation
    w(x) + e_i - w(x * g_i), one row per element x and generator g_i, read
    off a breadth-first word table over ``groups.generating_set``."""
    gens = groups.generating_set(a)
    k = len(gens)
    words = {a.identity: (0,) * k}
    queue = [a.identity]
    while queue:
        x = queue.pop()
        for i, g in enumerate(gens):
            y = a.table[x][g]
            if y not in words:
                words[y] = tuple(c + (j == i) for j, c in enumerate(words[x]))
                queue.append(y)
    assert len(words) == a.order
    relations = [[c + (j == i) - d for j, (c, d) in enumerate(zip(words[x], words[a.table[x][g]]))]
                 for x in range(a.order) for i, g in enumerate(gens)]
    return tuple(d for d in smith_normal_form(relations, width=k).diagonal if d != 1)


def normal_subgroups_by_filter(g: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup that each conjugate of each element keeps, in the
    order of ``groups.normal_subgroups``."""
    return [s for s in groups.subgroups(g)
            if all(g.table[g.table[a][h]][g.inverse(a)] in s for a in range(g.order) for h in s)]


def normal_subgroupoids_by_filter(G: FiniteGroupoid) -> list[quotients.NormalSubgroupoid]:
    """Every normal subgroupoid, by filtering the product of the fibers'
    normal subgroups, component by component, for conjugation closure; in
    the order of ``quotients.enumerate_normal_subgroupoids``."""
    per_unit: dict[int, list[frozenset[int]]] = {}
    for x in sorted(G.units):
        g, arrows = core.isotropy_group(G, x)
        per_unit[x] = [frozenset(arrows[i] for i in sub) for sub in normal_subgroups_by_filter(g)]

    comp = products(G)
    component_choices = []
    for comp_units in core.unit_components(G):
        units = sorted(comp_units)
        arrows = [a for a in G.arrows() if G.src[a] in comp_units]
        component_choices.append([
            choice for choice in (dict(zip(units, combo))
                                  for combo in itertools.product(*(per_unit[x] for x in units)))
            if all(comp[(comp[(a, h)], G.inv[a])] in choice[G.rng[a]]
                   for a in arrows for h in choice[G.src[a]])])

    out = [quotients.NormalSubgroupoid(G, frozenset().union(*(
               sub for choice in assignment for sub in choice.values())))
           for assignment in itertools.product(*component_choices)]
    out.sort(key=lambda h: (len(h.members), tuple(sorted(h.members))))
    return out


# --- the scans the per-unit index replaces --------------------------------

def arrows_out_by_scan(G: FiniteGroupoid) -> dict[int, list[int]]:
    """For each source that occurs, the arrows with that source, ascending,
    by testing every arrow against each source."""
    return {x: [g for g in range(len(G.src)) if G.src[g] == x] for x in set(G.src)}


def restriction_by_scan(G: FiniteGroupoid, F) -> tuple[FiniteGroupoid, tuple[int, ...]]:
    """The full subgroupoid over the unit set F, with the host index of each
    of its arrows, by filtering every arrow and every comp entry of G."""
    kept = tuple(g for g in G.arrows() if G.src[g] in F)
    index = {g: i for i, g in enumerate(kept)}
    return FiniteGroupoid.from_comp(
        n=len(kept),
        units=frozenset(index[x] for x in kept if x in G.units),
        src=tuple(index[G.src[g]] for g in kept),
        rng=tuple(index[G.rng[g]] for g in kept),
        comp={(index[a], index[b]): index[c]
              for (a, b), c in products(G).items() if a in index and b in index},
        inv=tuple(index[G.inv[g]] for g in kept),
        labels=tuple(G.labels[g] for g in kept),
    ), kept


def unit_components_by_union_find(G: FiniteGroupoid) -> list[frozenset[int]]:
    """The units joined along every arrow, by union-find, ordered by least
    unit."""
    parent = {x: x for x in G.units}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in G.arrows():
        a, b = find(G.src[g]), find(G.rng[g])
        if a != b:
            parent[a] = b
    comps: dict[int, set[int]] = {}
    for x in G.units:
        comps.setdefault(find(x), set()).add(x)
    return [frozenset(c) for _, c in sorted((min(c), c) for c in comps.values())]


def fixed_points_by_scan(G: FiniteGroupoid) -> frozenset[int]:
    """The units that no arrow joins to another unit, in either direction."""
    fixed = set(G.units)
    for g in G.arrows():
        if G.src[g] != G.rng[g]:
            fixed.discard(G.src[g])
            fixed.discard(G.rng[g])
    return frozenset(fixed)


def quotient_comp_by_pairs(G: FiniteGroupoid, qr: quotients.QuotientResult) -> dict:
    """The comp of the quotient in qr, by testing every ordered pair of class
    representatives (the least arrow of each class) for composability."""
    first: dict[int, int] = {}
    for a in G.arrows():
        first.setdefault(qr.class_map[a], a)
    reps = [first[i] for i in range(len(first))]
    comp = products(G)
    return {(i, j): qr.class_map[comp[(a, b)]]
            for i, a in enumerate(reps) for j, b in enumerate(reps) if G.src[a] == G.rng[b]}


# --- the all-pairs constructions the generating sets replace ---------------

def commutator_ideal_over_all_pairs(G: FiniteGroupoid) -> BinomialSpan:
    """The commutator ideal as a partition, seeded with delta_ab - delta_ba
    (delta_ab alone where ba is undefined) for every comp entry (a, b), each
    generator that grew the span shifted left and right by every arrow it
    composes with.  Needs no generating set and no associativity."""
    span = BinomialSpan()
    grown: list[tuple[int, ...]] = []

    def feed(arrows: tuple[int, ...]):
        if span.union(*arrows) if len(arrows) == 2 else span.kill(*arrows):
            grown.append(arrows)

    comp = products(G)
    left: dict[int, dict[int, int]] = {}    # left[u][g] = g.u
    right: dict[int, dict[int, int]] = {}   # right[u][g] = u.g
    for (a, b), ab in comp.items():
        left.setdefault(b, {})[a] = ab
        right.setdefault(a, {})[b] = ab
        ba = comp.get((b, a))
        feed((ab,) if ba is None else (ab, ba))
    while grown and span.rank < G.n:
        arrows = grown.pop()
        for side in (left, right):
            shifts = [side.get(u, {}) for u in arrows]
            for g in set().union(*shifts):
                feed(tuple(by[g] for by in shifts if g in by))
    return span


def commutes_by_table(g: FiniteGroup) -> bool:
    """Whether every pair of elements commutes, by the full-table scan."""
    return all(g.table[i][j] == g.table[j][i] for i in range(g.order) for j in range(i))


def direct_product_table(a: FiniteGroup, b: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The table of a x b entry by entry, (i, j) at index i * |b| + j."""
    nb = b.order
    return tuple(tuple(a.table[i // nb][j // nb] * nb + b.table[i % nb][j % nb]
                       for j in range(a.order * nb)) for i in range(a.order * nb))


# --- instrumentation and uncached builders --------------------------------

# Every function behind ``groups.table_memo``; the uncached one is
# fn.__wrapped__.
TABLE_MEMOS = (groups.generating_set, groups.normal_subgroups,
               groups.commutator_subgroup, abelian.invariant_factors)


def clear_table_memos() -> None:
    for fn in TABLE_MEMOS:
        fn.memo.clear()


def product_reads(fn, G: FiniteGroupoid):
    """(reads, fn(G)): fn run on a copy of G whose rows count each product
    read, by index or by an ``itemgetter`` gather, one per product."""
    count = 0

    class Counted(tuple):
        def __getitem__(self, i):
            nonlocal count
            count += 1 if isinstance(i, int) else len(range(*i.indices(len(self))))
            return tuple.__getitem__(self, i)

    result = fn(dataclasses.replace(G, rows=tuple(map(Counted, G.rows))))
    return count, result


def random_groupoid_uncached(seed: int, size_budget: int, library) -> FiniteGroupoid:
    """``generators.random_groupoid`` drawing from library, a list of each
    library group with its subgroups, and building every component afresh
    from its drawn group and subgroup: the same draws, nothing cached."""
    rng = random.Random(seed)
    parts: list[FiniteGroupoid] = []
    remaining = size_budget
    attempts = 0
    while remaining >= 1 and attempts < 16:
        g, subs = library[rng.randrange(len(library))]
        sub = subs[rng.randrange(len(subs))]
        cost = g.order * (g.order // len(sub))
        if cost > remaining:
            attempts += 1
            continue
        parts.append(generators.transformation_groupoid(generators._coset_action(g, sub)))
        remaining -= cost
        attempts = 0
    return core.disjoint_union(parts or [generators.trivial_groupoid(1)])
