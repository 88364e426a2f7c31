"""Exhaustive checkers that only the tests call, each testing an identity from
its definition by brute force.  The hom checkers read a hom only through
``apply(delta(...))``, never through its arrow map, so they stay independent
of the partition that ``AlgebraHom.kernel`` reads.
"""

import itertools

from groupoidlab import core, groups, quotients
from groupoidlab.abelian import Character
from groupoidlab.algebra import AlgebraHom, CharacterFunctional, convolve, delta, involute
from groupoidlab.core import FiniteGroupoid
from groupoidlab.groups import FiniteGroup
from groupoidlab.linalg import QI1, BinomialSpan, Echelon


def hom_images(h: AlgebraHom) -> list:
    """The image of each basis delta, in arrow order."""
    return [h.apply(delta(h.domain, g)) for g in h.domain.arrows()]


def hom_multiplicativity_violations(h: AlgebraHom, limit: int = 1) -> list[tuple[int, int]]:
    """Basis pairs where phi(d_a * d_b) != phi(d_a) * phi(d_b)."""
    images = hom_images(h)
    out = []
    for a in h.domain.arrows():
        for b in h.domain.arrows():
            lhs = h.apply(convolve(delta(h.domain, a), delta(h.domain, b)))
            if lhs != convolve(images[a], images[b]):
                out.append((a, b))
                if len(out) >= limit:
                    return out
    return out


def hom_star_violations(h: AlgebraHom, limit: int = 1) -> list[int]:
    images = hom_images(h)
    out = []
    for a in h.domain.arrows():
        if h.apply(involute(delta(h.domain, a))) != involute(images[a]):
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
    comp = G.comp
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
    out = []
    for a in G.arrows():
        ea = phi.exponents.get(a)
        for b in G.arrows():
            eb = phi.exponents.get(b)
            ab = G.comp.get((a, b))
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


def associativity_violations(g: FiniteGroup) -> list[tuple[int, int, int]]:
    """Every triple (i, j, k) with (i*j)*k != i*(j*k), by the cubic loop."""
    t = g.table
    return [(i, j, k) for i, j, k in itertools.product(range(g.order), repeat=3)
            if t[t[i][j]][k] != t[i][t[j][k]]]


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
        g, arrows = quotients.fiber_group(G, x)
        per_unit[x] = [frozenset(arrows[i] for i in sub) for sub in normal_subgroups_by_filter(g)]

    component_choices = []
    for comp_units in core.unit_components(G):
        units = sorted(comp_units)
        arrows = [a for a in G.arrows() if G.src[a] in comp_units]
        component_choices.append([
            choice for choice in (dict(zip(units, combo))
                                  for combo in itertools.product(*(per_unit[x] for x in units)))
            if all(G.comp[(G.comp[(a, h)], G.inv[a])] in choice[G.rng[a]]
                   for a in arrows for h in choice[G.src[a]])])

    out = [quotients.NormalSubgroupoid(G, frozenset().union(*(
               sub for choice in assignment for sub in choice.values())))
           for assignment in itertools.product(*component_choices)]
    out.sort(key=lambda h: (len(h.members), tuple(sorted(h.members))))
    return out
