"""Finite abelian groups, their invariant factors, and character duals.

Character values are roots of unity and are handled purely as exponents
modulo the group exponent, so everything here is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from . import core, groups
from .groups import FiniteGroup
from .snf import smith_normal_form

# Decompositions kept by invariant_factors.  A seed-0 corpus of 200 instances
# asks for 209 distinct groups; the bound keeps a long run's memory fixed.
INVARIANT_FACTORS_CACHE_SIZE = 256


@dataclass(frozen=True)
class FiniteAbelianGroup(FiniteGroup):
    exponent: int   # lcm of element orders


def finite_abelian_group(labels, table, name: str = "A") -> FiniteAbelianGroup:
    """Build and validate a finite abelian group from a multiplication table."""
    g = groups.finite_group(name, list(labels), [list(r) for r in table])
    bad = groups.group_violations(g)
    if bad:
        raise ValueError(f"{name}: not a group: {bad[0]}")
    if not groups.is_abelian(g):
        raise ValueError(f"{name}: multiplication table is not commutative")
    return FiniteAbelianGroup(name=g.name, labels=g.labels, table=g.table,
                              identity=g.identity, exponent=g.exponent())


def abelianized(g: FiniteGroup, name: str | None = None) -> FiniteAbelianGroup:
    """View an already-commutative FiniteGroup as a FiniteAbelianGroup."""
    return finite_abelian_group(g.labels, g.table, name or g.name)


def _power(a: FiniteAbelianGroup, g: int, e: int) -> int:
    e %= a.order_of(g)
    out = a.identity
    for _ in range(e):
        out = a.table[out][g]
    return out


@dataclass(frozen=True)
class CyclicDecomposition:
    """Invariant factors n_1 | n_2 | ... with realizing generators.

    coords[a] are the residues of element a in the cyclic factors, so
    a = prod generators[j] ** coords[a][j] uniquely.
    """

    group: FiniteAbelianGroup
    factors: tuple[int, ...]
    generators: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=INVARIANT_FACTORS_CACHE_SIZE)
def invariant_factors(a: FiniteAbelianGroup) -> CyclicDecomposition:
    """Decompose a finite abelian group as a product of cyclic groups.

    A small generating set is chosen greedily; the relation lattice among the
    generators is spanned by the rows w(x) + e_i - w(x * g_i) read off a
    breadth-first word table, and Smith normal form of that matrix yields the
    invariant factors and a realizing generator tuple.
    """
    n = a.order
    gens = groups.generating_set(a)
    k = len(gens)

    words: dict[int, tuple[int, ...]] = {a.identity: (0,) * k}
    queue = [a.identity]
    while queue:
        x = queue.pop()
        for i, g in enumerate(gens):
            y = a.table[x][g]
            if y not in words:
                w = list(words[x])
                w[i] += 1
                words[y] = tuple(w)
                queue.append(y)
    assert len(words) == n

    relations = []
    for x in range(n):
        for i, g in enumerate(gens):
            row = list(words[x])
            row[i] += 1
            target = words[a.table[x][g]]
            row = [u - v for u, v in zip(row, target)]
            if any(row):
                relations.append(row)

    s = smith_normal_form(relations, width=k)
    assert all(d > 0 for d in s.diagonal), "relation lattice must have full rank"

    factors = []
    generators = []
    for j, d in enumerate(s.diagonal):
        if d > 1:
            t = a.identity
            for i, e in enumerate(s.vinv[j]):
                t = a.table[t][_power(a, gens[i], e)]
            assert a.order_of(t) == d
            factors.append(d)
            generators.append(t)

    total = 1
    for d in factors:
        total *= d
    assert total == n

    coords = [None] * n
    for residues in itertools.product(*(range(d) for d in factors)):
        x = a.identity
        for t, e in zip(generators, residues):
            x = a.table[x][_power(a, t, e)]
        assert coords[x] is None
        coords[x] = residues
    return CyclicDecomposition(group=a, factors=tuple(factors),
                               generators=tuple(generators),
                               coords=tuple(coords))


@dataclass(frozen=True)
class Character:
    """A homomorphism into the roots of unity, stored as exponents.

    exps[a] = k means the character sends element a to e^(2*pi*i*k/N) where
    N is the host group's exponent; factor_residues are the coordinates of
    the character against the invariant-factor decomposition.
    """

    host: FiniteAbelianGroup
    exps: tuple[int, ...]
    factor_residues: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.host.exponent


def characters(a: FiniteAbelianGroup) -> list[Character]:
    """All characters, ordered by factor residues (trivial character first)."""
    dec = invariant_factors(a)
    nn = a.exponent
    out = []
    for residues in itertools.product(*(range(d) for d in dec.factors)):
        exps = tuple(
            sum(r * c * (nn // d) for r, c, d in zip(residues, dec.coords[x], dec.factors)) % nn
            for x in range(a.order))
        out.append(Character(host=a, exps=exps, factor_residues=residues))
    return out


def char_group_structure(fiber: list[Character]) -> FiniteAbelianGroup:
    """The character group under pointwise multiplication of values.

    Expects the complete character list of one group; exponents add modulo
    the host exponent.  The result has the same invariant factors as the
    original group.

    Each character is first checked to be a homomorphism on the generators,
    chi(x*g) = chi(x) + chi(g) for every x and each generator g.  The
    elements g that satisfy this for every x are closed under products and
    hold the identity, a power of any generator, so the character is a
    homomorphism everywhere and its values on the generators determine it.
    Characters are therefore keyed, compared and added by those k values
    instead of by all n.
    """
    if not fiber:
        raise ValueError("empty character list")
    host = fiber[0].host
    if any(chi.host != host for chi in fiber):
        raise ValueError("characters of different groups")
    nn = host.exponent
    gens = groups.generating_set(host)
    columns = [(g, [row[g] for row in host.table]) for g in gens]   # x -> x*g
    for i, chi in enumerate(fiber):
        e = chi.exps
        for g, column in columns:
            if any((e[xg] - e[x] - e[g]) % nn for x, xg in enumerate(column)):
                raise ValueError(f"character {i} is not a homomorphism at generator {g}")
    keys = [tuple(chi.exps[g] % nn for g in gens) for chi in fiber]
    index = {key: i for i, key in enumerate(keys)}
    if len(index) != len(fiber) or len(fiber) != host.order:
        raise ValueError("character list is not the complete dual")
    table = []
    for x in keys:
        row = []
        for y in keys:
            s = tuple((u + v) % nn for u, v in zip(x, y))
            if s not in index:
                raise ValueError("character list is not closed under products")
            row.append(index[s])
        table.append(row)
    # Built directly, not through finite_abelian_group: the table is addition
    # of keys mod nn, so it is associative and commutative, and the
    # completeness and closure checks above make it a subgroup.  The order of
    # a character is nn / gcd(nn, its values on the generators).
    return FiniteAbelianGroup(
        name=f"dual({host.name})", labels=tuple(f"chi{i}" for i in range(len(fiber))),
        table=tuple(map(tuple, table)), identity=index[(0,) * len(gens)],
        exponent=lcm(*(nn // gcd(nn, *key) for key in index)))


# --- dual bundles over groupoids ----------------------------------------

@dataclass(frozen=True)
class DualBundle:
    """Per-unit character lists of an abelian group bundle."""

    host: core.FiniteGroupoid
    base: tuple[int, ...]                       # unit indices, ascending
    fiber_arrows: dict[int, tuple[int, ...]]    # unit -> arrows of its fiber
    fiber_groups: dict[int, FiniteAbelianGroup]
    fibers: dict[int, tuple[Character, ...]]

    def size(self) -> int:
        return sum(len(f) for f in self.fibers.values())


def abelian_fiber(G: core.FiniteGroupoid, x: int) -> tuple[FiniteAbelianGroup, tuple[int, ...]]:
    """The isotropy group at x as a FiniteAbelianGroup, with its arrow list."""
    arrows, table = core.isotropy_fiber(G, x)
    labels = [G.labels[g] for g in arrows]
    try:
        a = finite_abelian_group(labels, table, name=f"fiber@{G.labels[x]}")
    except ValueError as exc:
        raise ValueError(f"fiber at unit {G.labels[x]} is not abelian: {exc}") from exc
    return a, tuple(arrows)


def dual_bundle(G: core.FiniteGroupoid) -> DualBundle:
    """Unit-by-unit character dual of an abelian group bundle."""
    core.require_group_bundle(G)
    base = tuple(sorted(G.units))
    fiber_arrows = {}
    fiber_groups = {}
    fibers = {}
    for x in base:
        a, arrows = abelian_fiber(G, x)
        fiber_arrows[x] = arrows
        fiber_groups[x] = a
        fibers[x] = tuple(characters(a))
    return DualBundle(host=G, base=base, fiber_arrows=fiber_arrows,
                      fiber_groups=fiber_groups, fibers=fibers)
