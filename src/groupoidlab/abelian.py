"""Finite abelian groups, their invariant factors, and character duals.

Character values are roots of unity and are handled purely as exponents
modulo the group exponent, so everything here is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from operator import add

from . import core, groups
from .groups import FiniteGroup
from .snf import smith_normal_form

@dataclass(frozen=True)
class FiniteAbelianGroup(FiniteGroup):
    exponent: int   # lcm of element orders


def finite_abelian_group(labels, table, name: str = "A") -> FiniteAbelianGroup:
    """A finite abelian group from a multiplication table: validated as a
    group by ``groups.finite_group``, then checked to commute."""
    g = groups.finite_group(name, list(labels), [list(r) for r in table])
    if not groups.is_abelian(g):
        raise ValueError(f"{name}: multiplication table is not commutative")
    return _with_exponent(g)


def _with_exponent(g: FiniteGroup) -> FiniteAbelianGroup:
    """Abelian group g with its exponent read off the table: the lcm of the
    orders of ``groups.generating_set(g)``, since in an abelian group ord(xy)
    divides lcm(ord x, ord y).  Each caller has checked or built g as one;
    ``powers`` raises ValueError on a walk that misses the identity."""
    return FiniteAbelianGroup(g.name, g.labels, g.table, g.identity,
                              lcm(*map(g.order_of, groups.generating_set(g))))


@dataclass(frozen=True)
class CyclicDecomposition:
    """Invariant factors n_1 | n_2 | ... with realizing generators, for one
    multiplication table and identity, whatever the group's name and labels.

    coords[a] are the residues of element a in the cyclic factors, so
    a = prod generators[j] ** coords[a][j] uniquely; there is one per element.
    """

    factors: tuple[int, ...]
    generators: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]


@groups.table_memo
def invariant_factors(a: FiniteAbelianGroup) -> CyclicDecomposition:
    """Decompose a finite abelian group as a product of cyclic groups.

    A table that does not commute (``groups.is_abelian``) raises ValueError.
    The generators g_1..g_k are ``groups.generating_set(a)``, chosen
    greedily: g_i is the first element, in order, outside
    H_{i-1} = <g_1..g_{i-1}>.  Let m_i be the least m >= 1 with g_i^m in
    H_{i-1}.  Then H_i is the disjoint union of the cosets H_{i-1} g_i^e for
    0 <= e < m_i, and the word table grows as w(h g_i^e) = w(h) + e e_i,
    asserted to reach every element.  Each generator adds the relation
    r_i = m_i e_i - w(g_i^{m_i}).

    These k rows span the relation lattice L, the kernel of
    Z^k -> A, v -> prod g_i^{v_i}.  Each r_i lies in L, since w(h) maps to
    h for every h.  The rows are lower triangular with diagonal m_i, so
    their lattice has index prod m_i = |A| in Z^k, which is [Z^k : L] since
    the g_i generate A; a sublattice of L with the same index is L.  Smith
    normal form of this k x k matrix therefore gives the invariant factors
    of Z^k / L = A, and a realizing generator tuple from the rows of Vinv.
    Each m_i is at least 2, so k <= log2 |A|: at most 6 on the duality
    family.

    The coordinates come from the elements listed in the order of their
    residue tuples, the last factor's residue varying fastest: the list
    starts as the identity, and each factor replaces every element x by
    x g^0, ..., x g^(d-1), a gather of x's row at the factor's d powers.
    """
    if not groups.is_abelian(a):
        raise ValueError(f"{a.name}: multiplication table is not commutative")
    n = a.order
    table = a.table
    gen_powers: list[list[int]] = []   # the powers of g_1..g_k
    words: dict[int, tuple[int, ...]] = {a.identity: ()}   # trailing zeros left off
    relations: list[tuple[int, ...]] = []
    for i, g in enumerate(groups.generating_set(a)):
        below = {h: w + (0,) * (i - len(w)) for h, w in words.items()}   # H_{i-1}
        pw, m = a.powers(g), 1   # m <= len(pw), as g^len(pw) = e is in H_{i-1}
        while m < len(pw) and pw[m] not in below:
            for h, w in below.items():
                words[table[h][pw[m]]] = w + (m,)
            m += 1
        relations.append(tuple(-c for c in below[pw[m % len(pw)]]) + (m,))
        gen_powers.append(pw)
    assert len(words) == n
    k = len(gen_powers)

    s = smith_normal_form([r + (0,) * (k - len(r)) for r in relations], width=k)
    assert all(d > 0 for d in s.diagonal), "relation lattice must have full rank"

    factors = []
    powers = []   # powers[j][e] = generators[j] ** e
    for j, d in enumerate(s.diagonal):
        if d > 1:
            t = a.identity
            for pw, e in zip(gen_powers, s.vinv[j]):
                t = a.table[t][pw[e % len(pw)]]
            factors.append(d)
            powers.append(a.powers(t))
            assert len(powers[-1]) == d

    total = 1
    for d in factors:
        total *= d
    assert total == n

    elements = [a.identity]
    for pw in powers:
        rows = core._gather(elements)(table)
        elements = list(itertools.chain.from_iterable(map(core._gather(pw), rows)))
    coords = [None] * n
    for x, residues in zip(elements, itertools.product(*map(range, factors))):
        assert coords[x] is None
        coords[x] = residues
    return CyclicDecomposition(factors=tuple(factors), generators=tuple(pw[1] for pw in powers),
                               coords=tuple(coords))


@dataclass(frozen=True)
class Character:
    """A homomorphism into the roots of unity, stored as exponents.

    exps[a] = k, with 0 <= k < N, means the character sends element a to
    e^(2*pi*i*k/N) where N is the host group's exponent.
    """

    host: FiniteAbelianGroup
    exps: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.host.exponent


def characters(a: FiniteAbelianGroup) -> list[Character]:
    """All characters, ordered by factor residues (trivial character first).

    Residue r_j is the power of ``invariant_factors(a).generators[j]``, so
    the order follows those realizing generators: another choice of them
    lists the same characters in another order.

    Character r sends x to sum_j r_j * coords[x][j] * (N / n_j) mod N, for
    N the exponent and n_j the invariant factors.  It is built from its
    predecessor in residue order, the character whose last nonzero residue
    is one less, by adding basis character j's exponents: one addition
    mod N per value instead of a k-term sum.  The sums, each below 2N, are
    reduced by one ``core._gather`` from ``wrap``.

    N must be the largest invariant factor, 1 for the trivial group, or
    ValueError: a group built with the dataclass may carry any exponent.
    """
    dec = invariant_factors(a)
    nn = a.exponent
    if nn != (top := max(dec.factors, default=1)):
        raise ValueError(f"{a.name}: exponent {nn} is not the largest invariant factor {top}")
    wrap = tuple(range(nn)) * 2   # wrap[s] = s % nn for 0 <= s < 2 nn
    chars = [(0,) * a.order]
    for j, d in enumerate(dec.factors):
        basis = tuple(c[j] * (nn // d) for c in dec.coords)
        grown = []
        for exps in chars:
            for r in range(d):
                if r:
                    exps = core._gather([*map(add, exps, basis)])(wrap)
                grown.append(exps)
        chars = grown
    return [Character(host=a, exps=exps) for exps in chars]


def char_group_structure(fiber: list[Character]) -> FiniteAbelianGroup:
    """The character group under pointwise multiplication of values.

    Expects the complete character list of one group, each character with
    one value per element; exponents add modulo the host exponent.  The
    result has the same invariant factors as the original group.

    Each character is first checked to be a homomorphism on the generators,
    chi(x*g) = chi(x) + chi(g) for every x and each generator g, one tuple
    comparison per generator.  The elements g that satisfy this for every x
    are closed under products and hold the identity, a power of any
    generator, so the character is a homomorphism everywhere and its values
    on the generators determine it.  Characters are therefore keyed,
    compared and added by those k values instead of by all n.

    Exponents already in [0, N) are used as they are; a list with any other
    integer is reduced mod N first.

    The table row of key a lists the index of a + b for every key b.  Only
    the rows of the zero key and of each key that the rows before it do not
    reach are looked up in the key index: one gather from a ``wrap`` slice
    shifts each generator's column of keys, and one gather from the index
    reads the zipped sums.  Every other row is a + g, for a row a already
    filled and a looked-up key g, and is composed as row_a[row_g[j]] by one
    gather: exact, since key addition in (Z/N)^k is associative.
    The closure check still covers every pair.  The keys g with g + K in K
    are closed under addition, as (g + h) + K = g + (h + K) is in g + K, in
    K; they include every looked-up key, so they include every key.

    The order-1 host has no generator, so no column lists a sum to look up
    and its one row, (zero,), is set directly.
    """
    if not fiber:
        raise ValueError("empty character list")
    host = fiber[0].host
    if any(chi.host is not host and chi.host != host for chi in fiber):
        raise ValueError("characters of different groups")
    nn = host.exponent
    wrap = tuple(range(nn)) * 2   # wrap[s] = s % nn for 0 <= s < 2 nn
    gens = groups.generating_set(host)
    # products[g](values) reads the value at x*g for every x
    products = [(g, core._gather([row[g] for row in host.table])) for g in gens]
    key_of = core._gather(gens)
    keys = []
    for i, chi in enumerate(fiber):
        e = chi.exps
        if len(e) != host.order:
            raise ValueError(f"character {i} has {len(e)} values; "
                             f"{host.name} has {host.order} elements")
        if min(e) < 0 or max(e) >= nn:
            e = tuple(v % nn for v in e)
        add_to = core._gather(e)   # add_to(wrap[c:c + nn]) is every chi(x) + c mod nn
        for g, at_products in products:
            if at_products(e) != add_to(wrap[e[g]:e[g] + nn]):
                raise ValueError(f"character {i} is not a homomorphism at generator {g}")
        keys.append(key_of(e))
    index = {key: i for i, key in enumerate(keys)}
    if len(index) != len(fiber) or len(fiber) != host.order:
        raise ValueError("character list is not the complete dual")
    # columns[j](wrap[c:c + nn]) is (y_j + c) mod nn for every key y, in order
    columns = [core._gather(col) for col in zip(*keys)]

    def looked_up(i: int) -> tuple[int, ...]:
        sums = zip(*[col(wrap[c:c + nn]) for col, c in zip(columns, keys[i])])
        try:
            return core._gather([*sums])(index)
        except KeyError:
            raise ValueError("character list is not closed under products") from None

    zero = index.get((0,) * len(gens))
    if zero is None:   # a finite set of keys closed under addition holds 0
        raise ValueError("character list is not closed under products")
    rows: list[tuple[int, ...] | None] = [None] * len(keys)
    rows[zero] = looked_up(zero) if gens else (zero,)
    filled, looked = [zero], []
    for i in range(len(rows)):
        if rows[i] is None:
            rows[i] = looked_up(i)
            filled.append(i)
            looked.append((rows[i], core._gather(rows[i])))
            for a in filled:   # grows while it is walked
                row_a = rows[a]
                for row_g, compose in looked:
                    if rows[b := row_g[a]] is None:
                        rows[b] = compose(row_a)   # row_a[row_g[j]] for every j
                        filled.append(b)
    # Not validated: the table is addition of keys mod nn, so it is
    # associative and commutative, and the completeness and closure checks
    # above make it a subgroup.  _with_exponent reads its exponent.
    return _with_exponent(FiniteGroup(
        name=f"dual({host.name})", labels=tuple(f"chi{i}" for i in range(len(fiber))),
        table=tuple(rows), identity=zero))


# --- dual bundles over groupoids ----------------------------------------

@dataclass(frozen=True)
class DualBundle:
    """Per-unit character lists of an abelian group bundle.

    Element i of fiber_groups[x] is host.out_of[x][i] (``core.isotropy_group``),
    the arrow g at place host.pos[g] = i, so chi takes the value chi.exps[i] at g.
    """

    host: core.FiniteGroupoid
    base: tuple[int, ...]                       # unit indices, ascending
    fiber_groups: dict[int, FiniteAbelianGroup]
    fibers: dict[int, tuple[Character, ...]]

    def size(self) -> int:
        return sum(len(f) for f in self.fibers.values())


def dual_bundle(G: core.FiniteGroupoid) -> DualBundle:
    """Unit-by-unit character dual of an abelian group bundle.  G must be a
    groupoid: it is checked only for what its axioms do not give."""
    core.require_group_bundle(G)
    base = tuple(sorted(G.units))
    fiber_groups = {}
    for x in base:
        g = core.isotropy_group(G, x)[0]
        if not groups.is_abelian(g):
            raise ValueError(f"fiber at unit {G.labels[x]} is not abelian: "
                             f"{g.name}: multiplication table is not commutative")
        fiber_groups[x] = _with_exponent(g)
    return DualBundle(host=G, base=base, fiber_groups=fiber_groups,
                      fibers={x: tuple(characters(a)) for x, a in fiber_groups.items()})
