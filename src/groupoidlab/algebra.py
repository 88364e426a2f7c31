"""The convolution *-algebra of a finite groupoid, through arrow maps and
partitions.

Basis deltas multiply by composition (delta_a * delta_b = delta_{a.b} when
composable, zero otherwise) and the involution is conjugate-transpose along
inversion.  Induced maps — restriction to an invariant unit set, pushforward
along a quotient, and their composite pi onto the abelianization — send each
delta to one delta or to zero, so they are stored as maps of arrows, and their
kernels and the commutator ideal are partitions of arrows (BinomialSpan), with
no elimination.  Characters are root-of-unity exponents.  No function here
builds a general element or a complex number: the general-element algebra over
Gaussian rationals is the tests' reference (tests/oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import abelian, core, quotients
from .abelian import Character, FiniteAbelianGroup
from .core import FiniteGroupoid
from .linalg import BinomialSpan


# --- induced homomorphisms ------------------------------------------------

@dataclass
class AlgebraHom:
    """A linear map between groupoid algebras induced by a map of arrows.

    arrow_map[g] is the codomain arrow that delta_g goes to, or None where
    delta_g goes to zero.  Restriction, quotient pushforward, pi and their
    compositions all have this shape.
    """

    domain: FiniteGroupoid
    codomain: FiniteGroupoid
    arrow_map: tuple[int | None, ...]

    def kernel(self) -> BinomialSpan:
        return arrow_map_kernel(self.arrow_map)


def arrow_map_kernel(arrow_map: tuple[int | None, ...]) -> BinomialSpan:
    """The kernel of the map that sends delta_g to delta_{arrow_map[g]}, or
    to zero where that is None: the partition of arrow_map, with arrows of
    the same image joined and arrows sent to zero killed.  It depends on
    the arrow map alone, not on the codomain's tables."""
    span = BinomialSpan()
    first: dict[int, int] = {}
    for g, t in enumerate(arrow_map):
        if t is None:
            span.kill(g)
        elif t in first:
            span.union(first[t], g)
        else:
            first[t] = g
    return span


# --- the commutator ideal -------------------------------------------------

def commutator_ideal(G: FiniteGroupoid) -> BinomialSpan:
    """The smallest closed two-sided ideal containing all basis commutators.

    G must be a groupoid.  Let S be the units together with
    ``core.generating_arrows(G)``: every arrow g is a left-nested product
    ((u s1) s2)...sk of a unit and members of S, so by associativity
    delta_g = delta_u * delta_s1 * ... * delta_sk.  Two consequences:

    - A subspace closed under left and right multiplication by every
      delta_s is closed under every delta_g, and so is a two-sided ideal.
    - The commutators [delta_s, delta_t] for s, t in S generate the same
      ideal J as all basis commutators.  By [xy, z] = x[y, z] + [x, z]y,
      for fixed z the x with [x, z] in J are closed under products; they
      include S when z is in S, hence every delta_g.  By
      [x, yz] = [x, y]z + y[x, z] the same holds in the second slot.

    So the closure seeds with delta_st - delta_ts for s != t in S (delta_st
    alone where ts is undefined; [delta_s, delta_s] = 0, which covers every
    pair of units), then shifts each generator that grew the span left and
    right by every member of S it composes with.  Both sides are needed: on
    a group the left shifts alone close to the left ideal C[G](H - 1), for H
    the subgroup generated by the s^-1 t^-1 s t with s, t in S, and H need
    not be normal (S4 with S a transposition and a 4-cycle: rank 16, not
    22).

    A monomial e_u kills u's whole connected component at once.  For g in
    it, take an arrow b: src(g) -> src(u) and set a = g.(u.b)^-1; then
    e_g = e_a * e_u * e_b, so every two-sided ideal that holds e_u holds
    e_g.  A component of two or more units has a member s of S with
    src(s) != rng(s), since the arrows between its units are products over
    S, and its seed with the unit t = src(s) is delta_st alone: the seeds
    kill every such component, and a binomial of a dead component is
    dropped unshifted, as each of its shifts lies in that component.  A
    fixed point's component is never killed, because there every seed and
    shift is a binomial of loops at one unit, and both ends of a binomial
    compose with the same members of S.  So the binomial closure and the
    S4 argument stand unchanged there.  Cost: each dead component is one
    pass over its arrows, and no seed is read once its source is dead.
    Translation is injective where it is defined, so the span is closed
    once every growing binomial has been shifted: at most n of them, so
    O(n |S|) shifts, and at most O(|S|^2) seeds instead of one per product.
    """
    span = BinomialSpan()
    union, kill = span.union, span.kill
    rows, pos, src, rng, out_of = G.rows, G.pos, G.src, G.rng, G.out_of
    S = (*G.units, *core.generating_arrows(G))
    s_by_src: dict[int, list[int]] = {}
    s_by_rng: dict[int, list[int]] = {}
    for s in S:
        s_by_src.setdefault(src[s], []).append(s)
        s_by_rng.setdefault(rng[s], []).append(s)
    dead: set[int] = set()              # the units of each killed component
    grown: list[tuple[int, int]] = []   # (u, v) for each e_u - e_v that grew the span
    for s in S:
        if src[s] in dead:   # s.t, t.s and their shifts lie in a killed component
            continue
        for t in s_by_rng.get(src[s], ()):   # the t in S with s.t defined
            if t == s:
                continue
            st = rows[s][pos[t]]
            if src[t] == rng[s]:
                if union(st, ts := rows[t][pos[s]]):
                    grown.append((st, ts))
            else:   # e_st alone: kill its component, which is s's
                component = {rng[g] for g in out_of[src[t]]}
                dead.update(component)
                for x in component:
                    for g in out_of[x]:
                        kill(g)
                break

    def left(u: int) -> list[int]:    # s.u for each s in S out of rng(u)
        j = pos[u]
        return [rows[s][j] for s in s_by_src[rng[u]]]

    def right(u: int) -> list[int]:   # u.s for each s in S into src(u)
        row = rows[u]
        return [row[pos[s]] for s in s_by_rng[src[u]]]

    n = G.n
    while grown and span.rank < n:
        u, v = grown.pop()
        if src[u] in dead:
            continue
        for side in (left, right):   # u, v are loops at one fixed point
            for su, sv in zip(side(u), side(v)):
                if union(su, sv):
                    grown.append((su, sv))

    return span


def abelianization_dim(G: FiniteGroupoid) -> int:
    """Dimension of the algebra modulo its commutator ideal."""
    return G.n - commutator_ideal(G).rank


# --- characters -----------------------------------------------------------

def abelianized_fiber(ab: quotients.Abelianization,
                      x: int) -> tuple[FiniteAbelianGroup, dict[int, int]]:
    """The abelianized isotropy group at a fixed point x of ab.host.

    Read off ab.dual at the class of x.  Returns the group together with the
    class map sending each host arrow g at x to its element index
    ab.g_ab.pos[pi(g)], as ``abelian.DualBundle`` places the elements.
    """
    G = ab.host
    if x not in ab.fixed_points:
        raise ValueError(f"unit {G.labels[x]} is not a fixed point")
    class_of = {g: ab.g_ab.pos[ab.arrow_map[g]] for g in G.out_of[x]}
    return ab.dual.fiber_groups[ab.fixed_points[x]], class_of


@dataclass
class CharacterFunctional:
    """A one-dimensional representation evaluated on the delta basis.

    Supported on the isotropy at one fixed point; values there are roots of
    unity stored as exponents modulo chi's modulus, its fiber's exponent.
    """

    host: FiniteGroupoid
    unit: int
    chi: Character
    exponents: dict[int, int]

    @property
    def modulus(self) -> int:
        return self.chi.modulus

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.exponents)


def enumerate_characters(ab: quotients.Abelianization) -> list[CharacterFunctional]:
    """All one-dimensional representations of ab.host's algebra: its fixed
    points paired with the characters of their abelianized fibers."""
    out = []
    for x, y in ab.fixed_points.items():
        class_of = abelianized_fiber(ab, x)[1]
        for chi in ab.dual.fibers[y]:
            exponents = {g: chi.exps[cls] for g, cls in class_of.items()}
            out.append(CharacterFunctional(host=ab.host, unit=x, chi=chi, exponents=exponents))
    return out


def pi_hom(ab: quotients.Abelianization) -> AlgebraHom:
    """Restrict to the fixed points, then push down to the abelianized bundle.

    A delta at a fixed point goes to the delta of its class in ab.g_ab; every
    other delta goes to zero.
    """
    return AlgebraHom(ab.host, ab.g_ab, ab.arrow_map)


# --- the transform for abelian bundles ------------------------------------

@dataclass
class GelfandMatrix:
    """Evaluation of every character functional on every basis delta.

    Row r is the CharacterFunctional of one character of the fiber at its
    unit; columns follow arrow order.  A row stores the exponents of its
    values on its fiber only and is zero on every other arrow, so the
    block-diagonal matrix holds sum |A_x|^2 exponents, not n^2 (4,096
    instead of 16.8 million on trivial:4096), and stays exact.
    """

    host: FiniteGroupoid
    rows: tuple[CharacterFunctional, ...]

    @property
    def size(self) -> int:
        return len(self.rows)


def gelfand_transform(bundle: abelian.DualBundle) -> GelfandMatrix:
    """The fiberwise character table of an abelian group bundle, from its dual.

    Square because the characters of each fiber are as numerous as its
    elements; block-diagonal across units; convolution goes to pointwise
    multiplication.  Element i of the fiber group at x is the arrow
    host.out_of[x][i], as ``core.isotropy_group`` fixes it.
    """
    G = bundle.host
    return GelfandMatrix(host=G, rows=tuple(
        CharacterFunctional(host=G, unit=x, chi=chi, exponents=dict(zip(G.out_of[x], chi.exps)))
        for x in bundle.base for chi in bundle.fibers[x]))


def gelfand_violations(gm: GelfandMatrix) -> dict | None:
    """A witness that the transform of a group bundle is not square, not
    invertible or not multiplicative; None when it is all three.

    Checks, in integer exponent arithmetic, that there are as many rows as
    arrows and that each row r at unit x
      - is nonzero exactly on the fiber A_x, the arrows with source x: its
        keys are A_x, as a stored exponent is a root of unity and an arrow
        with no key is zero;
      - is multiplicative there: e[a] + e[b] = e[a.b] modulo its modulus,
        for every a in A_x and each b in x and a generating set of A_x;
      - differs from every other row at x.
    The b that pass for every a are closed under products and hold x and
    the generators, so they are all of A_x: the argument of
    ``abelian.char_group_structure``'s docstring.  The generating set is
    the members of ``core.generating_arrows(G)`` that end at x: on a group
    bundle every arrow of A_x is x or a left-nested product of them.
    Arrows of different fibers do not compose and every row vanishes on one
    of them, so the first two make each row a homomorphism from A_x to the
    nonzero complex numbers and the transform send convolution to pointwise
    product.  Distinct
    homomorphisms are linearly independent (Dedekind's lemma; Lang, Algebra,
    VI.4), so at most |A_x| rows sit at x, and with as many rows as arrows
    each block has exactly |A_x| independent rows: the matrix is
    nonsingular.  A repeated row is the only way it can be singular.  The
    verdict is exact, with no tolerance.
    """
    G = gm.host
    if gm.size != G.n:
        return {"reason": "not square", "rows": gm.size, "dim": G.n}
    middles = {x: [x] for x in G.units}
    for b in core.generating_arrows(G):
        middles[G.rng[b]].append(b)
    columns: dict[int, list] = {}   # x -> (b, [a.b for a in A_x]) per tested b
    # rows compared as functions: exponents over a common modulus
    common = lcm(*(phi.modulus for phi in gm.rows))
    seen: dict[tuple, int] = {}
    for r, phi in enumerate(gm.rows):
        x, e, m = phi.unit, phi.exponents, phi.modulus
        fiber = G.out_of[x]
        if e.keys() != set(fiber):
            g = min(e.keys() ^ set(fiber))
            return {"reason": "wrong support", "row": r, "unit": G.labels[x],
                    "arrow": G.labels[g] if g in range(G.n) else g}
        if x not in columns:
            columns[x] = [(b, [G.rows[a][G.pos[b]] for a in fiber]) for b in middles[x]]
        for b, column in columns[x]:
            eb = e[b]
            for a, ab in zip(fiber, column):
                if (e[a] + eb - e[ab]) % m:
                    return {"reason": "not multiplicative", "row": r,
                            "pair": [G.labels[a], G.labels[b]]}
        key = (x, tuple(e[g] * (common // m) % common for g in fiber))
        if key in seen:
            return {"reason": "repeated row", "rows": [seen[key], r], "unit": G.labels[x]}
        seen[key] = r
    return None
