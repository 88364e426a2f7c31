"""The convolution *-algebra of a finite groupoid, over exact Gaussian rationals.

Basis deltas multiply by composition (delta_a * delta_b = delta_{a.b} when
composable, zero otherwise) and the involution is conjugate-transpose along
inversion.  Induced maps — restriction to an invariant unit set, pushforward
along a quotient, and their composite pi onto the abelianization — send each
delta to one delta or to zero, so they are stored as maps of arrows, and their
kernels and the commutator ideal are partitions of arrows (BinomialSpan), with
no elimination and no floating point.  Characters evaluate as root-of-unity
exponents; complex numbers appear only when a caller asks for a numeric
value.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from . import abelian, core, quotients
from .abelian import Character, FiniteAbelianGroup
from .core import FiniteGroupoid
from .linalg import QI0, QI1, BinomialSpan, Qi, as_qi, vec_iadd_scaled


@dataclass
class AlgebraElement:
    """A function on arrows with Gaussian-rational values, sparsely stored."""

    host: FiniteGroupoid
    coeffs: dict[int, Qi]

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.host == other.host
                and self.coeffs.keys() == other.coeffs.keys()
                and all(self.coeffs[k] == other.coeffs[k] for k in self.coeffs))

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

    def __neg__(self):
        return AlgebraElement(self.host, {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, c) -> AlgebraElement:
        c = as_qi(c)
        if not c:
            return AlgebraElement(self.host, {})
        return AlgebraElement(self.host, {k: c * v for k, v in self.coeffs.items()})

    def star(self) -> AlgebraElement:
        return involute(self)

    def is_zero(self) -> bool:
        return not self.coeffs

    def value(self, g: int) -> Qi:
        return self.coeffs.get(g, QI0)

    def _same_host(self, other):
        if self.host != other.host:
            raise ValueError("elements of different groupoid algebras")

    def __repr__(self):
        terms = [f"{v}*d[{self.host.labels[k]}]" for k, v in sorted(self.coeffs.items())]
        return " + ".join(terms) if terms else "0"


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
    comp = G.comp
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

    def apply(self, f: AlgebraElement) -> AlgebraElement:
        if f.host != self.domain:
            raise ValueError("element not in the domain algebra")
        acc: dict[int, Qi] = {}
        for k, c in f.coeffs.items():
            t = self.arrow_map[k]
            if t is not None:
                vec_iadd_scaled(acc, {t: QI1}, c)
        return AlgebraElement(self.codomain, acc)

    def kernel(self) -> BinomialSpan:
        """The partition of arrow_map: arrows with the same image are joined
        and arrows sent to zero are killed."""
        span = BinomialSpan()
        first: dict[int, int] = {}
        for g, t in enumerate(self.arrow_map):
            if t is None:
                span.kill(g)
            elif t in first:
                span.union(first[t], g)
            else:
                first[t] = g
        return span


def compose_homs(outer: AlgebraHom, inner: AlgebraHom) -> AlgebraHom:
    if inner.codomain != outer.domain:
        raise ValueError("homomorphisms do not compose")
    arrow_map = tuple(None if t is None else outer.arrow_map[t] for t in inner.arrow_map)
    return AlgebraHom(domain=inner.domain, codomain=outer.codomain, arrow_map=arrow_map)


def restriction_hom(G: FiniteGroupoid, F: Iterable[int]) -> AlgebraHom:
    """Restriction of functions to the subgroupoid over an invariant unit set."""
    F = core.arrow_set(G, F)
    index = {g: i for i, g in enumerate(core.restricted_arrows(G, F))}
    return AlgebraHom(G, core.restrict(G, F), tuple(map(index.get, G.arrows())))


def quotient_hom_from_result(G: FiniteGroupoid, qr: quotients.QuotientResult) -> AlgebraHom:
    """Pushforward along an already-computed quotient map."""
    return AlgebraHom(G, qr.quotient, qr.class_map)


def quotient_hom(G: FiniteGroupoid,
                 H: quotients.NormalSubgroupoid | Iterable[int]) -> AlgebraHom:
    """Pushforward along the quotient map: sums a function over each class."""
    return quotient_hom_from_result(G, quotients.quotient(G, H))


# --- the commutator ideal -------------------------------------------------

def commutator_ideal(G: FiniteGroupoid) -> BinomialSpan:
    """The smallest closed two-sided ideal containing all basis commutators.

    Seeds with delta_ab - delta_ba (delta_ab alone where ba is undefined),
    then shifts each generator that grew the span left and right by every
    arrow it composes with.  Translation is injective where it is defined, so
    a shift of e_u - e_v or e_u is again a binomial, a monomial or zero, and
    the span is closed once every growing generator has been shifted: at most
    n of them, so O(n^2) shifts.
    """
    span = BinomialSpan()
    grown: list[tuple[int, ...]] = []   # (u, v) for e_u - e_v, (u,) for e_u

    def feed(arrows: tuple[int, ...]):
        if span.union(*arrows) if len(arrows) == 2 else span.kill(*arrows):
            grown.append(arrows)

    comp = G.comp
    left: dict[int, dict[int, int]] = {}    # left[u][g] = g.u
    right: dict[int, dict[int, int]] = {}   # right[u][g] = u.g
    for (a, b), ab in comp.items():
        left.setdefault(b, {})[a] = ab
        right.setdefault(a, {})[b] = ab
        ba = comp.get((b, a))
        feed((ab,) if ba is None else (ab, ba))

    n = G.n
    while grown and span.rank < n:
        arrows = grown.pop()
        for side in (left, right):
            shifts = [side.get(u, {}) for u in arrows]
            for g in set().union(*shifts):
                feed(tuple(by[g] for by in shifts if g in by))

    return span


def abelianization_dim(G: FiniteGroupoid) -> int:
    """Dimension of the algebra modulo its commutator ideal."""
    return G.n - commutator_ideal(G).rank


# --- characters -----------------------------------------------------------

def abelianized_fiber(ab: quotients.Abelianization,
                      x: int) -> tuple[FiniteAbelianGroup, dict[int, int]]:
    """The abelianized isotropy group at a fixed point x of ab.host.

    Read off ab.dual at the class of x.  Returns the group together with the
    class map sending each host arrow at x to its element index.
    """
    G = ab.host
    if x not in ab.fixed_points:
        raise ValueError(f"unit {G.labels[x]} is not a fixed point")
    y = ab.fiber_unit(x)
    elem_of_arrow = {arrow: i for i, arrow in enumerate(ab.dual.fiber_arrows[y])}
    class_of = {g: elem_of_arrow[ab.class_map[i]]
                for i, g in enumerate(ab.inclusion) if G.src[g] == x}
    return ab.dual.fiber_groups[y], class_of


@dataclass
class CharacterFunctional:
    """A one-dimensional representation evaluated on the delta basis.

    Supported on the isotropy at one fixed point; values there are roots of
    unity stored as exponents modulo the abelianized fiber's exponent.
    """

    host: FiniteGroupoid
    unit: int
    chi: Character
    exponents: dict[int, int]
    modulus: int

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.exponents)

    def value_fraction(self, g: int) -> Fraction | None:
        """Exponent of the value at arrow g as a fraction of a turn; None = 0."""
        e = self.exponents.get(g)
        return None if e is None else Fraction(e % self.modulus, self.modulus)

    def value_complex(self, g: int) -> complex:
        e = self.value_fraction(g)
        return 0j if e is None else cmath.exp(2j * cmath.pi * e)

    def evaluate(self, f: AlgebraElement) -> complex:
        if f.host != self.host:
            raise ValueError("element of a different groupoid algebra")
        return sum((c.to_complex() * self.value_complex(g) for g, c in f.coeffs.items()),
                   start=0j)


def enumerate_characters(ab: quotients.Abelianization) -> list[CharacterFunctional]:
    """All one-dimensional representations of ab.host's algebra: its fixed
    points paired with the characters of their abelianized fibers."""
    out = []
    for x in ab.fixed_points:
        a, class_of = abelianized_fiber(ab, x)
        for chi in ab.dual.fibers[ab.fiber_unit(x)]:
            exponents = {g: chi.exps[cls] % a.exponent for g, cls in class_of.items()}
            out.append(CharacterFunctional(host=ab.host, unit=x, chi=chi,
                                           exponents=exponents, modulus=a.exponent))
    return out


def pi_hom(ab: quotients.Abelianization) -> AlgebraHom:
    """Restrict to the fixed points, then push down to the abelianized bundle.

    A delta at a fixed point goes to the delta of its class in ab.g_ab; every
    other delta goes to zero.
    """
    class_of = {g: ab.class_map[i] for i, g in enumerate(ab.inclusion)}
    return AlgebraHom(ab.host, ab.g_ab, tuple(map(class_of.get, ab.host.arrows())))


# --- the transform for abelian bundles ------------------------------------

@dataclass
class GelfandMatrix:
    """Evaluation of every character functional on every basis delta.

    Row r corresponds to pairs[r] = (unit, character); columns follow arrow
    order.  entries[r][g] is the exponent e of the value exp(2 pi i e / N),
    N = pairs[r][1].modulus, or None where the value is zero, so the matrix
    is exact; to_complex() gives the numeric matrix.
    """

    host: FiniteGroupoid
    pairs: tuple[tuple[int, Character], ...]
    entries: tuple[tuple[int | None, ...], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def to_complex(self) -> list[list[complex]]:
        return [[0j if e is None else cmath.exp(2j * cmath.pi * e / chi.modulus) for e in row]
                for (_, chi), row in zip(self.pairs, self.entries)]


def gelfand_transform(bundle: abelian.DualBundle) -> GelfandMatrix:
    """The fiberwise character table of an abelian group bundle, from its dual.

    Square because the characters of each fiber are as numerous as its
    elements; block-diagonal across units; convolution goes to pointwise
    multiplication.
    """
    G = bundle.host
    pairs = []
    entries = []
    for x in bundle.base:
        arrows = bundle.fiber_arrows[x]
        group = bundle.fiber_groups[x]
        for chi in bundle.fibers[x]:
            pairs.append((x, chi))
            row: list[int | None] = [None] * G.n
            for i, g in enumerate(arrows):
                row[g] = chi.exps[i] % group.exponent
            entries.append(tuple(row))
    return GelfandMatrix(host=G, pairs=tuple(pairs), entries=tuple(entries))


def gelfand_violations(gm: GelfandMatrix) -> dict | None:
    """A witness that the transform of a group bundle is not square, not
    invertible or not multiplicative; None when it is all three.

    Checks, in integer exponent arithmetic, that there are as many rows as
    arrows and that each row r at unit x
      - is nonzero exactly on the fiber A_x, the arrows with source x;
      - is multiplicative there: e[a] + e[b] = e[a.b] modulo its modulus;
      - differs from every other row at x.
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
    fibers: dict[int, list[int]] = {}
    for g in G.arrows():
        fibers.setdefault(G.src[g], []).append(g)
    # rows compared as functions: exponents over a common modulus
    common = lcm(*(chi.modulus for _, chi in gm.pairs))
    seen: dict[tuple, int] = {}
    for r, ((x, chi), e) in enumerate(zip(gm.pairs, gm.entries)):
        fiber = fibers[x]
        for g in G.arrows():
            if (e[g] is None) == (G.src[g] == x):
                return {"reason": "wrong support", "row": r, "unit": G.labels[x],
                        "arrow": G.labels[g]}
        m = chi.modulus
        for a in fiber:
            for b in fiber:
                if (e[a] + e[b] - e[G.comp[(a, b)]]) % m:
                    return {"reason": "not multiplicative", "row": r,
                            "pair": [G.labels[a], G.labels[b]]}
        key = (x, tuple(e[g] * (common // m) % common for g in fiber))
        if key in seen:
            return {"reason": "repeated row", "rows": [seen[key], r], "unit": G.labels[x]}
        seen[key] = r
    return None
