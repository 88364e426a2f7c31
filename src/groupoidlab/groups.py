"""Small finite groups as literal multiplication tables, plus subgroup machinery.

The library covers cyclic groups to order 12, the Klein four-group, the
symmetric and alternating groups on three letters, the dihedral group of the
square, and the quaternion group — enough shapes to exercise abelian and
non-abelian fibers with different commutator subgroups.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from operator import add

# Entries kept by each table_memo function, so a long run's memory stays fixed: a seed-0
# check --corpus --count 200 decomposes 13 distinct tables on the instance path, 178 in all.
TABLE_CACHE_SIZE = 256


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]  # table[i][j] = i * j
    identity: int

    @property
    def order(self) -> int:
        return len(self.labels)

    def inverse(self, i: int) -> int:
        """The j with i*j the identity; ValueError if row i holds none,
        which only a non-group built directly allows."""
        try:
            return self.table[i].index(self.identity)
        except ValueError:
            raise ValueError(f"{self.name}: no inverse for {i}") from None

    def powers(self, i: int) -> list[int]:
        """i^0, i^1, ..., i^(k-1) for k the order of i, so that i^m is
        ``powers(i)[m % k]``.  Raises ValueError once i^1..i^order all miss
        the identity, which only a non-group built directly allows."""
        t, e = self.table, self.identity
        out, x = [e], i
        for _ in range(self.order):
            if x == e:
                return out
            out.append(x)
            x = t[x][i]
        raise ValueError(f"{self.name}: powers 1..{self.order} of {i} miss the identity")

    def order_of(self, i: int) -> int:
        return len(self.powers(i))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def table_memo(fn):
    """fn(g, ...) memoized on g's table, identity and other arguments, for an
    fn whose result needs nothing else of g; the key is hashed once a call.
    Every named copy of one table, such as each instance's fiber@<unit>,
    shares one entry.  A miss runs fn on the caller's own g, so an
    exception names it and stores nothing.  A ``limit`` keyword is passed
    on to fn but is not part of the key: fn raises TooManySubgroups once
    its list would pass the limit, so only a complete list is stored, and
    it answers every limit, a hit longer than the caller's limit raising as
    fn would.  Past TABLE_CACHE_SIZE entries the oldest is dropped.  A list
    is copied on return."""
    memo: dict = {}
    @functools.wraps(fn)
    def memoized(g, *args, limit=None):
        key = (g.table, g.identity, *args)
        if cell := memo.setdefault(key, []):
            if limit is not None and len(cell[0]) > limit:
                raise _too_many(g, limit)
        else:
            if len(memo) > TABLE_CACHE_SIZE:
                del memo[next(iter(memo))]
            try:
                cell.append(fn(g, *args) if limit is None else fn(g, *args, limit=limit))
            except BaseException:
                memo.pop(key, None)
                raise
        return list(cell[0]) if isinstance(cell[0], list) else cell[0]
    memoized.memo = memo
    return memoized


def finite_group(name: str, labels: list[str], table: list[list[int]]) -> FiniteGroup:
    """The validating constructor: n rows of n entries for n labels, with an
    identity, that ``group_violations`` finds a group, or ValueError with the
    first fault.  A group by construction is built with the dataclass."""
    tbl = tuple(tuple(row) for row in table)
    n = len(labels)
    if bad := _shape_violations(name, n, tbl):
        raise ValueError(bad[0])
    identity = next((i for i in range(n)
                     if all(tbl[i][j] == j and tbl[j][i] == j for j in range(n))), None)
    if identity is None:
        raise ValueError(f"{name}: table has no identity")
    g = FiniteGroup(name=name, labels=tuple(labels), table=tbl, identity=identity)
    if bad := group_violations(g):
        raise ValueError(f"{name}: not a group: {bad[0]}")
    return g


def _shape_violations(name: str, n: int, table: tuple) -> list[str]:
    """One message per row of table that is missing, extra or not n wide."""
    out = []
    for i in range(max(n, len(table))):
        width = len(table[i]) if i < len(table) else "no"
        if i >= n or width != n:
            out.append(f"{name}: row {i} has {width} entries; "
                       f"{n} labels need {n} rows of {n}")
    return out


def group_violations(g: FiniteGroup) -> list[str]:
    """Group-axiom check, exact on any table: row shape, entry range, the
    declared identity, associativity, inverses.

    Rows are shape-checked and entries checked as ints in range first: the
    later checks index the table by them, and a table built with the
    dataclass constructor has had neither checked; an identity out of range
    is reported alone for the same reason.  Each of these three ends the
    list.  Each x with e*x != x or x*e != x is listed.  Associativity is
    decided by ``core.validate``'s Light's test on g as the one-unit
    groupoid, whose rows are the table and where each element is its own
    place: (x*a)*y == x*(a*y) is tested for the middles a in
    ``generating_set(g)``, and in the identity too when it fails, and the
    first failing triple is reported.  An empty list means g is a group
    with identity e.
    """
    from . import core   # core imports this module
    n, t, e = g.order, g.table, g.identity
    out = _shape_violations(g.name, n, t) or [
        f"entry ({i},{j}) " + ("out of range" if isinstance(x, int) else f"is {x!r}, not an int")
        for i, row in enumerate(t) for j, x in enumerate(row)
        if not (isinstance(x, int) and 0 <= x < n)]
    if out or not 0 <= e < n:
        return out or [f"identity {e} out of range"]
    out = [f"identity fails at {x}" for x in range(n) if t[e][x] != x or t[x][e] != x]
    middles = sorted([e, *generating_set(g)]) if out else generating_set(g)
    one, ends = {e: range(n)}, (e,) * n
    witness = next(core.associativity_failures(t, range(n), ends, ends, one, one, middles), None)
    if witness:
        out.append("associativity fails at ({},{},{})".format(*witness))
    return out + [f"no inverse for {i}" for i in range(n) if e not in t[i]]


def is_abelian(g: FiniteGroup) -> bool:
    """Whether the members of ``generating_set(g)`` commute pairwise.  g must
    be a group, which then commutes exactly when its generators do."""
    t, gens = g.table, generating_set(g)
    return all(t[x][y] == t[y][x] for i, x in enumerate(gens) for y in gens[:i])


# --- library -------------------------------------------------------------

def _from_permutations(name: str, perms: list[tuple[str, tuple[int, ...]]]) -> FiniteGroup:
    """Permutations closed under (p * q)(x) = p(q(x)), as the index lookups
    check, form a group: built directly."""
    index = {perm: i for i, (_, perm) in enumerate(perms)}
    pts = tuple(range(len(perms[0][1])))
    table = tuple(tuple(index[tuple(p[q[x]] for x in pts)] for _, q in perms) for _, p in perms)
    return FiniteGroup(name, tuple(lab for lab, _ in perms), table, index[pts])


def cyclic(n: int) -> FiniteGroup:
    """Addition mod n, a group built directly: row i is (i + j) % n for
    j = 0..n-1, which is range(n) rotated left by i, one slice of range(n)
    written twice."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    labels = ("e", *(f"g{k}" if k > 1 else "g" for k in range(1, n)))
    twice = tuple(range(n)) * 2
    table = tuple(twice[i:i + n] for i in range(n))
    return FiniteGroup(f"C{n}", labels, table, 0)


def klein() -> FiniteGroup:
    # e, s, t, st with s^2 = t^2 = e and st = ts.
    labels = ["e", "s", "t", "st"]
    table = [[0, 1, 2, 3],
             [1, 0, 3, 2],
             [2, 3, 0, 1],
             [3, 2, 1, 0]]
    return finite_group("V4", labels, table)


def sym3() -> FiniteGroup:
    # s = (0 1 2), t = (0 1); satisfies s^3 = t^2 = e and s*t = t*s^2.
    return _from_permutations("S3", [
        ("e", (0, 1, 2)),
        ("s", (1, 2, 0)),
        ("s2", (2, 0, 1)),
        ("t", (1, 0, 2)),
        ("ts", (0, 2, 1)),
        ("ts2", (2, 1, 0)),
    ])


def alt3() -> FiniteGroup:
    return _from_permutations("A3", [
        ("e", (0, 1, 2)),
        ("s", (1, 2, 0)),
        ("s2", (2, 0, 1)),
    ])


def dihedral4() -> FiniteGroup:
    # Symmetries of the square on corners 0..3: r rotates, f reflects.
    r = (1, 2, 3, 0)
    f = (3, 2, 1, 0)

    def compose(p, q):
        return tuple(p[q[x]] for x in range(4))

    r2, r3 = compose(r, r), compose(r, compose(r, r))
    return _from_permutations("D4", [
        ("e", (0, 1, 2, 3)),
        ("r", r),
        ("r2", r2),
        ("r3", r3),
        ("f", f),
        ("fr", compose(f, r)),
        ("fr2", compose(f, r2)),
        ("fr3", compose(f, r3)),
    ])


def quaternion8() -> FiniteGroup:
    # Units {±1, ±i, ±j, ±k}; encoded as (sign, axis) with axis in 1,i,j,k.
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    axis = [0, 0, 1, 1, 2, 2, 3, 3]   # 0 = real, 1 = i, 2 = j, 3 = k
    sign = [1, -1, 1, -1, 1, -1, 1, -1]
    # axis multiplication: (axis, axis) -> (sign, axis)
    ax_mul = {(0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
              (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
              (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
              (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
              (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}
    index = {(s, a): i for i, (s, a) in enumerate(zip(sign, axis))}
    table = []
    for i in range(8):
        row = []
        for j in range(8):
            s, a = ax_mul[(axis[i], axis[j])]
            row.append(index[(s * sign[i] * sign[j], a)])
        table.append(row)
    return finite_group("Q8", labels, table)


LIBRARY_BUILDERS = {
    **{f"C{n}": (lambda n=n: cyclic(n)) for n in range(1, 13)},
    "V4": klein,
    "S3": sym3,
    "A3": alt3,
    "D4": dihedral4,
    "Q8": quaternion8,
}


def library() -> list[FiniteGroup]:
    """All built-in groups, in a fixed order."""
    return [build() for build in LIBRARY_BUILDERS.values()]


@functools.cache
def library_subgroups() -> tuple[tuple[FiniteGroup, tuple[frozenset[int], ...]], ...]:
    """Each library group with its subgroups, in library order.

    Built once per process and bounded by construction: one entry per
    ``LIBRARY_BUILDERS`` group.
    """
    return tuple((g, tuple(subgroups(g))) for g in library())


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """a x b, with (i, j) at index i * |b| + j.  Built directly, not through
    ``finite_group``: a product of groups is a group, with identity
    (a.identity, b.identity).

    Row (I, i) lists the products (I, i)(J, j) = (IJ, ij), J-major like the
    columns.  With e either identity, (I, i) = (I, e)(e, i), so row (I, i)
    is row (I, e) read at the places row (e, i) lists: one ``core._gather``
    per row.  Row (I, e) sends (J, j) to (IJ, j): a's row I with each entry
    x replaced by block x, the places (x, 0), ..., (x, |b| - 1), gathered
    from the blocks.  Row (e, i) sends (J, j) to (J, ij): b's row i shifted
    into each block.
    """
    from . import core   # core imports this module
    labels = tuple(f"({la},{lb})" for la in a.labels for lb in b.labels)
    na, nb = a.order, b.order
    blocks = [tuple(range(x, x + nb)) for x in range(0, na * nb, nb)]
    left = [tuple(chain.from_iterable(core._gather(row)(blocks))) for row in a.table]
    offsets = [x for x in range(0, na * nb, nb) for _ in range(nb)]   # J * nb at (J, j)
    right = [core._gather([*map(add, offsets, row * na)]) for row in b.table]
    table = tuple(at(row) for row in left for at in right)
    return FiniteGroup(f"{a.name}x{b.name}", labels, table, a.identity * nb + b.identity)


# --- subgroup machinery --------------------------------------------------

def closure(g: FiniteGroup, seed) -> frozenset[int]:
    """Subgroup generated by the seed elements: the identity, the seed and
    every left-nested product ((s1*s2)*...)*sk of seed elements.

    A breadth-first search right-multiplies each element found by the seed
    alone, in O(|subgroup| * |seed|).  In a finite group those products are
    the subgroup: each element has finite order, so an inverse is a positive
    power, and positive words already give every element of the group the
    seed generates.  On any other table the result is the set of left-nested
    products.
    """
    t = g.table
    seed = list(seed)
    out = {g.identity, *seed}
    frontier = list(out)
    for x in frontier:   # grows while it is walked: breadth first
        tx = t[x]
        for s in seed:
            if (z := tx[s]) not in out:
                out.add(z)
                frontier.append(z)
    return frozenset(out)


@table_memo
def generating_set(g: FiniteGroup) -> list[int]:
    """A generating set, chosen greedily: ``core.greedy_generators`` on g as
    the one-unit groupoid.  Every element is then the identity, a member or
    a left-nested product of members.  The one choice of generators for a
    table: ``group_violations``, ``is_abelian``, ``abelian.invariant_factors``,
    ``abelian._with_exponent`` and ``abelian.char_group_structure`` read it."""
    from . import core   # core imports this module
    ends = (g.identity,) * g.order
    return core.greedy_generators(g.table, range(g.order), ends, ends, (g.identity,))


class TooManySubgroups(ValueError):
    """More subgroups than the caller's limit."""


def _too_many(g: FiniteGroup, limit: int) -> TooManySubgroups:
    return TooManySubgroups(f"{g.name}: more than {limit} subgroups")


def _joins(g: FiniteGroup, pieces, join, limit: int | None = None) -> list[frozenset[int]]:
    """The trivial group and every join(sub, piece) of one found before it
    with a piece it misses, sorted by size then membership tuple.  With a
    limit, raises TooManySubgroups once more than limit are found, which
    is checked after the joins of each one found."""
    found = {frozenset([g.identity])}
    frontier = list(found)
    for sub in frontier:   # grows while it is walked: breadth first
        for k in pieces:
            if not k <= sub and (bigger := join(sub, k)) not in found:
                found.add(bigger)
                frontier.append(bigger)
        if limit is not None and len(found) > limit:
            raise _too_many(g, limit)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    """All subgroups: the joins of elements."""
    return _joins(g, [frozenset([x]) for x in range(g.order)], lambda sub, k: closure(g, sub | k))


@table_memo
def normal_subgroups(g: FiniteGroup, *, limit: int | None = None) -> list[frozenset[int]]:
    """All normal subgroups, the joins of conjugacy classes, with no test
    of the subgroups that are not normal.

    A normal subgroup M is a union of classes, and a normal N joined with a
    class K generates N<K>, normal again; so adding M's classes one at a
    time reaches M.  With a limit, raises TooManySubgroups as ``_joins``
    does; the memo keeps one complete list per table, whatever the limit.
    """
    t, e = g.table, g.identity
    inv = [g.inverse(x) for x in range(g.order)]

    def join(sub, k):
        # N<K> is a union of cosets xN, reached from N by right factors in K
        out, reps = set(sub), [e]
        for x in reps:
            for y in k:
                if (z := t[x][y]) not in out:
                    out.update(t[z][h] for h in sub)
                    reps.append(z)
        return frozenset(out)
    classes = {frozenset(t[t[a][x]][inv[a]] for a in range(g.order)) for x in range(g.order)}
    return _joins(g, classes, join, limit)


@table_memo
def commutator_subgroup(g: FiniteGroup) -> frozenset[int]:
    t = g.table
    inv = [g.inverse(x) for x in range(g.order)]
    return closure(g, {t[t[a][b]][inv[t[b][a]]] for a in range(g.order) for b in range(g.order)})
