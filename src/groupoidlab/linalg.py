"""Exact linear algebra over the Gaussian rationals.

Scalars are complex numbers with Fraction real and imaginary parts; vectors
are sparse dicts from coordinate index to scalar.

BinomialSpan holds the subspaces spanned by binomials e_u - e_v and
monomials e_u, the only kind the commutator ideal and the kernels of the
induced maps produce, as a partition of coordinates with no elimination.
These are the package's kernels and ideals.  The checks read their ranks,
grow them by ``union`` and ``kill``, and compare two of them by ``==``,
which compares partitions: no check builds a Gaussian rational.
``BinomialSpan.contains`` and ``vectors`` sum and build Qi coefficients;
only the tests call them, to compare spans with Echelon.

The Echelon accumulator keeps a reduced row basis (monic pivots, pivot
columns eliminated everywhere else), so its stored rows are canonical for the
subspace they span.  Echelon, kernel_basis and same_span are general
elimination, independent of the partition, and no check calls them: with the
general-element algebra in tests/oracle.py, they are the reference that the
tests compare BinomialSpan and the kernels against.
"""

from __future__ import annotations


class Qi:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # no command builds a Qi, so no command loads fractions (and with it
        # decimal and numbers)
        from fractions import Fraction
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = as_qi(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = as_qi(other)
        return Qi(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = as_qi(other)
        return Qi(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Qi(-self.re, -self.im)

    def __mul__(self, other):
        other = as_qi(other)
        return Qi(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_qi(other)
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return Qi((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def conjugate(self):
        return Qi(self.re, -self.im)

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


def as_qi(x) -> Qi:
    if isinstance(x, Qi):
        return x
    from fractions import Fraction
    if isinstance(x, (int, Fraction)):
        return Qi(x)
    raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")


# sparse vector: dict {index: nonzero Qi}


def vec_iadd_scaled(dst: dict, src: dict, c: Qi) -> dict:
    """dst += c * src, dropping entries that cancel to zero."""
    if c:
        for k, v in src.items():
            s = dst[k] + c * v if k in dst else c * v
            if s:
                dst[k] = s
            else:
                dst.pop(k, None)
    return dst


class Echelon:
    """Growing reduced row basis; insert() reports whether the rank increased."""

    def __init__(self):
        self.pivots: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the current row space (zero iff contained)."""
        work = {k: c for k, c in vec.items() if c}
        for p in sorted(set(work) & set(self.pivots)):
            c = work.get(p)
            if c:
                vec_iadd_scaled(work, self.pivots[p], -c)
        return work

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> dict | None:
        """Add vec to the span; return its stored reduced row if the rank grew."""
        work = self.reduce(vec)
        if not work:
            return None
        lead = min(work)
        c = work[lead]
        row = {k: v / c for k, v in work.items()}
        for other in self.pivots.values():
            if lead in other:
                vec_iadd_scaled(other, row, -other[lead])
        self.pivots[lead] = row
        return row

    def rows(self) -> list[dict]:
        """Canonical reduced rows, ordered by pivot column."""
        return [self.pivots[p] for p in sorted(self.pivots)]


def kernel_basis(equations, width: int) -> list[dict]:
    """Basis of the solution space of a sparse homogeneous system.

    Each equation is a sparse row over coordinates 0..width-1; the basis
    vectors are in free-variable form (one per non-pivot coordinate).
    """
    ech = Echelon()
    for row in equations:
        ech.insert(row)
    out = []
    for f in range(width):
        if f in ech.pivots:
            continue
        v = {f: Qi(1)}
        for p, row in ech.pivots.items():
            c = row.get(f)
            if c:
                v[p] = -c
        out.append(v)
    return out


def same_span(rows_a, rows_b) -> bool:
    """Exact subspace equality via rank and mutual containment."""
    ea, eb = Echelon(), Echelon()
    for r in rows_a:
        ea.insert(r)
    for r in rows_b:
        eb.insert(r)
    if ea.rank != eb.rank:
        return False
    return all(ea.contains(r) for r in eb.rows()) and all(eb.contains(r) for r in ea.rows())


class BinomialSpan:
    """Span of binomials e_u - e_v and monomials e_u, as a partition.

    A union-find over coordinates (Tarjan 1975) whose classes carry a killed
    flag: the span is every e_u with u in a killed class, plus every vector
    supported on one unkilled class with coefficients summing to zero.  Its
    rank is the touched coordinates minus the unkilled classes.
    """

    def __init__(self):
        self._parent: dict[int, int] = {}
        self._killed: set[int] = set()   # roots of killed classes
        self.rank = 0

    def _find(self, u: int) -> int:
        parent = self._parent
        root = parent.setdefault(u, u)
        while root != parent[root]:
            parent[root] = root = parent[parent[root]]
        parent[u] = root
        return root

    def union(self, u: int, v: int) -> bool:
        """Add e_u - e_v; return whether the rank grew."""
        ru, rv = self._find(u), self._find(v)
        if ru == rv or (ru in self._killed and rv in self._killed):
            return False
        if ru in self._killed:
            ru, rv = rv, ru
        self._parent[ru] = rv   # a killed root stays the root
        self.rank += 1
        return True

    def kill(self, u: int) -> bool:
        """Add e_u; return whether the rank grew."""
        root = self._find(u)
        if root in self._killed:
            return False
        self._killed.add(root)
        self.rank += 1
        return True

    def contains(self, vec: dict) -> bool:
        """Exact membership of any sparse vector: every nonzero coordinate is
        touched, and the coefficients over each unkilled class sum to zero."""
        sums: dict[int, Qi] = {}
        for k, c in vec.items():
            if not c:
                continue
            if k not in self._parent:
                return False
            root = self._find(k)
            if root not in self._killed:
                sums[root] = sums.get(root, Qi(0)) + c
        return not any(sums.values())

    def _classes(self) -> dict[int, list[int]]:
        """Each class by its root, members ascending."""
        classes: dict[int, list[int]] = {}
        for u in sorted(self._parent):
            classes.setdefault(self._find(u), []).append(u)
        return classes

    def vectors(self) -> list[dict]:
        """A basis with coefficients +-1: e_u for each killed coordinate, and
        e_first - e_u inside each unkilled class."""
        out = []
        for root, members in self._classes().items():
            if root in self._killed:
                out.extend({u: Qi(1)} for u in members)
            else:
                out.extend({members[0]: Qi(1), u: Qi(-1)} for u in members[1:])
        return out

    def _partition(self) -> dict[int, int | None]:
        """The span as a partition: None for each killed coordinate, and the
        least member of its class for each coordinate of an unkilled class
        of two or more.  Untouched coordinates and unkilled singletons are
        absent: no vector of the span is nonzero there."""
        out: dict[int, int | None] = {}
        for root, members in self._classes().items():
            if root in self._killed:
                out.update(dict.fromkeys(members))
            elif len(members) > 1:
                out.update(dict.fromkeys(members, members[0]))
        return out

    def __eq__(self, other):
        """Subspace equality, with no arithmetic: the same killed coordinates
        and the same unkilled classes of two or more.  The span holds e_u
        exactly for killed u, and e_u - e_v exactly for u != v in one
        unkilled class, so the subspace determines both."""
        if not isinstance(other, BinomialSpan):
            return NotImplemented
        return self._partition() == other._partition()
