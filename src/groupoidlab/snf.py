"""Smith normal form over the integers.

Plain row/column reduction with exact integer arithmetic.  The pivot at each
stage is a nonzero entry of minimal absolute value (ties broken by position),
which keeps intermediate entries small and the result deterministic.  Only the
inverse Vinv of the column transform is tracked: callers read off generators
of the quotient lattice from its rows.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SmithNormalForm:
    diagonal: tuple[int, ...]     # d_1 | d_2 | ... , nonnegative
    vinv: tuple[tuple[int, ...], ...]   # V^-1, where A @ V has the diagonal as its column basis

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(rows: list[list[int]], width: int) -> SmithNormalForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns diagonal entries padded with zeros to the full column count, so
    the quotient of Z^width by the row lattice reads off as sum of Z/d_i.
    """
    a = [list(r) for r in rows]
    m = len(a)
    k = width
    if any(len(r) != k for r in a):
        raise ValueError("ragged matrix")
    vinv = [[int(i == j) for j in range(k)] for i in range(k)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        ai, aj = a[i], a[j]
        for idx in range(k):
            ai[idx] += c * aj[idx]

    def add_col(i, j, c):
        # col_j += c * col_i ; inverse op on vinv is row_i -= c * row_j
        for r in a:
            r[j] += c * r[i]
        vi, vj = vinv[i], vinv[j]
        for idx in range(k):
            vi[idx] -= c * vj[idx]

    def negate_col(i):
        for r in a:
            r[i] = -r[i]
        vinv[i] = [-x for x in vinv[i]]

    def min_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, k):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, k):
        pos = min_pivot(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    add_row(i, t, -q)
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, k):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    add_col(t, j, -q)
                    dirty = dirty or a[t][j] != 0
            if dirty:
                pos = min_pivot(t)
                continue
            # pivot divides everything below-right, or we fold a bad row in and retry
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, k):
                    if a[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
            pos = (t, t)
        if a[t][t] < 0:
            negate_col(t)
        t += 1

    diag = [a[i][i] for i in range(t)] + [0] * (k - t)
    return SmithNormalForm(diagonal=tuple(diag), vinv=tuple(tuple(r) for r in vinv))
