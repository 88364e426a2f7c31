"""Integer diagonalization with a tracked inverse column transform."""

import random

from groupoidlab.snf import smith_normal_form


def _det(m):
    """Exact determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination: every division is exact."""
    a = [list(r) for r in m]
    sign, prev = 1, 1
    for t in range(len(a)):
        pivot = next((i for i in range(t, len(a)) if a[i][t]), None)
        if pivot is None:
            return 0
        if pivot != t:
            a[t], a[pivot] = a[pivot], a[t]
            sign = -sign
        for i in range(t + 1, len(a)):
            for j in range(t + 1, len(a)):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
        prev = a[t][t]
    return sign * prev


class TestKnownDiagonals:
    def test_diag_2_3_becomes_1_6(self):
        s = smith_normal_form([[2, 0], [0, 3]], width=2)
        assert s.diagonal == (1, 6)
        assert s.rank == 2

    def test_gcd_one_det_three(self):
        s = smith_normal_form([[2, 1], [1, 2]], width=2)
        assert s.diagonal == (1, 3)

    def test_rank_deficient(self):
        # second row is a rational multiple of the first
        s = smith_normal_form([[4, 6], [6, 9]], width=2)
        assert s.diagonal == (1, 0)
        assert s.rank == 1

    def test_no_rows(self):
        s = smith_normal_form([], width=3)
        assert s.diagonal == (0, 0, 0)
        assert s.rank == 0

    def test_single_row(self):
        s = smith_normal_form([[6, 10, 15]], width=3)
        assert s.diagonal == (1, 0, 0)   # gcd(6, 10, 15) = 1

    def test_scalar_matrix(self):
        s = smith_normal_form([[4, 0], [0, 4]], width=2)
        assert s.diagonal == (4, 4)


class TestTransformProperties:
    def test_vinv_is_unimodular(self):
        # an integer matrix of determinant +-1 has an integer inverse, so
        # the rows of vinv are a basis of Z^k
        known = ([[0, 1], [1, 0]], [[2, 1], [1, 2]], [[2, 4], [1, 2]])
        assert [_det(m) for m in known] == [-1, 3, 0]
        rng = random.Random(5)
        for _ in range(25):
            k = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(k)]
                    for _ in range(rng.randint(0, 6))]
            s = smith_normal_form(rows, width=k)
            assert len(s.vinv) == k and all(len(r) == k for r in s.vinv)
            assert _det(s.vinv) in (1, -1)

    def test_divisibility_chain_and_sign(self):
        rng = random.Random(6)
        for _ in range(25):
            k = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(k)]
                    for _ in range(rng.randint(1, 6))]
            s = smith_normal_form(rows, width=k)
            d = [x for x in s.diagonal if x != 0]
            assert all(x > 0 for x in d)
            assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
            # zeros, if any, come after the nonzero entries
            assert list(s.diagonal[:len(d)]) == d

    def test_full_rank_product_matches_determinant(self):
        # for square full-rank input, the product of the diagonal equals |det|
        def det3(m):
            (a, b, c), (d, e, f), (g, h, i) = m
            return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

        rng = random.Random(7)
        done = 0
        while done < 15:
            m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            dm = det3(m)
            if dm == 0:
                continue
            s = smith_normal_form(m, width=3)
            prod = 1
            for x in s.diagonal:
                prod *= x
            assert prod == abs(dm)
            done += 1
