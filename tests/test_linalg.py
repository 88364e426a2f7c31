"""Exact Gaussian-rational scalars and sparse row reduction."""

from fractions import Fraction

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import QI1, QI_I

from groupoidlab import linalg
from groupoidlab.linalg import (
    BinomialSpan,
    Echelon,
    Qi,
    kernel_basis,
    same_span,
    vec_iadd_scaled,
)


class TestQi:
    def test_field_arithmetic(self):
        a = Qi(1, 2)
        b = Qi(3, -1)
        assert a * b == Qi(5, 5)
        assert a + b == Qi(4, 1)
        assert a - b == Qi(-2, 3)
        assert -a == Qi(-1, -2)

    def test_i_squared_is_minus_one(self):
        assert QI_I * QI_I == Qi(-1)

    def test_division_is_exact(self):
        a = Qi(Fraction(1, 3), Fraction(1, 7))
        b = Qi(2, 5)
        assert (a / b) * b == a
        with pytest.raises(ZeroDivisionError):
            a / Qi(0)

    def test_conjugate_and_modulus(self):
        a = Qi(3, 4)
        assert a.conjugate() == Qi(3, -4)
        assert a * a.conjugate() == Qi(25)

    def test_fraction_exactness_survives_long_products(self):
        x = Qi(Fraction(1, 3), Fraction(1, 3))
        y = x
        for _ in range(20):
            y = y * x
        z = y
        for _ in range(21):
            z = z / x
        assert z == Qi(1)

    def test_to_complex(self):
        assert oracle.qi_complex(Qi(Fraction(1, 2), Fraction(-3, 2))) == 0.5 - 1.5j

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Qi(1) + 0.5


class TestVectors:
    def test_iadd_scaled_cancels_to_empty(self):
        dst = {0: QI1, 1: Qi(2)}
        vec_iadd_scaled(dst, {0: QI1, 1: Qi(2)}, Qi(-1))
        assert dst == {}


class TestEchelon:
    def test_rank_counts_independent_rows(self):
        ech = Echelon()
        assert ech.insert({0: QI1, 1: QI1})
        assert ech.insert({1: QI1, 2: QI1})
        assert ech.insert({0: QI1, 2: Qi(-1)}) is None   # sum of the first two... minus
        assert ech.rank == 2

    def test_dependent_complex_rows(self):
        ech = Echelon()
        assert ech.insert({0: QI_I, 1: QI1})
        # i * (1, -i) = (i, 1): the same line over the Gaussian rationals
        assert ech.insert({0: QI1, 1: QI_I * Qi(-1)}) is None
        assert ech.rank == 1

    def test_contains(self):
        ech = Echelon()
        ech.insert({0: QI1, 1: QI1})
        ech.insert({2: QI1})
        assert ech.contains({0: Qi(3), 1: Qi(3), 2: Qi(-7)})
        assert not ech.contains({0: QI1})
        assert ech.contains({})

    def test_rows_are_canonical_regardless_of_insertion_order(self):
        vectors = [{0: QI1, 1: Qi(2)}, {1: QI1, 2: Qi(3)}, {0: Qi(2), 2: Qi(5)}]
        ech1, ech2 = Echelon(), Echelon()
        for v in vectors:
            ech1.insert(dict(v))
        for v in reversed(vectors):
            ech2.insert(dict(v))
        rows1, rows2 = ech1.rows(), ech2.rows()
        assert len(rows1) == len(rows2)
        assert rows1 == rows2

    def test_explicit_zero_coefficients_are_the_zero_vector(self):
        assert Echelon().contains({0: Qi(0)})
        ech = Echelon()
        assert ech.insert({3: Qi(0)}) is None
        assert ech.insert({0: QI1, 3: Qi(0)}) == {0: QI1}
        assert ech.rank == 1


class TestKernel:
    def test_single_equation_kernel(self):
        # x0 + x1 - x2 = 0 in three unknowns
        basis = kernel_basis([{0: QI1, 1: QI1, 2: Qi(-1)}], width=3)
        assert len(basis) == 2
        for v in basis:
            total = QI1 * Qi(0)
            for k, c in v.items():
                coeff = {0: QI1, 1: QI1, 2: Qi(-1)}[k]
                total = total + coeff * c
            assert total == Qi(0)

    def test_full_rank_system_has_trivial_kernel(self):
        eqs = [{0: QI1}, {1: QI1, 0: QI_I}]
        assert kernel_basis(eqs, width=2) == []

    def test_zero_system_kernel_is_everything(self):
        assert len(kernel_basis([], width=4)) == 4


class TestSameSpan:
    def test_same_plane_different_bases(self):
        a = [{0: QI1}, {1: QI1}]
        b = [{0: QI1, 1: QI1}, {0: QI1, 1: Qi(-1)}]
        assert same_span(a, b)

    def test_subspace_is_not_the_whole_space(self):
        assert not same_span([{0: QI1}], [{0: QI1}, {1: QI1}])
        assert not same_span([{0: QI1}, {1: QI1}], [{0: QI1}])

    def test_empty_spans(self):
        assert same_span([], [])
        assert not same_span([], [{0: QI1}])


def _span(ops):
    """A BinomialSpan from (u, v) binomials and (u,) monomials."""
    span = BinomialSpan()
    for op in ops:
        span.union(*op) if len(op) == 2 else span.kill(*op)
    return span


def _vector(op):
    if len(op) == 1:
        return {op[0]: QI1}
    return {op[0]: QI1, op[1]: Qi(-1)} if op[0] != op[1] else {}


class TestBinomialSpan:
    def test_union_grows_rank_once_per_merge(self):
        span = BinomialSpan()
        assert span.union(0, 1)
        assert span.union(1, 2)
        assert not span.union(0, 2)    # e0 - e2 = (e0 - e1) + (e1 - e2)
        assert not span.union(3, 3)
        assert span.rank == 2

    def test_kill_marks_a_whole_class(self):
        span = BinomialSpan()
        span.union(0, 1)
        assert span.kill(1)
        assert not span.kill(0)        # e0 = (e0 - e1) + e1
        assert span.kill(2)
        assert not span.union(0, 2)    # joins two killed classes
        assert span.union(2, 4)        # a killed class takes in an untouched arrow
        assert span.contains({4: QI1})
        assert span.rank == 4

    def test_contains_takes_any_coefficients(self):
        span = _span([(0, 1), (1, 2), (5,)])
        assert span.contains({0: Qi(2, 1), 1: Qi(-3), 2: Qi(1, -1), 5: Qi(7, 2)})
        assert not span.contains({0: QI1, 1: QI1})
        assert not span.contains({3: QI1, 0: QI1, 1: Qi(-1)})   # 3 is untouched
        assert span.contains({})
        assert span.contains({3: Qi(0)})

    def test_vectors_are_a_plus_minus_one_basis(self):
        span = _span([(2, 0), (0, 4), (3,), (3, 6), (7, 7)])
        vectors = span.vectors()
        assert vectors == [{0: QI1, 2: Qi(-1)}, {0: QI1, 4: Qi(-1)}, {3: QI1}, {6: QI1}]
        assert len(vectors) == span.rank
        assert all(span.contains(v) for v in vectors)

    def test_equality_is_subspace_equality(self):
        assert _span([(0, 1), (1, 2)]) == _span([(2, 0), (1, 0)])
        assert _span([(0, 1), (1,)]) == _span([(0,), (1,)])
        assert _span([(0, 1), (5, 5)]) == _span([(1, 0)])     # singleton classes aside
        assert _span([(0, 1)]) != _span([(0, 2)])
        assert _span([(0, 1)]) != _span([(0,), (1,)])
        assert BinomialSpan() == BinomialSpan()
        assert BinomialSpan() != [{}]

    def test_equality_edge_cases(self):
        # untouched coordinates and unkilled singletons hold no vector
        assert _span([(0, 1), (3, 3)]) == _span([(1, 0)])
        assert _span([(4, 4), (5, 5)]) == BinomialSpan()
        assert _span([(2,)]) != BinomialSpan()
        assert _span([(2,)]) != _span([(2, 2)])
        # equal rank, different partitions
        assert _span([(0, 1), (2, 3)]) != _span([(0, 1), (1, 2)])
        assert _span([(0, 1), (2, 3)]) != _span([(0, 2), (1, 3)])
        assert _span([(0,)]) != _span([(1,)])
        assert _span([(0, 1), (2,)]) != _span([(0, 1), (3,)])
        # the same members killed in one span and unkilled in the other
        assert _span([(0, 1), (1, 2), (5,)]) != _span([(0,), (1, 2), (2, 0)])
        assert _span([(0, 1)]) != _span([(0,), (1,)])

    def test_equality_builds_no_gaussian_rational(self, monkeypatch):
        pairs = [(_span(a), _span(b)) for a, b in (
            ([(0, 1), (1, 2), (5,)], [(2, 0), (1, 0), (5,)]),
            ([(0, 1), (1, 2), (5,)], [(0,), (1, 2), (2, 0)]),
            ([(0, 1), (2, 3)], [(0, 2), (1, 3)]))]

        def refuse(*args):
            raise AssertionError("built a Qi")
        monkeypatch.setattr(linalg, "Qi", refuse)
        assert [a == b for a, b in pairs] == [True, False, False]


_ops = st.lists(st.one_of(st.tuples(st.integers(0, 7)),
                          st.tuples(st.integers(0, 7), st.integers(0, 7))), max_size=12)
_coeffs = st.builds(Qi, st.integers(-2, 2), st.integers(-2, 2))


class TestBinomialSpanAgainstEchelon:
    @settings(max_examples=300, deadline=None)
    @given(_ops, _ops, st.lists(st.dictionaries(st.integers(0, 7), _coeffs, max_size=4),
                                max_size=6))
    def test_rank_contains_and_equality_agree(self, ops_a, ops_b, probes):
        span, ech = BinomialSpan(), Echelon()
        for op in ops_a:
            grew = span.union(*op) if len(op) == 2 else span.kill(*op)
            assert grew == (ech.insert(_vector(op)) is not None)
        assert span.rank == ech.rank
        for vec in probes + [_vector(op) for op in ops_b]:
            assert span.contains(vec) == ech.contains(vec)
        assert same_span(span.vectors(), ech.rows())
        other = _span(ops_b)
        assert (span == other) == same_span([_vector(op) for op in ops_a],
                                            [_vector(op) for op in ops_b])
