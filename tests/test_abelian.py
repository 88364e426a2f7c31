"""Cyclic decomposition, characters, and the dual of an abelian bundle."""

import collections
import dataclasses
import functools
import importlib.util
import itertools
import sys
from pathlib import Path

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import abelian, checks, core, generators, groups, quotients


def _ab(g):
    return abelian.finite_abelian_group(g.labels, g.table, g.name)


def _product(*ns):
    g = groups.cyclic(ns[0])
    for m in ns[1:]:
        g = groups.direct_product(g, groups.cyclic(m))
    return _ab(g)


@functools.cache
def _family():
    """The duality family's 117 groups, each with its partition expectation."""
    return tuple(pair for n in range(1, 65) for pair in checks.abelian_groups_of_order(n))


def _relabelled(a, p):
    """a with element x renumbered p[x]: the same group, its table permuted."""
    table = [[0] * a.order for _ in range(a.order)]
    for x, row in enumerate(a.table):
        for y, z in enumerate(row):
            table[p[x]][p[y]] = p[z]
    labels = [None] * a.order
    for x, label in enumerate(a.labels):
        labels[p[x]] = label
    return abelian.finite_abelian_group(labels, table, a.name)


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_coords_respect_multiplication(a):
    dec = abelian.invariant_factors(a)
    for x, cx in enumerate(dec.coords):
        for y, cy in enumerate(dec.coords):
            assert dec.coords[a.table[x][y]] == tuple(
                (u + v) % d for u, v, d in zip(cx, cy, dec.factors)), (a.name, x, y)


class TestInvariantFactors:
    @pytest.mark.parametrize("orders,expected", [
        ((1,), ()),
        ((12,), (12,)),
        ((2, 2), (2, 2)),
        ((2, 4), (2, 4)),
        ((2, 6), (2, 6)),
        ((2, 3), (6,)),
        ((4, 6), (2, 12)),
        ((2, 2, 2), (2, 2, 2)),
        ((8, 9), (72,)),
        ((2, 4, 3), (2, 12)),
    ])
    def test_known_decompositions(self, orders, expected):
        assert abelian.invariant_factors(_product(*orders)).factors == expected

    def test_klein_group(self):
        assert abelian.invariant_factors(_ab(groups.klein())).factors == (2, 2)

    def test_generator_orders_match_factors(self):
        for _, a in _family():
            dec = abelian.invariant_factors(a)
            assert tuple(a.order_of(t) for t in dec.generators) == dec.factors, a.name

    def test_coords_are_a_bijection(self):
        for _, a in _family():
            dec = abelian.invariant_factors(a)
            assert sorted(dec.coords) == list(
                itertools.product(*(range(d) for d in dec.factors))), a.name

    def test_coords_respect_multiplication(self):
        for _, a in _family():
            _assert_coords_respect_multiplication(a)

    def test_factors_match_the_partition_and_the_relation_route(self):
        for expected, a in _family():
            dual = abelian.char_group_structure(abelian.characters(a))
            assert (abelian.invariant_factors(a).factors == expected
                    == oracle.invariant_factors_by_relations(a)), a.name
            assert (abelian.invariant_factors(dual).factors == expected
                    == oracle.invariant_factors_by_relations(dual)), a.name

    def test_corpus_fibers_match_the_relation_route(self, corpus200):
        fibers = 0
        for seed, G in corpus200:
            for a in quotients.abelianize_groupoid(G).dual.fiber_groups.values():
                assert (abelian.invariant_factors(a).factors
                        == oracle.invariant_factors_by_relations(a)), seed
                fibers += 1
        assert fibers > 200

    def test_a_generator_whose_index_is_below_its_order(self):
        # C4 renumbered 0, 2, 1, 3: the greedy generators are the old 2 and
        # the old 1, of order 4 but index [C4 : <old 2>] = 2
        a = _relabelled(_product(4), (0, 2, 1, 3))
        assert groups.generating_set(a) == [1, 2]
        assert abelian.invariant_factors(a).factors == (4,)
        _assert_coords_respect_multiplication(a)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_relabelled_family_groups_decompose(self, data):
        # renumbering the elements changes the greedy generators, whose
        # indices [H_i : H_(i-1)] need not be their orders
        expected, a = data.draw(st.sampled_from(_family()))
        a = _relabelled(a, data.draw(st.permutations(range(a.order))))
        dec = abelian.invariant_factors(a)
        assert dec.factors == expected == oracle.invariant_factors_by_relations(a)
        assert tuple(a.order_of(t) for t in dec.generators) == dec.factors
        assert sorted(dec.coords) == list(itertools.product(*(range(d) for d in dec.factors)))
        _assert_coords_respect_multiplication(a)

    def test_rejects_nonabelian(self):
        with pytest.raises(ValueError, match="not commutative"):
            _ab(groups.sym3())

    @pytest.mark.parametrize("build, exponent", [
        (groups.dihedral4, 4), (groups.sym3, 6), (groups.quaternion8, 4)])
    def test_a_table_built_directly_that_does_not_commute(self, build, exponent):
        # the dataclass skips finite_abelian_group's check: D4 once decomposed
        # as (2, 4) and S3 and Q8 failed an assert; the memo keeps nothing
        g = build()
        a = abelian.FiniteAbelianGroup(g.name, g.labels, g.table, g.identity, exponent)
        message = f"^{g.name}: multiplication table is not commutative$"
        for call in (abelian.invariant_factors, abelian.characters):
            with pytest.raises(ValueError, match=message):
                call(a)
        assert (a.table, a.identity) not in abelian.invariant_factors.memo


class TestOneGeneratingSet:
    def test_each_group_fact_reads_the_generating_set(self, monkeypatch, abelian_family):
        real = groups.generating_set
        read = []
        monkeypatch.setattr(groups, "generating_set", lambda g: read.append(g) or real(g))
        for a in abelian_family[::10]:
            for fact in (abelian.invariant_factors.__wrapped__, abelian._with_exponent,
                         groups.is_abelian):
                read.clear()
                fact(a)
                assert read and all(g is a for g in read), (fact.__name__, a.name)

    def test_greedy_generators_runs_once_per_table(self, monkeypatch, abelian_family):
        # the group facts of a family group and of its character group share
        # one generating set per table
        real = core.greedy_generators
        runs = collections.Counter()

        def counted(rows, *args):
            runs[rows] += 1
            return real(rows, *args)
        monkeypatch.setattr(core, "greedy_generators", counted)
        oracle.clear_table_memos()
        for a in abelian_family:
            dual = abelian.char_group_structure(abelian.characters(a))
            for g in (a, dual):
                abelian.invariant_factors(g)
                abelian._with_exponent(g)
                groups.is_abelian(g)
        assert len(runs) > len(abelian_family) and set(runs.values()) == {1}


class TestCharacters:
    @pytest.mark.parametrize("n, exponent", [(8, 4), (8, 16), (1, 2)])
    def test_an_exponent_other_than_the_largest_factor_is_refused(self, n, exponent):
        # the dataclass takes any exponent: with 4 on C8 every basis
        # exponent c * (4 // 8) is 0, and eight trivial characters came back
        g = groups.cyclic(n)
        a = abelian.FiniteAbelianGroup(g.name, g.labels, g.table, g.identity, exponent)
        message = f"^C{n}: exponent {exponent} is not the largest invariant factor {n}$"
        with pytest.raises(ValueError, match=message):
            abelian.characters(a)

    def test_groups_built_with_their_exponent_pass(self, abelian_family, tmp_path):
        # the family's groups come from _with_exponent; the benchmark's
        # relabelled copies pass exponent= to the dataclass
        relabelled = [a for _, a in _perfbench_workloads().setup_family(0, "full", tmp_path)["family"]]
        assert len(relabelled) == len(abelian_family) == 117
        for a in abelian_family + relabelled:
            assert len(abelian.characters(a)) == a.order, a.name

    @pytest.mark.parametrize("orders", [(1,), (5,), (2, 2), (2, 4), (12,), (4, 6)])
    def test_count_equals_order(self, orders):
        a = _product(*orders)
        chars = abelian.characters(a)
        assert len(chars) == a.order
        assert len({chi.exps for chi in chars}) == a.order

    def test_all_characters_are_homomorphisms(self):
        for orders in [(6,), (2, 4), (3, 3), (8,)]:
            for chi in abelian.characters(_product(*orders)):
                assert oracle.character_violations(chi) == []

    def test_accumulation_matches_the_per_value_formula(self, abelian_family):
        for a in abelian_family:
            assert abelian.characters(a) == oracle.characters_by_formula(a), a.name

    def test_accumulation_matches_the_per_value_formula_on_the_corpus_fibers(self, corpus200):
        fibers = 0
        for seed, G in corpus200:
            for a in quotients.abelianize_groupoid(G).dual.fiber_groups.values():
                assert abelian.characters(a) == oracle.characters_by_formula(a), (seed, a.name)
                fibers += 1
        assert fibers > 200

    def test_trivial_character_comes_first(self):
        chars = abelian.characters(_product(2, 4))
        assert not any(chars[0].exps)
        assert sum(not any(chi.exps) for chi in chars) == 1

    def test_orthogonality(self):
        a = _product(2, 6)
        chars = abelian.characters(a)
        for g in range(a.order):
            total = sum(oracle.character_value(chi, g) for chi in chars)
            if g == a.identity:
                assert abs(total - a.order) < 1e-9
            else:
                assert abs(total) < 1e-9

    def test_cyclic_four_has_a_character_with_value_i(self):
        chars = abelian.characters(_ab(groups.cyclic(4)))
        g = 1   # the standard generator of the cyclic table
        values = {complex(round(v.real, 9), round(v.imag, 9))
                  for v in (oracle.character_value(chi, g) for chi in chars)}
        assert values == {1 + 0j, 1j, -1 + 0j, -1j}

    def test_character_group_has_same_factors(self):
        for orders in [(2, 4), (12,), (2, 2, 2), (4, 6)]:
            a = _product(*orders)
            dual = abelian.char_group_structure(abelian.characters(a))
            assert (abelian.invariant_factors(dual).factors
                    == abelian.invariant_factors(a).factors)

    def test_character_group_satisfies_the_group_axioms(self):
        # char_group_structure builds its table without validating it
        for n in range(1, 25):
            for _, a in checks.abelian_groups_of_order(n):
                dual = abelian.char_group_structure(abelian.characters(a))
                assert groups.group_violations(dual) == []
                assert groups.is_abelian(dual)


def _full_tuple_char_group(fiber):
    """The character group keyed by every value, as char_group_structure once
    built it: the reference for its generator-keyed table."""
    host = fiber[0].host
    nn = host.exponent
    index = {tuple(e % nn for e in chi.exps): i for i, chi in enumerate(fiber)}
    assert len(index) == len(fiber) == host.order
    table = [[index[tuple((u + v) % nn for u, v in zip(x.exps, y.exps))] for y in fiber]
             for x in fiber]
    return groups.FiniteGroup(
        name=f"dual({host.name})", labels=tuple(f"chi{i}" for i in range(len(fiber))),
        table=tuple(map(tuple, table)), identity=index[(0,) * host.order])


class TestCharGroupStructure:
    def test_matches_the_full_tuple_table_on_the_family(self):
        for n in range(1, 65):
            for _, a in checks.abelian_groups_of_order(n):
                chars = abelian.characters(a)
                assert abelian.char_group_structure(chars) == _full_tuple_char_group(chars), a.name

    def test_matches_the_full_tuple_table_on_the_corpus_fibers(self):
        fibers = 0
        for seed in range(200):
            G = generators.random_groupoid(seed, checks.corpus_budget(seed))
            for chars in quotients.abelianize_groupoid(G).dual.fibers.values():
                assert (abelian.char_group_structure(chars)
                        == _full_tuple_char_group(chars)), seed
                fibers += 1
        assert fibers > 200

    def test_one_index_hosts(self, abelian_family):
        # the order-1 host has one value per character and no generator, so
        # its one row is set directly; a group that one element generates
        # has one-generator keys, each gathered by core._gather of one index
        trivial = _ab(groups.cyclic(1))
        chars = abelian.characters(trivial)
        assert [chi.exps for chi in chars] == [(0,)]
        assert abelian.char_group_structure(chars).table == ((0,),)
        hosts = [_ab(groups.cyclic(n)) for n in range(1, 65)] + [
            a for a in abelian_family if len(abelian.invariant_factors(a).factors) <= 1]
        for a in hosts:
            chars = abelian.characters(a)
            assert abelian.char_group_structure(chars) == _full_tuple_char_group(chars), a.name
        assert sum(len(groups.generating_set(a)) == 1 for a in hosts) > 64

    def test_exponents_out_of_range_give_the_same_table(self, abelian_family):
        for a in abelian_family[::7] + [_ab(groups.cyclic(2))]:
            chars = abelian.characters(a)
            nn = a.exponent
            for shift in (nn, -nn):
                shifted = [dataclasses.replace(chi, exps=tuple(e + shift for e in chi.exps))
                           for chi in chars]
                assert (abelian.char_group_structure(shifted)
                        == abelian.char_group_structure(chars)), (a.name, shift)
            one = list(chars)   # one value of one character out of range
            one[-1] = dataclasses.replace(one[-1], exps=(-nn,) + one[-1].exps[1:])
            assert abelian.char_group_structure(one) == abelian.char_group_structure(chars)

    @pytest.mark.parametrize("factors", [(2, 6), (2, 2, 2, 2, 2, 2), (4, 4), (3, 9), (2, 4, 8),
                                         (64,)])
    def test_a_bent_value_is_refused_however_its_row_is_filled(self, factors):
        # the zero character and a looked-up one take the generator test, a
        # composed one the sum check; a bend of any one value, a generator's
        # included, is refused with the generator test's message
        a = _product(*factors)
        chars = abelian.characters(a)
        looked = oracle.looked_up_characters(chars)
        composed = next(i for i in range(a.order) if i not in looked)
        assert looked[0] == 0 and len(looked) > 1
        for c in (looked[0], looked[-1], composed):
            for x in range(a.order):
                exps = list(chars[c].exps)
                exps[x] = (exps[x] + 1) % a.exponent
                bent = list(chars)
                bent[c] = dataclasses.replace(chars[c], exps=tuple(exps))
                g = oracle.generator_test_fault(bent[c])
                with pytest.raises(ValueError, match=f"^character {c} is not a homomorphism "
                                                     f"at generator {g}$"):
                    abelian.char_group_structure(bent)

    def _fiber(self):
        return abelian.characters(_product(2, 6))

    def test_rejects_a_non_homomorphism(self):
        chars = self._fiber()
        chi = chars[3]
        bent = list(chi.exps)
        bent[5] = (bent[5] + 1) % chi.modulus
        chars[3] = dataclasses.replace(chi, exps=tuple(bent))
        with pytest.raises(ValueError, match="^character 3 is not a homomorphism at generator 1$"):
            abelian.char_group_structure(chars)
        # out of range and bent: reduced first, then rejected the same way
        chars[3] = dataclasses.replace(chi, exps=tuple(e + chi.modulus for e in bent))
        with pytest.raises(ValueError, match="^character 3 is not a homomorphism at generator 1$"):
            abelian.char_group_structure(chars)

    def test_rejects_a_character_of_the_wrong_length(self):
        # checked before any value is read: no IndexError from a short list,
        # no min() of an empty one, no homomorphism fault for a long one
        chars = abelian.characters(_ab(groups.cyclic(4)))
        for exps in (chars[2].exps[:3], (), chars[2].exps + (0,)):
            bad = list(chars)
            bad[2] = dataclasses.replace(chars[2], exps=exps)
            with pytest.raises(ValueError,
                               match=f"^character 2 has {len(exps)} values; C4 has 4 elements$"):
                abelian.char_group_structure(bad)

    def test_rejects_a_duplicated_character(self):
        chars = self._fiber()
        chars[3] = chars[4]
        with pytest.raises(ValueError, match="^character list is not the complete dual$"):
            abelian.char_group_structure(chars)

    def test_rejects_a_missing_character(self):
        with pytest.raises(ValueError, match="^character list is not the complete dual$"):
            abelian.char_group_structure(self._fiber()[:-1])


class TestDualBundle:
    def test_abelian_bundle_dualizes_fiberwise(self):
        G = generators.group_bundle([("u", groups.cyclic(2)), ("v", groups.klein())])
        dual = abelian.dual_bundle(G)
        assert len(dual.base) == 2
        assert dual.size() == 6
        sizes = sorted(len(dual.fibers[x]) for x in dual.base)
        assert sizes == [2, 4]

    def test_rejects_nonabelian_fiber(self, s3):
        with pytest.raises(ValueError) as exc:
            abelian.dual_bundle(s3)
        assert str(exc.value) == ("fiber at unit e@p is not abelian: "
                                  "fiber@e@p: multiplication table is not commutative")

    def test_rejects_non_bundle(self, pair2):
        with pytest.raises(ValueError):
            abelian.dual_bundle(pair2)

    def test_fiber_group_matches_isotropy(self, klein_cross):
        c = klein_cross.label_index("(e,c)")
        g, arrows = core.isotropy_group(klein_cross, c)
        a = abelian.finite_abelian_group(g.labels, g.table, g.name)
        assert a.order == 4 and len(arrows) == 4
        assert abelian.invariant_factors(a).factors == (2, 2)
