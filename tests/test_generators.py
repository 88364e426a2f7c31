"""Model constructions and the seeded corpus."""

import oracle
import pytest

from groupoidlab import checks, core, document, generators, groups


class TestTransformationGroupoid:
    def test_arrow_count_is_group_times_points(self):
        a = generators.group_action(groups.sym3(), ["x", "y"], [(0, 1)] * 6)   # trivial
        G = generators.transformation_groupoid(a)
        assert G.n == 12
        assert len(G.units) == 2
        assert core.validate(G) == []

    def test_swap_action_gives_the_pair_groupoid_shape(self):
        a = generators.group_action(groups.cyclic(2), ["0", "1"], [(0, 1), (1, 0)])
        G = generators.transformation_groupoid(a)
        assert G.n == 4
        assert oracle.is_effective(G)
        assert len(core.unit_components(G)) == 1

    def test_fixed_points_match_the_action(self, klein_cross):
        fixed = core.fixed_points(klein_cross)
        assert {klein_cross.labels[x] for x in fixed} == {"(e,c)"}

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            # an involution cannot act as a three-cycle
            generators.group_action(groups.cyclic(2), ["0", "1", "2"],
                                    [(0, 1, 2), (1, 2, 0)])
        with pytest.raises(ValueError):
            generators.group_action(groups.cyclic(3), ["0"], [(0,), (0,)])  # wrong shape
        # an entry that is no point index is named, not indexed by
        for act, entry in (([[0, 1], [1, 5]], r"act\[1\]\[1\] is 5,"),
                           ([[0, 1], [1.0, 0]], r"act\[1\]\[0\] is 1.0,"),
                           ([[0, -1], [1, 0]], r"act\[0\]\[1\] is -1,")):
            with pytest.raises(ValueError, match=rf"^not a group action: {entry} not a point "
                                                 r"index in 0\.\.1$"):
                generators.group_action(groups.cyclic(2), ["p", "q"], act)

    def test_trivial_group_gives_trivial_groupoid(self):
        a = generators.group_action(groups.cyclic(1), ["x", "y", "z"], [(0, 1, 2)])
        G = generators.transformation_groupoid(a)
        assert G.n == 3 and G.units == frozenset(range(3))


class TestBundlesAndPairs:
    def test_group_bundle_shape(self, s3_a3):
        assert s3_a3.n == 9
        assert oracle.is_group_bundle(s3_a3)
        assert core.validate(s3_a3) == []

    def test_empty_bundle(self):
        G = generators.group_bundle([])
        assert G.n == 0 and core.validate(G) == []

    def test_pair_groupoid_properties(self):
        G = generators.pair_groupoid(3)
        assert G.n == 9 and len(G.units) == 3
        assert core.validate(G) == []
        assert oracle.is_effective(G)
        assert len(core.unit_components(G)) == 1

    def test_trivial_groupoid_is_all_units(self):
        G = generators.trivial_groupoid(4)
        assert G.units == frozenset(range(4))
        assert core.validate(G) == []


class TestNamedModels:
    def test_klein_cross_shape(self, klein_cross):
        assert klein_cross.n == 20
        assert len(klein_cross.units) == 5
        assert core.validate(klein_cross) == []

    def test_s3_shape(self, s3):
        assert s3.n == 6 and len(s3.units) == 1

    def test_model_registry(self):
        assert set(generators.NAMED_MODELS) == {"klein-cross", "s3", "s3-a3-bundle"}
        for build in generators.NAMED_MODELS.values():
            assert core.validate(build()) == []


class TestRandomCorpus:
    def test_deterministic_in_seed(self):
        for seed in (0, 3, 17, 59):
            a = generators.random_groupoid(seed, 30)
            b = generators.random_groupoid(seed, 30)
            assert document.encode_groupoid(a) == document.encode_groupoid(b)

    def test_different_seeds_differ_somewhere(self):
        docs = {str(document.encode_groupoid(generators.random_groupoid(s, 40)))
                for s in range(12)}
        assert len(docs) > 1

    def test_respects_size_budget(self):
        for seed in range(30):
            for budget in (1, 7, 24, 60):
                G = generators.random_groupoid(seed, budget)
                assert 1 <= G.n <= max(budget, 1)

    def test_every_instance_is_valid(self):
        for seed in range(60):
            G = generators.random_groupoid(seed, 1 + seed % 60)
            assert core.validate(G) == []

    def test_degenerate_budget_gives_a_unit_point(self):
        G = generators.random_groupoid(0, 1)
        assert G.n == 1 and core.validate(G) == []


# (seeds, budget) of the instances the caches are checked on: the corpus
# schedule, then instances of many parts; 4096 arrows draw every (group,
# subgroup) pair of the library
_RUNS = ((range(1000), None), (range(20), 600), (range(5), 4096))


def _instances():
    for seeds, budget in _RUNS:
        for s in seeds:
            b = budget or checks.corpus_budget(s)
            yield (s, b), generators.random_groupoid(s, b)


class TestCosetActions:
    def test_every_library_coset_action_is_an_action(self):
        # _coset_action builds its GroupAction without action_violations
        for g, subs in groups.library_subgroups():
            for sub in subs:
                a = generators._coset_action(g, sub)
                assert generators.action_violations(a) == [], (g.name, sorted(sub))
                assert len(a.points) * len(sub) == g.order


class TestLibrarySubgroups:
    def test_equals_a_fresh_computation(self):
        fresh = [(g, tuple(groups.subgroups(g))) for g in groups.library()]
        assert list(groups.library_subgroups()) == fresh
        assert len(fresh) == len(groups.LIBRARY_BUILDERS) == 17

    def test_memoized_corpus_equals_the_fresh_one(self):
        # random_groupoid draws from the memoized library and takes cached
        # components; the reference draws from subgroups computed afresh
        # and builds each component anew
        library = [(g, tuple(groups.subgroups(g))) for g in groups.library()]
        for (s, b), G in _instances():
            assert G == oracle.random_groupoid_uncached(s, b, library), (s, b)


class TestComponentCache:
    def test_holds_at_most_one_component_per_library_pair(self):
        pairs = sum(len(subs) for _, subs in groups.library_subgroups())
        for _ in _instances():
            assert generators._library_component.cache_info().currsize <= pairs == 64

    def test_no_instance_shares_a_table_with_a_cached_component(self):
        # an index is a dict of lists, which a caller could change; the row
        # tuples cannot change, and a first part's are shared
        instances = [G for _, G in _instances()]
        cached = [generators._library_component(i, j)
                  for i, (_, subs) in enumerate(groups.library_subgroups())
                  for j in range(len(subs))]
        shared = {id(index) for C in cached for index in (C.out_of, C.into)}
        assert not any(id(G.out_of) in shared or id(G.into) in shared for G in instances)
        assert all(isinstance(row, tuple) for G in instances for row in G.rows)
