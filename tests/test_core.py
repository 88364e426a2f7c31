"""Groupoid tables, axiom validation, and structural subsets."""

import dataclasses
import tracemalloc

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import algebra, checks, core, generators, groups, quotients


def _kinds(violations):
    return {v.kind for v in violations}


def _with_comp(G, comp):
    """G's tables with comp for its products, entering through from_comp."""
    return core.FiniteGroupoid.from_comp(G.n, G.units, G.src, G.rng, comp, G.inv, G.labels)


def _refused(G, comp):
    """The malformed listing from_comp refuses G's tables with comp by."""
    with pytest.raises(core.MalformedTable) as err:
        _with_comp(G, comp)
    return err.value.violations


class TestValidate:
    def test_named_models_are_valid(self, klein_cross, s3, s3_a3, pair2):
        for G in (klein_cross, s3, s3_a3, pair2,
                  generators.trivial_groupoid(3), generators.pair_groupoid(4)):
            assert core.validate(G) == []

    def test_empty_groupoid_is_valid(self):
        G = generators.group_bundle([])
        assert G.n == 0
        assert core.validate(G) == []

    def test_out_of_range_src_is_malformed(self, klein_cross):
        bad = dataclasses.replace(klein_cross,
                                  src=(99,) + klein_cross.src[1:])
        assert _kinds(core.validate(bad)) == {core.MALFORMED}

    def test_row_table_built_directly_is_listed_by_its_triples(self, klein_cross):
        # a row table that fails the shape check is listed as from_comp lists
        # its triples: a product out of range is named with its pair, and
        # rows that do not fit src and rng are one violation
        G = klein_cross
        rows = [list(row) for row in G.rows]
        rows[3][0] = G.n
        bad = dataclasses.replace(G, rows=tuple(map(tuple, rows)))
        assert [(v.message, v.witness) for v in core.validate(bad)] == [
            ("comp entry out of range", (3, G.into[G.src[3]][0], G.n))]
        short = dataclasses.replace(G, rows=G.rows[:-1])
        assert [(v.message, v.witness) for v in core.validate(short)] == [
            ("rows do not fit src and rng", (G.n,))]

    def test_missing_composable_pair_is_malformed(self, klein_cross):
        comp = dict(oracle.products(klein_cross))
        pair = next((a, b) for (a, b) in comp
                    if a not in klein_cross.units and b not in klein_cross.units)
        del comp[pair]
        assert [(v.kind, v.message, v.witness) for v in _refused(klein_cross, comp)] == [
            (core.MALFORMED, "comp undefined on composable pair", pair)]

    def test_missing_pair_is_listed_beside_a_stray_entry(self, klein_cross):
        # one composable pair too few and one stray entry too many: the entry
        # count is right, and the missing pair is still listed
        G = klein_cross
        a = next(g for g in G.arrows() if G.src[g] != G.rng[g])
        products = oracle.products(G)
        pair = next((x, y) for (x, y) in products if x not in G.units and y not in G.units)
        comp = dict(products)
        del comp[pair]
        comp[(a, a)] = a
        assert len(comp) == len(products)
        assert [(v.message, v.witness) for v in _refused(G, comp)] == [
            ("comp defined on non-composable pair", (a, a)),
            ("comp undefined on composable pair", pair)]

    def test_entry_that_would_fill_a_missing_pairs_slot_is_refused(self, klein_cross):
        # (a, b) does not compose, but b has the place of the missing (a, c)
        # among the arrows into its range; and (a - n, c) is out of range,
        # but a negative index wraps to a: either product would fill the
        # slot that (a, c) leaves empty
        G = klein_cross
        a, b, c = next((a, b, c) for a in G.arrows() for c in G.into[G.src[a]]
                       for b in G.arrows() if G.rng[b] != G.src[a] and G.pos[b] == G.pos[c])
        comp = dict(oracle.products(G))
        ac = comp.pop((a, c))
        assert [(v.message, v.witness) for v in _refused(G, {**comp, (a, b): ac})] == [
            ("comp defined on non-composable pair", (a, b)),
            ("comp undefined on composable pair", (a, c))]
        assert [(v.message, v.witness) for v in _refused(G, {**comp, (a - G.n, c): ac})] == [
            ("comp entry out of range", (a - G.n, c, ac)),
            ("comp undefined on composable pair", (a, c))]

    def test_non_composable_entry_is_malformed(self, klein_cross):
        G = klein_cross
        a = next(g for g in G.arrows() if G.src[g] != G.rng[g])
        comp = dict(oracle.products(G))
        comp[(a, a)] = a   # src(a) != rng(a), so (a, a) is not composable
        assert _kinds(_refused(G, comp)) == {core.MALFORMED}

    def test_fake_unit_breaks_unit_law(self, klein_cross):
        G = klein_cross
        moving = next(g for g in G.arrows() if G.src[g] != G.rng[g])
        bad = dataclasses.replace(G, units=G.units | {moving})
        kinds = _kinds(core.validate(bad))
        assert kinds == {core.UNIT_LAW}

    def test_wrong_unit_product_breaks_identity_law(self, klein_cross):
        G = klein_cross
        c = G.label_index("(e,c)")
        s = G.label_index("(s,c)")
        comp = dict(oracle.products(G))
        comp[(c, c)] = s
        bad = _with_comp(G, comp)
        assert core.IDENTITY_LAW in _kinds(core.validate(bad))

    def test_product_at_wrong_unit_breaks_compatibility(self, klein_cross):
        G = klein_cross
        s_c = G.label_index("(s,c)")
        s_far = G.label_index("(s,x+)")
        comp = dict(oracle.products(G))
        comp[(s_c, s_c)] = s_far
        bad = _with_comp(G, comp)
        assert core.COMPATIBILITY in _kinds(core.validate(bad))

    def test_scrambled_product_breaks_associativity(self, s3):
        G = s3
        s = G.label_index("s@p")
        t = G.label_index("t@p")
        e = G.label_index("e@p")
        comp = dict(oracle.products(G))
        comp[(s, t)] = e   # wrong element of the same one-object fiber
        bad = _with_comp(G, comp)
        assert core.ASSOCIATIVITY in _kinds(core.validate(bad))

    def test_wrong_inverse_breaks_inverse_law(self, s3):
        G = s3
        s = G.label_index("s@p")
        inv = list(G.inv)
        inv[s] = s   # s has order three, so it is not its own inverse
        bad = dataclasses.replace(G, inv=tuple(inv))
        assert core.INVERSE_LAW in _kinds(core.validate(bad))


def _same_ends(G, g):
    return [h for h in G.arrows() if G.src[h] == G.src[g] and G.rng[h] == G.rng[g]]


@st.composite
def _bent_tables(draw):
    """A library or random groupoid with one to three products replaced by
    another arrow between the same units.  The table stays compatible, so
    validation reaches associativity, and is often not associative."""
    G = draw(st.one_of(
        st.sampled_from([generators.klein_cross(), generators.s3_a3_bundle(),
                         generators.group_bundle([("p", groups.LIBRARY_BUILDERS["Q8"]())])]),
        st.builds(generators.random_groupoid, st.integers(0, 10**6), st.integers(1, 40))))
    comp = dict(oracle.products(G))
    pairs = sorted(comp)
    for _ in range(draw(st.integers(1, 3))):
        pair = draw(st.sampled_from(pairs))
        comp[pair] = draw(st.sampled_from(_same_ends(G, comp[pair])))
    return _with_comp(G, comp)


@st.composite
def _corrupted_tables(draw):
    """The raw tables of a library or corpus groupoid with one to three
    corruptions, as a caller passes them to from_comp, each of
    a kind drawn: a comp entry changed, removed, added on a non-composable
    pair or moved to a key out of range (a negative one aliases an arrow);
    a comp value, src, rng, inv or unit out of range; src or rng off the
    units, or a unit dropped; a fake unit; an inverse changed; or a product
    bent to another arrow between the same units, twice as likely as each
    other kind."""
    G = draw(st.one_of(
        st.sampled_from([generators.klein_cross(), generators.s3_a3_bundle(),
                         generators.pair_groupoid(3), generators.trivial_groupoid(2)]),
        st.builds(lambda seed: generators.random_groupoid(seed, checks.corpus_budget(seed)),
                  st.integers(0, 199))))
    n = G.n
    products = oracle.products(G)
    units, comp = set(G.units), dict(products)
    tables = {"src": list(G.src), "rng": list(G.rng), "inv": list(G.inv)}
    arrow = st.integers(0, n - 1)
    outside = st.sampled_from([-1, -2, n, n + 3])
    stray = [(a, b) for a in G.arrows() for b in G.arrows() if G.src[a] != G.rng[b]]
    non_units = [g for g in G.arrows() if g not in G.units]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["change", "remove", "add", "key-out", "value-out",
                                     "table-out", "unit-out", "off-units", "unit-dropped",
                                     "fake-unit", "inverse", "bent", "bent"]))
        pair = draw(st.sampled_from(sorted(products)))
        if kind == "change":
            comp[pair] = draw(arrow)
        elif kind == "remove":
            comp.pop(pair, None)
        elif kind == "add" and stray:
            comp[draw(st.sampled_from(stray))] = draw(arrow)
        elif kind == "key-out":
            a, b = pair
            comp[draw(st.sampled_from([(a - n, b), (a, b - n), (a + n, b)]))] = comp.pop(pair, a)
        elif kind == "value-out":
            comp[pair] = draw(outside)
        elif kind == "table-out":
            tables[draw(st.sampled_from(sorted(tables)))][draw(arrow)] = draw(outside)
        elif kind == "unit-out":
            units.add(draw(outside))
        elif kind == "off-units" and non_units:
            tables[draw(st.sampled_from(["src", "rng"]))][draw(arrow)] = draw(st.sampled_from(non_units))
        elif kind == "unit-dropped":
            units.discard(draw(st.sampled_from(sorted(G.units))))
        elif kind == "fake-unit" and non_units:
            units.add(draw(st.sampled_from(non_units)))
        elif kind == "inverse":
            tables["inv"][draw(arrow)] = draw(arrow)
        elif kind == "bent":
            comp[pair] = draw(st.sampled_from(_same_ends(G, products[pair])))
    return oracle.RawTable(n=n, units=frozenset(units), src=tuple(tables["src"]),
                           rng=tuple(tables["rng"]), comp=comp, inv=tuple(tables["inv"]),
                           labels=G.labels)


class TestLightsTest:
    @settings(max_examples=150, deadline=None)
    @given(_bent_tables())
    def test_agrees_with_the_cubic_oracle(self, G):
        found = core.validate(G)
        assert _kinds(found) <= {core.IDENTITY_LAW, core.ASSOCIATIVITY, core.INVERSE_LAW}
        triples = [v.witness for v in found if v.kind == core.ASSOCIATIVITY]
        every = oracle.groupoid_associativity_violations(G)
        assert bool(triples) == bool(every)
        assert set(triples) <= set(every)

    def test_fault_at_an_untested_middle_is_found(self):
        # C5 on one unit: the right powers of g reach every arrow, so S = [g]
        # and only e and g are tested as middles.  Bending g2.g2 from g4 to g
        # keeps the identity and inverse laws and breaks associativity at
        # middles outside {e, g}; Light's test still finds a failure at g.
        G = generators.group_bundle([("p", groups.cyclic(5))])
        e, g, g2 = (G.label_index(f"{x}@p") for x in ("e", "g", "g2"))
        comp = dict(oracle.products(G))
        comp[(g2, g2)] = g
        bad = _with_comp(G, comp)
        assert core.generating_arrows(bad) == [g]
        every = oracle.groupoid_associativity_violations(bad)
        assert {b for _, b, _ in every} - {e, g}
        found = core.validate(bad)
        assert _kinds(found) == {core.ASSOCIATIVITY}
        triples = [v.witness for v in found]
        assert {b for _, b, _ in triples} <= {e, g}
        assert set(triples) <= set(every)

    def test_an_identity_law_failure_tests_the_units_as_middles(self, klein_cross, corpus40):
        # g.src(g) redirected to another arrow between the same units keeps
        # the table compatible and breaks the identity law at g; then every
        # failing triple with a middle among the units and S is listed, in
        # order of (b, a, c), as when the units were always tested
        unit_middles = 0
        for G in (klein_cross, *(G for _, G in corpus40)):
            for g in G.arrows():
                other = next((h for h in _same_ends(G, g) if h != g), None)
                if other is None:
                    continue
                comp = dict(oracle.products(G))
                comp[(g, G.src[g])] = other
                bad = _with_comp(G, comp)
                found = core.validate(bad)
                assert core.IDENTITY_LAW in _kinds(found)
                middles = {*bad.units, *core.generating_arrows(bad)}
                expected = sorted((t for t in oracle.groupoid_associativity_violations(bad)
                                   if t[1] in middles), key=lambda t: (t[1], t[0], t[2]))
                assert [v.witness for v in found if v.kind == core.ASSOCIATIVITY] == expected
                unit_middles += any(b in bad.units for _, b, _ in expected)
        assert unit_middles > 0

    @settings(max_examples=400, deadline=None)
    @given(_corrupted_tables())
    def test_violations_match_the_lookup_reference(self, T):
        # the same kinds, messages and witnesses in the same order as the
        # tuple-keyed reading of every table: the listing from_comp refuses
        # a malformed table with, or validate's verdict on the rows it fills
        try:
            found = core.validate(T.build())
        except core.MalformedTable as err:
            found = err.violations
        assert found == oracle.validate_by_lookups(T)

    def test_reads_no_comp(self, klein_cross, monkeypatch):
        # the laws, the generating set and Light's test read the rows alone:
        # a pair-keyed comp, which a groupoid no longer has, is never asked for
        def keyed_read(G):
            raise AssertionError("validate read G.comp")

        monkeypatch.setattr(core.FiniteGroupoid, "comp", property(keyed_read), raising=False)
        for G in (generators.pair_groupoid(16), klein_cross):
            assert core.validate(G) == []


class TestGeneratingArrows:
    def test_matches_the_definition(self, klein_cross, s3, s3_a3, corpus200):
        for G in (klein_cross, s3, s3_a3, generators.trivial_groupoid(5),
                  *(generators.pair_groupoid(m) for m in range(1, 9)),
                  *(G for _, G in corpus200)):
            assert core.generating_arrows(G) == oracle.generating_arrows_by_definition(G), G

    @settings(max_examples=100, deadline=None)
    @given(_bent_tables())
    def test_matches_the_definition_on_bent_tables(self, G):
        assert core.generating_arrows(G) == oracle.generating_arrows_by_definition(G)

    def test_walks_once_per_groupoid(self, monkeypatch):
        # validate and the commutator ideal share one walk, and a caller
        # that edits its copy leaves the next caller's untouched
        walks = []
        real = core.greedy_generators

        def counted(*tables):
            walks.append(tables)
            return real(*tables)
        monkeypatch.setattr(core, "greedy_generators", counted)
        G = generators.klein_cross()
        assert core.validate(G) == []
        algebra.commutator_ideal(G)
        assert len(walks) == 1
        first = core.generating_arrows(G)
        first.append(first[0])
        assert core.generating_arrows(G) == oracle.generating_arrows_by_definition(G)
        assert len(walks) == 1


class TestSubsets:
    def test_klein_cross_isotropy_has_twelve_arrows(self, klein_cross):
        iso = core.isotropy(klein_cross)
        assert len(iso) == 12
        labels = {klein_cross.labels[g] for g in iso}
        assert {"(e,c)", "(s,c)", "(t,c)", "(st,c)", "(s,y+)", "(t,x+)"} <= labels

    def test_pair_groupoid_isotropy_is_units(self, pair2):
        assert core.isotropy(pair2) == frozenset(pair2.units)
        assert oracle.is_effective(pair2)

    def test_klein_cross_is_not_effective(self, klein_cross):
        assert not oracle.is_effective(klein_cross)

    def test_fixed_points(self, klein_cross, s3_a3, pair2):
        fp = core.fixed_points(klein_cross)
        assert {klein_cross.labels[x] for x in fp} == {"(e,c)"}
        assert core.fixed_points(s3_a3) == frozenset(s3_a3.units)
        assert core.fixed_points(pair2) == frozenset()

    def test_group_bundle_detection(self, s3_a3, klein_cross):
        assert oracle.is_group_bundle(s3_a3)
        assert not oracle.is_group_bundle(klein_cross)

    def test_unit_components(self, klein_cross, s3_a3):
        comps = core.unit_components(klein_cross)
        assert sorted(len(c) for c in comps) == [1, 2, 2]
        assert sorted(len(c) for c in core.unit_components(s3_a3)) == [1, 1]


def test_gather_returns_a_tuple_for_any_number_of_keys():
    table = ("a", "b", "c")
    for keys, expected in (([], ()), ([2], ("c",)), ((2, 0), ("c", "a"))):
        assert core._gather(keys)(table) == expected


_CARRIER_READERS = pytest.mark.parametrize("call", [
    lambda G, F: quotients.is_normal(G, F),
    lambda G, F: core.restrict(G, F),
    lambda G, F: quotients.quotient(G, F),
    lambda G, F: quotients.normal_subgroupoid(G, F),
], ids=["is_normal", "restrict", "quotient", "normal_subgroupoid"])


@_CARRIER_READERS
def test_carrier_index_out_of_range_is_refused(klein_cross, call):
    # -1 would otherwise read the last arrow, and n would miss every table
    for bad in (klein_cross.n, -1):
        with pytest.raises(ValueError, match=rf"out of range: \[{bad}\]"):
            call(klein_cross, set(klein_cross.units) | {bad})


@_CARRIER_READERS
def test_carrier_entries_that_are_not_ints_are_named(klein_cross, call):
    # 1.0 passes the range test but cannot index a tuple, and a mixed list
    # does not sort: the ints come first, then the rest by repr
    assert sorted(klein_cross.units) == [0, 1, 2, 3, 4] and klein_cross.n == 20
    floats = [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError, match=r"^arrow indices not ints: \[0\.0, 1\.0, 2\.0, 3\.0, 4\.0\]$"):
        call(klein_cross, floats)
    with pytest.raises(ValueError, match=r"^arrow indices out of range: \[-1, 20\]; "
                                         r"not ints: \['a', 0\.0, 1\.0, 2\.0, 3\.0, 4\.0\]$"):
        call(klein_cross, [20, "a", *floats, -1])


def _named_models():
    return [(name, build()) for name, build in generators.NAMED_MODELS.items()] + [
        ("pair:3", generators.pair_groupoid(3)), ("trivial:3", generators.trivial_groupoid(3))]


@st.composite
def _raw_tables(draw):
    """A table on up to six arrows with entries drawn from -1..n, so some
    fall out of range, and src, rng and inv of any length: most are no
    groupoid."""
    n = draw(st.integers(0, 6))
    entry = st.integers(-1, n)
    column = st.lists(entry, max_size=n + 1).map(tuple)
    return core.FiniteGroupoid(
        n=n, units=draw(st.frozensets(entry)), src=draw(column), rng=draw(column),
        rows=draw(st.lists(column, max_size=n + 1).map(tuple)), inv=draw(column),
        labels=tuple(map(str, range(n))))


class TestIndex:
    @settings(max_examples=200, deadline=None)
    @given(_raw_tables())
    def test_is_the_scan_grouping_on_any_table(self, G):
        # construction never raises, and validate reads the indices on
        # any row table built directly
        assert G.out_of == oracle.arrows_out_by_scan(G)
        assert all(G.into[G.rng[c]][G.pos[c]] == c for c in range(len(G.rng)))
        assert dataclasses.replace(G).out_of == G.out_of
        assert isinstance(core.validate(G), list)

    def test_is_outside_equality_and_repr(self, klein_cross):
        other = dataclasses.replace(klein_cross)
        other.out_of[0] = []
        assert other == klein_cross and "out_of" not in repr(other)

    def test_readers_match_their_scans(self, corpus200):
        for name, G in [*corpus200, *_named_models()]:
            assert core.fixed_points(G) == oracle.fixed_points_by_scan(G), name
            assert core.unit_components(G) == oracle.unit_components_by_union_find(G), name


class TestRestriction:
    def test_restrict_to_fixed_point(self, klein_cross):
        sub = core.restrict(klein_cross, core.fixed_points(klein_cross))
        assert sub.n == 4
        assert core.validate(sub) == []
        assert oracle.is_group_bundle(sub)

    def test_restrict_to_invariant_component(self, klein_cross):
        G = klein_cross
        arm = [x for x in G.units if G.labels[x] in ("(e,x+)", "(e,x-)")]
        sub = core.restrict(G, arm)
        assert core.validate(sub) == []
        assert sub.n == 8   # Klein group times two points

    def test_restrict_to_a_non_unit_raises(self, klein_cross):
        arrow = next(g for g in klein_cross.arrows() if g not in klein_cross.units)
        with pytest.raises(ValueError, match="contains non-units"):
            core.restrict(klein_cross, [arrow])

    def test_internal_unit_sets_pass_restrict_and_match_the_builder(self, corpus200):
        # abelianize_groupoid and component_normal_subgroupoids restrict to
        # these sets through the unchecked builder, which reads the index
        for name, G in [*corpus200, *_named_models()]:
            for F in (core.fixed_points(G), *core.unit_components(G)):
                expected = oracle.restriction_by_scan(G, F)
                assert core._restriction(G, F) == expected, name
                assert core.restrict(G, F) == expected[0], name

    def test_restrict_to_non_invariant_set_raises(self, klein_cross):
        x_plus = klein_cross.label_index("(e,x+)")
        with pytest.raises(core.NotInvariantError) as err:
            core.restrict(klein_cross, [x_plus])
        assert err.value.witness is not None

    def test_invariance_witness(self, klein_cross):
        assert core.invariance_witness(klein_cross, klein_cross.units) is None
        x_plus = klein_cross.label_index("(e,x+)")
        w = core.invariance_witness(klein_cross, [x_plus])
        assert w is not None and klein_cross.src[w] == x_plus


class TestDisjointUnion:
    def test_union_sizes_and_validity(self, s3, pair2):
        u = core.disjoint_union([s3, pair2])
        assert u.n == s3.n + pair2.n
        assert core.validate(u) == []
        assert len(u.units) == len(s3.units) + len(pair2.units)

    def test_union_labels_are_prefixed(self, s3, pair2):
        u = core.disjoint_union([s3, pair2])
        assert "0:e@p" in u.labels and "1:(0,1)" in u.labels

    def test_single_part_keeps_labels(self, s3):
        u = core.disjoint_union([s3])
        assert u.labels == s3.labels


class TestIsotropyFiber:
    def test_fiber_at_fixed_point_matches_acting_group(self, klein_cross):
        c = klein_cross.label_index("(e,c)")
        g, arrows = core.isotropy_group(klein_cross, c)
        assert len(arrows) == 4
        assert g.table == groups.klein().table

    def test_fiber_at_free_point_is_trivial(self, pair2):
        x = sorted(pair2.units)[0]
        g, arrows = core.isotropy_group(pair2, x)
        assert arrows == (x,) and g.table == ((0,),)

    def test_builds_the_checked_group_at_every_unit(self, corpus200):
        # isotropy_group builds its table unchecked; on every unit of the
        # groupoids it is called on, it is what the validating constructor
        # builds from the same parts, passes the group axioms, and is
        # composition on the arrows that fix x, ascending, identity x
        groupoids = [*(build() for build in generators.NAMED_MODELS.values()),
                     generators.pair_groupoid(4), generators.trivial_groupoid(4)]
        for _, G in corpus200:
            ab = quotients.abelianize_groupoid(G)
            groupoids += [G, ab.g_fix, ab.g_ab]
        units = 0
        for G in groupoids:
            for x in sorted(G.units):
                g, arrows = core.isotropy_group(G, x)
                assert g == groups.finite_group(g.name, list(g.labels),
                                                [list(row) for row in g.table])
                assert groups.group_violations(g) == []
                assert g.identity == arrows.index(x)
                assert arrows == tuple(a for a in G.arrows() if G.src[a] == x == G.rng[a])
                comp = oracle.products(G)
                assert g.table == tuple(tuple(arrows.index(comp[(a, b)]) for b in arrows)
                                        for a in arrows)
                units += 1
        assert units == 2498


class TestLargeTables:
    def test_pair64_is_held_and_validated_in_a_few_megabytes(self):
        # 262,144 products as 4,096 rows of 64, of which 64 are distinct;
        # tracemalloc counts what the interpreter allocates, the same on
        # every run of one interpreter
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            G = generators.pair_groupoid(64)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            assert core.validate(G) == []
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held < 5 * 2**20, held
        assert peak < 8 * 2**20, peak
