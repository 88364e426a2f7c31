"""The built-in group library and subgroup machinery."""

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from math import lcm
from pathlib import Path

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupoidlab
from groupoidlab import abelian, checks, cli, core, document, generators, groups, quotients

# A loop of order 5 (a Latin square with identity 0) that is not associative:
# (1*1)*2 = 2 but 1*(1*2) = 4.
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _exponent(g: groups.FiniteGroup) -> int:
    return lcm(*map(g.order_of, range(g.order)))


class TestLibrary:
    def test_every_library_group_is_a_group(self):
        for g in groups.library():
            assert groups.group_violations(g) == [], g.name

    def test_orders(self):
        orders = {g.name: g.order for g in groups.library()}
        assert orders["C1"] == 1 and orders["C12"] == 12
        assert orders["V4"] == 4 and orders["S3"] == 6
        assert orders["A3"] == 3 and orders["D4"] == 8 and orders["Q8"] == 8

    def test_exponents(self, abelian_family, corpus200):
        # _with_exponent takes the lcm of the orders of the generating set,
        # the exponent of an abelian group, and runs on abelian groups only;
        # the lcm of every order_of is the reference.  The reached D4, Q8
        # and S3 fibers are checked against the reference alone.
        reached = _reached_groups(corpus200)
        for g in abelian_family + [g for g in reached if groups.is_abelian(g)]:
            assert abelian._with_exponent(g).exponent == _exponent(g), g.name
        assert sorted((g.order, _exponent(g)) for g in reached
                      if not groups.is_abelian(g)) == [(6, 6), (8, 4), (8, 4)]
        assert _exponent(groups.cyclic(12)) == 12
        assert _exponent(groups.klein()) == 2
        assert _exponent(groups.sym3()) == 6
        assert _exponent(groups.dihedral4()) == 4
        assert _exponent(groups.quaternion8()) == 4

    def test_abelian_flags(self):
        flags = {g.name: groups.is_abelian(g) for g in groups.library()}
        assert not flags["S3"] and not flags["D4"] and not flags["Q8"]
        assert flags["V4"] and flags["A3"] and flags["C8"]

    def test_rejects_table_without_identity(self):
        with pytest.raises(ValueError, match="identity"):
            groups.finite_group("broken", ["e", "a"], [[0, 0], [0, 0]])

    @pytest.mark.parametrize("table, row", [
        ([[0, 1], [1]], "row 1 has 1 entries"),
        ([[0, 1, 1], [1, 0]], "row 0 has 3 entries"),
        ([[0, 1]], "row 1 has no entries"),
        ([[0, 1], [1, 0], [0, 1]], "row 2 has 2 entries"),
    ])
    def test_ragged_table_names_the_bad_row(self, table, row):
        message = f"^A: {row}; 2 labels need 2 rows of 2$"
        for build in (lambda: groups.finite_group("A", ["e", "a"], table),
                      lambda: abelian.finite_abelian_group(["e", "a"], table)):
            with pytest.raises(ValueError, match=message):
                build()

    def test_violations_name_a_ragged_row_of_a_direct_table(self):
        # the dataclass constructor skips finite_group's shape check
        for table, width in ((((0, 1), (1,)), 1), (((0, 1), (1, 0, 1)), 3)):
            g = groups.FiniteGroup("A", ("e", "a"), table, 0)
            assert groups.group_violations(g) == [
                f"A: row 1 has {width} entries; 2 labels need 2 rows of 2"]

    def test_violations_flag_missing_inverses(self):
        # has an identity but the second row is not a permutation
        g = groups.FiniteGroup("broken", ("e", "a"), ((0, 1), (1, 1)), 0)
        assert groups.group_violations(g) == ["no inverse for 1"]
        with pytest.raises(ValueError, match="^broken: not a group: no inverse for 1$"):
            groups.finite_group("broken", ["e", "a"], [[0, 1], [1, 1]])

    def test_a_missing_inverse_is_named_not_indexed(self):
        # a table built with the dataclass skips finite_group's check: each
        # reader of inverses names the group and the element, in
        # group_violations' words, and no memo keeps the failure
        g = groups.FiniteGroup("broken", ("e", "a"), ((0, 1), (1, 1)), 0)
        for call in (lambda: g.inverse(1), lambda: groups.normal_subgroups(g),
                     lambda: groups.commutator_subgroup(g)):
            with pytest.raises(ValueError, match="^broken: no inverse for 1$"):
                call()
        assert g.inverse(0) == 0
        assert (g.table, g.identity) not in groups.normal_subgroups.memo

    def test_violations_flag_a_non_associative_loop(self):
        g = groups.FiniteGroup("loop5", tuple("eabcd"), tuple(map(tuple, LOOP5)), 0)
        assert oracle.associativity_violations(g)
        bad = groups.group_violations(g)
        assert len(bad) == 1 and bad[0].startswith("associativity fails at")
        with pytest.raises(ValueError, match=r"^loop5: not a group: associativity fails at \("):
            groups.finite_group("loop5", list("eabcd"), LOOP5)
        with pytest.raises(ValueError, match="not a group: associativity"):
            abelian.finite_abelian_group(list("eabcd"), LOOP5)

    def test_out_of_range_entries_are_reported_not_indexed(self):
        for entry in (3, -1):
            table = ((0, 1, 2), (1, 2, entry), (2, 0, 1))
            g = groups.FiniteGroup("broken", ("e", "a", "b"), table, 0)
            assert groups.group_violations(g) == ["entry (1,2) out of range"]
            with pytest.raises(ValueError, match=r"^broken: not a group: entry \(1,2\) out of range$"):
                groups.finite_group("broken", ["e", "a", "b"], table)
        # 1.0 passes a range comparison but cannot index a row
        with pytest.raises(ValueError, match=r"^F: not a group: entry \(0,0\) is 0\.0, not an int$"):
            groups.finite_group("F", ["a", "b"], [[0.0, 1.0], [1.0, 0.0]])

    def test_the_power_walk_stops_on_a_table_that_is_not_a_group(self):
        # the powers of 1 never reach the identity; a walk that did not stop
        # would hang, so it runs in a child interpreter with a timeout
        script = (
            "from groupoidlab import abelian, groups\n"
            "g = groups.FiniteGroup('broken', ('e', 'a'), ((0, 1), (1, 1)), 0)\n"
            "for walk in (g.order_of, g.powers, lambda x: abelian._with_exponent(g)):\n"
            "    try:\n"
            "        print(walk(1))\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
        root = str(Path(groupoidlab.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": root}, timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["broken: powers 1..2 of 1 miss the identity"] * 3

    def test_violations_flag_a_declared_identity_that_is_not_one(self):
        # the tables are groups, but under another identity
        c2 = groups.FiniteGroup("C2", ("e", "a"), ((0, 1), (1, 0)), 1)
        assert groups.group_violations(c2) == ["identity fails at 0", "identity fails at 1"]
        c3 = dataclasses.replace(groups.cyclic(3), identity=2)
        assert groups.group_violations(c3) == [
            "identity fails at 0", "identity fails at 1", "identity fails at 2"]

    def test_an_identity_out_of_range_is_reported_not_indexed(self):
        for e in (5, 3, -1):
            c3 = dataclasses.replace(groups.cyclic(3), identity=e)
            assert groups.group_violations(c3) == [f"identity {e} out of range"]

    def test_generating_set_generates(self):
        for g in groups.library():
            gens = groups.generating_set(g)
            assert groups.closure(g, gens) == frozenset(range(g.order)), g.name
            # greedy: no generator is reached by the ones chosen before it
            assert all(x not in groups.closure(g, gens[:i]) for i, x in enumerate(gens))

    def test_order_of_elements(self):
        s3 = groups.sym3()
        assert s3.order_of(s3.labels.index("t")) == 2
        assert s3.order_of(s3.labels.index("s")) == 3
        assert s3.order_of(s3.identity) == 1
        assert s3.powers(s3.labels.index("s")) == [s3.identity, *map(s3.labels.index, ("s", "s2"))]


def _latin_square(n: int, seed: int) -> list[list[int]]:
    """A random Latin square with first row and column 0..n-1, by backtracking."""
    rng = random.Random(seed)
    square = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c: int) -> bool:
        if c == len(cells):
            return True
        i, j = cells[c]
        used = set(square[i][:j]) | {square[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            square[i][j] = v
            if fill(c + 1):
                return True
        square[i][j] = None
        return False

    assert fill(0)
    return square


@st.composite
def _tables_with_identity(draw) -> groups.FiniteGroup:
    """Closed tables with an identity, order 1..6: arbitrary ones, Latin
    squares (loops) and library groups, each relabelled at random."""
    kind = draw(st.sampled_from(["any", "latin", "group"]))
    if kind == "group":
        table = [list(row) for row in draw(st.sampled_from(
            [g for g in groups.library() if g.order <= 6])).table]
        n = len(table)
    else:
        n = draw(st.integers(1, 6))
        if kind == "latin":
            table = _latin_square(n, draw(st.integers(0, 2 ** 32)))
        else:
            cells = draw(st.lists(st.integers(0, n - 1),
                                  min_size=(n - 1) ** 2, max_size=(n - 1) ** 2))
            table = [list(range(n))] + [[i] + cells[(i - 1) * (n - 1):i * (n - 1)]
                                        for i in range(1, n)]
    p = draw(st.permutations(range(n)))
    relabelled = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            relabelled[p[i]][p[j]] = p[table[i][j]]
    # built with the dataclass, as most are not groups; identity 0 becomes p[0]
    return groups.FiniteGroup("t", tuple(str(i) for i in range(n)),
                              tuple(map(tuple, relabelled)), p[0])


@st.composite
def _tables_with_a_declared_identity(draw) -> groups.FiniteGroup:
    """A table of ``_tables_with_identity`` declaring its identity or any
    other element."""
    g = draw(_tables_with_identity())
    return dataclasses.replace(g, identity=draw(st.one_of(
        st.just(g.identity), st.integers(0, g.order - 1))))


class TestLightsTest:
    @settings(max_examples=400, deadline=None)
    @given(_tables_with_a_declared_identity())
    def test_agrees_with_the_cubic_loop(self, g):
        bad = groups.group_violations(g)
        t, e = g.table, g.identity
        assert [v for v in bad if v.startswith("identity")] == [
            f"identity fails at {x}" for x in range(g.order) if (t[e][x], t[x][e]) != (x, x)]
        failures = [v for v in bad if v.startswith("associativity")]
        assert bool(failures) == bool(oracle.associativity_violations(g))
        if failures:
            x, a, y = map(int, failures[0].split("(")[1].rstrip(")").split(","))
            assert (x, a, y) in oracle.associativity_violations(g)


class TestOneUnitGroupoid:
    def test_generating_set_is_the_groupoid_generating_set(self, abelian_family, corpus200):
        # a group is the one-unit groupoid, and the greedy choice is the same
        fibers = [core.isotropy_group(G, x)[0] for _, G in corpus200 for x in sorted(G.units)]
        for g in groups.library() + abelian_family + fibers:
            assert groups.generating_set(g) == core.generating_arrows(
                generators.group_bundle([("p", g)])), g


class TestSubgroups:
    def test_s3_subgroup_counts(self):
        s3 = groups.sym3()
        assert len(groups.subgroups(s3)) == 6
        normals = groups.normal_subgroups(s3)
        assert len(normals) == 3
        assert sorted(len(h) for h in normals) == [1, 3, 6]

    def test_v4_subgroup_count(self):
        assert len(groups.subgroups(groups.klein())) == 5

    def test_d4_and_q8_subgroup_counts(self):
        assert len(groups.subgroups(groups.dihedral4())) == 10
        assert len(groups.normal_subgroups(groups.dihedral4())) == 6
        q8_subs = groups.subgroups(groups.quaternion8())
        assert len(q8_subs) == 6
        # every subgroup of this group is normal despite non-commutativity
        assert len(groups.normal_subgroups(groups.quaternion8())) == 6

    def test_class_joins_match_the_filtered_subgroups(self):
        lib = groups.library()
        products = [groups.direct_product(a, b) for a in lib for b in lib
                    if a.order * b.order <= 24]
        for g in lib + products:
            assert groups.normal_subgroups(g) == oracle.normal_subgroups_by_filter(g), g

    def test_limit_stops_the_enumeration(self):
        c2_5 = groups.cyclic(2)
        for _ in range(4):
            c2_5 = groups.direct_product(c2_5, groups.cyclic(2))
        assert len(groups.normal_subgroups(c2_5, limit=374)) == 374
        with pytest.raises(groups.TooManySubgroups, match="more than 373 subgroups"):
            groups.normal_subgroups(c2_5, limit=373)
        # a complete list answers every limit, and a hit raises naming the
        # caller's group: a renamed copy of an enumerated table names itself
        assert len(groups.normal_subgroups(c2_5)) == 374
        with pytest.raises(groups.TooManySubgroups, match="^renamed: more than 373 subgroups$"):
            groups.normal_subgroups(dataclasses.replace(c2_5, name="renamed"), limit=373)
        with pytest.raises(groups.TooManySubgroups):   # the trivial group counts
            groups.normal_subgroups(groups.cyclic(1), limit=0)

    def test_commutator_subgroups(self):
        s3 = groups.sym3()
        comm = groups.commutator_subgroup(s3)
        assert {s3.labels[i] for i in comm} == {"e", "s", "s2"}
        assert len(groups.commutator_subgroup(groups.dihedral4())) == 2
        assert len(groups.commutator_subgroup(groups.quaternion8())) == 2
        assert groups.commutator_subgroup(groups.cyclic(9)) == frozenset({0})

    def test_closure(self):
        s3 = groups.sym3()
        t = s3.labels.index("t")
        s = s3.labels.index("s")
        assert groups.closure(s3, [t]) == frozenset({s3.identity, t})
        assert len(groups.closure(s3, [s])) == 3
        assert len(groups.closure(s3, [s, t])) == 6
        assert groups.closure(s3, []) == frozenset({s3.identity})

    def test_closure_matches_the_two_sided_closure_on_the_library(self):
        for g in groups.library():
            for size in range(4):
                for seed in itertools.combinations(range(g.order), size):
                    assert groups.closure(g, seed) == oracle.two_sided_closure(g, seed), \
                        (g.name, seed)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_closure_matches_the_two_sided_closure_on_the_family(self, abelian_family, data):
        a = data.draw(st.sampled_from(abelian_family))
        seed = data.draw(st.lists(st.integers(0, a.order - 1), max_size=4))
        assert groups.closure(a, seed) == oracle.two_sided_closure(a, seed)


class TestDirectProduct:
    def test_c2_times_c3_is_cyclic_of_order_six(self):
        p = groups.direct_product(groups.cyclic(2), groups.cyclic(3))
        assert groups.group_violations(p) == []
        assert p.order == 6
        assert groups.is_abelian(p)
        assert _exponent(p) == 6

    def test_library_products_equal_the_validated_build(self):
        # cyclic, the permutation groups and direct_product build their
        # groups without finite_group; a C2 whose identity is not element 0
        # tests the identity direct_product computes
        lib = groups.library() + [groups.finite_group("C2'", ["g", "e"], [[1, 0], [0, 1]])]
        built = lib + [groups.direct_product(a, b) for a in lib for b in lib
                       if a.order * b.order <= 24]
        for p in built:
            assert groups.group_violations(p) == [], p.name
            assert p == groups.finite_group(p.name, list(p.labels),
                                            [list(row) for row in p.table])

    def test_rows_match_the_entrywise_formula(self, abelian_family):
        # cyclic cuts its rows from slices, and direct_product gathers each
        # row from a row of a x b that moves only one factor; the
        # entry-by-entry formula is the reference.  C2' has identity 1, and
        # a product with cyclic(1) on either side may have order 1
        for n in range(1, 65):
            assert groups.cyclic(n).table == tuple(
                tuple((i + j) % n for j in range(n)) for i in range(n)), n
        lib = groups.library()
        c2_prime = groups.finite_group("C2'", ["g", "e"], [[1, 0], [0, 1]])
        for a, b in [(a, b) for a in lib for b in lib] + [
                (groups.cyclic(1), f) for f in abelian_family] + [
                (f, groups.cyclic(1)) for f in abelian_family] + [
                (f, groups.cyclic(2)) for f in abelian_family if f.order <= 32] + [
                pair for g in lib + [c2_prime] for pair in ((c2_prime, g), (g, c2_prime))]:
            assert groups.direct_product(a, b).table == oracle.direct_product_table(a, b), \
                (a.name, b.name)

    def test_product_of_nonabelian_keeps_noncommutativity(self):
        p = groups.direct_product(groups.sym3(), groups.cyclic(2))
        assert groups.group_violations(p) == []
        assert p.order == 12
        assert not groups.is_abelian(p)


def test_is_abelian_agrees_with_the_table_scan(abelian_family, corpus200):
    # is_abelian tests the generating set alone, exact on a group; the scan
    # over every pair is the reference.  The last three are the tables that
    # test_a_table_built_directly_that_does_not_commute builds with the
    # dataclass, which skips finite_abelian_group's check
    lib = groups.library()
    products = [groups.direct_product(a, b) for a in lib for b in lib if a.order * b.order <= 24]
    direct = [abelian.FiniteAbelianGroup(g.name, g.labels, g.table, g.identity, exponent)
              for g, exponent in ((groups.dihedral4(), 4), (groups.sym3(), 6),
                                  (groups.quaternion8(), 4))]
    tested = lib + products + abelian_family + _reached_groups(corpus200) + direct
    disagree = [g.name for g in tested if groups.is_abelian(g) != oracle.commutes_by_table(g)]
    assert disagree == []
    assert 0 < sum(map(groups.is_abelian, tested)) < len(tested)


def _reached_groups(corpus200):
    """One group per distinct (table, identity) that a seed-0 corpus pass
    derives from: each component's least unit, every g_fix and g_ab fiber
    and the dual of each g_ab fiber, over the 200 instances and the named
    models."""
    out = {}
    for G in [G for _, G in corpus200] + [build() for build in generators.NAMED_MODELS.values()]:
        ab = quotients.abelianize_groupoid(G)
        fibers = [core.isotropy_group(G, min(units))[0] for units in core.unit_components(G)]
        fibers += [core.isotropy_group(H, x)[0] for H in (ab.g_fix, ab.g_ab) for x in H.units]
        for y in ab.g_ab.units:
            a = ab.dual.fiber_groups[y]
            fibers += [a, abelian.char_group_structure(list(ab.dual.fibers[y]))]
        for g in fibers:
            if groups.is_abelian(g) and not isinstance(g, abelian.FiniteAbelianGroup):
                g = abelian._with_exponent(g)
            out.setdefault((g.table, g.identity), g)
    return list(out.values())


def _memos(g):
    """The memoized functions that take g: invariant_factors wants abelian."""
    return oracle.TABLE_MEMOS[:3 + isinstance(g, abelian.FiniteAbelianGroup)]


class TestTableMemo:
    def test_a_renamed_relabelled_copy_gets_the_uncached_answer(self, corpus200):
        reached = _reached_groups(corpus200)
        assert len(reached) == 17
        assert 0 < sum(isinstance(g, abelian.FiniteAbelianGroup) for g in reached) < 17
        for g in reached:
            copy = dataclasses.replace(g, name=f"copy of {g.name}",
                                       labels=tuple(f"c{i}" for i in range(g.order)))
            for fn in _memos(g):
                fn(g)
                size = len(fn.memo)
                assert fn(copy) == fn.__wrapped__(copy), (fn.__name__, g)
                assert len(fn.memo) == size, (fn.__name__, g)   # the copy hit

    def test_a_caller_cannot_edit_what_the_next_one_gets(self, corpus200):
        # a list comes back as a copy; anything else hashes, so holds no
        # list, dict or set inside, and a frozen dataclass refuses assignment
        for g in _reached_groups(corpus200):
            for fn in _memos(g):
                got = fn(g)
                if isinstance(got, list):
                    got.clear()
                else:
                    hash(got)
                assert fn(g) == fn.__wrapped__(g), (fn.__name__, g)
            if isinstance(g, abelian.FiniteAbelianGroup):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    abelian.invariant_factors(g).factors = ()

    def test_a_limited_miss_stops_early_and_stores_nothing(self):
        # C2^8 has 417,199 subgroups, all normal: never enumerated in full
        c2_8 = groups.cyclic(2)
        for _ in range(7):
            c2_8 = groups.direct_product(c2_8, groups.cyclic(2))
        for _ in range(2):
            with pytest.raises(groups.TooManySubgroups, match=": more than 100 subgroups$"):
                groups.normal_subgroups(c2_8, limit=100)
            assert (c2_8.table, c2_8.identity) not in groups.normal_subgroups.memo

    def test_one_normal_subgroups_entry_per_table_after_checking_documents(
            self, tmp_path, monkeypatch, capsys):
        # component_normal_subgroupoids gives each component its share of a
        # shrinking limit, so one table comes with several limits
        oracle.clear_table_memos()
        normal_subgroups, calls = groups.normal_subgroups, []

        def spy(g, *, limit=None):
            calls.append(((g.table, g.identity), limit))
            return normal_subgroups(g, limit=limit)

        monkeypatch.setattr(groups, "normal_subgroups", spy)
        for s in range(30):
            path = tmp_path / f"{s}.json"
            path.write_text(json.dumps(document.encode_groupoid(generators.random_groupoid(s, 60))))
            assert cli.main(["check", "--input", str(path)]) == 0, s
        capsys.readouterr()
        tables = {table for table, _ in calls}
        assert len(set(calls)) > len(tables) > 1
        assert set(normal_subgroups.memo) == tables

    def test_each_memo_is_bounded(self):
        oracle.clear_table_memos()
        checks.corpus_report(seed=0, count=200)
        for fn in oracle.TABLE_MEMOS:
            assert 0 < len(fn.memo) <= groups.TABLE_CACHE_SIZE, fn.__name__
        # past the bound the oldest entry goes: 300 of the 360 distinct
        # tables that renumbering C6 gives (two of its 720 are automorphisms)
        c6, copies = groups.cyclic(6), {}
        for p in itertools.permutations(range(6)):
            table = tuple(tuple(p[c6.table[p.index(i)][p.index(j)]] for j in range(6))
                          for i in range(6))
            copies.setdefault(table, groups.FiniteGroup("C6", c6.labels, table, p[0]))
        copies = list(copies.values())[:300]
        assert len(copies) == 300
        for g in copies:
            groups.commutator_subgroup(g)
            assert len(groups.commutator_subgroup.memo) <= groups.TABLE_CACHE_SIZE
        keys = [key[0] for key in groups.commutator_subgroup.memo]
        assert keys[-groups.TABLE_CACHE_SIZE:] == [g.table for g in copies][-groups.TABLE_CACHE_SIZE:]
