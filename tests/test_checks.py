"""The verification suite: reports, witnesses, and failure detection."""

import dataclasses
import functools
import math
from collections import Counter
from pathlib import Path

import oracle
import pytest

from groupoidlab import abelian, algebra, checks, core, generators, groups, quotients
from groupoidlab.linalg import BinomialSpan


class TestReports:
    def test_instance_checks_pass_on_models(self, klein_cross, s3_a3, pair2):
        for G in (klein_cross, s3_a3, pair2):
            results = checks.instance_checks(G, "model")
            assert all(r.ok for r in results), [r.name for r in results if not r.ok]

    def test_report_json_shape(self, s3):
        report = checks.file_report(s3, "s3")
        data = report.to_json()
        assert data["status"] == "pass"
        assert data["counts"]["fail"] == 0
        assert data["counts"]["pass"] == len(data["checks"])
        assert all(c["status"] == "pass" for c in data["checks"])
        assert {"axioms", "quotient-family", "character-count", "pi-kernel",
                "gelfand", "fiber-duality"} == {c["name"] for c in data["checks"]}

    def test_failing_check_carries_a_witness(self, klein_cross):
        comp = dict(oracle.products(klein_cross))
        pair = next((a, b) for (a, b) in comp
                    if a not in klein_cross.units and b not in klein_cross.units)
        del comp[pair]
        G = klein_cross
        with pytest.raises(core.MalformedTable) as broken:
            core.FiniteGroupoid.from_comp(G.n, G.units, G.src, G.rng, comp, G.inv, G.labels)
        report = checks.file_report(broken.value, "broken")
        data = report.to_json()
        assert data["status"] == "fail"
        axioms = next(c for c in data["checks"] if c["name"] == "axioms")
        assert axioms["status"] == "fail"
        assert axioms["witness"]

    def test_crashing_input_becomes_a_failed_check_not_an_exception(self):
        bad = core.FiniteGroupoid(n=2, units=frozenset({0}), src=(0, 9),
                                  rng=(0, 0), rows=(), inv=(0, 1),
                                  labels=("u", "g"))
        report = checks.file_report(bad, "bad")
        assert not report.ok

    def test_crash_witness_locates_the_exception(self):
        def check():
            raise KeyError("no arrow 7")

        result = checks._run("crash", "unit", check)
        assert not result.ok
        assert result.witness == {
            "error": "KeyError('no arrow 7')", "type": "KeyError",
            "message": "'no arrow 7'",
            "location": f"{Path(__file__).name}:{check.__code__.co_firstlineno + 1}"}

    def test_crash_witness_inside_the_package_names_its_module(self, s3):
        # the path below the directory holding the package: the same JSON
        # from every checkout or install
        result = checks._run("crash", "unit", lambda: core.restrict(s3, [s3.n]))
        path, line = result.witness["location"].split(":")
        assert path == "groupoidlab/core.py" and int(line) > 0

    def test_a_refused_input_is_not_a_crash(self):
        # TooManySubgroups is a ValueError: the refusal reaches the caller,
        # any other ValueError is a failing check with a witness
        def refused():
            raise groups.TooManySubgroups("C2^7: more than 1953 subgroups")

        def crashed():
            raise ValueError("no arrow 7")

        with pytest.raises(groups.TooManySubgroups):
            checks._run("quotient-family", "unit", refused)
        result = checks._run("quotient-family", "unit", crashed)
        assert not result.ok
        assert (result.witness["type"], result.witness["message"]) == ("ValueError", "no arrow 7")

    def test_checks_resting_on_axioms_are_skipped_when_it_fails(self, klein_cross):
        # an arrow whose source is itself, not a unit
        g = next(g for g in klein_cross.arrows() if g not in klein_cross.units)
        src = list(klein_cross.src)
        src[g] = g
        broken = dataclasses.replace(klein_cross, src=tuple(src))
        data = checks.file_report(broken, "broken").to_json()
        assert data["status"] == "fail"
        assert data["counts"] == {"pass": 0, "fail": 1, "skip": 5}
        axioms, *rest = data["checks"]
        assert axioms["name"] == "axioms" and axioms["status"] == "fail" and axioms["witness"]
        assert [c["name"] for c in rest] == ["quotient-family", "character-count", "pi-kernel",
                                             "gelfand", "fiber-duality"]
        assert all(c["status"] == "skipped" and c["reason"] == "axioms failed"
                   and "witness" not in c for c in rest)
        assert "skip" not in checks.file_report(klein_cross, "klein").to_json()["counts"]

    def test_pi_kernel_check_compares_spans_not_ranks(self, s3):
        ab = quotients.abelianize_groupoid(s3)
        ideal = algebra.commutator_ideal(s3)
        assert checks._check_pi_kernel(ab, ideal) is None
        wrong = BinomialSpan()     # as many killed arrows as the ideal's rank
        for g in range(ideal.rank):
            wrong.kill(g)
        assert checks._check_pi_kernel(ab, wrong) == {
            "kernel_rank": ideal.rank, "ideal_rank": ideal.rank}

    def test_quotient_family_reports_a_kernel_meeting_the_diagonal(self, s3, monkeypatch):
        original = algebra.arrow_map_kernel
        monkeypatch.setattr(algebra, "arrow_map_kernel",   # every delta to zero
                            lambda arrow_map: original((None,) * len(arrow_map)))
        witnesses = checks._check_quotient_family(s3)
        assert witnesses[0]["check"] == "kernel-diagonal"

    def test_quotient_family_covers_every_carrier_of_the_corpus(self, monkeypatch):
        # one quotient map per carrier of each component's restriction
        # covers the product of their counts: every normal subgroupoid of G
        hosts = []
        original = quotients.quotient_map
        monkeypatch.setattr(quotients, "quotient_map",
                            lambda K, H: hosts.append(K) or original(K, H))
        component_quotients = carriers = 0
        for seed in range(200):
            G = generators.random_groupoid(seed, checks.corpus_budget(seed))
            hosts.clear()
            assert checks._check_quotient_family(G) is None
            per_component = Counter(map(id, hosts))   # hosts keeps each alive
            assert len(per_component) == len(core.unit_components(G))
            covered = math.prod(per_component.values())
            assert covered == len(quotients.enumerate_normal_subgroupoids(G))
            component_quotients += len(hosts)
            carriers += covered
        assert (component_quotients, carriers) == (1701, 12048)

    def test_quotient_family_builds_no_quotient_groupoid(self, monkeypatch):
        # the family constructs no FiniteGroupoid beyond the restriction to
        # each component of a groupoid of several: it reads class maps only
        corpus = [generators.random_groupoid(seed, checks.corpus_budget(seed))
                  for seed in range(200)]
        built = []
        post_init = core.FiniteGroupoid.__post_init__

        def counted(G):
            built.append(G.n)
            post_init(G)
        monkeypatch.setattr(core.FiniteGroupoid, "__post_init__", counted)
        several = 0
        for G in corpus:
            built.clear()
            assert checks._check_quotient_family(G) is None
            components = core.unit_components(G)
            restrictions = [sum(len(G.out_of[x]) for x in units) for units in components]
            assert built == (restrictions if len(components) > 1 else []), G.n
            several += len(components) > 1
        assert several > 100

    def test_quotient_family_catches_a_fault_past_24_arrows(self, monkeypatch):
        # a carrier of a component of a 57-60 arrow instance that is neither
        # that component's units nor its isotropy
        G, target = next(
            (G, H) for G in (generators.random_groupoid(s, 60) for s in range(30))
            if len(core.unit_components(G)) > 1
            for GC, _, normals in quotients.component_normal_subgroupoids(G)
            for H in normals
            if H.members not in (GC.units, core.isotropy(GC)))
        assert G.n > 24 and checks._check_quotient_family(G) is None
        labels = {target.host.labels[h] for h in target.members}
        original = quotients.quotient_map

        def corrupted(K, H):
            # send one arrow outside the carrier to its source's unit class
            class_map = list(original(K, H))
            if {K.labels[h] for h in H.members} == labels:
                a = next(a for a in K.arrows() if a not in H.members)
                class_map[a] = class_map[K.src[a]]
            return tuple(class_map)

        monkeypatch.setattr(quotients, "quotient_map", corrupted)
        [witness] = checks._check_quotient_family(G)
        assert witness["check"] == "exactness"
        # the witness is a carrier of G: the other components add their units
        carrier = labels | {G.labels[x] for x in G.units
                            if G.labels[x] not in target.host.labels}
        assert set(witness["carrier"]) == carrier
        assert len(witness["preimage"]) == len(carrier) + 1
        assert quotients.is_normal(G, [G.label_index(label) for label in witness["carrier"]])

    def test_quotient_of_a_union_is_the_union_of_component_quotients(self):
        # the product argument of _check_quotient_family, on the code itself:
        # quotient(G, union) holds each quotient(G_C, H_C) by class labels
        for seed in range(200):
            G = generators.random_groupoid(seed, checks.corpus_budget(seed))
            parts = quotients.component_normal_subgroupoids(G)
            for pick in (0, 1, -1):
                chosen = [(GC, inclusion, normals[pick % len(normals)])
                          for GC, inclusion, normals in parts]
                whole = quotients.quotient(G, set().union(*(
                    {inclusion[a] for a in H.members} for _, inclusion, H in chosen)))
                Q = whole.quotient
                sizes = 0
                for GC, inclusion, H in chosen:
                    qr = quotients.quotient(GC, H)
                    QC, sizes = qr.quotient, sizes + qr.quotient.n
                    into_Q = [Q.label_index(label) for label in QC.labels]
                    assert [into_Q[c] for c in qr.class_map] == [
                        whole.class_map[a] for a in inclusion]
                    assert all(oracle.products(Q)[(into_Q[p], into_Q[q])] == into_Q[r]
                               for (p, q), r in oracle.products(QC).items())
                assert sizes == Q.n

    def test_regressions_pass(self):
        assert all(r.ok for r in checks.regression_checks())

    def test_duality_family_passes(self):
        result = checks.duality_family_check(max_order=24)
        assert result.ok

    def test_duality_family_checks_all_117_groups_of_order_at_most_64(self, monkeypatch):
        seen = []
        witness = checks._duality_witness

        def counted(dec, chars):
            seen.append(chars[0].host.name)
            return witness(dec, chars)
        monkeypatch.setattr(checks, "_duality_witness", counted)
        assert checks.duality_family_check().ok
        assert len(seen) == len(set(seen)) == 117

    def test_duality_family_verdict_does_not_depend_on_the_memos(self, monkeypatch):
        # every dual is verified whether or not the groups' decompositions,
        # or their tables' generating sets, are already cached
        calls = []
        structure = abelian.char_group_structure

        def counted(chars):
            calls.append(chars[0].host.name)
            return structure(chars)
        monkeypatch.setattr(abelian, "char_group_structure", counted)

        def verdict():
            calls.clear()
            result = checks.duality_family_check()
            return result.ok, result.witness, len(calls)
        oracle.clear_table_memos()
        cold = verdict()
        checks.corpus_report(seed=0, count=200)
        assert cold == verdict() == (True, None, 117)

    def test_a_family_that_checks_no_group_fails(self):
        result = checks.duality_family_check(0)
        assert not result.ok
        assert result.witness == {"reason": "family enumeration came up short", "checked": 0}

    def test_corpus_report_runs_serial_and_parallel(self):
        serial = checks.corpus_report(seed=0, count=6, jobs=1)
        parallel = checks.corpus_report(seed=0, count=6, jobs=2)
        assert serial.ok and parallel.ok
        assert ([(r.name, r.instance, r.ok) for r in serial.results]
                == [(r.name, r.instance, r.ok) for r in parallel.results])


class TestBudgetSchedule:
    def test_budget_cycles_from_one(self):
        assert checks.corpus_budget(0) == 1
        assert checks.corpus_budget(59) == 60
        assert checks.corpus_budget(60) == 1
        assert all(1 <= checks.corpus_budget(s) <= 60 for s in range(200))

    def test_a_cap_below_one_is_refused(self):
        for call in (lambda: checks.corpus_budget(5, 0), lambda: checks.corpus_budget(5, -1),
                     lambda: checks.corpus_report(0, 2, cap=0)):
            with pytest.raises(ValueError, match="^cap must be at least 1, got -?[01]$"):
                call()


def _cyclic_reference(d: int) -> groups.FiniteGroup:
    return groups.FiniteGroup(f"C{d}", ("e", "g", *(f"g{k}" for k in range(2, d)))[:d],
                              tuple(tuple((i + j) % d for j in range(d)) for i in range(d)), 0)


def _product_reference(a: groups.FiniteGroup, b: groups.FiniteGroup) -> groups.FiniteGroup:
    return groups.FiniteGroup(f"{a.name}x{b.name}",
                              tuple(f"({la},{lb})" for la in a.labels for lb in b.labels),
                              oracle.direct_product_table(a, b), a.identity * b.order + b.identity)


class TestAbelianGroupFamily:
    def test_partition_counts_drive_group_counts(self):
        # the number of abelian groups of order p^k equals the number of
        # partitions of k; orders 16 = 2^4 and 36 = 2^2 * 3^2 are classics
        assert len(list(checks.abelian_groups_of_order(16))) == 5
        assert len(list(checks.abelian_groups_of_order(36))) == 4
        assert len(list(checks.abelian_groups_of_order(12))) == 2
        assert len(list(checks.abelian_groups_of_order(1))) == 1
        assert len(list(checks.abelian_groups_of_order(30))) == 1

    def test_order_below_one_is_refused(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"no group has order {n}"):
                list(checks.abelian_groups_of_order(n))

    def test_groups_equal_the_validated_build(self, abelian_family):
        # abelian_groups_of_order builds its groups without finite_abelian_group,
        # from cyclic and direct_product; the reference folds the entrywise
        # (i + j) % d tables of the named cyclic orders by
        # oracle.direct_product_table, with the lcm of those orders as exponent
        for a in abelian_family:
            assert groups.group_violations(a) == [] and groups.is_abelian(a), a.name
            assert abelian.finite_abelian_group(a.labels, a.table, a.name) == a
            n, orders = a.name[1:].split(":")
            orders = [int(d) for d in orders.split("x") if d]   # none for order 1
            ref = functools.reduce(_product_reference, map(_cyclic_reference, orders or [1]))
            assert math.prod(orders) == int(n) == a.order
            assert (a.name, a.labels, a.table, a.identity, a.exponent) == (
                f"A{n}:" + "x".join(map(str, orders)), ref.labels, ref.table, 0,
                math.lcm(*orders)), a.name

    def test_expected_factors_have_divisibility_chains(self):
        for n in (8, 12, 16, 24, 36):
            for expected, group in checks.abelian_groups_of_order(n):
                assert group.order == n
                total = 1
                for d in expected:
                    total *= d
                assert total == n
                assert all(expected[i + 1] % expected[i] == 0
                           for i in range(len(expected) - 1))


class TestSharedPerInstanceValues:
    def test_ideal_and_abelianization_are_built_once_per_instance(self, monkeypatch):
        calls = {"commutator_ideal": 0, "abelianize_groupoid": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(algebra, "commutator_ideal")
        counted(quotients, "abelianize_groupoid")
        for G in (generators.klein_cross(), generators.s3_a3_bundle(),
                  generators.random_groupoid(59, 60)):
            calls.update(commutator_ideal=0, abelianize_groupoid=0)
            results = checks.instance_checks(G, "counted")
            assert all(r.ok for r in results)
            assert calls == {"commutator_ideal": 1, "abelianize_groupoid": 1}

    def test_dual_is_built_once_and_shared_by_its_readers(self, monkeypatch):
        built = []
        original = abelian.dual_bundle

        def counted(G):
            built.append(original(G))
            return built[-1]

        monkeypatch.setattr(abelian, "dual_bundle", counted)
        for G in (generators.klein_cross(), generators.s3_a3_bundle(),
                  generators.random_groupoid(59, 60)):
            built.clear()
            ab = quotients.abelianize_groupoid(G)
            assert not built   # the abelianization alone never dualizes
            assert checks._check_gelfand(ab) is None
            assert checks._check_fiber_duality(ab) is None
            chars = algebra.enumerate_characters(ab)
            assert len(built) == 1 and ab.dual is built[0]
            for x, y in ab.fixed_points.items():
                assert algebra.abelianized_fiber(ab, x)[0] is ab.dual.fiber_groups[y]
            assert all(any(phi.chi is chi for chi in ab.dual.fibers[ab.fixed_points[phi.unit]])
                       for phi in chars)

    def test_a_failed_dual_fails_each_check_that_reads_it(self, monkeypatch):
        def broken(G):
            raise RuntimeError("no dual")

        monkeypatch.setattr(abelian, "dual_bundle", broken)
        results = checks.instance_checks(generators.klein_cross(), "broken")
        failed = {r.name: r.witness["message"] for r in results if not r.ok}
        assert failed == {"character-count": "no dual", "gelfand": "no dual",
                          "fiber-duality": "no dual"}


class TestPerUnitIndex:
    def test_table_reads_grow_linearly_with_the_units(self):
        # trivial_groupoid(n) has n units and n arrows: checks that scan
        # every arrow once per unit read src and rng on the order of n^2 times
        def reads(n):
            count = 0

            class Counted(tuple):
                def __getitem__(self, i):
                    nonlocal count
                    count += 1
                    return tuple.__getitem__(self, i)

            G = generators.trivial_groupoid(n)
            G = dataclasses.replace(G, src=Counted(G.src), rng=Counted(G.rng))
            assert all(r.ok for r in checks.instance_checks(G, f"trivial:{n}"))
            return count

        small, large = reads(256), reads(512)
        assert large <= 2.5 * small, (small, large)
