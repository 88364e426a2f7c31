"""Normal subgroupoids, quotients, and fixed-point abelianization."""

import oracle
import pytest

from groupoidlab import abelian, algebra, checks, core, generators, groups, quotients


def _labels(G, members):
    return {G.labels[g] for g in members}


def _abelianization_parts(G):
    """The abelianization's parts built anew, as the reference for its one
    map: g_fix, the host index of each of its arrows, the commutator
    subgroupoid of g_fix and the quotient of g_fix by it."""
    g_fix, inclusion = core._restriction(G, core.fixed_points(G))
    comm = quotients.commutator_subgroupoid(g_fix)
    return g_fix, inclusion, comm, quotients.quotient(g_fix, comm)


class TestIsNormal:
    def test_isotropy_is_always_normal(self, klein_cross, s3, s3_a3, pair2):
        for G in (klein_cross, s3, s3_a3, pair2):
            assert quotients.is_normal(G, core.isotropy(G))

    def test_units_are_always_normal(self, klein_cross, pair2):
        for G in (klein_cross, pair2):
            assert quotients.is_normal(G, G.units)

    def test_missing_units_rejected(self, klein_cross):
        check = quotients.is_normal(klein_cross, [klein_cross.label_index("(e,c)")])
        assert not check
        assert check.kind == "missing-unit"

    def test_moving_arrow_rejected(self, pair2):
        carrier = set(pair2.units) | {next(g for g in pair2.arrows()
                                           if pair2.src[g] != pair2.rng[g])}
        check = quotients.is_normal(pair2, carrier)
        assert not check and check.kind == "not-isotropy"

    def test_not_closed_under_composition_rejected(self, s3):
        G = s3
        carrier = set(G.units) | {G.label_index("s@p")}   # s.s = s2 escapes
        check = quotients.is_normal(G, carrier)
        assert not check
        assert check.kind in ("not-composition-closed", "not-inverse-closed")

    def test_conjugation_failure_rejected(self, s3):
        G = s3
        carrier = set(G.units) | {G.label_index("t@p")}   # {e, t} is a subgroup
        check = quotients.is_normal(G, carrier)
        assert not check and check.kind == "not-conjugation-closed"
        assert check.witness is not None

    def test_a3_inside_s3_is_normal(self, s3):
        carrier = {s3.label_index(l) for l in ("e@p", "s@p", "s2@p")}
        assert quotients.is_normal(s3, carrier)


class TestEnumeration:
    def test_counts_on_named_models(self, s3, pair2, klein_cross, s3_a3):
        assert len(quotients.enumerate_normal_subgroupoids(s3)) == 3
        assert len(quotients.enumerate_normal_subgroupoids(pair2)) == 1
        assert len(quotients.enumerate_normal_subgroupoids(klein_cross)) == 20
        assert len(quotients.enumerate_normal_subgroupoids(s3_a3)) == 6
        assert len(quotients.enumerate_normal_subgroupoids(
            generators.trivial_groupoid(3))) == 1

    def test_every_enumerated_carrier_is_normal(self, klein_cross):
        for H in quotients.enumerate_normal_subgroupoids(klein_cross):
            assert quotients.is_normal(klein_cross, H.members)

    def test_transport_matches_the_filtered_product(self, klein_cross, s3, s3_a3, pair2):
        # the reference filters every per-unit choice of normal subgroups
        corpus = [generators.random_groupoid(seed, checks.corpus_budget(seed))
                  for seed in range(200)]
        for G in corpus + [klein_cross, s3, s3_a3, pair2]:
            assert (quotients.enumerate_normal_subgroupoids(G)
                    == oracle.normal_subgroupoids_by_filter(G))

    def test_extremes_always_present(self, s3_a3):
        carriers = {H.members for H in quotients.enumerate_normal_subgroupoids(s3_a3)}
        assert frozenset(s3_a3.units) in carriers
        assert core.isotropy(s3_a3) in carriers


class TestQuotient:
    def test_s3_by_a3_has_two_arrows(self, s3):
        carrier = {s3.label_index(l) for l in ("e@p", "s@p", "s2@p")}
        qr = quotients.quotient(s3, carrier)
        assert qr.quotient.n == 2
        assert core.validate(qr.quotient) == []

    def test_quotient_by_units_is_identity_sized(self, klein_cross):
        qr = quotients.quotient(klein_cross, klein_cross.units)
        assert qr.quotient.n == klein_cross.n
        assert core.validate(qr.quotient) == []

    def test_klein_cross_by_isotropy_is_the_effective_quotient(self, klein_cross):
        # each arm keeps the effective C2 swap (4 arrows per arm), the fixed
        # center keeps only its unit: 4 + 4 + 1
        qr = quotients.quotient(klein_cross, core.isotropy(klein_cross))
        assert qr.quotient.n == 9
        assert oracle.is_effective(qr.quotient)

    def test_klein_cross_by_central_fiber(self, klein_cross):
        # the central Klein four-group plus all units: only the center
        # collapses (4 arrows become 1), the 16 free arrows survive
        carrier = {g for g in klein_cross.arrows()
                   if klein_cross.labels[g].endswith(",c)")} | set(klein_cross.units)
        qr = quotients.quotient(klein_cross, carrier)
        assert qr.quotient.n == 17
        assert not oracle.is_effective(qr.quotient)

    def test_class_map_is_a_surjection_onto_quotient(self, s3_a3):
        for H in quotients.enumerate_normal_subgroupoids(s3_a3):
            qr = quotients.quotient(s3_a3, H)
            assert len(qr.class_map) == s3_a3.n
            assert set(qr.class_map) == set(range(qr.quotient.n))

    def test_quotient_preserves_validity(self, corpus40):
        for _, G in corpus40[:12]:
            for H in quotients.enumerate_normal_subgroupoids(G):
                qr = quotients.quotient(G, H)
                assert core.validate(qr.quotient) == []

    def test_preimage_of_units_recovers_carrier(self, corpus40):
        for _, G in corpus40[:12]:
            for H in quotients.enumerate_normal_subgroupoids(G):
                qr = quotients.quotient(G, H)
                assert quotients.quotient_preimage_of_units(G, qr.class_map) == H.members

    def test_comp_matches_the_pairwise_construction(self, corpus200):
        # every component quotient and abelianization quotient, entry for
        # entry and in the same order
        models = [build() for build in generators.NAMED_MODELS.values()]
        for G in [G for _, G in corpus200] + models:
            g_fix, _, comm, _ = _abelianization_parts(G)
            for host, H in [(g_fix, comm)] + [
                    (GC, H) for GC, _, normals in quotients.component_normal_subgroupoids(G)
                    for H in normals]:
                qr = quotients.quotient(host, H)
                assert (list(oracle.products(qr.quotient).items())
                        == list(oracle.quotient_comp_by_pairs(host, qr).items()))

    def test_rejects_non_normal_carrier(self, s3):
        with pytest.raises(ValueError):
            quotients.quotient(s3, set(s3.units) | {s3.label_index("t@p")})


class TestCommutatorAndAbelianization:
    def test_commutator_of_s3_fiber_is_a3(self, s3):
        comm = quotients.commutator_subgroupoid(s3)
        assert _labels(s3, comm.members) == {"e@p", "s@p", "s2@p"}

    def test_commutator_of_abelian_bundle_is_units(self):
        G = generators.group_bundle([("u", groups.klein())])
        comm = quotients.commutator_subgroupoid(G)
        assert comm.members == frozenset(G.units)

    def test_one_group_bundle_guard(self, pair2):
        moving = next(g for g in pair2.arrows() if pair2.src[g] != pair2.rng[g])
        message = f"not a group bundle: arrow {pair2.labels[moving]} moves its source"
        for build in (quotients.commutator_subgroupoid, abelian.dual_bundle):
            with pytest.raises(ValueError) as err:
                build(pair2)
            assert str(err.value) == message

    def test_klein_cross_abelianization(self, klein_cross):
        ab = quotients.abelianize_groupoid(klein_cross)
        assert ab.g_fix.n == 4
        assert ab.g_ab.n == 4
        assert oracle.is_group_bundle(ab.g_ab)
        assert core.validate(ab.g_ab) == []

    def test_s3_a3_abelianization(self, s3_a3):
        ab = quotients.abelianize_groupoid(s3_a3)
        assert ab.g_fix.n == 9
        assert ab.g_ab.n == 5   # S3 drops to C2, A3 survives

    def test_pair_groupoid_abelianization_is_empty(self, pair2):
        ab = quotients.abelianize_groupoid(pair2)
        assert ab.g_fix.n == 0
        assert ab.g_ab.n == 0

    def test_commutator_carrier_of_g_fix_is_normal_on_the_corpus(self, corpus200):
        # commutator_subgroupoid builds its NormalSubgroupoid without is_normal
        for seed, G in corpus200:
            g_fix, _, comm, _ = _abelianization_parts(G)
            assert quotients.is_normal(g_fix, comm.members), seed

    def test_fixed_points_and_fiber_units_on_the_corpus(self, corpus200):
        # reference: the sort and the tuple.index search that every read
        # once performed, on the parts built anew
        for seed, G in corpus200:
            ab = quotients.abelianize_groupoid(G)
            g_fix, inclusion, _, qr = _abelianization_parts(G)
            assert (ab.g_fix, ab.g_ab) == (g_fix, qr.quotient), seed
            assert list(ab.fixed_points) == sorted(inclusion[u] for u in g_fix.units)
            assert ab.fixed_points is ab.fixed_points   # computed once
            for x, y in ab.fixed_points.items():
                assert y == qr.class_map[inclusion.index(x)], seed

    def test_one_host_map_serves_pi_and_the_fibers(self, corpus200):
        # reference: the scans of the inclusion each reader once performed,
        # on the parts built anew
        for seed, G in corpus200:
            ab = quotients.abelianize_groupoid(G)
            _, inclusion, _, qr = _abelianization_parts(G)
            class_of = {g: qr.class_map[i] for i, g in enumerate(inclusion)}
            assert ab.arrow_map == tuple(map(class_of.get, G.arrows())), seed
            assert algebra.pi_hom(ab).arrow_map is ab.arrow_map
            for x, y in ab.fixed_points.items():
                elem = {arrow: i for i, arrow in enumerate(ab.g_ab.out_of[y])}
                assert algebra.abelianized_fiber(ab, x)[1] == {
                    g: elem[class_of[g]] for g in inclusion if G.src[g] == x}, seed

    def test_a_unit_that_is_not_fixed_has_no_abelianized_fiber(self, klein_cross):
        ab = quotients.abelianize_groupoid(klein_cross)
        x_plus = klein_cross.label_index("(e,x+)")
        with pytest.raises(ValueError, match=r"unit \(e,x\+\) is not a fixed point"):
            algebra.abelianized_fiber(ab, x_plus)

    def test_abelianization_has_commutative_fibers(self, corpus40):
        for _, G in corpus40[:20]:
            ab = quotients.abelianize_groupoid(G)
            assert oracle.is_group_bundle(ab.g_ab)
            comp = oracle.products(ab.g_ab)
            for (a, b), c in comp.items():
                assert comp[(b, a)] == c

    def test_abelian_group_bundles_abelianize_to_themselves(self):
        bundles = 0
        for seed in range(200):
            G = generators.random_groupoid(seed, checks.corpus_budget(seed))
            if not oracle.is_group_bundle(G) or not all(
                    groups.is_abelian(core.isotropy_group(G, x)[0]) for x in G.units):
                continue
            bundles += 1
            g_ab = quotients.abelianize_groupoid(G).g_ab
            assert ((g_ab.src, g_ab.rng, oracle.products(g_ab), g_ab.inv)
                    == (G.src, G.rng, oracle.products(G), G.inv))
        assert bundles >= 10
