"""Convolution algebra, commutator ideal, characters, and the bundle transform."""

import dataclasses
import itertools
import random
from fractions import Fraction

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import abelian, algebra, checks, core, generators, groups, quotients
from groupoidlab.linalg import Echelon, Qi, kernel_basis, same_span, vec_iadd_scaled


def _random_element(G, rng):
    coeffs = {}
    for g in G.arrows():
        if rng.random() < 0.5:
            coeffs[g] = Qi(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                           Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return oracle.from_coeffs(G, coeffs)


def _brute_convolve(G, f, g):
    """Independent definition: sum f(a) g(b) over every factorization."""
    out = {}
    for (a, b), c in oracle.products(G).items():
        ca = f.coeffs.get(a)
        cb = g.coeffs.get(b)
        if ca and cb:
            out[c] = out.get(c, Qi(0)) + ca * cb
    return oracle.from_coeffs(G, {k: v for k, v in out.items() if v})


class TestConvolution:
    def test_delta_products_follow_the_table(self, s3_a3):
        G = s3_a3
        comp = oracle.products(G)
        for a in G.arrows():
            for b in G.arrows():
                prod = oracle.convolve(oracle.delta(G, a), oracle.delta(G, b))
                c = comp.get((a, b))
                if c is None:
                    assert prod.is_zero()
                else:
                    assert prod == oracle.delta(G, c)

    def test_matches_brute_force_factorization_sum(self, klein_cross):
        rng = random.Random(11)
        for _ in range(10):
            f, g = _random_element(klein_cross, rng), _random_element(klein_cross, rng)
            assert oracle.convolve(f, g) == _brute_convolve(klein_cross, f, g)

    def test_associative_on_random_elements(self, klein_cross):
        rng = random.Random(12)
        for _ in range(8):
            f = _random_element(klein_cross, rng)
            g = _random_element(klein_cross, rng)
            h = _random_element(klein_cross, rng)
            assert (oracle.convolve(oracle.convolve(f, g), h)
                    == oracle.convolve(f, oracle.convolve(g, h)))

    def test_unit_element_is_neutral(self, klein_cross, pair2):
        for G in (klein_cross, pair2):
            one = oracle.unit_element(G)
            rng = random.Random(13)
            f = _random_element(G, rng)
            assert oracle.convolve(one, f) == f
            assert oracle.convolve(f, one) == f

    def test_involution_is_antimultiplicative(self, s3_a3):
        rng = random.Random(14)
        for _ in range(8):
            f = _random_element(s3_a3, rng)
            g = _random_element(s3_a3, rng)
            lhs = oracle.involute(oracle.convolve(f, g))
            rhs = oracle.convolve(oracle.involute(g), oracle.involute(f))
            assert lhs == rhs

    def test_involution_is_isometric_on_deltas_and_squares_to_identity(self, klein_cross):
        rng = random.Random(15)
        f = _random_element(klein_cross, rng)
        assert oracle.involute(oracle.involute(f)) == f

    def test_algebra_element_operators(self, pair2):
        f = oracle.delta(pair2, 0)
        g = oracle.delta(pair2, 1)
        assert (f + g) - g == f
        assert f.scaled(Qi(3)) + f.scaled(Qi(-3)) == oracle.zero(pair2)
        assert (f * g) == oracle.convolve(f, g)
        assert f.star() == oracle.involute(f)


def _echelon_commutator_ideal(G):
    """Reference: the closure by exact row reduction, shifting every stored
    reduced row left and right by every arrow until the rank stops growing."""
    ech = Echelon()
    queue = []

    def feed(vec):
        stored = ech.insert(vec)
        if stored:
            queue.append(dict(stored))

    comp = oracle.products(G)
    for (a, b), ab in comp.items():
        vec = {ab: Qi(1)}
        ba = comp.get((b, a))
        if ba is not None:
            vec_iadd_scaled(vec, {ba: Qi(1)}, Qi(-1))
        if vec:
            feed(vec)
    while queue and ech.rank < G.n:
        row = queue.pop()
        for g in G.arrows():
            for _, shifted in oracle.shifts(G, g, row):
                if shifted:
                    feed(shifted)
    return ech.rows()


def _relabelled(G, p):
    """G with arrow g renumbered p[g]: the same groupoid, its tables permuted."""
    def moved(table):
        out = [0] * G.n
        for g, x in enumerate(table):
            out[p[g]] = p[x]
        return tuple(out)

    labels = [""] * G.n
    for g, label in enumerate(G.labels):
        labels[p[g]] = label
    return core.FiniteGroupoid.from_comp(
        n=G.n, units=frozenset(p[x] for x in G.units), src=moved(G.src), rng=moved(G.rng),
        comp={(p[a], p[b]): p[c] for (a, b), c in oracle.products(G).items()},
        inv=moved(G.inv), labels=tuple(labels))


def _matrix_kernel(h):
    """Reference: kernel_basis on the hom's matrix, one equation per codomain arrow."""
    rows = {}
    for j, img in enumerate(oracle.hom_images(h)):
        for i, c in img.coeffs.items():
            rows.setdefault(i, {})[j] = c
    return kernel_basis(rows.values(), h.domain.n)


class TestCommutatorIdeal:
    @pytest.mark.parametrize("model,rank,dim", [
        ("s3", 4, 2),
        ("pair2", 4, 0),
        ("klein_cross", 16, 4),
        ("s3_a3", 4, 5),
    ])
    def test_named_ranks(self, model, rank, dim, request):
        G = request.getfixturevalue(model)
        ideal = algebra.commutator_ideal(G)
        assert ideal.rank == rank
        assert algebra.abelianization_dim(G) == dim

    def test_ideal_is_two_sided(self, klein_cross, s3_a3):
        for G in (klein_cross, s3_a3):
            ideal = algebra.commutator_ideal(G)
            assert oracle.ideal_closure_violations(G, ideal) == []

    def test_ideal_contains_every_commutator(self, s3_a3):
        G = s3_a3
        ideal = algebra.commutator_ideal(G)
        rng = random.Random(16)
        for _ in range(6):
            f = _random_element(G, rng)
            g = _random_element(G, rng)
            comm = oracle.convolve(f, g) - oracle.convolve(g, f)
            assert ideal.contains(dict(comm.coeffs))

    def test_matches_the_echelon_closure(self, corpus40, klein_cross, s3, s3_a3, pair2):
        for G in [G for _, G in corpus40] + [klein_cross, s3, s3_a3, pair2]:
            ideal = algebra.commutator_ideal(G)
            reference = _echelon_commutator_ideal(G)
            assert ideal.rank == len(reference)
            assert same_span(ideal.vectors(), reference)

    def test_matches_the_all_pairs_closure(self, corpus200, klein_cross, s3, s3_a3):
        bundles = [generators.group_bundle([("p", g)]) for g in groups.library()] + [
            generators.group_bundle([("u", groups.sym3()), ("v", groups.quaternion8()),
                                     ("w", groups.cyclic(6))])]
        pairs = [generators.pair_groupoid(m) for m in range(2, 9)]
        for G in [G for _, G in corpus200] + [klein_cross, s3, s3_a3] + pairs + bundles:
            ideal = algebra.commutator_ideal(G)
            reference = oracle.commutator_ideal_over_all_pairs(G)
            assert ideal.rank == reference.rank
            assert ideal == reference

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 199), st.data())
    def test_matches_the_all_pairs_closure_under_relabelling(self, seed, data):
        # renumbering the arrows changes the greedy generating set, not the ideal
        G = generators.random_groupoid(seed, checks.corpus_budget(seed))
        H = _relabelled(G, data.draw(st.permutations(range(G.n))))
        ideal = algebra.commutator_ideal(H)
        assert ideal == oracle.commutator_ideal_over_all_pairs(H)
        assert ideal.rank == algebra.commutator_ideal(G).rank

    def test_reads_comp_over_the_generating_set_only(self):
        # pair_groupoid(m) has m^3 products; seeding over the units and a
        # generating set reads on the order of its n = m^2 arrows, and its one
        # component dies whole in the seeds, so no arrow of it is shifted
        def reads(G):
            count, ideal = oracle.product_reads(algebra.commutator_ideal, G)
            return count, ideal.rank

        for m in (16, 32):
            G = generators.pair_groupoid(m)
            count, rank = reads(G)
            assert rank == G.n
            assert count <= 4 * G.n, (m, count, G.n)
        # every member of S is a unit: [delta_x, delta_x] = 0 seeds nothing
        assert reads(generators.trivial_groupoid(1024)) == (0, 0)

    def test_needs_both_shifts_on_a_non_normal_commutator_subgroup(self):
        # S4 numbered from id, (12), (1234): S is a transposition and a
        # 4-cycle, whose commutators s^-1 t^-1 s t generate a subgroup of
        # order 3.  Shifts on one side alone close to C[G](H - 1), rank
        # 24 - 8 = 16; the two-sided ideal is C[G](A4 - 1), rank 22.
        first = [(0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0)]
        perms = first + [p for p in itertools.permutations(range(4)) if p not in first]
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms]
        G = generators.group_bundle([("p", groups.finite_group("S4", [str(p) for p in perms], table))])
        assert core.generating_arrows(G) == [1, 2]
        ideal = algebra.commutator_ideal(G)
        assert ideal == oracle.commutator_ideal_over_all_pairs(G)
        assert ideal.rank == 22

    def test_commutative_algebra_has_zero_ideal(self):
        G = generators.group_bundle([("u", groups.cyclic(4)),
                                     ("v", groups.klein())])
        assert algebra.commutator_ideal(G).rank == 0
        assert algebra.abelianization_dim(G) == G.n


def _quotient_hom(G, H):
    qr = quotients.quotient(G, H)
    return algebra.AlgebraHom(G, qr.quotient, qr.class_map)


class TestHoms:
    def test_restriction_hom_is_multiplicative_and_star(self, klein_cross):
        h = oracle.restriction_hom(klein_cross, core.fixed_points(klein_cross))
        assert oracle.hom_multiplicativity_violations(h) == []
        assert oracle.hom_star_violations(h) == []
        assert oracle.hom_is_surjective(h)

    def test_quotient_hom_is_multiplicative_and_star(self, s3):
        carrier = {s3.label_index(l) for l in ("e@p", "s@p", "s2@p")}
        h = _quotient_hom(s3, carrier)
        assert oracle.hom_multiplicativity_violations(h) == []
        assert oracle.hom_star_violations(h) == []
        assert oracle.hom_is_surjective(h)

    def test_quotient_hom_kernel_dimension(self, s3):
        carrier = {s3.label_index(l) for l in ("e@p", "s@p", "s2@p")}
        h = _quotient_hom(s3, carrier)
        assert h.kernel().rank == s3.n - 2

    def test_kernel_vectors_map_to_zero(self, s3_a3):
        h = _quotient_hom(s3_a3, core.isotropy(s3_a3))
        for vec in h.kernel().vectors():
            img = oracle.apply(h, oracle.from_coeffs(s3_a3, vec))
            assert img.is_zero()

    def test_kernels_match_the_matrix_kernel(self, corpus40, klein_cross, s3, s3_a3, pair2):
        for G in [G for _, G in corpus40] + [klein_cross, s3, s3_a3, pair2]:
            carriers = (quotients.enumerate_normal_subgroupoids(G) if G.n <= 24
                        else [quotients.normal_subgroupoid(G, G.units),
                              quotients.normal_subgroupoid(G, core.isotropy(G))])
            homs = [_quotient_hom(G, H) for H in carriers]
            homs.append(algebra.pi_hom(quotients.abelianize_groupoid(G)))
            homs.append(oracle.restriction_hom(G, core.fixed_points(G)))
            for h in homs:
                kernel, reference = h.kernel(), _matrix_kernel(h)
                assert kernel.rank == len(reference)
                assert same_span(kernel.vectors(), reference)

    def test_compose_homs_requires_matching_ends(self, s3, pair2):
        h = oracle.restriction_hom(pair2, pair2.units)
        k = _quotient_hom(s3, s3.units)
        with pytest.raises(ValueError):
            oracle.compose_homs(h, k)


class TestPiHom:
    def test_kernel_is_the_commutator_ideal(self, klein_cross, s3, s3_a3, pair2):
        for G in (klein_cross, s3, s3_a3, pair2):
            pi = algebra.pi_hom(quotients.abelianize_groupoid(G))
            assert same_span(pi.kernel().vectors(), algebra.commutator_ideal(G).vectors())

    def test_pi_is_surjective_onto_the_abelianized_bundle(self, klein_cross):
        assert oracle.hom_is_surjective(
            algebra.pi_hom(quotients.abelianize_groupoid(klein_cross)))

    def test_codomain_dimension_equals_abelianization_dim(self, s3_a3):
        pi = algebra.pi_hom(quotients.abelianize_groupoid(s3_a3))
        assert pi.codomain.n == algebra.abelianization_dim(s3_a3)

    def test_images_match_restrict_then_quotient(self, corpus40, klein_cross, s3_a3, pair2):
        # reference: restrict to the fixed points, then push down along the
        # commutator quotient, as two composed exact homomorphisms
        for G in [G for _, G in corpus40] + [klein_cross, s3_a3, pair2]:
            g_fix = core._restriction(G, core.fixed_points(G))[0]
            reference = oracle.compose_homs(
                _quotient_hom(g_fix, quotients.commutator_subgroupoid(g_fix)),
                oracle.restriction_hom(G, core.fixed_points(G)))
            pi = algebra.pi_hom(quotients.abelianize_groupoid(G))
            assert pi.codomain == reference.codomain
            assert oracle.hom_images(pi) == oracle.hom_images(reference)


class TestCharacters:
    @pytest.mark.parametrize("model,count", [
        ("klein_cross", 4), ("s3", 2), ("s3_a3", 5), ("pair2", 0),
    ])
    def test_counts(self, model, count, request):
        G = request.getfixturevalue(model)
        assert len(algebra.enumerate_characters(quotients.abelianize_groupoid(G))) == count

    def test_count_equals_abelianization_dim_on_corpus(self, corpus40):
        for _, G in corpus40:
            assert (len(algebra.enumerate_characters(quotients.abelianize_groupoid(G)))
                    == algebra.abelianization_dim(G))

    def test_match_per_fixed_point_construction(self, corpus40, klein_cross, s3_a3, pair2):
        # reference: restrict to each fixed point alone, quotient by its
        # commutators, and take the characters of that one fiber
        for G in [G for _, G in corpus40] + [klein_cross, s3_a3, pair2]:
            expected = []
            for x in sorted(core.fixed_points(G)):
                gx = core.restrict(G, [x])
                kept = [g for g in G.arrows() if G.src[g] == x]
                qr = quotients.quotient(gx, quotients.commutator_subgroupoid(gx))
                g, arrows = core.isotropy_group(qr.quotient, next(iter(qr.quotient.units)))
                a = abelian.finite_abelian_group(g.labels, g.table, g.name)
                elem = {arrow: i for i, arrow in enumerate(arrows)}
                for chi in abelian.characters(a):
                    exponents = {g: chi.exps[elem[qr.class_map[i]]] % a.exponent
                                 for i, g in enumerate(kept)}
                    expected.append((x, chi, a.exponent, exponents))
            got = [(phi.unit, phi.chi, phi.modulus, phi.exponents)
                   for phi in algebra.enumerate_characters(quotients.abelianize_groupoid(G))]
            assert got == expected

    def test_supports_live_on_isotropy_at_their_unit(self, klein_cross):
        for phi in algebra.enumerate_characters(quotients.abelianize_groupoid(klein_cross)):
            for g in phi.support:
                assert klein_cross.src[g] == phi.unit
                assert klein_cross.rng[g] == phi.unit

    def test_exact_multiplicativity_and_star(self, klein_cross, s3_a3):
        for G in (klein_cross, s3_a3):
            for phi in algebra.enumerate_characters(quotients.abelianize_groupoid(G)):
                assert oracle.functional_multiplicativity_violations(phi) == []
                assert oracle.functional_star_violations(phi) == []

    def test_numeric_evaluation_is_multiplicative(self, klein_cross):
        rng = random.Random(17)
        for phi in algebra.enumerate_characters(quotients.abelianize_groupoid(klein_cross)):
            for _ in range(4):
                f = _random_element(klein_cross, rng)
                g = _random_element(klein_cross, rng)
                lhs = oracle.evaluate(phi, oracle.convolve(f, g))
                rhs = oracle.evaluate(phi, f) * oracle.evaluate(phi, g)
                assert abs(lhs - rhs) <= 1e-9

    def test_characters_vanish_on_the_commutator_ideal(self, s3_a3):
        ideal = algebra.commutator_ideal(s3_a3)
        for phi in algebra.enumerate_characters(quotients.abelianize_groupoid(s3_a3)):
            for row in ideal.vectors():
                value = oracle.evaluate(phi, oracle.from_coeffs(s3_a3, dict(row)))
                assert abs(value) <= 1e-9

    def test_mismatched_character_rejected(self, klein_cross, s3):
        phi = algebra.enumerate_characters(quotients.abelianize_groupoid(klein_cross))[0]
        f = oracle.delta(s3, 0)
        with pytest.raises(ValueError):
            oracle.evaluate(phi, f)


class TestGelfand:
    def test_cyclic_three_gives_the_discrete_fourier_matrix(self):
        G = generators.group_bundle([("p", groups.cyclic(3))])
        gm = algebra.gelfand_transform(abelian.dual_bundle(G))
        assert [[phi.exponents[g] for g in G.arrows()] for phi in gm.rows] == [
            [0, 0, 0], [0, 1, 2], [0, 2, 1]]
        assert [phi.modulus for phi in gm.rows] == [3, 3, 3]

    def test_two_fiber_bundle_determinant(self):
        import numpy as np
        G = generators.group_bundle([("u", groups.cyclic(2)), ("v", groups.klein())])
        gm = algebra.gelfand_transform(abelian.dual_bundle(G))
        assert gm.size == 6
        det = np.linalg.det(np.array(oracle.gelfand_complex(gm), dtype=complex))
        assert abs(abs(det) - 32.0) < 1e-9

    def test_blocks_vanish_between_fibers(self):
        G = generators.group_bundle([("u", groups.cyclic(2)), ("v", groups.klein())])
        gm = algebra.gelfand_transform(abelian.dual_bundle(G))
        m = oracle.gelfand_complex(gm)
        for r, phi in enumerate(gm.rows):
            for g in G.arrows():
                if G.src[g] != phi.unit:
                    assert g not in phi.exponents and m[r][g] == 0

    def test_exact_multiplicativity(self):
        G = generators.group_bundle([("u", groups.cyclic(4)),
                                     ("v", groups.cyclic(3))])
        gm = algebra.gelfand_transform(abelian.dual_bundle(G))
        assert algebra.gelfand_violations(gm) is None

    def test_numeric_multiplicativity(self):
        G = generators.group_bundle([("u", groups.cyclic(2)), ("v", groups.klein())])
        gm = algebra.gelfand_transform(abelian.dual_bundle(G))
        m = oracle.gelfand_complex(gm)
        comp = oracle.products(G)
        for a in G.arrows():
            for b in G.arrows():
                c = comp.get((a, b))
                for r in range(gm.size):
                    want = m[r][a] * m[r][b]
                    got = 0j if c is None else m[r][c]
                    assert abs(want - got) <= 1e-9

    def test_injected_faults_get_their_own_reason(self):
        import numpy as np
        G = generators.group_bundle([("u", groups.cyclic(4)), ("v", groups.klein())])
        gm = algebra.gelfand_transform(abelian.dual_bundle(G))
        assert algebra.gelfand_violations(gm) is None
        rows = gm.rows
        u_rows = [r for r, phi in enumerate(rows) if phi.unit == rows[0].unit]
        v_row = next(r for r, phi in enumerate(rows) if phi.unit != rows[0].unit)
        g = next(g for g, e in rows[1].exponents.items() if e != 0)

        def rewritten(r, exponents):
            row = dataclasses.replace(rows[r], exponents=exponents)
            return dataclasses.replace(gm, rows=rows[:r] + (row,) + rows[r + 1:])

        def reason(faulty):
            witness = algebra.gelfand_violations(faulty)
            return witness and witness["reason"]

        moved = rewritten(u_rows[-1], rows[v_row].exponents)
        assert reason(moved) == "wrong support"
        bent = rewritten(1, {**rows[1].exponents, g: (rows[1].exponents[g] + 1) % rows[1].modulus})
        assert reason(bent) == "not multiplicative"
        repeated = rewritten(2, rows[1].exponents)
        assert reason(repeated) == "repeated row"
        singular = oracle.gelfand_complex(repeated)
        assert abs(np.linalg.det(np.array(singular, dtype=complex))) < 1e-9
        assert reason(dataclasses.replace(gm, rows=rows[1:])) == "not square"

    def test_tested_middles_are_each_fibers_greedy_generating_set(self, corpus200):
        # gelfand_violations tests multiplicativity against x and the members
        # of generating_arrows that end at x; on every seed-0 g_ab those are
        # what groups.generating_set picks on the fiber at x
        for _, G in corpus200:
            B = quotients.abelianize_groupoid(G).g_ab
            gens = core.generating_arrows(B)
            for x in B.units:
                g, arrows = core.isotropy_group(B, x)
                assert [b for b in gens if B.rng[b] == x] == [
                    arrows[i] for i in groups.generating_set(g)]

    def test_a_bend_off_the_tested_generators_is_not_multiplicative(self):
        # multiplicativity is tested only against x and a generating set of
        # the fiber; a row bent at any other arrow must still fail
        fiber = groups.cyclic(11)
        for _ in range(5):
            fiber = groups.direct_product(fiber, groups.cyclic(2))
        G = generators.group_bundle([("p", fiber)])
        gm = algebra.gelfand_transform(abelian.dual_bundle(G))
        assert G.n == 352 and algebra.gelfand_violations(gm) is None
        [x] = G.units
        tested = [x, *core.generating_arrows(G)]
        g = max(set(G.arrows()) - set(tested))
        row = gm.rows[1]

        def witness(*arrows):
            bent = dict(row.exponents)
            for h in arrows:
                bent[h] = (bent[h] + 1) % row.modulus
            rows = (gm.rows[0], dataclasses.replace(row, exponents=bent), *gm.rows[2:])
            return algebra.gelfand_violations(dataclasses.replace(gm, rows=rows))
        bent = witness(g)
        assert bent["reason"] == "not multiplicative" and bent["row"] == 1
        # bent on a whole coset cH of H = <b>, b the first generator: still
        # multiplicative against x and b, so only another generator catches it
        comp = oracle.products(G)
        b = tested[1]
        H = [x]
        while (h := comp[(H[-1], b)]) != x:
            H.append(h)
        c = next(a for a in G.arrows() if a not in H)
        coset = witness(*(comp[(c, h)] for h in H))
        assert coset["reason"] == "not multiplicative"
        assert coset["pair"][1] not in {G.labels[x], G.labels[b]}
        # bent on a coset of K, the subgroup the other tested generators
        # generate: multiplicative against x and all of them, so every
        # generator is tested, each catching the bend that only it can
        for b in tested[1:]:
            K = [x]
            for k in K:   # grows while it is walked
                K += [ks for s in tested[1:] if s != b and (ks := comp[(k, s)]) not in K]
            assert b not in K
            c = next(a for a in G.arrows() if a not in K)
            coset = witness(*(comp[(c, k)] for k in K))
            assert coset["pair"][1] == G.labels[b]

    def test_rows_store_only_their_fiber(self, corpus200):
        # sum |A_x|^2 exponents, where dense rows would hold n each
        def stored(B):
            gm = algebra.gelfand_transform(abelian.dual_bundle(B))
            return (sum(len(phi.exponents) for phi in gm.rows),
                    sum(len(arrows) ** 2 for arrows in B.out_of.values()))

        bundles = [generators.trivial_groupoid(1024),
                   generators.group_bundle([("u", groups.cyclic(2)), ("v", groups.klein())])]
        bundles += [quotients.abelianize_groupoid(G).g_ab for _, G in corpus200]
        counts = [stored(B) for B in bundles]
        assert counts[:2] == [(1024, 1024), (20, 20)]
        assert [c for c in counts if c[0] != c[1]] == []

    @pytest.mark.parametrize("fault", ["missing", "foreign", "beyond", "negative", "two"])
    def test_sparse_support_faults_name_the_least_differing_index(self, fault):
        G = generators.group_bundle([("u", groups.cyclic(4)), ("v", groups.klein())])
        gm = algebra.gelfand_transform(abelian.dual_bundle(G))
        r, row = next((r, phi) for r, phi in enumerate(gm.rows) if G.labels[phi.unit] == "e@v")
        fiber = G.out_of[row.unit]
        other = G.out_of[gm.rows[0].unit][1]
        dropped = {g: e for g, e in row.exponents.items() if g != fiber[2]}
        exponents, arrow = {
            "missing": (dropped, G.labels[fiber[2]]),
            "foreign": ({**row.exponents, other: 0}, G.labels[other]),
            "beyond": ({**row.exponents, G.n: 0}, G.n),
            "negative": ({**row.exponents, -1: 0}, -1),
            # 2n, not n: a set of small ints iterates in ascending order
            "two": ({**dropped, 2 * G.n: 0}, G.labels[fiber[2]]),
        }[fault]
        rows = gm.rows[:r] + (dataclasses.replace(row, exponents=exponents),) + gm.rows[r + 1:]
        assert algebra.gelfand_violations(dataclasses.replace(gm, rows=rows)) == {
            "reason": "wrong support", "row": r, "unit": "e@v", "arrow": arrow}

    def test_rejects_non_bundle(self, klein_cross):
        with pytest.raises(ValueError):
            algebra.gelfand_transform(abelian.dual_bundle(klein_cross))

    def test_abelianized_bundle_always_transforms(self, corpus40):
        import numpy as np
        for _, G in corpus40[:15]:
            B = quotients.abelianize_groupoid(G).g_ab
            gm = algebra.gelfand_transform(abelian.dual_bundle(B))
            assert gm.size == B.n
            assert algebra.gelfand_violations(gm) is None
            if B.n:
                det = np.linalg.det(np.array(oracle.gelfand_complex(gm), dtype=complex))
                assert abs(det) > 1e-6
