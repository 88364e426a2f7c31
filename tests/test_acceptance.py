"""End-to-end acceptance run.

Each test covers one advertised guarantee of the workbench, prints a single
pass/fail line, and enforces the stated tolerance: set and rank identities are
exact, determinant invertibility uses |det| > 1e-6, and numeric evaluation of
root-of-unity arithmetic uses 1e-9.  The corpus is seeds 0..199 with size
budgets cycling 1..60.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import oracle
import outputs
import pytest

from groupoidlab import (
    abelian,
    algebra,
    checks,
    cli,
    core,
    generators,
    groups,
    quotients,
)
from groupoidlab.linalg import Echelon, same_span

CORPUS_SEEDS = range(200)
ENUMERATE_LIMIT = 24
DET_TOL = 1e-6
NUM_TOL = 1e-9


def _report(num: int, ok: bool, text: str):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def corpus():
    return [(s, generators.random_groupoid(s, checks.corpus_budget(s)))
            for s in CORPUS_SEEDS]


@pytest.fixture(scope="module")
def quotient_pairs(corpus):
    """Every (groupoid, normal subgroupoid) pair from the small instances."""
    pairs = []
    for seed, G in corpus:
        if G.n <= ENUMERATE_LIMIT:
            for H in quotients.enumerate_normal_subgroupoids(G):
                pairs.append((seed, G, H))
    return pairs


def test_criterion_1_corpus_validates_under_ten_seconds(corpus):
    start = time.perf_counter()
    bad = []
    for seed, G in corpus:
        if core.validate(G):
            bad.append(seed)
    elapsed = time.perf_counter() - start
    ok = not bad and len(corpus) >= 200 and elapsed < 10.0
    _report(1, ok, f"{len(corpus)} generated instances pass the axiom suite "
                   f"in {elapsed:.2f}s (violations: {bad or 'none'})")


def test_criterion_2_quotient_exactness(quotient_pairs):
    failures = []
    for seed, G, H in quotient_pairs:
        qr = quotients.quotient(G, H)
        if quotients.quotient_preimage_of_units(G, qr.class_map) != H.members:
            failures.append(seed)
    ok = not failures and len(quotient_pairs) > 0
    _report(2, ok, f"unit-preimage equals the kernel carrier for all "
                   f"{len(quotient_pairs)} (instance, normal subgroupoid) pairs "
                   f"(failures: {failures or 'none'})")


def test_criterion_3_kernel_meets_diagonal_trivially(quotient_pairs):
    failures = []
    for seed, G, H in quotient_pairs:
        qr = quotients.quotient(G, H)
        hom = algebra.AlgebraHom(G, qr.quotient, qr.class_map)
        ech = Echelon()
        for row in hom.kernel().vectors():
            ech.insert(row)
        for d in oracle.diagonal_basis(G):
            if ech.insert(d) is None:
                failures.append(seed)
                break
    ok = not failures
    _report(3, ok, f"pushforward kernels intersect the unit diagonal in 0 "
                   f"for all {len(quotient_pairs)} pairs, by exact rank "
                   f"(failures: {failures or 'none'})")


def test_criterion_4_kernel_trivial_iff_carrier_is_units(quotient_pairs):
    failures = []
    for seed, G, H in quotient_pairs:
        qr = quotients.quotient(G, H)
        kernel_rank = algebra.AlgebraHom(G, qr.quotient, qr.class_map).kernel().rank
        if (kernel_rank == 0) != (H.members == frozenset(G.units)):
            failures.append(seed)
    ok = not failures
    _report(4, ok, f"kernel vanishes exactly when the carrier is the unit set, "
                   f"for all {len(quotient_pairs)} pairs (failures: {failures or 'none'})")


def test_criterion_5_characters_count_and_pi_kernel(corpus):
    count_failures = []
    kernel_failures = []
    for seed, G in corpus:
        if (len(algebra.enumerate_characters(quotients.abelianize_groupoid(G)))
                != algebra.abelianization_dim(G)):
            count_failures.append(seed)
        if not same_span(algebra.pi_hom(quotients.abelianize_groupoid(G)).kernel().vectors(),
                         algebra.commutator_ideal(G).vectors()):
            kernel_failures.append(seed)
    ok = not count_failures and not kernel_failures
    _report(5, ok, f"character count matches the commutator-ideal codimension and "
                   f"the fixed-point pushforward kernel is the commutator ideal on all "
                   f"{len(corpus)} instances "
                   f"(count failures: {count_failures or 'none'}, "
                   f"kernel failures: {kernel_failures or 'none'})")


def test_criterion_6_named_regressions():
    s3 = generators.s3_point()
    bundle = generators.s3_a3_bundle()
    kc = generators.klein_cross()
    pair = generators.pair_groupoid(2)

    results = {
        "one-object S3 dim": algebra.abelianization_dim(s3) == 2,
        "S3+A3 bundle dim": algebra.abelianization_dim(bundle) == 5,
        "Klein-cross characters":
            len(algebra.enumerate_characters(quotients.abelianize_groupoid(kc))) == 4,
        "pair groupoid characters":
            len(algebra.enumerate_characters(quotients.abelianize_groupoid(pair))) == 0,
    }
    center = kc.label_index("(e,c)")
    results["Klein-cross support"] = all(
        phi.unit == center
        for phi in algebra.enumerate_characters(quotients.abelianize_groupoid(kc)))
    ok = all(results.values())
    _report(6, ok, "named regressions "
            + ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in results.items()))


def _abelian_bundle_targets(corpus):
    targets = [("fixture:c2+v4", generators.group_bundle(
        [("u", groups.cyclic(2)), ("v", groups.klein())]))]
    for seed, G in corpus:
        if oracle.is_group_bundle(G) and len(G.units) <= 8:
            try:
                abelian.dual_bundle(G)
            except ValueError:
                continue
            targets.append((f"seed={seed}", G))
    for seed, G in corpus:
        B = quotients.abelianize_groupoid(G).g_ab
        if 0 < B.n and len(B.units) <= 8:
            targets.append((f"abelianized:seed={seed}", B))
    return targets


def test_criterion_7_bundle_transform_invertible_and_multiplicative(corpus):
    targets = _abelian_bundle_targets(corpus)
    det_failures = []
    mult_failures = []
    numeric_failures = []
    for name, B in targets:
        gm = algebra.gelfand_transform(abelian.dual_bundle(B))
        matrix = np.array(oracle.gelfand_complex(gm), dtype=complex)
        if gm.size != B.n or abs(np.linalg.det(matrix)) <= DET_TOL:
            det_failures.append(name)
            continue
        if algebra.gelfand_violations(gm) is not None:
            mult_failures.append(name)
            continue
        products = oracle.products(B)
        for a in B.arrows():
            for b in B.arrows():
                c = products.get((a, b))
                want = matrix[:, a] * matrix[:, b]
                got = matrix[:, c] if c is not None else np.zeros(gm.size)
                if np.max(np.abs(want - got)) > NUM_TOL:
                    numeric_failures.append(name)
                    break
            else:
                continue
            break
    ok = (not det_failures and not mult_failures and not numeric_failures
          and len(targets) >= 10)
    _report(7, ok, f"transform on {len(targets)} abelian bundles: square, "
                   f"|det| > {DET_TOL}, multiplicative exactly in exponents and "
                   f"numerically within {NUM_TOL} "
                   f"(det failures: {det_failures[:3] or 'none'}, "
                   f"exact failures: {mult_failures[:3] or 'none'}, "
                   f"numeric failures: {numeric_failures[:3] or 'none'})")


def test_criterion_8_duality_preserves_invariant_factors():
    factor_failures = []
    count_failures = []
    groups_checked = 0
    for n in range(1, 65):
        for expected, a in checks.abelian_groups_of_order(n):
            dec = abelian.invariant_factors(a)
            chars = abelian.characters(a)
            if dec.factors != expected:
                factor_failures.append(a.name)
            if len(chars) != a.order:
                count_failures.append(a.name)
            else:
                dual = abelian.char_group_structure(chars)
                if abelian.invariant_factors(dual).factors != dec.factors:
                    factor_failures.append("dual:" + a.name)
            groups_checked += 1
    ok = not factor_failures and not count_failures and groups_checked >= 64
    _report(8, ok, f"{groups_checked} abelian groups of order <= 64: character "
                   f"count equals order and dualization preserves invariant factors "
                   f"(failures: {(factor_failures + count_failures)[:3] or 'none'})")


def test_criterion_9_full_check_run_under_five_minutes(capsys):
    start = time.perf_counter()
    code = cli.main(["check", "--corpus", "--seed", "0", "--count", "200"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = code == 0 and elapsed < 300.0 and '"status": "pass"' in out
    _report(9, ok, f"command-line corpus verification (200 instances, fixed "
                   f"regressions, duality family) exits {code} in {elapsed:.2f}s")
    assert outputs.entry(code, out) == outputs.fixture()[" ".join(outputs.CORPUS)]


def test_corpus_report_with_two_jobs_matches_the_fixture(capsys):
    code = cli.main([*outputs.CORPUS, "--jobs", "2"])
    pinned = outputs.fixture()[" ".join(outputs.CORPUS)]
    assert outputs.entry(code, capsys.readouterr().out) == pinned


def test_corpus_report_without_asserts_matches_the_fixture():
    # python -O strips every assert, so no verdict may rest on one
    root = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-m", "groupoidlab.cli", *outputs.CORPUS],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": root, "PYTHONDONTWRITEBYTECODE": "1"})
    pinned = outputs.fixture()[" ".join(outputs.CORPUS)]
    assert outputs.entry(proc.returncode, proc.stdout) == pinned, proc.stderr
