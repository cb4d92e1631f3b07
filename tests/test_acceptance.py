"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from qgm import cubicrel, picard, pipeline, quiver, toricgit
from qgm.toricgit import SPECIAL_THETA, CoordinatePoint, WeightAction

from helpers import general_position_params, nonzero_rational, random_point_values

Q = quiver.canonical_quiver()
QT = quiver.rolled_up_quiver()


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_01_connectedness_pipeline():
    start = time.monotonic()
    report = pipeline.run_connectedness(Q, SPECIAL_THETA, pipeline.builtin_toric_ideal())
    elapsed = time.monotonic() - start
    ok = (report.minimal_prime_count == 512
          and report.component_count == 18
          and report.connected is True
          and elapsed <= 10.0)
    _report(1, ok,
            f"512 primes={report.minimal_prime_count == 512}, "
            f"18 components={report.component_count == 18}, "
            f"connected={report.connected}, runtime={elapsed:.2f}s (limit 10s)")


def test_acceptance_02_strong_convexity():
    pairings = toricgit.strong_convexity_pairings()
    ok = pairings == [3] * 27
    _report(2, ok, f"all 27 pairings equal 3: {set(pairings)}")


def test_acceptance_03_lattice_ranks():
    rep_t = toricgit.lattice_report(QT)
    rep_q = toricgit.lattice_report(Q)
    ok = (rep_t["rankK"] == 19 and rep_t["rankM"] == 8 and rep_t["rankN"] == 8
          and rep_q["rankT"] == 10
          and 27 == rep_t["rankK"] + rep_t["rankM"])
    _report(3, ok,
            f"rank K={rep_t['rankK']}, rank M={rep_t['rankM']}, "
            f"rank N={rep_t['rankN']}, rank T(base)={rep_q['rankT']}, "
            f"27=19+8={27 == rep_t['rankK'] + rep_t['rankM']}")


def test_acceptance_04_genericity():
    subsets = 2 ** 9 - 2
    ok_theta = toricgit.theta_generic_quiver(Q, SPECIAL_THETA)
    action = WeightAction.from_quiver(Q)
    start = time.monotonic()
    ok_cara = toricgit.caratheodory_genericity(action, SPECIAL_THETA)
    elapsed = time.monotonic() - start
    ok = ok_theta and ok_cara and elapsed <= 60.0
    _report(4, ok,
            f"{subsets} proper subsets nonzero={ok_theta}, "
            f"31824 rank tests pass={ok_cara}, runtime={elapsed:.2f}s (limit 60s)")


def test_acceptance_05_stability_equivalence():
    action = WeightAction.from_quiver(Q)
    rng = random.Random(42)
    agree = 0
    total = 1000
    for _ in range(total):
        p = CoordinatePoint.from_values(random_point_values(rng))
        cone = (toricgit.hm_semistable(action, SPECIAL_THETA, p),
                toricgit.hm_stable(action, SPECIAL_THETA, p))
        king = (toricgit.king_semistable(Q, SPECIAL_THETA, p),
                toricgit.king_stable(Q, SPECIAL_THETA, p))
        if cone == king:
            agree += 1
    ok = agree == total
    _report(5, ok, f"cone/submodule agreement {agree}/{total} (both verdicts)")


def test_acceptance_06_relation_identities():
    rng = random.Random(606)
    nonzero_all = True
    row_rule_always = True
    for _ in range(100):
        cfg = general_position_params(rng)
        rc = cubicrel.relation_coefficients(cfg)  # raises unless all nine expand to zero
        nonzero_all = nonzero_all and all(v != 0 for v in rc.vector27)
        for entry in rc.transcript["family10"]:
            row_rule_always = row_rule_always and entry["kernelMatchesRowRule"]
    ok = nonzero_all and row_rule_always
    _report(6, ok,
            "100 configurations: all identities expand to zero, "
            f"27 coefficients nonzero={nonzero_all}; index-rule discrepancy "
            f"resolved by kernel search (row rule matches={row_rule_always})")


def test_acceptance_07_gauge_invariance_and_injectivity():
    rng = random.Random(707)
    cfg = general_position_params(rng)
    rc = cubicrel.relation_coefficients(cfg)
    point = cubicrel.to_moduli_point(rc)
    invariant = all(
        cubicrel.to_moduli_point(
            cubicrel.gauge_rescale(rc, [nonzero_rational(rng) for _ in range(27)]))
        == point
        for _ in range(100))
    pairs_ok = True
    seen = set()
    points = {}
    while len(points) < 51:
        c = general_position_params(rng)
        key = (c.a, c.b, c.c, c.d)
        if key in seen:
            continue
        seen.add(key)
        points[key] = cubicrel.to_moduli_point(cubicrel.relation_coefficients(c))
    keys = list(points)
    count = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if count >= 50:
                break
            count += 1
            if points[keys[i]] == points[keys[j]]:
                pairs_ok = False
    ok = invariant and pairs_ok
    _report(7, ok,
            f"100 rescalings invariant={invariant}, "
            f"50 distinct pairs give distinct points={pairs_ok}")


def test_acceptance_08_potential_roundtrip():
    rng = random.Random(808)
    pairing = quiver.canonical_back_arrow_pairing()
    backs = quiver.back_arrow_labels()
    ok = True
    for _ in range(100):
        rels = {}
        for i in range(3):
            for j in range(3):
                src, tgt = quiver.vertex_id(i, 0), quiver.vertex_id(j, 2)
                paths = quiver.enumerate_paths(Q, src, tgt, 2)
                rels[(src, tgt)] = [[(nonzero_rational(rng), p) for p in paths]]
        rset = quiver.RelationSet(Q, rels)
        phi = quiver.potential_from_relations(rset, pairing)
        back = quiver.relations_from_potential(phi, backs)
        ok = ok and back == rset and quiver.proportional_relations(back, rset)
    _report(8, ok, "100 random relation sets reproduce exactly through the potential")


def test_acceptance_09_picard_suite():
    gram_ok = picard.verify_gram_matrix()
    rec = picard.root_system_check()
    roots_ok = rec["root_count"] == 72 and rec["cartan_match"]
    try:
        transcript = picard.mutation_chain_transcript()
        chain_ok = len(transcript["stages"]) == 6
    except picard.ChainMismatch as exc:
        transcript = {"failure": str(exc)}
        chain_ok = False
    ok = gram_ok and roots_ok and chain_ok
    _report(9, ok,
            f"gram={gram_ok}, roots(72)={rec['root_count'] == 72}, "
            f"cartan={rec['cartan_match']}, chain 6 stages={chain_ok}")


def test_acceptance_10_canonical_triviality():
    ok = toricgit.canonical_triviality_check(Q)
    _report(10, ok, "degree identity evaluates to the zero vector exactly")
