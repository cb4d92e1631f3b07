import json
import random

import pytest

from qgm import pipeline, quiver, toricgit
from qgm.monomial import (
    SquarefreeIdeal,
    contains_ideal,
    minimal_primes,
    sum_prime,
)
from qgm.pipeline import (
    NonGenericTheta,
    builtin_toric_ideal,
    connectedness_details,
    run_connectedness,
)
from qgm.toricgit import SPECIAL_THETA, StabilityCharacter

from helpers import TORIC_PAIRS

Q = quiver.canonical_quiver()


@pytest.fixture(scope="module")
def canonical_run():
    return connectedness_details(Q, SPECIAL_THETA, builtin_toric_ideal())


def test_builtin_ideal_matches_frozen_pairs():
    ideal = builtin_toric_ideal()
    assert set(ideal.generators) == {tuple(sorted(p)) for p in TORIC_PAIRS}


def test_canonical_counts(canonical_run):
    report, components, irrelevant = canonical_run
    assert report.minimal_prime_count == 512
    assert report.component_count == 18
    assert report.connected is True
    assert report.h0_verdict == "One"
    assert report.octuple_count == 8748
    assert report.relevant_octuple_count == 1053
    assert len(components) == 18


def test_relevance_agrees_with_monomial_module(canonical_run):
    # the bitmask filtering inside the pipeline must reproduce the
    # module-level containment tests verbatim
    report, components, irrelevant = canonical_run
    primes = minimal_primes(builtin_toric_ideal())
    expected = [p for p in primes if not contains_ideal(p, irrelevant)]
    assert components == expected
    recomputed_edges = []
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            s = sum_prime(components[i], components[j])
            if not contains_ideal(s, irrelevant):
                recomputed_edges.append((i, j))
    assert list(report.edges) == recomputed_edges


def test_component_structure(canonical_run):
    report, components, irrelevant = canonical_run
    for idx, prime in enumerate(components):
        # one variable from each generator pair
        for pair in TORIC_PAIRS:
            assert len(set(pair) & set(prime.variables)) == 1
        # the complement supports at least one irrelevant octuple
        free = set(range(18)) - set(prime.variables)
        assert any(set(g) <= free for g in irrelevant.generators)
        assert sum(idx in e for e in report.edges) >= 2


def test_truncated_subgraph_is_connected(canonical_run):
    # the first-two-neighbours subgraph already connects the components
    report, _components, _irrelevant = canonical_run
    sub = set()
    for i in range(report.component_count):
        for j in sorted(k for e in report.edges if i in e for k in e if k != i)[:2]:
            sub.add((min(i, j), max(i, j)))
    assert sub <= set(report.edges)
    parent = list(range(report.component_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in sub:
        parent[find(i)] = find(j)
    assert len({find(i) for i in range(report.component_count)}) == 1


def test_zero_ideal_gives_single_component():
    report = run_connectedness(Q, SPECIAL_THETA, SquarefreeIdeal(18, []))
    assert report.component_count == 1
    assert report.minimal_prime_count == 1
    assert report.connected is True
    assert report.h0_verdict == "Unknown"  # not the distinguished ideal


def test_non_generic_theta_rejected():
    with pytest.raises(NonGenericTheta):
        run_connectedness(Q, StabilityCharacter([0] * 9), builtin_toric_ideal())
    with pytest.raises(NonGenericTheta):
        run_connectedness(Q, StabilityCharacter([-1, 1, 0, 0, 0, 0, 0, 0, 0]),
                          builtin_toric_ideal())


def test_quiver_automorphism_invariance(canonical_run):
    # swap the two middle vertices with equal character values and
    # relabel arrows accordingly; counts and connectivity are unchanged
    report, _c, _i = canonical_run
    swap = {0: 1, 1: 0, 2: 2}
    vertices = list(Q.vertices)
    arrows = []
    for label, s, t in Q.arrows:
        s_i, s_j = divmod(s, 3)[1], s // 3
        t_i, t_j = divmod(t, 3)[1], t // 3
        new_s_i = swap[s_i] if s_j == 1 else s_i
        new_t_i = swap[t_i] if t_j == 1 else t_i
        arrows.append((label, 3 * s_j + new_s_i, 3 * t_j + new_t_i))
    q2 = quiver.QuiverPresentation(vertices, arrows)
    # theta is fixed by the swap: both middle values are 3
    theta = SPECIAL_THETA.theta
    assert theta[3] == theta[4]
    ideal2 = SquarefreeIdeal(18, [
        tuple(sorted(pair)) for pair in builtin_toric_ideal().generators])
    report2 = run_connectedness(q2, SPECIAL_THETA, ideal2)
    assert report2.component_count == report.component_count
    assert report2.connected == report.connected
    assert report2.octuple_count == report.octuple_count


def test_octuple_deletion_is_monotone(canonical_run):
    # removing one octuple from the irrelevant ideal can only shrink the
    # component set and cut edges
    report, components, irrelevant = canonical_run
    base_supports = {p.variables for p in components}
    base_edges = {(components[i].variables, components[j].variables)
                  for i, j in report.edges}
    primes = minimal_primes(builtin_toric_ideal())
    rng = random.Random(27)
    picks = rng.sample(range(len(irrelevant.generators)), 12)
    for drop in picks:
        gens = [g for k, g in enumerate(irrelevant.generators) if k != drop]
        smaller = SquarefreeIdeal(18, gens)
        comps = [p for p in primes if not contains_ideal(p, smaller)]
        supports = {p.variables for p in comps}
        assert supports <= base_supports
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                if not contains_ideal(sum_prime(comps[i], comps[j]), smaller):
                    assert (comps[i].variables, comps[j].variables) in base_edges


def test_component_free_points_are_stable(canonical_run):
    # a generic point of a surviving component has support equal to the
    # component's free coordinates; it must be semistable, and since the
    # character admits no strictly semistable points, stable as well
    report, components, irrelevant = canonical_run
    action = toricgit.WeightAction.from_quiver(Q)
    for prime in components:
        free = [v for v in range(18) if v not in prime.variables]
        point = toricgit.CoordinatePoint(18, free)
        assert toricgit.hm_semistable(action, SPECIAL_THETA, point)
        assert toricgit.hm_stable(action, SPECIAL_THETA, point)


DISCONNECTED_GENS = [(0, 7), (0, 15), (1, 9), (5, 12), (5, 16), (6, 7),
                     (8, 14), (11, 17), (12, 16)]


def test_disconnected_ideal_is_reported_as_such():
    report = run_connectedness(Q, SPECIAL_THETA, SquarefreeIdeal(18, DISCONNECTED_GENS))
    assert report.component_count == 36
    assert report.connected is False
    assert report.h0_verdict == "Unknown"
    # disconnection is certified by an isolated block: verify with the
    # module-level containment routines
    _report, components, irrelevant = connectedness_details(
        Q, SPECIAL_THETA, SquarefreeIdeal(18, DISCONNECTED_GENS))
    n = len(components)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if not contains_ideal(sum_prime(components[i], components[j]), irrelevant):
                parent[find(i)] = find(j)
    assert len({find(i) for i in range(n)}) > 1


def test_report_json_is_deterministic(canonical_run):
    report, _c, _i = canonical_run
    report2 = run_connectedness(Q, SPECIAL_THETA, builtin_toric_ideal())
    a = json.dumps(report.to_json(), sort_keys=True)
    b = json.dumps(report2.to_json(), sort_keys=True)
    assert a == b
    data = report.to_json()
    assert set(data) == {"octupleCount", "relevantOctupleCount",
                         "minimalPrimeCount", "componentCount", "edges",
                         "connected", "h0Verdict"}
