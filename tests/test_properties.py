"""Property tests (hypothesis) for the incidence route of the
connectedness pipeline: the spanning-forest scan against the elimination
scan, the redundancy of Carathéodory genericity, bit-set minimal primes
against brute force, and the pipeline's bit-set containment tests
against the monomial module."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qgm import quiver  # noqa: E402
from qgm.exactlin import IntMatrix  # noqa: E402
from qgm.monomial import (  # noqa: E402
    SquarefreeIdeal,
    contains_ideal,
    minimal_primes,
    sum_prime,
)
from qgm.pipeline import connectedness_details  # noqa: E402
from qgm.quiver import QuiverPresentation  # noqa: E402
from qgm.toricgit import (  # noqa: E402
    SPECIAL_THETA,
    WeightAction,
    caratheodory_genericity,
    scan_full_rank_subsets,
    theta_generic_quiver,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def small_quivers(draw, loops=False):
    """Up to five vertices and seven arrows; parallel arrows, isolated
    vertices and several components are all allowed."""
    n = draw(st.integers(2, 5))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if not loops:
        pairs = pairs.filter(lambda a: a[0] != a[1])
    arrows = draw(st.lists(pairs, min_size=1, max_size=7))
    return QuiverPresentation([str(v) for v in range(n)],
                              [(f"a{k}", s, t) for k, (s, t) in enumerate(arrows)])


@st.composite
def quivers_with_characters(draw, loops=False):
    """A small quiver and a character: either free small entries or a
    nonnegative combination of arrow weights (so inside the cone)."""
    q = draw(small_quivers(loops=loops))
    n = len(q.vertices)
    if draw(st.booleans()):
        theta = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    else:
        theta = [0] * n
        for _label, s, t in q.arrows:
            c = draw(st.integers(0, 3))
            theta[s] -= c
            theta[t] += c
    return q, theta


def _lose_incidence_shape(weights, theta):
    """Change the torus basis by u = 1 + 2 * (strictly upper ones), which
    is unimodular: the image of e_t - e_s has two entries -1 or two
    entries +1, so no row keeps the signed-incidence shape."""
    n = len(theta)
    u = [[1 if i == j else (2 if j > i else 0) for j in range(n)] for i in range(n)]
    rows = [[sum(row[k] * u[k][j] for k in range(n)) for j in range(n)] for row in weights]
    return rows, [sum(theta[k] * u[k][j] for k in range(n)) for j in range(n)]


@PROPERTY
@given(quivers_with_characters())
def test_forest_scan_matches_the_elimination_scan(case):
    q, theta = case
    action = WeightAction.from_quiver(q)
    rows, theta_u = _lose_incidence_shape(
        [list(r) for r in action.weights.entries], theta)
    transformed = WeightAction(IntMatrix(rows))
    assert transformed.ambient_rank == action.ambient_rank
    count, relevant = scan_full_rank_subsets(action, theta)
    count_u, relevant_u = scan_full_rank_subsets(transformed, theta_u)
    assert (count, relevant) == (count_u, relevant_u)


@PROPERTY
@given(quivers_with_characters(loops=True))
def test_quiver_genericity_implies_caratheodory_genericity(case):
    q, theta = case
    if theta_generic_quiver(q, theta):
        assert caratheodory_genericity(WeightAction.from_quiver(q), theta)


@pytest.mark.parametrize("theta", [
    SPECIAL_THETA.theta,
    (-35, -21, -17, 14, 5, 9, 20, 14, 11),     # inside the cone
    (15, 12, 3, 1, 3, 9, 5, 15, -63),          # outside the cone
])
def test_canonical_characters_are_caratheodory_generic(theta):
    q = quiver.canonical_quiver()
    assert theta_generic_quiver(q, theta)
    assert caratheodory_genericity(WeightAction.from_quiver(q), theta)


def _brute_force_minimal_transversals(num_vars, gens):
    masks = [sum(1 << v for v in g) for g in gens]
    hitting = [s for s in range(1 << num_vars) if all(s & m for m in masks)]
    minimal = [s for s in hitting
               if not any(h != s and h & s == h for h in hitting)]
    return sorted(tuple(v for v in range(num_vars) if s >> v & 1) for s in minimal)


@st.composite
def small_ideals(draw, max_vars=10):
    n = draw(st.integers(1, max_vars))
    gens = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
                         max_size=8))
    return SquarefreeIdeal(n, gens)


@PROPERTY
@given(small_ideals())
def test_minimal_primes_are_the_minimal_transversals(ideal):
    got = [p.variables for p in minimal_primes(ideal)]
    assert got == _brute_force_minimal_transversals(ideal.num_vars, ideal.generators)


def _contains_by_sets(prime, ideal):
    pv = set(prime.variables)
    return all(pv & set(g) for g in ideal.generators)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.integers(0, 17), min_size=1, max_size=3),
                min_size=1, max_size=6))
def test_pipeline_containment_matches_the_monomial_module(gens):
    q = quiver.canonical_quiver()
    ideal = SquarefreeIdeal(18, gens)
    report, components, irrelevant = connectedness_details(q, SPECIAL_THETA, ideal)
    primes = minimal_primes(ideal)
    expected = [p for p in primes if not contains_ideal(p, irrelevant)]
    assert components == expected
    assert expected == [p for p in primes if not _contains_by_sets(p, irrelevant)]
    edges = [(i, j) for i in range(len(expected)) for j in range(i + 1, len(expected))
             if not _contains_by_sets(sum_prime(expected[i], expected[j]), irrelevant)]
    assert list(report.edges) == edges
    assert all(contains_ideal(sum_prime(components[i], components[j]), irrelevant)
               == ((i, j) not in report.edges)
               for i in range(len(components)) for j in range(i + 1, len(components)))
