"""Deeper dual-route checks: every routine here is validated against an
independently coded oracle on randomized inputs."""

import random
from fractions import Fraction
from itertools import combinations

from qgm import quiver, toricgit
from qgm.exactlin import (
    IntMatrix,
    _hermite_rows,
    conic_feasible,
    rank,
    smith_normal_form,
    strictly_conic_feasible,
)
from qgm.quiver import Path, Potential, QuiverPresentation, cyclic_derivative
from qgm.toricgit import (
    CoordinatePoint,
    StabilityCharacter,
    WeightAction,
    hm_semistable,
    hm_stable,
    king_semistable,
    king_stable,
    caratheodory_genericity,
    scan_full_rank_subsets,
)

from helpers import det_fraction, elimination_scan, random_point_values


def test_smith_normal_form_stress():
    rng = random.Random(31)
    for _ in range(50):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-50, 50) for _ in range(nc)] for _ in range(nr)])
        u, d, v = smith_normal_form(m)
        um = [[sum(u.entry(i, k) * m.entry(k, j) for k in range(nr)) for j in range(nc)]
              for i in range(nr)]
        umv = [[sum(um[i][k] * v.entry(k, j) for k in range(nc)) for j in range(nc)]
               for i in range(nr)]
        for i in range(nr):
            for j in range(nc):
                assert umv[i][j] == (d.entry(i, j) if i == j else 0)
        diag = [d.entry(i, i) for i in range(min(nr, nc))]
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert all(x >= 0 for x in diag)
        assert abs(det_fraction(u.entries)) == 1
        assert abs(det_fraction(v.entries)) == 1


def test_hermite_form_is_a_lattice_invariant():
    # mixing the rows by unimodular operations must not change the form
    rng = random.Random(32)
    for _ in range(30):
        k, n = rng.randint(1, 4), rng.randint(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        base = _hermite_rows(rows)
        mixed = [r[:] for r in rows]
        for _ in range(12):
            i, j = rng.randrange(k), rng.randrange(k)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
        if rng.randrange(2) and k > 1:
            i, j = rng.sample(range(k), 2)
            mixed[i], mixed[j] = mixed[j], mixed[i]
        assert _hermite_rows(mixed) == base


def _cone_oracle_2d(gens, target):
    # membership in a planar cone by pairs, since any member is a
    # nonnegative combination of at most two generators
    tx, ty = Fraction(target[0]), Fraction(target[1])
    if tx == 0 and ty == 0:
        return True
    for g in gens:
        cross = g[0] * ty - g[1] * tx
        dot = g[0] * tx + g[1] * ty
        if cross == 0 and dot > 0:
            return True
    for g, h in combinations(gens, 2):
        det = g[0] * h[1] - g[1] * h[0]
        if det == 0:
            continue
        a = (tx * h[1] - ty * h[0]) / det
        b = (g[0] * ty - g[1] * tx) / det
        if a >= 0 and b >= 0:
            return True
    return False


def test_conic_feasible_against_planar_oracle():
    rng = random.Random(33)
    for _ in range(300):
        gens = [(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 5))]
        target = (rng.randint(-3, 3), rng.randint(-3, 3))
        got = conic_feasible(gens, target) is not None
        assert got == _cone_oracle_2d(gens, target)


def test_strict_feasibility_against_perturbation_characterization():
    # in the plane, interior membership of a full-dimensional cone is
    # equivalent to membership of the target and of its two small
    # perturbations along the boundary normals; cross-check on a grid
    rng = random.Random(34)
    eps = Fraction(1, 1000)
    for _ in range(200):
        gens = [(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 5))]
        target = (rng.randint(-3, 3), rng.randint(-3, 3))
        got = strictly_conic_feasible(gens, target)
        if rank(IntMatrix(gens)) != 2:
            assert got is False
            continue
        probes = [(target[0] + dx * eps, target[1] + dy * eps)
                  for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        inside_everywhere = all(_cone_oracle_2d(gens, p) for p in probes)
        assert got == inside_everywhere


def test_stability_equivalence_for_other_characters():
    # the cone and submodule verdicts coincide for any character that
    # sums to zero, generic or not
    q = quiver.canonical_quiver()
    action = WeightAction.from_quiver(q)
    rng = random.Random(35)
    for _ in range(12):
        theta = [rng.randint(-12, 12) for _ in range(8)]
        theta.append(-sum(theta))
        chi = StabilityCharacter(theta)
        for _ in range(25):
            p = CoordinatePoint.from_values(random_point_values(rng))
            assert hm_semistable(action, chi, p) == king_semistable(q, chi, p)
            assert hm_stable(action, chi, p) == king_stable(q, chi, p)


def test_stability_equivalence_for_random_generic_characters():
    # for characters with no zero-sum proper vertex subset the cone and
    # submodule verdicts agree on random supports of every density, and
    # semistable points are stable (no subset sits on the boundary); the
    # characters are positive arrow-weight combinations, so inside the
    # cone, or free entries, mostly outside it
    q = quiver.canonical_quiver()
    action = WeightAction.from_quiver(q)
    rng = random.Random(37)
    generic = semistable_points = 0
    while generic < 24:
        theta = [rng.randint(-1000, 1000) for _ in range(9)]
        if generic % 2 == 0:
            theta = [0] * 9
            for _label, s, t in q.arrows:
                c = rng.randint(0, 100)
                theta[s] -= c
                theta[t] += c
        theta[8] -= sum(theta)
        if not toricgit.theta_generic_quiver(q, theta):
            continue
        generic += 1
        for _ in range(25):
            density = rng.random()
            p = CoordinatePoint(18, [a for a in range(18) if rng.random() < density])
            semistable = hm_semistable(action, theta, p)
            assert semistable == king_semistable(q, theta, p)
            assert hm_stable(action, theta, p) == king_stable(q, theta, p) == semistable
            semistable_points += semistable
    assert semistable_points >= 60


def test_forest_flow_on_a_smaller_quiver():
    # a four-vertex quiver whose ambient rank is 3: the forest scan must
    # agree with the elimination oracle and with the feasibility solver
    # on every triple
    arrows = [("a", 0, 1), ("b", 1, 2), ("c", 2, 3), ("d", 0, 2), ("e", 1, 3)]
    q = QuiverPresentation(["0", "1", "2", "3"], arrows)
    action = WeightAction.from_quiver(q)
    assert action.ambient_rank == 3
    rng = random.Random(36)
    tested = 0
    while tested < 8:
        theta = [rng.randint(-6, 6) for _ in range(3)]
        theta.append(-sum(theta))
        if not caratheodory_genericity(action, theta):
            continue
        tested += 1
        count, relevant = scan_full_rank_subsets(q, theta)
        assert (count, relevant) == elimination_scan(action, theta)
        # reference: triple-subset membership by the feasibility solver
        expected = []
        for subset in combinations(range(5), 3):
            rows = action.rows_for(subset)
            if rank(IntMatrix(rows)) != 3:
                continue
            if conic_feasible(rows, theta) is not None:
                expected.append(subset)
        assert relevant == expected


def test_cyclic_derivative_with_repeated_arrows():
    loops = QuiverPresentation(["u"], [("a", 0, 0), ("b", 0, 0)])
    phi = Potential(loops, [(1, ("a", "a", "a"))])
    got = cyclic_derivative(phi, "a")
    assert got == [(Fraction(3), Path(loops, ("a", "a")))]
    mixed = Potential(loops, [(1, ("b", "a", "a"))])
    got = cyclic_derivative(mixed, "a")
    # two occurrences: (a_0 before b) and (b before a_1)
    assert sorted(p.arrows for _c, p in got) == [(0, 1), (1, 0)]
    assert all(c == 1 for c, _p in got)


def test_toric_ideal_structural_formula():
    # the distinguished monomial relations pair x_{i,0,j} with
    # x_{i+j,1,-i}, whose composite ends at vertex (j,2)
    q = quiver.canonical_quiver()
    for first, second in quiver.toric_relation_arrow_pairs():
        li, lj, lk = (int(t) for t in q.arrows[first][0].split("_")[1:])
        mi, mj, mk = (int(t) for t in q.arrows[second][0].split("_")[1:])
        assert (mi, mj, mk) == ((li + lk) % 3, 1, (-li) % 3)
        assert q.target(second) == quiver.vertex_id(lk, 2)
