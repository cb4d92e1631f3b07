import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from qgm import quiver
from qgm.exactlin import IntMatrix, _int_row_reduce, conic_feasible, strictly_conic_feasible
from qgm.monomial import SquarefreeIdeal
from qgm.toricgit import (
    SPECIAL_THETA,
    CoordinatePoint,
    StabilityCharacter,
    WeightAction,
    canonical_triviality_check,
    caratheodory_genericity,
    hm_semistable,
    hm_stable,
    king_semistable,
    king_stable,
    lattice_report,
    scan_full_rank_subsets,
    strong_convexity_check,
    strong_convexity_pairings,
    theta_generic_quiver,
)

from helpers import (
    elimination_scan,
    exhaustive_irrelevant_supports,
    forest_scan,
    random_point_values,
)

Q = quiver.canonical_quiver()
QT = quiver.rolled_up_quiver()
ACTION = WeightAction.from_quiver(Q)


def full_support_point():
    return CoordinatePoint(18, range(18))


def test_weight_action_rank():
    assert ACTION.ambient_rank == 8
    assert ACTION.coordinates == 18


def test_hm_examples():
    theta = SPECIAL_THETA
    assert hm_semistable(ACTION, theta, full_support_point())
    assert hm_stable(ACTION, theta, full_support_point())
    empty = CoordinatePoint(18, ())
    assert not hm_semistable(ACTION, theta, empty)
    assert not hm_stable(ACTION, theta, empty)
    single = CoordinatePoint(18, (0,))
    assert not hm_semistable(ACTION, theta, single)
    assert not hm_stable(ACTION, theta, single)


def test_hm_stable_needs_full_dimensional_support():
    # the nine left-to-middle arrows span only rank 5
    support = range(9)
    sub = WeightAction(IntMatrix([ACTION.weights.row(i) for i in support]))
    assert sub.ambient_rank == 5
    p = CoordinatePoint(18, support)
    assert not hm_stable(ACTION, SPECIAL_THETA, p)
    assert not hm_semistable(ACTION, SPECIAL_THETA, p)
    # a seven-arrow forest spans rank 7 < 8: never stable
    forest = (0, 1, 2, 3, 6, 9, 12)
    sub7 = WeightAction(IntMatrix([ACTION.weights.row(i) for i in forest]))
    assert sub7.ambient_rank == 7
    assert not hm_stable(ACTION, SPECIAL_THETA, CoordinatePoint(18, forest))


def test_king_examples():
    theta = SPECIAL_THETA
    assert king_stable(Q, theta, full_support_point())
    zero = CoordinatePoint(18, ())
    assert not king_stable(Q, theta, zero)
    assert not king_semistable(Q, theta, zero)
    # left-column arrows only: the closed set of all left and middle
    # vertices carries character sum -21
    p = CoordinatePoint(18, range(9))
    assert not king_stable(Q, theta, p)
    assert not king_semistable(Q, theta, p)


def test_king_against_direct_subset_enumeration():
    # independent reimplementation with explicit vertex sets
    rng = random.Random(13)
    theta = SPECIAL_THETA.theta
    for _ in range(50):
        p = CoordinatePoint.from_values(random_point_values(rng))
        supported = [Q.arrows[i] for i in sorted(p.support)]
        closed_ok_strict = True
        closed_ok_weak = True
        for mask in range(1, 2 ** 9 - 1):
            s = {v for v in range(9) if mask >> v & 1}
            if any(a_src in s and a_tgt not in s for (_l, a_src, a_tgt) in supported):
                continue
            total = sum(theta[v] for v in s)
            if total <= 0:
                closed_ok_strict = False
            if total < 0:
                closed_ok_weak = False
        assert king_stable(Q, SPECIAL_THETA, p) == closed_ok_strict
        assert king_semistable(Q, SPECIAL_THETA, p) == closed_ok_weak


def test_cone_and_submodule_verdicts_agree():
    rng = random.Random(14)
    for _ in range(150):
        p = CoordinatePoint.from_values(random_point_values(rng))
        assert hm_semistable(ACTION, SPECIAL_THETA, p) == \
            king_semistable(Q, SPECIAL_THETA, p)
        assert hm_stable(ACTION, SPECIAL_THETA, p) == \
            king_stable(Q, SPECIAL_THETA, p)


def test_stable_implies_semistable():
    rng = random.Random(15)
    for _ in range(80):
        p = CoordinatePoint.from_values(random_point_values(rng))
        if hm_stable(ACTION, SPECIAL_THETA, p):
            assert hm_semistable(ACTION, SPECIAL_THETA, p)


def test_semistability_is_monotone_in_support():
    rng = random.Random(16)
    for _ in range(60):
        p = CoordinatePoint.from_values(random_point_values(rng))
        if not hm_semistable(ACTION, SPECIAL_THETA, p):
            continue
        extra = [i for i in range(18) if i not in p.support]
        if not extra:
            continue
        bigger = CoordinatePoint(18, set(p.support) | {rng.choice(extra)})
        assert hm_semistable(ACTION, SPECIAL_THETA, bigger)


def test_theta_generic_quiver():
    assert theta_generic_quiver(Q, SPECIAL_THETA)
    assert not theta_generic_quiver(Q, StabilityCharacter([0] * 9))
    assert not theta_generic_quiver(Q, StabilityCharacter([-1, 1, 0, 0, 0, 0, 0, 0, 0]))


def test_caratheodory_genericity():
    assert caratheodory_genericity(ACTION, SPECIAL_THETA)
    assert not caratheodory_genericity(ACTION, StabilityCharacter([0] * 9))
    toy = WeightAction(IntMatrix([[1, 0], [0, 1]]))
    assert not caratheodory_genericity(toy, (1, 0))
    assert caratheodory_genericity(toy, (1, 1))


def test_irrelevant_ideal_toy_cases():
    # the oracles on a non-incidence action: the full-rank subsets whose
    # cone holds a generic character, and the minimal supports
    toy = WeightAction(IntMatrix([[1, 0], [0, 1]]))
    assert elimination_scan(toy, (1, 1)) == (1, [(0, 1)])
    assert exhaustive_irrelevant_supports(toy, (1, 1)) == [(0, 1)]
    # character outside the effective cone: empty ideal
    assert elimination_scan(toy, (-1, 1)) == (1, [])
    assert exhaustive_irrelevant_supports(toy, (-1, 1)) == []
    # a non-generic character is held by a smaller support
    assert not caratheodory_genericity(toy, (1, 0))
    assert exhaustive_irrelevant_supports(toy, (1, 0)) == [(0,)]


def test_irrelevant_ideal_exhaustive_matches_default_on_toys():
    rng = random.Random(17)
    for _ in range(10):
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(5)]
        action = WeightAction(IntMatrix(rows))
        chi = tuple(sum(r[j] for r in rows) for j in range(3))
        if not caratheodory_genericity(action, chi):
            continue
        _count, default = elimination_scan(action, chi)
        exhaustive = exhaustive_irrelevant_supports(action, chi)
        # the size-r generators refine the minimal supports: each
        # exhaustive generator is contained in some default one and
        # both cut out the same semistable supports
        for g in default:
            assert any(set(e) <= set(g) for e in exhaustive)
        for e in exhaustive:
            assert conic_feasible(action.rows_for(e), chi) is not None


def test_canonical_octuple_scan():
    count, relevant = scan_full_rank_subsets(Q, SPECIAL_THETA)
    assert count == 8748
    assert len(relevant) == 1053
    ideal = SquarefreeIdeal(18, relevant)
    assert len(ideal.generators) == 1053
    assert all(len(g) == 8 for g in ideal.generators)


def test_octuple_scan_against_general_elimination_path():
    # the elimination-and-solve oracle, run after an invertible change of
    # torus basis that destroys the incidence shape; subsets and verdicts
    # must be identical to the forest scan on the quiver
    u = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    for i in range(8):
        u[i][i + 1] = 1
    u[0][8] = 2
    rows = [list(r) for r in ACTION.weights.entries]
    wt = [[sum(rows[a][k] * u[k][j] for k in range(9)) for j in range(9)]
          for a in range(18)]
    theta_t = [sum(SPECIAL_THETA.theta[k] * u[k][j] for k in range(9))
               for j in range(9)]
    transformed = WeightAction(IntMatrix(wt))
    assert transformed.ambient_rank == 8
    count_t, relevant_t = elimination_scan(transformed, theta_t)
    count, relevant = scan_full_rank_subsets(Q, SPECIAL_THETA)
    assert count_t == count
    assert relevant_t == relevant


def test_octuple_membership_against_simplex_recount():
    # independent recount of cone membership with the feasibility solver
    # over all octuples; by genericity no rank-deficient octuple may
    # contain the character, and on full-rank octuples the verdicts of
    # the two routes must agree exactly
    _count, relevant = scan_full_rank_subsets(Q, SPECIAL_THETA)
    relevant_set = set(map(tuple, relevant))
    rows = [list(r) for r in ACTION.weights.entries]
    theta = SPECIAL_THETA.theta
    for subset in combinations(range(18), 8):
        feasible = conic_feasible([rows[i] for i in subset], theta) is not None
        if feasible:
            assert _int_row_reduce([rows[i] for i in subset])[0] == 8
        assert feasible == (subset in relevant_set)


def test_lattice_report_rolled_up():
    rep = lattice_report(QT)
    assert rep["rankK"] == 19
    assert rep["rankM"] == rep["rankN"] == 8
    assert rep["rankL"] == 19
    assert 27 == rep["rankK"] + rep["rankM"]
    rho_t = quiver.rho_weight_matrix().transpose()
    for v in rep["mBasis"]:
        prod = [sum(rho_t.entry(i, j) * v[j] for j in range(27)) for i in range(27)]
        assert not any(prod)


def test_invariant_character_basis_spans_the_rational_nullspace():
    # independent cross-check with plain rational elimination: the
    # character basis must span the full nullspace of the transposed
    # cycle/arrow matrix over Q
    from fractions import Fraction as F

    rep = lattice_report(QT)
    rho_t = quiver.rho_weight_matrix().transpose()
    m = [[F(rho_t.entry(i, j)) for j in range(27)] for i in range(27)]
    # eliminate to find the nullspace dimension
    rank_q = 0
    ncols = 27
    work = [row[:] for row in m]
    for c in range(ncols):
        piv = next((i for i in range(rank_q, 27) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank_q], work[piv] = work[piv], work[rank_q]
        pr = work[rank_q]
        for i in range(rank_q + 1, 27):
            if work[i][c]:
                f = work[i][c] / pr[c]
                work[i] = [a - f * b for a, b in zip(work[i], pr)]
        rank_q += 1
    assert 27 - rank_q == len(rep["mBasis"]) == 8
    # the basis vectors are independent: stack them and eliminate
    stack = [[F(v) for v in vec] for vec in rep["mBasis"]]
    r2 = 0
    for c in range(27):
        piv = next((i for i in range(r2, len(stack)) if stack[i][c] != 0), None)
        if piv is None:
            continue
        stack[r2], stack[piv] = stack[piv], stack[r2]
        pr = stack[r2]
        for i in range(r2 + 1, len(stack)):
            if stack[i][c]:
                f = stack[i][c] / pr[c]
                stack[i] = [a - f * b for a, b in zip(stack[i], pr)]
        r2 += 1
    assert r2 == 8


def test_lattice_report_base():
    rep = lattice_report(Q)
    assert rep["rankT"] == 10
    assert rep["rankK"] == 8
    assert len(Q.arrows) - len(Q.vertices) + 1 == rep["rankT"]
    with pytest.raises(ValueError):
        lattice_report(quiver.QuiverPresentation(["u", "v"], [("a", 0, 1)]))


def test_character_entries_must_be_integers():
    with pytest.raises(TypeError):
        StabilityCharacter([1.0] * 9)
    from fractions import Fraction as F

    with pytest.raises(TypeError):
        StabilityCharacter([F(1, 2)] + [0] * 8)
    with pytest.raises(TypeError):
        theta_generic_quiver(Q, [True] * 9)


def test_strong_convexity():
    assert strong_convexity_pairings() == [3] * 27
    assert strong_convexity_check()


def test_effective_cone_interior():
    rho = quiver.rho_weight_matrix()
    action = WeightAction(rho)
    assert action.ambient_rank == 19
    column_sums = tuple(sum(rho.entry(i, j) for i in range(27)) for j in range(27))
    assert column_sums == (3,) * 27
    # nonempty stable locus: the column sums lie in the interior of the
    # cone of all weight rows, the origin and a single row do not
    for chi, inside in ((column_sums, True), ((0,) * 27, False), (rho.row(0), False)):
        assert strictly_conic_feasible(list(rho.entries), chi,
                                       ambient_rank=action.ambient_rank) == inside


def test_canonical_triviality():
    assert canonical_triviality_check(Q)
    smaller = quiver.QuiverPresentation(Q.vertices, Q.arrows[1:])
    assert not canonical_triviality_check(smaller)
    # net degree per vertex: -3 on the left column, 0 in the middle, +3 right
    flow = [0] * 9
    for _l, s, t in Q.arrows:
        flow[t] += 1
        flow[s] -= 1
    assert flow == [-3, -3, -3, 0, 0, 0, 3, 3, 3]


def test_irrelevant_ideal_invariant_under_coordinate_permutation():
    # reordering the arrows permutes the generators accordingly
    rng = random.Random(18)
    perm = list(range(18))
    rng.shuffle(perm)
    permuted = quiver.QuiverPresentation(Q.vertices, [Q.arrows[perm[i]] for i in range(18)])
    _count, relevant = scan_full_rank_subsets(Q, SPECIAL_THETA)
    _count_p, relevant_p = scan_full_rank_subsets(permuted, SPECIAL_THETA)
    inverse = {perm[i]: i for i in range(18)}
    mapped = {tuple(sorted(inverse[v] for v in g)) for g in relevant}
    assert mapped == set(relevant_p)


ARROW_BIT = [1 << a for a in range(18)]


def _layer_automorphisms():
    """The 216 vertex permutations of Q that permute each column of three
    vertices (S3 x S3 x S3), with the arrow permutation each induces:
    consecutive columns are joined by all nine arrows, so every one of
    them is an automorphism."""
    arrow_at = {(s, t): a for a, (_label, s, t) in enumerate(Q.arrows)}
    layers = [[quiver.vertex_id(i, j) for i in range(3)] for j in range(3)]
    out = []
    for images in product(permutations(range(3)), repeat=3):
        sigma = [0] * 9
        for layer, image in zip(layers, images):
            for v, k in zip(layer, image):
                sigma[v] = layer[k]
        arrows = [arrow_at[sigma[s], sigma[t]] for _label, s, t in Q.arrows]
        out.append((sigma, arrows))
    return out


def _seeded_cone_characters(count, seed):
    """Generic characters in the cone: positive combinations of the arrow
    weights, drawn until theta_generic_quiver holds."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        theta = [0] * 9
        for _label, s, t in Q.arrows:
            c = rng.randint(1, 40)
            theta[s] -= c
            theta[t] += c
        if theta_generic_quiver(Q, theta):
            out.append(tuple(theta))
    return out


def test_irrelevant_ideal_is_equivariant_under_the_layer_automorphisms():
    # relevant(sigma theta) = sigma(relevant(theta)) for each of the 216
    # automorphisms, and the 72 that fix SPECIAL_THETA fix its generators
    automorphisms = _layer_automorphisms()
    assert len(automorphisms) == 216
    assert all(sorted(arrows) == list(range(18)) for _sigma, arrows in automorphisms)
    fixing = 0
    for theta in [SPECIAL_THETA.theta] + _seeded_cone_characters(3, 72):
        count, relevant = scan_full_rank_subsets(Q, theta)
        assert count == 8748 and relevant
        for sigma, arrows in automorphisms:
            moved = [0] * 9
            for v, value in enumerate(theta):
                moved[sigma[v]] = value
            _count, image = scan_full_rank_subsets(Q, moved)
            bit_of = [1 << a for a in arrows].__getitem__
            expected = {sum(map(bit_of, g)) for g in relevant}
            assert len(image) == len(relevant)
            assert {sum(map(ARROW_BIT.__getitem__, g)) for g in image} == expected
            if theta == SPECIAL_THETA.theta and moved == list(theta):
                fixing += 1
                assert image == relevant and len(relevant) == 1053
    assert fixing == 72


def test_forest_scan_on_a_disconnected_multigraph():
    # two parallel arrows 0 -> 1, one arrow 2 -> 3 and an isolated vertex
    # 4: ambient rank 2 < 4 vertices - 1, so the full-rank subsets are the
    # maximal spanning forests, and theta must vanish on every component
    q = quiver.QuiverPresentation(
        ["0", "1", "2", "3", "4"], [("a", 0, 1), ("b", 0, 1), ("c", 2, 3)])
    assert WeightAction.from_quiver(q).ambient_rank == 2
    assert scan_full_rank_subsets(q, (-1, 1, -2, 2, 0)) == (2, [(0, 2), (1, 2)])
    assert scan_full_rank_subsets(q, (-1, 1, 2, -2, 0)) == (2, [])
    assert scan_full_rank_subsets(q, (-1, 1, -1, 2, -1)) == (2, [])


@pytest.mark.parametrize("n", [7, 12, 20, 40, 70])
def test_forest_index_on_long_cycles(n):
    # an oriented n-cycle plus a chord and a loop: n + (n // 2)(n - n // 2)
    # forests, whose head sides reach past a 64-bit word of vertices
    arrows = [(f"a{v}", v, (v + 1) % n) for v in range(n)]
    arrows += [("chord", 0, n // 2), ("loop", 1, 1)]
    q = quiver.QuiverPresentation([str(v) for v in range(n)], arrows)
    rng = random.Random(n)
    for _ in range(3):
        theta = [0] * n  # a positive arrow-weight combination, inside the cone
        for _label, s, t in arrows:
            c = rng.randint(1, 3)
            theta[s] -= c
            theta[t] += c
        count, relevant = scan_full_rank_subsets(q, theta)
        assert relevant and (count, relevant) == forest_scan(q, theta)
        assert count == n + (n // 2) * (n - n // 2)


def test_coordinate_point_indices_must_be_ints():
    for bad in (1.5, True, "1"):
        with pytest.raises(TypeError):
            CoordinatePoint(18, [0, bad])
    assert CoordinatePoint.from_values([1, 0, "1/2", Fraction(0)]).support == {0, 2}
