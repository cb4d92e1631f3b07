import random
from fractions import Fraction

import pytest

from qgm import quiver
from qgm.quiver import (
    DegeneratePotential,
    IncompatiblePairing,
    Path,
    Potential,
    QuiverPresentation,
    RelationSet,
    UnknownVertex,
    canonical_back_arrow_pairing,
    canonical_cycles,
    canonical_quiver,
    cyclic_derivative,
    enumerate_paths,
    incidence_weight_rows,
    potential_from_relations,
    proportional_relations,
    relations_from_potential,
    rho_weight_matrix,
    rolled_up_quiver,
    toric_relation_arrow_pairs,
    toric_relation_set,
)

from helpers import CANONICAL_WEIGHT_ROWS, TORIC_PAIRS, nonzero_rational


def test_canonical_quiver_shape():
    q = canonical_quiver()
    assert len(q.vertices) == 9
    assert len(q.arrows) == 18
    assert q.vertices == ("0,0", "1,0", "2,0", "0,1", "1,1", "2,1", "0,2", "1,2", "2,2")
    label, src, tgt = q.arrows[0]
    assert label == "x_0_0_0"
    assert (q.vertices[src], q.vertices[tgt]) == ("0,0", "0,1")


def test_canonical_weight_rows_pin_the_arrow_order():
    # consistency check (a): each frozen weight row is the signed
    # incidence vector of the arrow assigned to it
    q = canonical_quiver()
    m = incidence_weight_rows(q)
    assert [list(r) for r in m.entries] == CANONICAL_WEIGHT_ROWS
    assert all(sum(row) == 0 for row in m.entries)


def test_toric_pairs_pin_the_arrow_order():
    # consistency check (b): the distinguished monomial relations are
    # composable length-two paths landing on the frozen coordinate pairs
    q = canonical_quiver()
    pairs = toric_relation_arrow_pairs()
    assert sorted(pairs) == sorted(TORIC_PAIRS)
    for first, second in pairs:
        assert q.target(first) == q.source(second)


def test_degrees():
    q = canonical_quiver()
    qt = rolled_up_quiver()
    for v in range(9):
        out_q = sum(1 for (_l, s, _t) in q.arrows if s == v)
        in_q = sum(1 for (_l, _s, t) in q.arrows if t == v)
        level = v // 3
        assert (in_q, out_q) == {0: (0, 3), 1: (3, 3), 2: (3, 0)}[level]
        out_qt = sum(1 for (_l, s, _t) in qt.arrows if s == v)
        in_qt = sum(1 for (_l, _s, t) in qt.arrows if t == v)
        assert (in_qt, out_qt) == (3, 3)


def test_rolled_up_quiver_has_27_cycles():
    cycles = canonical_cycles()
    assert len(cycles) == 27
    assert len(set(cycles)) == 27
    qt = rolled_up_quiver()
    for word in cycles:
        # composable and closing up
        for later, earlier in zip(word, word[1:]):
            assert qt.source(later) == qt.target(earlier)
        assert qt.source(word[-1]) == qt.target(word[0])


def test_enumerate_paths():
    q = canonical_quiver()
    qt = rolled_up_quiver()
    assert len(enumerate_paths(q, "0,0", "0,2", 2)) == 3
    assert enumerate_paths(q, "0,2", "0,0", 1) == []
    cycles = enumerate_paths(qt, "0,0", "0,0", 3)
    assert len(cycles) == 9
    for i in range(3):
        for j in range(3):
            assert len(enumerate_paths(q, f"{i},0", f"{j},2", 2)) == 3
    with pytest.raises(UnknownVertex):
        enumerate_paths(q, "9,9", "0,0", 1)


def test_path_composition_is_associative():
    qt = rolled_up_quiver()
    rng = random.Random(5)
    all_paths1 = [Path(qt, (i,)) for i in range(27)]
    for _ in range(50):
        a = rng.choice(all_paths1)
        bs = [p for p in all_paths1 if p.target == a.source]
        b = rng.choice(bs)
        cs = [p for p in all_paths1 if p.target == b.source]
        c = rng.choice(cs)
        left = quiver.compose(qt, quiver.compose(qt, a, b), c)
        right = quiver.compose(qt, a, quiver.compose(qt, b, c))
        assert left == right
        assert left.source == c.source and left.target == a.target


def _triangle():
    # a: u -> v, b: v -> w, c: w -> u
    return QuiverPresentation(["u", "v", "w"], [("a", 0, 1), ("b", 1, 2), ("c", 2, 0)])


def test_cyclic_derivative_examples():
    t = _triangle()
    phi = Potential(t, [(1, ("c", "b", "a"))])
    d_b = cyclic_derivative(phi, "b")
    assert d_b == [(Fraction(1), Path(t, ("a", "c")))]
    assert cyclic_derivative(phi, "a") == [(Fraction(1), Path(t, ("c", "b")))]
    phi2 = Potential(t, [(2, ("c", "b", "a"))])
    assert cyclic_derivative(phi2, "a") == [(Fraction(2), Path(t, ("c", "b")))]
    # derivative along an arrow not present is zero
    q2 = QuiverPresentation(["u", "v", "w"],
                            [("a", 0, 1), ("b", 1, 2), ("c", 2, 0), ("d", 0, 0)])
    phi3 = Potential(q2, [(1, ("c", "b", "a"))])
    assert cyclic_derivative(phi3, "d") == []


def test_cyclic_derivative_is_rotation_invariant():
    t = _triangle()
    words = [("c", "b", "a"), ("b", "a", "c"), ("a", "c", "b")]
    pots = [Potential(t, [(3, w)]) for w in words]
    assert pots[0] == pots[1] == pots[2]
    for arrow in "abc":
        outs = [cyclic_derivative(p, arrow) for p in pots]
        assert outs[0] == outs[1] == outs[2]


def test_potential_merges_and_drops_zeros():
    t = _triangle()
    phi = Potential(t, [(1, ("c", "b", "a")), (2, ("b", "a", "c")), (-3, ("a", "c", "b"))])
    assert phi.terms == {}


def test_toric_relation_potential():
    rs = toric_relation_set()
    phi = potential_from_relations(rs, canonical_back_arrow_pairing())
    assert len(phi.terms) == 9
    back = relations_from_potential(phi, quiver.back_arrow_labels())
    assert back == rs


def test_generic_relation_set_gives_27_term_potential_and_exact_roundtrip():
    q = canonical_quiver()
    rng = random.Random(6)
    for _ in range(10):
        rels = {}
        for i in range(3):
            for j in range(3):
                src, tgt = quiver.vertex_id(i, 0), quiver.vertex_id(j, 2)
                paths = enumerate_paths(q, src, tgt, 2)
                rels[(src, tgt)] = [[(nonzero_rational(rng), p) for p in paths]]
        rset = RelationSet(q, rels)
        phi = potential_from_relations(rset, canonical_back_arrow_pairing())
        assert len(phi.terms) == 27
        back = relations_from_potential(phi, quiver.back_arrow_labels())
        assert back == rset
        assert proportional_relations(back, rset)


def test_single_relation_rolls_into_two_cyclic_terms():
    # r = p1 + p2 paired with back arrow b gives [b p1] + [b p2]
    q = QuiverPresentation(["u", "v1", "v2", "w"],
                           [("a1", 0, 1), ("a2", 0, 2), ("c1", 1, 3), ("c2", 2, 3)])
    rolled = QuiverPresentation(
        ["u", "v1", "v2", "w"],
        list(q.arrows) + [("b", 3, 0)])
    p1 = Path(q, ("c1", "a1"))
    p2 = Path(q, ("c2", "a2"))
    rs = RelationSet(q, {(0, 3): [[(1, p1), (1, p2)]]})
    phi = potential_from_relations(rs, {"b": (0, 3)}, rolled=rolled)
    b = rolled.arrow_index("b")
    words = set(phi.terms)
    expected = set()
    for p in (p1, p2):
        moved = tuple(rolled.arrow_index(q.arrows[i][0]) for i in p.arrows)
        word = (b,) + moved
        expected.add(min(word[m:] + word[:m] for m in range(3)))
    assert words == expected
    assert all(c == Fraction(1) for c in phi.terms.values())


def test_degenerate_potential_raises():
    rs = toric_relation_set()
    phi = potential_from_relations(rs, canonical_back_arrow_pairing())
    # remove every term through one back arrow
    qt = rolled_up_quiver()
    b = qt.arrow_index("x_0_2_0")
    kept = [(c, w) for w, c in phi.terms.items() if b not in w]
    phi2 = Potential(qt, kept)
    with pytest.raises(DegeneratePotential):
        relations_from_potential(phi2, quiver.back_arrow_labels())


def test_incompatible_pairing_raises():
    rs = toric_relation_set()
    bad = dict(canonical_back_arrow_pairing())
    # point one back arrow at a pair it does not reverse
    bad["x_0_2_0"] = (quiver.vertex_id(1, 0), quiver.vertex_id(1, 2))
    with pytest.raises(IncompatiblePairing):
        potential_from_relations(rs, bad)


def test_incidence_weight_rows_of_rolled_up_quiver():
    from qgm.exactlin import rank

    m = incidence_weight_rows(rolled_up_quiver())
    assert (m.rows, m.cols) == (27, 9)
    assert all(sum(row) == 0 for row in m.entries)
    assert rank(m) == 8


def test_rho_weight_matrix_shape_and_rank():
    from qgm.exactlin import rank

    r = rho_weight_matrix()
    assert (r.rows, r.cols) == (27, 27)
    assert all(sum(row) == 3 for row in r.entries)
    assert all(sum(r.entry(i, c) for i in range(27)) == 3 for c in range(27))
    assert rank(r) == 19


def test_arrow_endpoints_must_be_ints():
    for src, tgt in ((0.7, 1), (0, 1.9), (True, 1), (0, "1")):
        with pytest.raises(TypeError):
            QuiverPresentation(["a", "b"], [("x", src, tgt)])


def test_relation_and_potential_coefficients_reject_floats():
    q = canonical_quiver()
    path = Path(q, toric_relation_arrow_pairs()[0][::-1])
    with pytest.raises(TypeError):
        RelationSet(q, {(path.source, path.target): [[(0.1, path)]]})
    with pytest.raises(TypeError):
        Potential(rolled_up_quiver(), [(0.1, canonical_cycles()[0])])
